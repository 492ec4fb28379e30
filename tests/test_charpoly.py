"""Binomial statistics, basis conversion, S_r means, and truncated series."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitstat.charpoly import (
    CharPoly,
    NilSeries,
    _stirling2,
    binom_eval,
    g_series_identity_check,
    sn_expectation_closed,
    sn_expectation_oracle,
)
from orbitstat.symmetric import MultiIndex, multi_indices_up_to


def mi(text):
    return MultiIndex.parse(text)


# -- binomial evaluation -----------------------------------------------------

def test_binom_eval_examples():
    assert binom_eval(mi("2:1"), mi("2:2")) == 2
    assert binom_eval(mi("1:2"), mi("1:3")) == 3
    assert binom_eval(mi("1:1,2:1"), mi("1:2,2:3")) == 6
    assert binom_eval(mi("3:1"), mi("1:5")) == 0
    assert binom_eval(MultiIndex(), mi("5:1")) == 1


def test_indicator_at_full_norm():
    # when |mu| equals the total size, binom(X, mu) is 1 exactly on the class
    mu = mi("1:1,2:1")
    assert binom_eval(mu, mi("1:1,2:1")) == 1
    assert binom_eval(mu, mi("3:1")) == 0
    assert binom_eval(mu, mi("1:3")) == 0


# -- CharPoly algebra --------------------------------------------------------

def test_power_sums_expand_in_binomials():
    # X^2 = X + 2*binom(X, 2), checked by evaluation
    square = CharPoly.from_monomial({2: 2})
    for x in range(7):
        ct = MultiIndex.from_dict({2: x} if x else {})
        assert square.evaluate(ct) == x * x


@given(st.integers(0, 4), st.integers(0, 9))
def test_monomial_conversion_matches_powers(a, x):
    P = CharPoly.from_monomial({3: a})
    ct = MultiIndex.from_dict({3: x} if x else {})
    assert P.evaluate(ct) == Fraction(x) ** a


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 6), st.integers(0, 6))
def test_mixed_monomials(a, b, x, y):
    P = CharPoly.from_monomial({1: a, 2: b})
    ct = MultiIndex.from_dict({k: v for k, v in ((1, x), (2, y)) if v})
    assert P.evaluate(ct) == Fraction(x) ** a * Fraction(y) ** b


def test_linear_structure():
    P = CharPoly.binom(mi("2:1"), 3) - CharPoly.binom(mi("1:2"))
    ct = mi("1:2,2:2")
    assert P.evaluate(ct) == 3 * 2 - 1


def test_parse_and_str():
    P = CharPoly.parse("X1 + 2*binom(2:1)")
    assert P.evaluate(mi("1:3,2:2")) == 3 + 2 * 2
    assert CharPoly.parse("1/2*X2^2").evaluate(mi("2:3")) == Fraction(9, 2)
    assert CharPoly.parse("binom(1:2)") == CharPoly.binom(mi("1:2"))
    assert CharPoly.parse("3") == CharPoly.binom(MultiIndex(), 3)
    round_trip = CharPoly.parse(str(P))
    assert round_trip == P
    for bad in ("", "Y1", "binom(2)", "X0"):
        with pytest.raises(ValueError):
            CharPoly.parse(bad)


# -- symmetric group means ---------------------------------------------------

def test_sn_expectation_closed_values():
    assert sn_expectation_closed(mi("1:1"), 5) == 1
    assert sn_expectation_closed(mi("2:1"), 2) == Fraction(1, 2)
    assert sn_expectation_closed(mi("1:1,2:1"), 3) == Fraction(1, 2)
    assert sn_expectation_closed(mi("3:2"), 6) == Fraction(1, 18)
    assert sn_expectation_closed(mi("4:1"), 3) == 0
    assert sn_expectation_closed(MultiIndex(), 0) == 1


def test_sn_expectation_matches_oracle():
    for r in range(0, 7):
        for mu in multi_indices_up_to(r + 1):
            assert sn_expectation_closed(mu, r) == sn_expectation_oracle(mu, r)


def test_sn_expectation_is_independent_of_r_once_it_fits():
    mu = mi("1:2,3:1")
    values = {sn_expectation_closed(mu, r) for r in range(mu.norm, 10)}
    assert values == {Fraction(1, 6)}


# -- truncated nilpotent series ----------------------------------------------

def test_eps_nilpotency():
    orders = (3,)
    e = NilSeries.eps(orders, 0)
    assert e * e * e == NilSeries.constant(orders, 0)
    assert (e * e).coefficient((2,)) == 1


def test_difference_of_squares():
    orders = (3,)
    one = NilSeries.constant(orders, 1)
    e = NilSeries.eps(orders, 0)
    assert (one + e) * (one - e) == one - e * e


def test_exp_truncates_at_the_order():
    orders = (3,)
    e = NilSeries.eps(orders, 0)
    g = e.exp()
    assert g.coefficient((0,)) == 1
    assert g.coefficient((1,)) == 1
    assert g.coefficient((2,)) == Fraction(1, 2)


@settings(max_examples=30)
@given(st.integers(-3, 3), st.integers(-3, 3))
def test_exp_is_a_homomorphism(a, b):
    orders = (4,)
    x = NilSeries.eps(orders, 0) * Fraction(a)
    y = (NilSeries.eps(orders, 0) * NilSeries.eps(orders, 0)) * Fraction(b)
    assert (x + y).exp() == x.exp() * y.exp()


def test_two_variable_orders():
    orders = (2, 3)
    e0 = NilSeries.eps(orders, 0)
    e1 = NilSeries.eps(orders, 1)
    assert e0 * e0 == NilSeries.constant(orders, 0)
    assert (e1 * e1).coefficient((0, 2)) == 1
    assert (e0 * e1).coefficient((1, 1)) == 1


def test_t_weight_cap_truncates():
    orders = (2,)
    t1 = NilSeries.t_var(orders, 1, t_cap=2)
    t2 = NilSeries.t_var(orders, 2, t_cap=2)
    assert (t1 * t1).coefficient((0,), ((1, 2),)) == 1  # weight 2 survives
    assert t1 * t2 == NilSeries.constant(orders, 0, t_cap=2)  # weight 3 dies


def test_flatten_eps_groups_by_t_monomial():
    orders = (3,)
    s = NilSeries.eps(orders, 0) + NilSeries.eps(orders, 0, power=2) * Fraction(
        1, 2
    )
    flat = s.flatten_eps()
    assert flat == {(): Fraction(3, 2)}


def test_series_identity_small_cases():
    assert g_series_identity_check(1, 2, 4)
    assert g_series_identity_check(2, 3, 6)
    assert g_series_identity_check(1, 4, 4)


def test_stirling_identity_against_factorial_moments():
    """Sum over j of S(a, j) * j! * C(r, j) recovers r^a; the S_r mean of
    X_1^a for r large behaves as the a-th moment of a Poisson(1) variable
    restricted by the truncation, which at a = 2 gives 2."""
    # direct check of the a = 2 case through the group mean
    P = CharPoly.from_monomial({1: 2})
    total = Fraction(0)
    for mu, c in P.terms.items():
        total += c * sn_expectation_closed(mu, 8)
    assert total == 2  # E[X^2] for Poisson(1)
    assert math.isclose(float(total), 2.0)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 30, 200, 1500])
def test_stirling2_matches_inclusion_exclusion(n):
    for k in sorted({0, 1, 2, n // 3, n // 2, max(n - 1, 0), n, n + 1}):
        explicit = sum(
            (-1) ** (k - j) * math.comb(k, j) * j ** n for j in range(k + 1)
        ) // math.factorial(k)
        assert _stirling2(n, k) == explicit
