"""Binomial statistics, basis conversion, S_r means, and truncated series."""

import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitstat import charpoly
from orbitstat.charpoly import (
    EXPANSION_LIMIT,
    CharPoly,
    _mul_truncated,
    _stirling2_row,
    binom_eval,
    sn_expectation_closed,
)
from orbitstat.errors import CapExceeded, prints
from orbitstat.frobenius_stats import DEFAULT_ENUM_CAP, _series_sum
from orbitstat.symmetric import MultiIndex, multi_indices_up_to

from coset_walk import evaluate, sn_expectation_oracle


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
        assert evaluate(square, ct) == x * x


@given(st.integers(0, 4), st.integers(0, 9))
def test_monomial_conversion_matches_powers(a, x):
    P = CharPoly.from_monomial({3: a})
    ct = MultiIndex.from_dict({3: x} if x else {})
    assert evaluate(P, ct) == Fraction(x) ** a


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 6), st.integers(0, 6))
def test_mixed_monomials(a, b, x, y):
    P = CharPoly.from_monomial({1: a, 2: b})
    ct = MultiIndex.from_dict({k: v for k, v in ((1, x), (2, y)) if v})
    assert evaluate(P, ct) == Fraction(x) ** a * Fraction(y) ** b


def test_linear_structure():
    P = CharPoly.parse("3*binom(2:1) - binom(1:2)")
    assert P.terms == {mi("2:1"): 3, mi("1:2"): -1}
    ct = mi("1:2,2:2")
    assert evaluate(P, ct) == 3 * 2 - 1


def test_parse_and_str():
    P = CharPoly.parse("X1 + 2*binom(2:1)")
    assert evaluate(P, mi("1:3,2:2")) == 3 + 2 * 2
    assert evaluate(CharPoly.parse("1/2*X2^2"), mi("2:3")) == Fraction(9, 2)
    assert CharPoly.parse("binom(1:2)") == CharPoly.binom(mi("1:2"))
    assert CharPoly.parse("3") == CharPoly.binom(MultiIndex(), 3)
    round_trip = CharPoly.parse(str(P))
    assert round_trip == P
    for bad in ("", "Y1", "binom(2)", "X0"):
        with pytest.raises(ValueError):
            CharPoly.parse(bad)


@pytest.mark.parametrize(
    "text,words",
    [
        ("X1^999999", ["999999 binomial terms", f"limit {EXPANSION_LIMIT}"]),
        ("X1^100*X2^100*X3^100*X4^100", ["X1^100*X2^100*X3^100*X4^100", "100000000"]),
        ("2*X1^40*X2^40*X3^40 + X1", ["X1^40*X2^40*X3^40", "64000"]),
        ("X1^3000", ["3000!", f"{sys.get_int_max_str_digits()} digits"]),
        ("X1^1000*X1^800", ["X1^1800", "1800!"]),
        ("X1^1500", ["X1^1500", f"a coefficient of more than {sys.get_int_max_str_digits()}"]),
    ],
    ids=[
        "one-variable", "four-variables", "in-a-sum", "factorial", "merged-powers",
        "largest-weight",
    ],
)
def test_an_expansion_past_its_limit_is_refused_before_it_is_built(monkeypatch, text, words):
    def refuse(n):
        raise AssertionError(f"Stirling row {n} built")

    monkeypatch.setattr(charpoly, "_stirling2_row", refuse)
    with pytest.raises(CapExceeded) as info:
        CharPoly.parse(text)
    message = str(info.value)
    assert "\n" not in message and "no flag" in message
    for word in words:
        assert word in message


def test_the_largest_power_that_prints_keeps_its_statistic():
    # every S(1484, j) * j! prints, and the largest S(1485, j) * j! has 4302
    # digits, within a digit of the limit, where the bound from a alone does
    # not refuse: both are built, and the caller sees the whole statistic
    assert sys.get_int_max_str_digits() == 4300
    P = CharPoly.parse("X1^1484")
    assert len(P.terms) == 1484
    assert all(prints(c.numerator) and c.denominator == 1 for c in P.terms.values())
    assert str(P).startswith("binom(1:1) + ") and str(P).endswith("*binom(1:1484)")
    for x in range(5):
        assert evaluate(P, MultiIndex.from_dict({1: x})) == x ** 1484
    assert not all(prints(c.numerator) for c in CharPoly.parse("X1^1485").terms.values())


def test_a_long_statistic_parses_in_linear_time():
    text = "+".join(f"binom(1:{m})" for m in range(1, 4001))
    start = time.perf_counter()
    P = CharPoly.parse(text)
    assert time.perf_counter() - start < 1.0
    assert list(P.terms) == [mi(f"1:{m}") for m in range(1, 4001)]


def test_a_parsed_sum_keeps_each_term_in_place_until_it_cancels():
    # the work caps of the routes spend term by term, in this order
    P = CharPoly.parse("binom(1:1) + 2*binom(2:1) - X1 + binom(3:1) - binom(2:1) + X1")
    assert list(P.terms.items()) == [(mi("2:1"), 1), (mi("3:1"), 1), (mi("1:1"), 1)]
    assert CharPoly.parse("binom(1:1) - X1") == CharPoly({})


@pytest.mark.parametrize(
    "text",
    [
        "X1^1486-X1^1486",
        "X1^3000-X1^3000",
        "1/2*X1^3000+binom(1:1)+X1^3000-3/2*X1^3000",
        "X1^100*X2^100*X3^100*X4^100-X4^100*X3^100*X2^100*X1^100",
        "X1^1000*X1^800-X1^1800",
        "0*X1^3000",
    ],
)
def test_a_refused_monomial_whose_coefficients_cancel_is_dropped(monkeypatch, text):
    def refuse(n):
        raise AssertionError(f"Stirling row {n} built")

    monkeypatch.setattr(charpoly, "_stirling2_row", refuse)
    P = CharPoly.parse(text)
    assert P.terms == ({mi("1:1"): 1} if "binom" in text else {})


_TERM_TEXTS = st.one_of(
    st.sampled_from(["X1", "X2^2", "X1*X2", "X1^2*X3", "X2^0", "binom()"]),
    st.sampled_from(list(multi_indices_up_to(3))).map(lambda mu: f"binom({mu})"),
)


@given(
    st.lists(
        st.tuples(st.sampled_from("+-"), st.sampled_from(["", "2*", "1/3*", "0*"]), _TERM_TEXTS),
        min_size=1,
        max_size=6,
    )
)
def test_a_statistic_of_expandable_terms_is_their_sum_in_place(chunks):
    # term by term, each monomial expanded where it stands, whether or not
    # its coefficients cancel
    text = "".join(sign + coeff + term for sign, coeff, term in chunks)
    want: dict = {}
    for sign, coeff, term in chunks:
        for mu, c in CharPoly.parse(sign + coeff + term).terms.items():
            want[mu] = want.get(mu, 0) + c
            if not want[mu]:
                del want[mu]
    assert list(CharPoly.parse(text).terms.items()) == list(want.items()), text


def test_an_expansion_at_its_limit_is_built():
    P = CharPoly.parse("X1^100*X2^100")
    assert len(P.terms) == EXPANSION_LIMIT
    assert P.terms[mi("1:100,2:100")] == math.factorial(100) ** 2


@given(
    st.dictionaries(
        st.sampled_from(list(multi_indices_up_to(4))),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        max_size=6,
    )
)
def test_str_parses_back(terms):
    P = CharPoly(terms)
    assert CharPoly.parse(str(P)) == P


def test_signs():
    assert str(CharPoly.parse("X1-X2")) == "binom(1:1) + -1*binom(2:1)"
    assert CharPoly.parse("X1+-X2") == CharPoly.parse("X1-X2")
    assert CharPoly.parse("-X1--1/2*X2") == CharPoly.parse("1/2*X2-X1")
    for bad in ("X1+", "X1-", "-", "X1+-"):
        with pytest.raises(ValueError, match="dangling sign"):
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


# -- truncated series on exponent tuples --------------------------------------

def nonzero(series):
    """The series without its zero coefficients, for comparisons."""
    return {a: c for a, c in series.items() if c}


ONE = {(0,): Fraction(1)}
EPS = {(1,): Fraction(1)}


def test_eps_nilpotency():
    top = (2,)  # eps^3 = 0
    square = _mul_truncated(EPS, EPS, top)
    assert square == {(2,): 1}
    assert _mul_truncated(square, EPS, top) == {}


def test_difference_of_squares():
    top = (2,)
    plus = {(0,): Fraction(1), (1,): Fraction(1)}
    minus = {(0,): Fraction(1), (1,): Fraction(-1)}
    assert nonzero(_mul_truncated(plus, minus, top)) == {(0,): 1, (2,): -1}


def test_two_variable_orders():
    top = (1, 2)  # eps_0^2 = 0, eps_1^3 = 0
    e0 = {(1, 0): Fraction(1)}
    e1 = {(0, 1): Fraction(1)}
    assert _mul_truncated(e0, e0, top) == {}
    assert _mul_truncated(e1, e1, top) == {(0, 2): 1}
    assert _mul_truncated(e0, e1, top) == {(1, 1): 1}
    assert _mul_truncated(_mul_truncated(e1, e1, top), e1, top) == {}


def test_t_weight_cap_truncates():
    # (e, a_1, a_2) stands for eps^e t_1^a_1 t_2^a_2 with e = a_1 + 2*a_2, so
    # with d = 1 the weight cap 2 is the box e <= 2
    top = (2, 2, 2)
    t1 = {(1, 1, 0): Fraction(1)}
    t2 = {(2, 0, 1): Fraction(1)}
    assert _mul_truncated(t1, t1, top) == {(2, 2, 0): 1}  # weight 2 survives
    assert _mul_truncated(t1, t2, top) == {}  # weight 3 dies


def series_identity(d, q, mu, m):
    """The cycle-index exponential on the ensemble's Euler product: under a
    bound m >= d, which binds no f of degree d, the series of binom(X, mu)
    sums to q^d times the S_d mean over the q^d monic f."""
    count = q ** d
    got = _series_sum(d, q, CharPoly.binom(mu), m, DEFAULT_ENUM_CAP)
    return got == (count * sn_expectation_closed(mu, d), count)


def test_series_identity_small_cases():
    assert series_identity(1, 2, mi("1:1"), 1)
    assert series_identity(3, 2, mi("1:1,2:1"), 3)
    assert series_identity(4, 3, mi("2:2"), 4)


def test_series_identity_on_the_whole_small_grid():
    # the grid holds bounds past d, mu past d, and the empty mu
    bad = [
        (q, d, m, str(mu))
        for q in (2, 3, 4)
        for d in range(1, 6)
        for m in (d, d + 2)
        for mu in multi_indices_up_to(6)
        if not series_identity(d, q, mu, m)
    ]
    assert bad == []


def test_series_identity_fails_on_a_wrong_closed_form(monkeypatch):
    from orbitstat import frobenius_stats, verify

    wrong = mi("1:1,2:1")

    def closed(mu, r):
        value = sn_expectation_closed(mu, r)
        return value * 2 if mu == wrong else value

    monkeypatch.setattr(frobenius_stats, "sn_expectation_closed", closed)
    assert not verify.check_generating_series(qs=(2,), degrees=(4,)).ok
    assert verify.check_generating_series(qs=(2,), degrees=(4,), nmax=2).ok  # mu is cut away


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
    row = _stirling2_row(n)
    for k in sorted({0, 1, 2, n // 3, n // 2, max(n - 1, 0), n, n + 1}):
        explicit = sum(
            (-1) ** (k - j) * math.comb(k, j) * j ** n for j in range(k + 1)
        ) // math.factorial(k)
        assert (row[k] if k <= n else 0) == explicit
