"""Statistics attached to one polynomial, and ensemble accumulation."""

import functools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitstat import frobenius_stats, polynomial
from orbitstat.charpoly import CharPoly, sn_expectation_closed
from orbitstat.errors import CapExceeded
from orbitstat.finite_field import make_field
from orbitstat.frobenius_stats import (
    block_spec,
    chi_formula,
    chi_oracle,
    chi_symbolic,
    ensemble_formula,
    ensemble_sum,
    factorization_types,
    parse_predicate,
    predicate_max_multiplicity,
    predicate_squarefree,
    xk_of_f,
)
from orbitstat.polynomial import (
    Poly,
    divisors,
    enumerate_irreducibles,
    enumerate_monic,
    factor,
    monic_from_index,
    parse_poly,
)
from orbitstat.symmetric import CosetSpec, MultiIndex, multi_indices_up_to, partitions

from coset_walk import equal_expectation_check, expected_k_cycles
from symbol_sum import SymbolSum

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)


def mi(text):
    return MultiIndex.parse(text)


def binom(text):
    return CharPoly.binom(mi(text))


# -- structure ---------------------------------------------------------------

def test_block_spec_follows_the_factorization():
    f = parse_poly("t^4+t", F2)
    assert str(block_spec(f)) == "1^1,1^1,2^1"
    assert block_spec(f) == factor(f).spec

    assert str(block_spec(parse_poly("t^2", F2))) == "1^2"

    s3 = block_spec(parse_poly("t^6+t^4+t^2", F2))  # t^2 * (t^2+t+1)^2
    assert str(s3) == "1^2,2^2"
    assert s3.n == 6


def test_block_spec_requires_monic():
    for text, ctx in (("2*t", F3), ("0", F2)):
        f = parse_poly(text, ctx)
        for route in (block_spec, lambda f: chi_symbolic(f, binom("1:1"))):
            with pytest.raises(ValueError, match=re.escape(f"not {text!r}")):
                route(f)


def test_constant_has_empty_structure():
    s = block_spec(parse_poly("1", F2))
    assert s.blocks == ()
    assert s.n == 0


# -- single-polynomial statistics --------------------------------------------

def formula_at(text, mu, ctx=F2):
    return chi_formula(block_spec(parse_poly(text, ctx)), binom(mu))


def test_chi_frozen_values():
    assert formula_at("t^2", "2:1") == Fraction(1, 2)
    assert formula_at("t^2", "1:1") == 1
    assert formula_at("t^2+t", "2:1") == 0
    assert formula_at("t^2+t+1", "2:1") == 1
    # an irreducible of degree k always carries exactly one k-cycle
    assert formula_at("t^3+t+1", "3:1") == 1


def test_chi_methods_and_oracle_agree_small():
    for d in range(1, 4):
        for f in enumerate_monic(d, F2):
            spec = block_spec(f)
            for mu in multi_indices_up_to(d):
                P = CharPoly.binom(mu)
                a = chi_formula(spec, P)
                b = chi_symbolic(f, P)
                c = chi_oracle(spec, P)
                assert a == b == c, (str(f), str(mu))


def test_chi_rejects_bad_input():
    zero = parse_poly("0", F2)
    with pytest.raises(ValueError):
        block_spec(zero)
    with pytest.raises(ValueError):
        chi_symbolic(zero, binom("1:1"))


def test_chi_routes_are_linear():
    # a constant term, a rational coefficient and a negative one, on a
    # spec with a repeated block
    f = parse_poly("t^6+t^4+t^2", F2)
    spec = block_spec(f)
    P = CharPoly.parse("2*X1 - 1/3*binom(1:1,2:1) + 5") + CharPoly.binom(mi("2:1"), -3)
    want = (
        2 * formula_at("t^6+t^4+t^2", "1:1")
        - Fraction(1, 3) * formula_at("t^6+t^4+t^2", "1:1,2:1")
        + 5
        - 3 * formula_at("t^6+t^4+t^2", "2:1")
    )
    assert chi_formula(spec, P) == chi_symbolic(f, P) == chi_oracle(spec, P) == want


def test_xk_frozen_values():
    f = parse_poly("t^4+t", F2)
    assert xk_of_f(f, 1) == 2
    assert xk_of_f(f, 2) == 1
    assert xk_of_f(f, 3) == 0
    t2 = parse_poly("t^2", F2)
    assert xk_of_f(t2, 1) == 1
    assert xk_of_f(t2, 2) == Fraction(1, 2)
    with pytest.raises(ValueError):
        xk_of_f(f, 0)


def test_xk_equals_the_first_binomial_moment():
    for d in range(1, 5):
        for f in enumerate_monic(d, F3):
            spec = block_spec(f)
            for k in range(1, d + 1):
                val = xk_of_f(f, k)
                assert val == chi_formula(spec, CharPoly.binom(MultiIndex.from_dict({k: 1})))
                assert val == expected_k_cycles(spec, k)


@functools.cache
def full_expansion(ctx, mu):
    """(prefactor, SymbolSum) of the symbolic route with nothing dropped:
    prod_k S_k^(m_k) / (k^(m_k) m_k!) over every irreducible of degree
    dividing each k, expanded in full by SymbolSum.  It does not depend on f,
    so it is built once per (field, mu)."""
    total = SymbolSum.one(ctx)
    pref = Fraction(1)
    for k, m in mu.items():
        s_k = SymbolSum(
            ctx,
            {p ** (k // d): d for d in divisors(k) for p in enumerate_irreducibles(d, ctx)},
        )
        total = total.mul(s_k.pow(m))
        pref *= Fraction(1, k ** m * math.factorial(m))
    return pref, total


def test_symbolic_route_equals_the_full_expansion(monkeypatch):
    # the reduced expansion against the full one evaluated at f, with factor
    # refused, so the route is seen never to factor
    def refuse(f):
        raise AssertionError(f"the symbolic route factored {f}")

    monkeypatch.setattr(frobenius_stats, "factor", refuse)
    monkeypatch.setattr(polynomial, "factor", refuse)
    for ctx in (F2, F3, F4):
        for d in range(5):
            for f in enumerate_monic(d, ctx):
                for mu in multi_indices_up_to(d):
                    pref, full = full_expansion(ctx, mu)
                    got = chi_symbolic(f, CharPoly.binom(mu))
                    assert got == pref * full.evaluate(f), (ctx.q, str(f), str(mu))


def test_symbolic_route_is_zero_beyond_deg_f():
    # every key of the product has degree |mu|, so none divides f once
    # |mu| > deg f and the product step alone leaves the exact 0
    for ctx in (F2, F3):
        for d in range(4):
            for f in enumerate_monic(d, ctx):
                for mu in partitions(d + 1):
                    assert chi_symbolic(f, CharPoly.binom(mu)) == 0, (ctx.q, str(f), str(mu))


@st.composite
def products_of_powers(draw, ctx, dmax):
    """A monic f of degree 1..dmax drawn as a product of powers of random
    monic polynomials, so repeated and shared factors are common."""
    f = Poly.one(ctx)
    while f.degree < 1 or (f.degree < dmax and draw(st.booleans())):
        room = dmax - f.degree
        d = draw(st.integers(1, room))
        g = monic_from_index(d, ctx, draw(st.integers(0, ctx.q ** d - 1)))
        f = f * g ** draw(st.integers(1, room // d))
    return f


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([5, 7, 8, 9]), st.data())
def test_symbolic_route_equals_the_factored_route_beyond_the_oracle(q, data):
    # q^6 monics of degree 6 are out of the full expansion's reach: S_6 alone
    # has tens of thousands of terms at q = 9
    ctx = FIELDS.get(q) or make_field(q)
    f = data.draw(products_of_powers(ctx, 6))
    mu = data.draw(st.sampled_from(list(multi_indices_up_to(f.degree))))
    P = CharPoly.binom(mu)
    assert chi_symbolic(f, P) == chi_formula(block_spec(f), P)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4 ** 4 - 1))
def test_chi_routes_agree_over_extension_field(idx):
    f = list(enumerate_monic(4, F4))[idx]
    spec = block_spec(f)
    assert chi_formula(spec, binom("2:1")) == chi_oracle(spec, binom("2:1"))


# -- ensembles ---------------------------------------------------------------

def test_ensemble_frozen_values():
    total, count = ensemble_sum(2, F2, CharPoly.binom(mi("2:1")))
    assert (total, count) == (2, 4)
    total, count = ensemble_sum(
        2, F2, CharPoly.binom(mi("1:1")), predicate=predicate_squarefree
    )
    assert (total, count) == (2, 2)


def test_ensemble_cap():
    with pytest.raises(CapExceeded):
        ensemble_sum(25, F2, CharPoly.binom(mi("1:1")), cap=10 ** 6)


# -- ensembles by factorization types -----------------------------------------

FIELDS = {
    2: F2,
    3: F3,
    4: F4,
    5: make_field(5),
    8: make_field(2, 3),
    9: make_field(3, 2),
    65521: make_field(65521),
    2 ** 16: make_field(2, 16),
}
MIXED = CharPoly.parse("X1 + 2*binom(2:1) - 1/3*X1^2*X2 + 5")


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_ensemble_formula_matches_the_oracle(q):
    # the oracle factors all q^d polynomials once per filter; q^d <= 4096
    # keeps that within seconds
    ctx = FIELDS[q]
    for d in range(0, 6):
        if q ** d > 4096:
            break
        for text in ("all", "squarefree", "maxmult=2"):
            pred = parse_predicate(text)
            assert ensemble_formula(d, ctx, MIXED, pred) == ensemble_sum(
                d, ctx, MIXED, pred
            ), (q, d, text)


def test_factorization_types_match_the_factored_ensemble():
    for d in range(0, 5):
        tally = {}
        for f in enumerate_monic(d, F3):
            spec = block_spec(f)
            tally[spec] = tally.get(spec, 0) + 1
        assert factorization_types(d, 3) == tally


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 65521, 2 ** 16]), st.integers(0, 20), st.integers(1, 4))
def test_ensemble_formula_counts(q, d, m):
    ctx = FIELDS[q]
    nothing = CharPoly()
    assert ensemble_formula(d, ctx, nothing) == (0, q ** d)
    _, squarefree = ensemble_formula(d, ctx, nothing, predicate_squarefree)
    if d >= 2:
        assert squarefree == q ** d - q ** (d - 1)
    _, bounded = ensemble_formula(d, ctx, nothing, predicate_max_multiplicity(m))
    if d > m:
        assert bounded == q ** d - q ** (d - m)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([2, 65521, 2 ** 16]), st.integers(0, 20), st.integers(1, 21))
def test_ensemble_formula_mean_is_the_symmetric_mean(q, d, k):
    mu = MultiIndex.from_dict({k: 1})
    total, count = ensemble_formula(d, FIELDS[q], CharPoly.binom(mu))
    assert count == q ** d
    assert total / q ** d == sn_expectation_closed(mu, d)


def test_ensemble_formula_mean_with_repeated_cycles():
    for mu in ("1:2", "2:2", "1:1,2:1", "1:2,3:1"):
        mu = mi(mu)
        for q in (2, 65521):
            total, _ = ensemble_formula(12, FIELDS[q], CharPoly.binom(mu))
            assert total / q ** 12 == sn_expectation_closed(mu, 12), (q, mu)


def test_ensemble_formula_cap_counts_block_multisets():
    P = CharPoly.binom(mi("1:1"))
    assert ensemble_formula(3, F2, P, cap=5) == ensemble_sum(3, F2, P)
    with pytest.raises(CapExceeded, match="--cap-enum"):
        ensemble_formula(3, F2, P, cap=4)
    with pytest.raises(ValueError):
        ensemble_formula(-1, F2, P)


def test_predicates_accept_specs():
    mm2 = predicate_max_multiplicity(2)
    for f in enumerate_monic(4, F2):
        fac = factor(f)
        spec = fac.spec
        assert predicate_squarefree(spec) == predicate_squarefree(fac)
        assert mm2(spec) == mm2(fac)
    assert predicate_squarefree(CosetSpec.parse("1^1,2^1"))


def test_predicates():
    assert parse_predicate("all") is None
    assert parse_predicate(None) is None
    sf = parse_predicate("squarefree")
    mm = parse_predicate("maxmult=2")
    f = parse_poly("t^2", F2)
    assert not sf(factor(f))
    assert mm(factor(f))
    assert not mm(factor(parse_poly("t^3", F2)))
    with pytest.raises(ValueError):
        parse_predicate("weird")
    with pytest.raises(ValueError):
        predicate_max_multiplicity(0)


def test_maxmult_one_is_squarefree():
    mm1 = predicate_max_multiplicity(1)
    for f in enumerate_monic(4, F2):
        fac = factor(f)
        assert mm1(fac) == predicate_squarefree(fac)


def test_equal_expectation_report():
    rep = equal_expectation_check(2, F2, mi("2:1"))
    assert rep.ensemble_mean == Fraction(1, 2)
    assert rep.symmetric_mean == Fraction(1, 2)
    assert rep.necklace_product_form == Fraction(1, 2)
    assert rep.equal

    rep2 = equal_expectation_check(4, F3, mi("1:1,2:1"))
    assert rep2.equal
    assert rep2.ensemble_mean == Fraction(1, 2)


def test_equal_expectation_product_form_needs_no_sieve():
    # the sieve would need 65521^2 slots for N_2; the product form takes the
    # Moebius necklace counts instead
    rep = equal_expectation_check(3, make_field(65521), mi("2:1"))
    assert rep.equal
    assert rep.necklace_product_form == Fraction(1, 2)


def test_scaled_ensemble_is_constant_in_degree():
    mu = mi("1:2")
    vals = set()
    for d in range(2, 6):
        total, _ = ensemble_sum(d, F2, CharPoly.binom(mu))
        vals.add(total / Fraction(2 ** d))
    assert vals == {Fraction(1, 2)}
