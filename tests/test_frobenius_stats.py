"""Statistics attached to one polynomial, and ensemble accumulation."""

import functools
import math
import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitstat import frobenius_stats, polynomial
from orbitstat.charpoly import CharPoly, binom_eval, sn_expectation_closed
from orbitstat.errors import CapExceeded
from orbitstat.finite_field import make_field
from orbitstat.frobenius_stats import (
    block_spec,
    chi_formula,
    chi_oracle,
    chi_symbolic,
    ensemble_formula,
    ensemble_sum,
    factored_types,
    parse_predicate,
)
from orbitstat.polynomial import (
    Poly,
    _irreducible_tuples,
    _is_irreducible,
    divisors,
    enumerate_monic,
    factor,
    monic_from_index,
    parse_poly,
)
from orbitstat.symmetric import (
    CosetSpec,
    MultiIndex,
    block_multisets,
    multi_indices_up_to,
    partitions,
)
from orbitstat.young_stats import coset_histogram

from coset_walk import (
    ensemble_cycle_types,
    ensemble_walk,
    equal_expectation_check,
    evaluate,
    expected_k_cycles,
    factorization_types,
)
from poly_oracle import product
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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_block_spec_is_the_spec_of_the_factorization_for_every_small_f(q):
    # block_spec counts the degree classes that factor goes on to split
    ctx = FIELDS.get(q) or make_field(q)
    d = 0
    while q ** d <= 3000:
        for f in enumerate_monic(d, ctx):
            assert block_spec(f) == factor(f).spec, (q, str(f))
        d += 1


@st.composite
def irreducible_powers(draw, ctx, dmax):
    """A monic f of degree 1..dmax built as a product of powers of distinct
    monic irreducibles, each drawn at random among the polynomials that
    pass the irreducibility test, and the block spec of that product."""
    blocks, used, fc = [], set(), (1,)
    for _ in range(draw(st.integers(1, 8))):
        room = dmax + 1 - len(fc)
        if not room:
            break
        k = draw(st.integers(1, min(room, 6)))  # so that factors share a class
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        for _ in range(64):  # a degree whose irreducibles are all used is left
            p = (*(rng.randrange(ctx.q) for _ in range(k)), 1)
            if p not in used and _is_irreducible(ctx, p):
                r = draw(st.integers(1, min(3, room // k)))
                used.add(p)
                blocks.append((k, r))
                fc = product(ctx, fc, *[p] * r)
                break
    return Poly(ctx, fc), CosetSpec(tuple(blocks))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 4, 65521, 2 ** 16]), st.data())
def test_block_spec_reads_the_blocks_of_a_built_product(q, data):
    # far past enumeration: up to degree 30 over F_65521 and F_2^16
    f, spec = data.draw(irreducible_powers(FIELDS[q], 30))
    assert block_spec(f) == spec, str(f)


def test_factored_types_tally_the_specs_of_the_factorizations():
    for q in (2, 3, 4, 5):
        ctx = FIELDS[q]
        for d in range(0, 5):
            want = Counter(factor(f).spec for f in enumerate_monic(d, ctx))
            assert factored_types(d, ctx) == want, (q, d)


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
    P = CharPoly.parse("2*X1 - 1/3*binom(1:1,2:1) + 5 - 3*binom(2:1)")
    want = (
        2 * formula_at("t^6+t^4+t^2", "1:1")
        - Fraction(1, 3) * formula_at("t^6+t^4+t^2", "1:1,2:1")
        + 5
        - 3 * formula_at("t^6+t^4+t^2", "2:1")
    )
    assert chi_formula(spec, P) == chi_symbolic(f, P) == chi_oracle(spec, P) == want


# every spec of at most 10 points with |H| <= 10^3
SMALL_H_SPECS = [
    spec for n in range(1, 11) for spec in block_multisets(n) if spec.order_h() <= 10 ** 3
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_H_SPECS), st.data())
def test_the_oracle_sums_in_integers_what_evaluate_sums_in_fractions(spec, data):
    """chi_oracle, which sums each term in integers and divides once,
    against evaluate's Fractions added term by term over the same
    histogram, for statistics of up to 5 terms with rational coefficients,
    a constant and a mu past n among them."""
    mus = list(multi_indices_up_to(spec.n + 1))
    coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=60)
    P = CharPoly(data.draw(st.dictionaries(st.sampled_from(mus), coeffs, max_size=5)))
    hist = coset_histogram(spec)
    want = sum((n * evaluate(P, ct) for ct, n in hist.items()), Fraction(0)) / spec.order_h()
    assert chi_oracle(spec, P) == want == chi_formula(spec, P)


def test_xk_frozen_values():
    # X_k by the closed form and by the symbol expansion
    def xk(text, k):
        f = parse_poly(text, F2)
        X = CharPoly.parse(f"X{k}")
        value = chi_formula(block_spec(f), X)
        assert chi_symbolic(f, X) == value
        return value

    assert (xk("t^4+t", 1), xk("t^4+t", 2), xk("t^4+t", 3)) == (2, 1, 0)
    assert (xk("t^2", 1), xk("t^2", 2)) == (1, Fraction(1, 2))
    with pytest.raises(ValueError):
        CharPoly.parse("X0")


def test_xk_equals_the_first_binomial_moment():
    for d in range(1, 5):
        for f in enumerate_monic(d, F3):
            spec = block_spec(f)
            for k in range(1, d + 1):
                val = chi_formula(spec, CharPoly.parse(f"X{k}"))
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
            {Poly(ctx, product(ctx, *[p] * (k // d))): d
             for d in divisors(k) for p in _irreducible_tuples(d, ctx)},
        )
        total = total.mul(s_k.pow(m))
        pref *= Fraction(1, k ** m * math.factorial(m))
    return pref, total


def test_symbolic_route_equals_the_full_expansion(monkeypatch):
    # the reduced expansion against the full one evaluated at f, with factor
    # and the degree classes that block_spec reads refused, so the route is
    # seen never to factor
    def refuse(*args):
        raise AssertionError(f"the symbolic route factored {args[-1]}")

    monkeypatch.setattr(frobenius_stats, "_degree_classes", refuse)
    monkeypatch.setattr(polynomial, "_degree_classes", refuse)
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


def test_symbolic_route_sieves_its_largest_degree_and_its_halvings(sieve_passes):
    # degrees 1..5 requested in ascending order would sieve each of them
    f = parse_poly("t^15+t+1", F2)
    P = CharPoly.parse("binom(1:1,2:1,3:1,4:1,5:1)")
    assert chi_symbolic(f, P) == chi_formula(block_spec(f), P)
    assert sieve_passes == [1, 2, 5]


@st.composite
def products_of_powers(draw, ctx, dmax):
    """A monic f of degree 1..dmax drawn as a product of powers of random
    monic polynomials, so repeated and shared factors are common."""
    f = Poly(ctx, (1,))
    while f.degree < 1 or (f.degree < dmax and draw(st.booleans())):
        room = dmax - f.degree
        d = draw(st.integers(1, room))
        g = monic_from_index(d, ctx, draw(st.integers(0, ctx.q ** d - 1)))
        f = Poly(ctx, product(ctx, f.coeffs, *[g.coeffs] * draw(st.integers(1, room // d))))
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
    total, count = ensemble_sum(2, F2, CharPoly.binom(mi("1:1")), maxmult=1)
    assert (total, count) == (2, 2)


def test_ensemble_cap():
    with pytest.raises(CapExceeded):
        ensemble_sum(25, F2, CharPoly.binom(mi("1:1")), cap=10 ** 6)
    # the cap is decided before q^d is built: 3^(10^8) would take minutes
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="3\\^100000000 polynomials"):
        ensemble_sum(10 ** 8, make_field(3), CharPoly())
    assert time.perf_counter() - start < 1


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
        for text in ("all", "squarefree", "maxmult=2", "maxmult=3"):
            m = parse_predicate(text)
            assert ensemble_formula(d, ctx, MIXED, m) == ensemble_sum(
                d, ctx, MIXED, m
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
    _, squarefree = ensemble_formula(d, ctx, nothing, 1)
    if d >= 2:
        assert squarefree == q ** d - q ** (d - 1)
    _, bounded = ensemble_formula(d, ctx, nothing, m)
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
    # the type walk, now the oracle in coset_walk, keeps the block multiset cap
    P = CharPoly.binom(mi("1:1"))
    assert ensemble_walk(3, F2, P, cap=5) == ensemble_sum(3, F2, P)
    with pytest.raises(CapExceeded, match="--cap-enum"):
        ensemble_walk(3, F2, P, cap=4)
    with pytest.raises(ValueError):
        ensemble_walk(-1, F2, P)
    with pytest.raises(ValueError):
        ensemble_formula(-1, F2, P)


def test_predicates_accept_specs():
    # the filter reads the max_multiplicity of a factorization's spec
    for f in enumerate_monic(4, F2):
        fac = factor(f)
        assert fac.spec.max_multiplicity == max((r for _, r in fac.factors), default=0)
        assert (fac.spec.max_multiplicity == 1) == fac.is_squarefree
    assert CosetSpec.parse("1^1,2^1").max_multiplicity == 1


def test_predicates():
    assert parse_predicate("all") is None
    assert parse_predicate(None) is None
    assert parse_predicate("squarefree") == 1
    assert parse_predicate("maxmult=2") == 2
    f2, f3 = (factor(parse_poly(t, F2)) for t in ("t^2", "t^3"))
    assert f2.spec.max_multiplicity > parse_predicate("squarefree")
    assert f2.spec.max_multiplicity <= parse_predicate("maxmult=2") < f3.spec.max_multiplicity
    for text in ("weird", "maxmult=0", "maxmult=x", "maxmult=-1"):
        with pytest.raises(ValueError):
            parse_predicate(text)
    with pytest.raises(ValueError, match="multiplicity bound"):
        ensemble_formula(3, F2, binom("1:1"), 0)


def test_maxmult_one_is_squarefree():
    m = parse_predicate("maxmult=1")
    for f in enumerate_monic(4, F2):
        fac = factor(f)
        assert (fac.spec.max_multiplicity <= m) == fac.is_squarefree



# -- ensembles by the Euler product --------------------------------------------

FILTERS = ("all", "squarefree", "maxmult=2", "maxmult=3")


@pytest.mark.parametrize("q,dmax", [(2, 10), (3, 10), (4, 10), (5, 10), (9, 10), (65521, 12)])
def test_the_series_equals_the_type_walk_for_every_mu(q, dmax):
    # every mu of norm <= d + 1, read off the walk's cycle-type weights
    ctx = FIELDS[q]
    for d in range(dmax + 1):
        mus = list(multi_indices_up_to(d + 1))
        for text in FILTERS:
            m = parse_predicate(text)
            weights = ensemble_cycle_types(d, q, m).items()
            for mu in mus:
                walk = sum(w * binom_eval(mu, ct) for ct, w in weights)
                assert ensemble_formula(d, ctx, CharPoly.binom(mu), m)[0] == walk, (d, text, mu)


STATISTICS = [
    MIXED,
    CharPoly.parse("binom(1:2,2:1) - 3*binom(3:1) + X1*X4"),
    CharPoly.parse("X1^3 + 1/7*binom(2:2) - binom(1:1,5:1)"),
]


@pytest.mark.parametrize("q", [2, 3, 9, 65521])
def test_the_series_equals_the_moved_type_walk(q):
    ctx = FIELDS[q]
    for d in range(11):
        for text in FILTERS:
            m = parse_predicate(text)
            for P in STATISTICS:
                assert ensemble_formula(d, ctx, P, m) == ensemble_walk(d, ctx, P, m), (d, text, P)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 4, 65521, 2 ** 16]),
    st.integers(0, 100),
    st.sampled_from([None, 1, 2, 3, 5]),
    st.sampled_from(["1:1", "1:2", "2:1", "3:1", "1:1,2:1"]),
)
def test_series_counts_to_degree_100(q, d, m, mu):
    _, count = ensemble_formula(d, FIELDS[q], binom(mu), m)
    if m is None or d <= m:
        assert count == q ** d
    else:
        assert count == q ** d - q ** (d - m)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([2, 3, 65521]),
    st.integers(0, 100),
    st.integers(0, 3),
    st.sampled_from(["", "1:1", "1:2", "2:1", "3:1", "1:1,2:1", "1:3", "4:1,2:1"]),
)
def test_the_product_with_m_at_least_d_is_the_closed_form(q, d, extra, mu):
    # the truncated product, forced past the closed form, with every
    # multiplicity allowed
    P = CharPoly.parse(f"2*binom({mu}) - 1/3") if mu else CharPoly.parse("5")
    series = frobenius_stats._series_sum(d, q, P, d + extra, 10 ** 7)
    closed = (sum(c * q ** d * sn_expectation_closed(nu, d) for nu, c in P.terms.items()), q ** d)
    assert series == closed == ensemble_formula(d, FIELDS[q], P)


def test_the_filtered_mean_nears_its_limit():
    # squarefree over F_2: each linear factor divides f with probability
    # 1/(q + 1) in the limit, independently, so binom(X_1, 2) tends to
    # C(q, 2)/(q + 1)^2 = 1/9
    total, count = ensemble_formula(100, F2, binom("1:2"), 1)
    assert abs(total / count - Fraction(1, 9)) < Fraction(1, 10 ** 28)


def test_a_filter_statistic_takes_few_products(series_products):
    ensemble_formula(30, F2, MIXED)
    ensemble_formula(30, F2, MIXED, 30)
    assert series_products == []  # all, and maxmult=m with m >= d, take the closed form
    ensemble_formula(30, F2, binom("1:2"), 1)
    assert series_products == [(30, 2)]  # G_1^2, the one power in the box


def test_the_series_cap_counts_the_whole_statistic():
    def least_cap(P):
        # the least cap under which the series answers, by bisection
        low, high = 0, 10 ** 6
        while low < high:
            mid = (low + high) // 2
            try:
                frobenius_stats._series_sum(30, 2, P, 1, mid)
                high = mid
            except CapExceeded as exc:
                assert "--cap-enum" in str(exc)
                low = mid + 1
        return low

    one, other = binom("1:2"), binom("2:1")
    both = CharPoly.parse("binom(1:2) + binom(2:1)")
    assert 0 < least_cap(one) < least_cap(both)
    assert least_cap(both) == least_cap(one) + least_cap(other)


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
