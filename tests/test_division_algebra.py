"""Divisibility symbols: the formal algebra, evaluation, and averages.

The central trap this file guards: the product of symbols multiplies the
subscripts, but evaluation at a fixed polynomial is not multiplicative, so
expansions must happen in the algebra before any evaluation.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitstat.charpoly import _mul_truncated
from orbitstat.errors import CapExceeded
from orbitstat.finite_field import make_field
from orbitstat.polynomial import (
    Poly,
    _divmod,
    _gcd,
    enumerate_monic,
    monic_from_index,
    parse_poly,
)

from poly_oracle import product
from symbol_sum import SymbolSum, lambda_map

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)

T = parse_poly("t", F2)
T1 = parse_poly("t+1", F2)
T_T1 = parse_poly("t^2+t", F2)  # t * (t+1)


def monics(ctx, dmax):
    return st.integers(0, dmax).flatmap(
        lambda d: st.integers(0, ctx.q ** d - 1).map(
            lambda i: list(enumerate_monic(d, ctx))[i]
        )
    )


def test_symbol_product_multiplies_subscripts():
    a = SymbolSum.symbol(T)
    b = SymbolSum.symbol(T1)
    prod = a.mul(b)
    assert prod.terms == {T_T1: Fraction(1)}


def test_symbols_require_monic_keys():
    with pytest.raises(ValueError):
        SymbolSum.symbol(parse_poly("2*t", F3))
    with pytest.raises(ValueError):
        SymbolSum.symbol(Poly(F2))


def test_linearity_and_scalars():
    s = 3 * SymbolSum.symbol(T) - SymbolSum.symbol(T1)
    assert s.terms[T] == 3
    assert s.terms[T1] == -1
    assert (s - s).terms == {}


def test_pow_matches_repeated_mul():
    s = SymbolSum.symbol(T) + 2 * SymbolSum.symbol(T1)
    by_mul = SymbolSum.one(F2)
    for _ in range(4):
        by_mul = by_mul.mul(s)
    assert s.pow(4).terms == by_mul.terms
    assert s.pow(0).terms == SymbolSum.one(F2).terms


def test_evaluation_is_divisibility():
    f = parse_poly("t^3+t", F2)  # t * (t+1)^2
    assert SymbolSum.symbol(T).evaluate(f) == 1
    assert SymbolSum.symbol(parse_poly("t^2+1", F2)).evaluate(f) == 1
    assert SymbolSum.symbol(parse_poly("t^2", F2)).evaluate(f) == 0
    s = SymbolSum.symbol(T, 3) + SymbolSum.symbol(parse_poly("t^2", F2), 5)
    assert s.evaluate(f) == 3


def test_evaluation_is_not_termwise_multiplicative():
    """[t^2 | t^2+t] = 0 even though [t | t^2+t] = 1 twice over."""
    f = T_T1
    et = SymbolSum.symbol(T)
    assert et.evaluate(f) * et.evaluate(f) == 1
    assert et.mul(et).evaluate(f) == 0


def test_evaluation_is_multiplicative_on_coprime_subscripts():
    for dg in range(0, 3):
        for g in enumerate_monic(dg, F2):
            for dh in range(0, 3):
                for h in enumerate_monic(dh, F2):
                    if len(_gcd(F2, g.coeffs, h.coeffs)) != 1:
                        continue
                    gh = SymbolSum.symbol(Poly(F2, product(F2, g.coeffs, h.coeffs)))
                    for df in range(0, 5):
                        for f in enumerate_monic(df, F2):
                            both = gh.evaluate(f)
                            split = SymbolSum.symbol(g).evaluate(
                                f
                            ) * SymbolSum.symbol(h).evaluate(f)
                            assert both == split


def test_evaluate_rejects_zero_and_foreign_fields():
    s = SymbolSum.symbol(T)
    with pytest.raises(ValueError):
        s.evaluate(Poly(F2))
    with pytest.raises(ValueError):
        s.evaluate(parse_poly("t", F3))


def test_parse_round_trip():
    s = SymbolSum.parse("3*eps(t^2+t) + 1/2*eps(t) - eps(1)", F2)
    assert s.terms[parse_poly("t^2+t", F2)] == 3
    assert s.terms[T] == Fraction(1, 2)
    assert s.terms[Poly(F2, (1,))] == -1
    assert SymbolSum.parse(str(s), F2).terms == s.terms
    with pytest.raises(ValueError):
        SymbolSum.parse("eps(2*t)", F3)  # keys must be monic


def test_extension_keys_parse_back():
    # the brackets of F_4 coefficients sit inside the parentheses of eps(...)
    s = SymbolSum.parse("eps(t+[1,1]) - 1/2*eps(t^2+[0,1]*t)", F4)
    assert s.terms == {
        parse_poly("t+[1,1]", F4): 1,
        parse_poly("t^2+[0,1]*t", F4): Fraction(-1, 2),
    }
    assert SymbolSum.parse(str(s), F4) == s


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 15)).map(
            lambda di: monic_from_index(di[0], F4, di[1] % 4 ** di[0])
        ),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        max_size=5,
    )
)
def test_str_parses_back(terms):
    s = SymbolSum(F4, terms)
    assert SymbolSum.parse(str(s), F4) == s


def test_pow_does_not_square_past_the_last_bit():
    s = SymbolSum(F2, {T: 1, T1: 2, T_T1: 3})
    assert s.pow(1, term_cap=4) == s  # s * s would touch 9 > 4 term pairs
    assert s.pow(0, term_cap=4) == SymbolSum.one(F2)
    with pytest.raises(CapExceeded):
        s.pow(2, term_cap=4)


def test_term_cap_guards_products():
    many = SymbolSum(
        F2, {f: Fraction(1) for f in enumerate_monic(10, F2)}
    )
    assert len(many.terms) == 1024
    with pytest.raises(CapExceeded, match="factored"):
        many.mul(many, term_cap=10 ** 6)


# -- the nilpotent collapse --------------------------------------------------

def test_lambda_map_sends_degree_to_eps_power():
    a = SymbolSum.symbol(T_T1, 6)  # degree 2
    assert lambda_map(a, 4) == {(2,): Fraction(6, 4)}  # 6 / q^2 at eps^2


def test_lambda_map_truncates_high_degrees():
    a = SymbolSum.symbol(parse_poly("t^5+t+1", F2))
    assert lambda_map(a, 4) == {}


@settings(max_examples=25, deadline=None)
@given(monics(F2, 3), monics(F2, 3))
def test_lambda_map_is_multiplicative(g, h):
    n = 4  # below deg g + deg h at times, so the truncation is exercised
    a, b = SymbolSum.symbol(g), SymbolSum.symbol(h)
    assert lambda_map(a.mul(b), n) == _mul_truncated(lambda_map(a, n), lambda_map(b, n), (n,))


@settings(max_examples=25, deadline=None)
@given(monics(F3, 3), st.integers(0, 4))
def test_phi_after_lambda_is_the_expectation(g, n):
    # phi sets eps to 1: the sum of the coefficients
    a = SymbolSum.symbol(g, 7)
    assert sum(lambda_map(a, n).values()) == 7 * expectation_epsilon(g, n)


# -- averages ----------------------------------------------------------------

def expectation_epsilon(g: Poly, n: int) -> Fraction:
    """Closed-form mean of the divisibility symbol of a monic g over monic
    degree-n polynomials."""
    return Fraction(1, g.ctx.q ** g.degree) if g.degree <= n else Fraction(0)


def expectation_epsilon_oracle(g: Poly, n: int) -> Fraction:
    """Same mean by enumerating all q^n monic polynomials of degree n."""
    ctx, gc = g.ctx, g.coeffs
    hits = sum(1 for f in enumerate_monic(n, ctx) if not _divmod(ctx, f.coeffs, gc)[1])
    return Fraction(hits, g.ctx.q ** n)


def test_expectation_closed_form():
    assert expectation_epsilon(T, 3) == Fraction(1, 2)
    assert expectation_epsilon(parse_poly("t^2+t+1", F2), 3) == Fraction(1, 4)
    assert expectation_epsilon(parse_poly("t^4", F2), 3) == 0
    assert expectation_epsilon(Poly(F2, (1,)), 0) == 1


def test_expectation_matches_oracle_small():
    for q, ctx in ((2, F2), (3, F3)):
        for n in range(0, 4):
            for dg in range(0, n + 2):
                for g in enumerate_monic(dg, ctx):
                    assert expectation_epsilon(g, n) == expectation_epsilon_oracle(
                        g, n
                    ), (q, str(g), n)
