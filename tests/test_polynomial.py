"""Polynomial arithmetic, irreducibility, enumeration, and factoring.

The irreducibility oracle here is deliberate brute force: trial division by
every lower-degree monic polynomial, built straight from coefficient tuples.
It shares no code with the sieve, and only the one division (_divmod) with
the Frobenius test it checks.  The randomized equal-degree splitting inside
factor() is checked against trial division by the sieve's irreducibles.  The
arithmetic is tested on the coefficient tuples that factor, the sieve and the
symbolic route run on.
"""

import functools
import itertools
import operator
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from orbitstat import polynomial
from orbitstat.errors import CapExceeded
from orbitstat.finite_field import make_field, parse_field_spec
from orbitstat.polynomial import (
    Poly,
    _derivative,
    _divmod,
    _gcd,
    _irreducible_tuples,
    _is_irreducible,
    _monic,
    _mul,
    _powmod,
    _trim,
    count_irreducibles,
    divisors,
    enumerate_monic,
    factor,
    format_poly,
    monic_from_index,
    necklace_count,
    necklace_sums,
    parse_poly,
    poly_sort_key,
)
from orbitstat.verify import check_necklace

from poly_oracle import expand, product

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F7 = make_field(7)
F8 = make_field(2, 3)
F9 = make_field(3, 2)
F65521 = make_field(65521)
F2_16 = make_field(2, 16)


def brute_monic(d, ctx):
    """All monic degree-d polynomials, from raw coefficient tuples."""
    for lower in itertools.product(range(ctx.q), repeat=d):
        yield Poly(ctx, lower + (1,))


def brute_irreducible(f):
    """Trial division by every monic polynomial of smaller positive degree."""
    if f.degree < 1:
        return False
    for d in range(1, f.degree // 2 + 1):
        for g in brute_monic(d, f.ctx):
            if not _divmod(f.ctx, f.coeffs, g.coeffs)[1]:
                return False
    return True


def trial_equal_degree(g, k):
    """The degree-k irreducible factors of g (a monic product of distinct
    such factors), by trial division against the sieve in its order."""
    if g.degree == k:
        return [g]
    out = []
    for cand in irreducibles(k, g.ctx):
        quot, rem = _divmod(g.ctx, g.coeffs, cand.coeffs)
        if not rem:
            out.append(cand)
            g = Poly(g.ctx, quot)
            if g.degree == k:
                out.append(g)
                break
            if g.degree == 0:
                break
    assert g.degree in (0, k)
    return out


def irreducibles(d, ctx):
    """The sieve's monic irreducibles of degree d, as Polys, in its order."""
    return [Poly(ctx, c) for c in _irreducible_tuples(d, ctx)]


def polys(ctx, max_deg=6):
    return st.lists(
        st.integers(0, ctx.q - 1), min_size=0, max_size=max_deg + 1
    ).map(lambda idxs: Poly(ctx, idxs))


def add(ctx, a, b):
    """The sum of two coefficient tuples, trimmed."""
    return _trim([ctx.add(x, y) for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def evaluate(ctx, c, point):
    """The value of a coefficient tuple at an element index, by Horner's rule."""
    return functools.reduce(lambda acc, x: ctx.add(ctx.mul(acc, point), x), reversed(c), 0)


# -- arithmetic on coefficient tuples ----------------------------------------

@given(polys(F5), polys(F5), polys(F5))
def test_ring_axioms(f, g, h):
    f, g, h = f.coeffs, g.coeffs, h.coeffs
    assert add(F5, f, g) == add(F5, g, f)
    assert add(F5, add(F5, f, g), h) == add(F5, f, add(F5, g, h))
    assert _mul(F5, f, g) == _mul(F5, g, f)
    assert _mul(F5, f, add(F5, g, h)) == add(F5, _mul(F5, f, g), _mul(F5, f, h))
    assert _mul(F5, _mul(F5, f, g), h) == _mul(F5, f, _mul(F5, g, h))


@given(polys(F3), polys(F3))
def test_divmod_invariant(f, g):
    if g.is_zero:  # _divmod takes a nonzero divisor
        return
    q, r = _divmod(F3, f.coeffs, g.coeffs)
    assert f.coeffs == add(F3, _mul(F3, q, g.coeffs), r)
    assert len(r) < len(g.coeffs)


@given(polys(F4, 5), polys(F4, 5))
def test_gcd_divides_both_and_is_monic(f, g):
    d = _gcd(F4, f.coeffs, g.coeffs)
    if f.is_zero and g.is_zero:
        assert d == ()
        return
    assert d[-1] == 1
    assert not _divmod(F4, f.coeffs, d)[1] and not _divmod(F4, g.coeffs, d)[1]


@given(polys(F2, 4), polys(F2, 4), polys(F2, 3))
def test_gcd_scales_with_common_factor(f, g, h):
    if h.is_zero or (f.is_zero and g.is_zero):
        return
    f, g, h = f.coeffs, g.coeffs, h.coeffs
    assert _gcd(F2, _mul(F2, f, h), _mul(F2, g, h)) == _mul(F2, _gcd(F2, f, g), _monic(F2, h))


@given(polys(F5, 5), polys(F5, 5))
def test_derivative_product_rule(f, g):
    f, g = f.coeffs, g.coeffs
    assert _derivative(F5, _mul(F5, f, g)) == add(
        F5, _mul(F5, _derivative(F5, f), g), _mul(F5, f, _derivative(F5, g))
    )


@given(polys(F9, 4), st.integers(0, 8))
def test_evaluation_is_a_homomorphism(f, a):
    f, g = f.coeffs, (1, 1)  # t + 1
    assert evaluate(F9, _mul(F9, f, g), a) == F9.mul(evaluate(F9, f, a), evaluate(F9, g, a))
    assert evaluate(F9, add(F9, f, g), a) == F9.add(evaluate(F9, f, a), evaluate(F9, g, a))
    assert evaluate(F9, g, a) == F9.add(a, 1)


def test_pow_mod_matches_naive():
    m = parse_poly("t^3+t+1", F2).coeffs
    b = parse_poly("t^2+1", F2).coeffs
    for e in range(0, 20):
        assert _powmod(F2, b, e, m) == _divmod(F2, product(F2, *[b] * e), m)[1]


# -- parsing and formatting --------------------------------------------------

def test_parse_forms():
    assert parse_poly("t^2+t+1", F2) == Poly(F2, (1, 1, 1))
    assert parse_poly("[1,1,1]", F2) == Poly(F2, (1, 1, 1))
    assert parse_poly("2*t^3+1", F5) == Poly(F5, (1, 0, 0, 2))
    assert parse_poly("t^2-t", F3) == Poly(F3, (0, 2, 1))
    assert parse_poly("0", F2).is_zero
    # extension coefficients in brackets
    f = parse_poly("t^2+[0,1]*t+[1,1]", F4)
    assert f.coeffs == (3, 2, 1)  # [1,1] is index 3 and t = [0,1] index 2
    assert f.leading == 1
    assert parse_poly("[[1,1],[0,1],[1,0]]", F4).coeffs == (3, 2, 1)
    # integers are residues mod p, also in an extension, and repeated
    # terms accumulate in the field
    assert parse_poly("5*t+7", F4).coeffs == (1, 1)
    assert parse_poly("[0,1]*t+[0,1]*t+t-t^0", F9).coeffs == (2, F9.index_of((1, 2)))
    # high degrees within ENUMERATION_LIMIT still parse
    assert parse_poly("t^100000+t", F2).degree == 100000


def test_poly_takes_element_indices_only():
    assert Poly(F4, (3, 0, 0)).coeffs == (3,)
    for bad in ((4,), (-1,), ("1",), (1.0,)):
        with pytest.raises(ValueError, match="element index 0..3"):
            Poly(F4, bad)
    f = Poly(F4, (1,))
    for op in (lambda: f + 1, lambda: 1 + f, lambda: 2 * f, lambda: 1 - f):
        with pytest.raises(TypeError):
            op()


def test_parse_rejects_garbage():
    # a degree past ENUMERATION_LIMIT is refused before its 10^11 coefficients
    for bad in ("", "t^", "x+1", "t**2", "[1,1", "t^-1", "t^99999999999+1"):
        with pytest.raises(ValueError):
            parse_poly(bad, F2)


def test_an_empty_list_is_zero_and_an_empty_vector_is_the_zero_element():
    assert parse_poly("[]", F4).is_zero
    assert parse_poly("[[],1]", F4).coeffs == (0, 1)


@given(polys(F3, 6))
def test_format_parse_round_trip(f):
    assert parse_poly(format_poly(f), F3) == f


@given(polys(F4, 4))
def test_format_parse_round_trip_extension(f):
    assert parse_poly(format_poly(f), F4) == f


def test_format_examples():
    assert format_poly(parse_poly("t^2+t+1", F2)) == "t^2+t+1"
    assert format_poly(Poly(F2)) == "0"
    assert format_poly(Poly(F5, (3,))) == "3"
    assert format_poly(Poly(F5, (1, 2))) == "2*t+1"


# -- enumeration order -------------------------------------------------------

def test_monic_enumeration_order():
    names = [format_poly(f) for f in enumerate_monic(2, F2)]
    assert names == ["t^2", "t^2+1", "t^2+t", "t^2+t+1"]
    for d in (0, 1, 3):
        fs = list(enumerate_monic(d, F3))
        assert len(fs) == 3 ** d
        assert all(f.is_monic and f.degree == d for f in fs)
        assert [monic_from_index(d, F3, i) for i in range(len(fs))] == fs


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(7) == [1, 7]


# -- irreducibility: three routes --------------------------------------------

@pytest.mark.parametrize(
    "ctx,dmax",
    [(F2, 6), (F3, 4), (F4, 3)],
    ids=["F2", "F3", "F4"],
)
def test_irreducibility_routes_agree(ctx, dmax):
    """Frobenius criterion == sieve membership == trial division."""
    for d in range(1, dmax + 1):
        sieve = set(irreducibles(d, ctx))
        for f in brute_monic(d, ctx):
            expected = brute_irreducible(f)
            assert _is_irreducible(ctx, f.coeffs) == expected, format_poly(f)
            assert (f in sieve) == expected, format_poly(f)
        assert count_irreducibles(d, ctx) == len(sieve)


def test_irreducible_counts_frozen():
    assert [count_irreducibles(d, F2) for d in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    assert count_irreducibles(2, F4) == 6
    assert count_irreducibles(3, F3) == 8
    assert count_irreducibles(1, F5) == 5


@pytest.mark.parametrize("q", [2, 4, 65521, 2 ** 16])
def test_necklace_count_satisfies_the_count_identity(q):
    for k in range(1, 13):
        assert sum(d * necklace_count(d, q) for d in divisors(k)) == q ** k


def test_necklace_count_matches_the_sieve():
    assert [necklace_count(d, 2) for d in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    for ctx in (F3, F4, F5, F9):
        for d in range(1, 5):
            assert necklace_count(d, ctx.q) == count_irreducibles(d, ctx)
    with pytest.raises(ValueError):
        necklace_count(0, 2)


def test_irreducibles_are_sorted_and_monic():
    for d in (1, 2, 3):
        fs = irreducibles(d, F3)
        assert fs == sorted(fs, key=poly_sort_key)
        assert all(f.is_monic and f.degree == d for f in fs)


def test_frobenius_test_reaches_beyond_the_sieve():
    # x^31 + x^3 + 1 is a classic irreducible trinomial; 2^31 is far past
    # what enumeration could touch
    f = parse_poly("t^31+t^3+1", F2).coeffs
    assert _is_irreducible(F2, f)
    assert not _is_irreducible(F2, _mul(F2, f, (1, 1)))


def test_the_irreducibility_test_stops_at_its_first_class(monkeypatch):
    """Ben-Or's test takes Frobenius steps s <- s^q mod c only up to the
    first class: one for (t+1)*(t^31+t^3+1), whose linear factor the first
    gcd finds, and 31 // 2 = 15 for the irreducible alone.  A distinct-degree
    stage that built its whole list first would take 15 on the product too."""
    steps = []
    powmod = polynomial._powmod

    def counted(ctx, base, k, m):
        if k == ctx.q:
            steps.append(m)
        return powmod(ctx, base, k, m)

    monkeypatch.setattr(polynomial, "_powmod", counted)
    f = parse_poly("t^31+t^3+1", F2).coeffs
    assert not _is_irreducible(F2, _mul(F2, f, (1, 1)))
    assert len(steps) == 1
    steps.clear()
    assert _is_irreducible(F2, f)
    assert len(steps) == 15


def test_enumeration_guard(sieve_passes):
    with pytest.raises(CapExceeded, match="q\\^d = 16777216 slots"):
        list(_irreducible_tuples(24, F2))  # 2^24 > the sieve budget
    assert sieve_passes == []


def odometer_sieve(d, ctx, memo):
    """Lex positions (c0 the top digit) of the degree-d monic irreducibles,
    ascending, by marking every product of a lower-degree irreducible P with
    a monic cofactor g, one product at a time.  The cofactors run through
    their coefficients like an odometer: when digit j of g steps from v to
    v+1 (mod q), the product gains ((v+1) - v) * t^j * P, which changes only
    a+1 coefficients of it and of its position.  memo maps degree to
    result."""
    if d in memo:
        return memo[d]
    q = ctx.q
    digits_of = lambda r, n: [r // q ** (n - 1 - k) % q for k in range(n)]
    weights = [q ** (d - 1 - k) for k in range(d)]
    steps = [ctx.sub((v + 1) % q, v) for v in range(q)]
    marks = bytearray(q ** d)
    for a in range(1, d // 2 + 1):
        m = d - a
        for r in odometer_sieve(a, ctx, memo):
            p_co = digits_of(r, a) + [1]
            rows = [[ctx.mul(s, c) for c in p_co] for s in steps]
            res = [0] * m + p_co[:-1]  # P * t^m below its leading 1
            idx = sum(c * w for c, w in zip(res, weights))
            marks[idx] = 1
            odometer = [0] * m
            for _ in range(q ** m - 1):
                j = 0
                while True:
                    v = odometer[j]
                    for k, c in enumerate(rows[v], j):
                        if c:
                            old = res[k]
                            res[k] = new = ctx.add(old, c)
                            idx += (new - old) * weights[k]
                    if v + 1 < q:
                        odometer[j] = v + 1
                        break
                    odometer[j] = 0
                    j += 1
                marks[idx] = 1
    memo[d] = [r for r in range(q ** d) if not marks[r]]
    return memo[d]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25, 27])
def test_sieve_matches_the_odometer_sieve(monkeypatch, q):
    """The span sieve gives the same ordered position lists as marking one
    product at a time, for every degree with q^d <= 5*10^4."""
    monkeypatch.setattr(polynomial, "_irr_cache", {})
    ctx = parse_field_spec(f"q={q}")
    memo = {}
    d = 1
    while q ** d <= 5 * 10 ** 4:
        assert polynomial._irreducible_positions(d, ctx) == odometer_sieve(d, ctx, memo), d
        d += 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 25])
def test_the_row_builder_marks_exactly_the_multiples(q):
    """For every irreducible P != t of degree a and every d >= 2a with
    q^d <= 2*10^4, the positions _multiple_rows marks (bit r of row low at
    low*q^(d-a) + r) are the lex positions of the monic f of degree d that
    _divmod divides by P with no remainder.  Each marked f is divided; as
    f = P*g for exactly one monic g of degree d-a, there are q^(d-a) such f,
    so an equal count of distinct marks leaves none out.  Up to q^d = 2000
    every monic f is divided as well."""
    ctx = parse_field_spec(f"q={q}")
    d = 2
    while q ** d <= 2 * 10 ** 4:
        lex = {}  # lex position (c0 the top digit) -> coefficient tuple of f
        for f in enumerate_monic(d, ctx):
            lex[sum(c * q ** (d - 1 - k) for k, c in enumerate(f.coeffs[:-1]))] = f.coeffs
        for a in range(1, d // 2 + 1):
            for r in polynomial._irreducible_positions(a, ctx):
                if r == 0:
                    continue
                p_co = tuple(r // q ** (a - 1 - k) % q for k in range(a)) + (1,)
                rows = polynomial._multiple_rows(ctx, p_co, d)
                assert len(rows) == q ** a
                marked = [
                    low * q ** (d - a) + r
                    for low, row in enumerate(rows)
                    for r in range(row.bit_length())
                    if row >> r & 1
                ]
                assert len(marked) == q ** (d - a), (d, p_co)
                assert all(_divmod(ctx, lex[x], p_co)[1] == () for x in marked), (d, p_co)
                if q ** d <= 2000:
                    divisible = [x for x, f in lex.items() if _divmod(ctx, f, p_co)[1] == ()]
                    assert sorted(marked) == sorted(divisible), (d, p_co)
        d += 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25, 27])
def test_top_degree_first_matches_the_odometer_sieve(sieve_passes, q):
    """Requesting the largest degree first sieves only it and its halvings,
    and every lower degree, read off those few arrays, equals the odometer
    sieve."""
    ctx = parse_field_spec(f"q={q}")
    top = max(d for d in range(1, 20) if q ** d <= 5 * 10 ** 4)
    polynomial._irreducible_positions(top, ctx)
    halvings = [top >> s for s in range(top.bit_length())]
    assert sieve_passes == halvings[::-1]
    assert polynomial._irreducible_positions(1, ctx) == list(range(q))  # t + c, t included
    memo = {}
    for d in range(1, top + 1):
        assert polynomial._irreducible_positions(d, ctx) == odometer_sieve(d, ctx, memo), d
    assert sieve_passes == halvings[::-1]


def test_a_degree_sieves_only_its_halvings(sieve_passes):
    assert count_irreducibles(12, F2) == necklace_count(12, 2)
    assert sieve_passes == [1, 3, 6, 12]
    for d in range(1, 13):
        count_irreducibles(d, F2)
    assert sieve_passes == [1, 3, 6, 12]


def test_verify_necklace_check_sieves_only_the_halvings(sieve_passes):
    assert check_necklace(qs=(2, 3), kmax=8).ok
    assert sieve_passes == [1, 2, 4, 8] * 2


# (field, largest degree) with q^d <= 2^18
ORDER_FIELDS = [(F2, 18), (F3, 11), (F4, 9), (F5, 7), (F7, 6), (F8, 6), (F9, 5)]


@functools.lru_cache(maxsize=None)
def bottom_up(ctx, dmax):
    """The position lists of degrees 1..dmax, asked for in increasing order on
    a fresh cache."""
    with mock.patch.object(polynomial, "_irr_cache", {}):
        return {d: polynomial._irreducible_positions(d, ctx) for d in range(1, dmax + 1)}


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(ORDER_FIELDS).flatmap(
        lambda field: st.integers(1, field[1]).flatmap(
            lambda k: st.tuples(
                st.just(field[0]), st.just(field[1]), st.permutations(range(1, k + 1))
            )
        )
    )
)
def test_any_request_order_gives_the_bottom_up_lists(field_and_order):
    """On a fresh cache, degrees 1..K asked for in any order give the lists
    of an increasing run, and their lengths are the Moebius counts."""
    ctx, dmax, order = field_and_order
    want = bottom_up(ctx, dmax)
    with mock.patch.object(polynomial, "_irr_cache", {}):
        for d in order:
            got = polynomial._irreducible_positions(d, ctx)
            assert got == want[d], d
            assert len(got) == necklace_count(d, ctx.q)


# q^d up to about 2^18 slots, beyond what the odometer sieve reaches in a
# test, and F_211 and F_1009, where a = 1 and H has one digit past the first
# (F_211, d = 3) or none (d = 2): up to 9.4 * 10^6 slots, each shape run
# on every run as an explicit example
F211, F1009 = make_field(211), make_field(1009)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([(F2, 18), (F3, 11), (F4, 9), (F8, 6), (F9, 6), (F211, 3), (F1009, 2)]).flatmap(
        lambda field: st.tuples(st.just(field[0]), st.integers(1, field[1]))
    )
)
@example((F211, 3))
@example((F1009, 2))
def test_sieve_counts_match_the_moebius_formula(field_and_degree):
    """The counts are the Moebius counts, and the coefficient vectors
    (c0, ..., c_(d-1)) of the position list, read off each position digit
    by digit with c0 the top digit, increase strictly: the order of
    poly_sort_key on the monic irreducibles of one degree.  The cache is
    left as it was found, so the lists of F_211 do not outlive the test."""
    ctx, d = field_and_degree
    q = ctx.q
    with mock.patch.dict(polynomial._irr_cache):
        positions = polynomial._irreducible_positions(d, ctx)
        assert count_irreducibles(d, ctx) == len(positions) == necklace_count(d, q)
    assert 0 <= min(positions) and max(positions) < q ** d
    digits = [[r // w % q for r in positions] for w in [q ** (d - 1 - k) for k in range(d)]]
    assert all(map(operator.lt, zip(*digits), zip(*[c[1:] for c in digits])))


def test_is_irreducible_edge_cases():
    assert not _is_irreducible(F2, (1,))
    assert not _is_irreducible(F2, ())
    assert not _is_irreducible(F5, (3,))
    assert _is_irreducible(F2, parse_poly("t", F2).coeffs)
    assert not _is_irreducible(F2, parse_poly("t^2", F2).coeffs)


def test_necklace_identity_small():
    for ctx in (F2, F3, F4):
        assert necklace_sums(4, ctx) == [ctx.q ** k for k in range(1, 5)]


def test_necklace_sums_refuse_a_kmax_past_the_limit_before_any_pass(sieve_passes):
    # degrees 1..23 fit the sieve, so the planner meets 24 before any pass
    with pytest.raises(CapExceeded, match=r"q\^d = 16777216 slots"):
        necklace_sums(10 ** 9, F2)
    assert sieve_passes == []


def test_the_planner_skips_cached_degrees_and_sieves_the_rest_top_down(sieve_passes):
    assert necklace_sums(12, F2) == [2 ** k for k in range(1, 13)]
    assert sieve_passes == [1, 3, 6, 12]
    with pytest.raises(CapExceeded, match=r"q\^d = 244140625 slots"):
        polynomial._plan_sieve([5, 12, 13], make_field(5))  # 5^5 fits, 5^12 does not
    polynomial._plan_sieve([1, 5, 12, 13], F2)
    assert sieve_passes == [1, 3, 6, 12, 13]


@pytest.mark.parametrize(
    "d,count",
    [
        (24, "16777216 slots"),
        (14284, f"{2 ** 14284} slots"),  # 4300 digits, the most Python prints
        (14285, "2^14285 slots, a number of more than 4300 digits"),
        (10 ** 5, "2^100000 slots, a number of more than 4300 digits"),
    ],
)
def test_a_sieve_past_the_limit_is_one_line_naming_q_and_d_when_unprintable(d, count):
    # 2^(10^5) has 30103 digits; building and printing it ended in Python's
    # own error about integer string conversion
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as refused:
        count_irreducibles(d, F2)
    assert time.perf_counter() - start < 1
    assert str(refused.value) == (
        f"irreducible enumeration needs q^d = {count}, beyond the limit "
        "10000000, which no flag raises"
    )


# -- factoring ---------------------------------------------------------------

def test_factor_frozen_examples():
    f = parse_poly("t^4+t", F2)
    fac = factor(f)
    assert [(format_poly(p), r) for p, r in fac.factors] == [
        ("t", 1),
        ("t+1", 1),
        ("t^2+t+1", 1),
    ]
    assert fac.unit == 1
    assert fac.is_squarefree
    assert expand(fac) == f

    fac2 = factor(parse_poly("t^4+t^2+1", F2))  # (t^2+t+1)^2
    assert [(format_poly(p), r) for p, r in fac2.factors] == [("t^2+t+1", 2)]
    assert not fac2.is_squarefree
    assert fac2.spec.max_multiplicity == 2


def test_factor_t9_minus_t_over_f3():
    # the product of all monic irreducibles of degree dividing 2
    f = parse_poly("t^9+2*t", F3)
    fac = factor(f)
    assert [format_poly(p) for p, _ in fac.factors] == [
        "t",
        "t+1",
        "t+2",
        "t^2+1",
        "t^2+t+2",
        "t^2+2*t+2",
    ]
    assert all(r == 1 for _, r in fac.factors)


def test_factor_pulls_out_the_unit():
    f = parse_poly("2*t^2+2", F3)  # 2 * (t^2 + 1)
    fac = factor(f)
    assert fac.unit == 2
    assert [format_poly(p) for p, _ in fac.factors] == ["t^2+1"]
    assert expand(fac) == f


def test_factor_inseparable_power():
    # derivative vanishes: t^6+t^4+t^2 = (t^3+t^2+t)^2 over F_2
    f = parse_poly("t^6+t^4+t^2", F2)
    fac = factor(f)
    assert expand(fac) == f
    assert [(format_poly(p), r) for p, r in fac.factors] == [
        ("t", 2),
        ("t^2+t+1", 2),
    ]


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor(Poly(F2))


def test_factor_of_constant_is_empty():
    fac = factor(Poly(F3, (2,)))
    assert fac.factors == ()
    assert fac.unit == 2
    assert str(fac) == "2" and expand(fac) == Poly(F3, (2,))
    fac = factor(Poly(F4, (3,)))
    assert str(fac) == "[1,1]" and expand(fac) == Poly(F4, (3,))


@pytest.mark.parametrize("ctx,dmax", [(F2, 6), (F3, 4)], ids=["F2", "F3"])
def test_factor_round_trip_exhaustive(ctx, dmax):
    for d in range(1, dmax + 1):
        for f in enumerate_monic(d, ctx):
            fac = factor(f)
            assert expand(fac) == f
            assert all(_is_irreducible(ctx, p.coeffs) for p, _ in fac.factors)
            assert all(r >= 1 for _, r in fac.factors)
            keys = [poly_sort_key(p) for p, _ in fac.factors]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)


@pytest.mark.parametrize(
    "ctx,dmax", [(F2, 6), (F3, 4), (F4, 4), (F5, 4)], ids=["F2", "F3", "F4", "F5"]
)
def test_factor_agrees_with_the_sieve_exhaustive(ctx, dmax):
    """Every factor of every monic f is one of the sieve's irreducibles of
    its degree, and the factors multiply back to f.  The sieve shares no gcd
    or powmod code with factor."""
    sieved = {d: set(irreducibles(d, ctx)) for d in range(1, dmax + 1)}
    for d in range(1, dmax + 1):
        for f in enumerate_monic(d, ctx):
            fac = factor(f)
            for p, _ in fac.factors:
                assert p in sieved[p.degree], format_poly(p)
            assert expand(fac) == f, format_poly(f)


def test_factoring_the_quick_ensembles_takes_few_divisions(factor_divisions):
    """The 150 monic polynomials of degree 1..4 over F_2 and F_3, which
    `verify --quick` factors for its equal-expectation tallies, cost 1284
    polynomial divisions.  A pipeline that divides by gcds of 1 and runs
    Euclid steps by constants takes 2897."""
    for ctx in (F2, F3):
        for d in range(1, 5):
            for f in enumerate_monic(d, ctx):
                factor(f)
    assert len(factor_divisions) == 1284


@settings(max_examples=60, deadline=None)
@given(polys(F4, 7))
def test_factor_round_trip_random_extension(f):
    if f.is_zero:
        return
    fac = factor(f)
    assert expand(fac) == f
    assert all(_is_irreducible(F4, p.coeffs) for p, _ in fac.factors)


@settings(max_examples=40, deadline=None)
@given(polys(F5, 8))
def test_factor_round_trip_random_f5(f):
    if f.is_zero:
        return
    fac = factor(f)
    assert expand(fac) == f
    assert all(p.is_monic for p, _ in fac.factors)


@pytest.mark.parametrize("ctx", [F2, F3, F4, F5, F8, F9], ids=lambda c: f"q={c.q}")
def test_splitting_matches_trial_division(ctx):
    """factor() equals the trial-division splitter on every product of
    distinct degree-k irreducibles of degree d with q^d <= 4096.  These are
    all the inputs the equal-degree step receives while factoring the monic
    polynomials of those degrees, so factor() agrees with its trial-division
    form on all of them."""
    dmax = max(d for d in range(1, 13) if ctx.q ** d <= 4096)
    for k in range(1, dmax // 2 + 1):
        for m in range(2, dmax // k + 1):
            for chosen in itertools.combinations(irreducibles(k, ctx), m):
                g = Poly(ctx, product(ctx, *(p.coeffs for p in chosen)))
                got = [p for p, _ in factor(g).factors]
                assert got == trial_equal_degree(g, k) == list(chosen), format_poly(g)


def test_factor_never_runs_the_sieve(monkeypatch):
    monkeypatch.setattr(polynomial, "_irr_cache", {})
    linears = [parse_poly(f"t+{c}", F65521).coeffs for c in (65520, 65519, 65518)]
    fac = factor(Poly(F65521, product(F65521, *linears)))
    assert [format_poly(p) for p, _ in fac.factors] == ["t+65518", "t+65519", "t+65520"]
    fac = factor(parse_poly("t^4+t^2+5", F65521))
    assert [format_poly(p) for p, _ in fac.factors] == ["t^2+31595", "t^2+33927"]
    assert not any(ctx == F65521 for ctx, _ in polynomial._irr_cache)


@st.composite
def monic_products(draw, ctx, max_deg=64):
    """A unit times a product of random monic polynomials, some repeated, of
    total degree at most max_deg.  Coefficients come from element indices,
    so extension fields get elements outside the prime subfield."""
    f = Poly(ctx, (draw(st.integers(1, ctx.q - 1)),))
    while f.degree < max_deg and (f.degree < 1 or draw(st.booleans())):
        d = draw(st.integers(1, max_deg - f.degree))
        low = draw(st.lists(st.integers(0, ctx.q - 1), min_size=d, max_size=d))
        g = tuple(low) + (1,)
        power = draw(st.integers(1, (max_deg - f.degree) // d))
        f = Poly(ctx, product(ctx, f.coeffs, *[g] * power))
    return f


def check_factorization(f):
    fac = factor(f)
    assert expand(fac) == f
    assert all(_is_irreducible(f.ctx, p.coeffs) for p, _ in fac.factors)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([F2, F4]).flatmap(monic_products))
def test_factor_property_small_fields(f):
    check_factorization(f)


# a degree-64 example with a large irreducible factor takes seconds to factor
# and check over these fields, so few examples are drawn
@settings(max_examples=8, deadline=None)
@given(st.sampled_from([F65521, F2_16]).flatmap(monic_products))
def test_factor_property_large_fields(f):
    check_factorization(f)
