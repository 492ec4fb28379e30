"""The integer-coded field and polynomial core against a schoolbook reference.

The reference below shares no code with orbitstat's arithmetic: an element is
its coefficient vector over F_p, products are reduced by the modulus digit by
digit, and inverses are a^(q-2) by square-and-multiply.  Polynomials are
lists of element indices with long division and Euclid written out here.
"""

import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import orbitstat
from orbitstat.finite_field import make_field
from orbitstat.polynomial import (
    Poly,
    _divmod,
    _gcd,
    _irreducible_tuples,
    _is_irreducible,
    _mul,
    count_irreducibles,
    enumerate_monic,
    factor,
)

from poly_oracle import expand

FIELDS = {
    q: make_field(p, e)
    for q, (p, e) in {
        2: (2, 1),
        3: (3, 1),
        4: (2, 2),
        8: (2, 3),
        9: (3, 2),
        25: (5, 2),
        4096: (2, 12),
        65521: (65521, 1),
        65536: (2, 16),
    }.items()
}
SMALL = [q for q in FIELDS if q <= 9]


class RefField:
    """Schoolbook F_q on coefficient vectors (constant first)."""

    def __init__(self, ctx):
        self.p, self.e, self.q = ctx.p, ctx.e, ctx.q
        self.modulus = ctx.modulus

    def vec(self, idx):
        return [(idx // self.p ** i) % self.p for i in range(self.e)]

    def idx(self, v):
        return sum(c * self.p ** i for i, c in enumerate(v))

    def add(self, a, b):
        return self.idx([(x + y) % self.p for x, y in zip(self.vec(a), self.vec(b))])

    def neg(self, a):
        return self.idx([-x % self.p for x in self.vec(a)])

    def mul(self, a, b):
        x, y = self.vec(a), self.vec(b)
        prod = [0] * (2 * self.e - 1)
        for i in range(self.e):
            for j in range(self.e):
                prod[i + j] += x[i] * y[j]
        for k in range(2 * self.e - 2, self.e - 1, -1):  # t^k = t^(k-e) * t^e
            c = prod[k]
            for i in range(self.e + 1):
                prod[k - self.e + i] -= c * self.modulus[i]
        return self.idx([c % self.p for c in prod[: self.e]])

    def pow(self, a, k):
        out = 1
        while k:
            if k & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            k >>= 1
        return out

    def inv(self, a):
        return self.pow(a, self.q - 2)


# -- reference polynomials: lists of element indices, no trailing zeros ------

def ref_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def ref_mul(F, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return ref_trim(out)


def ref_divmod(F, a, b):
    rem = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    inv = F.inv(b[-1])
    for i in range(len(a) - len(b), -1, -1):
        c = F.mul(rem[i + len(b) - 1], inv)
        quot[i] = c
        for j, y in enumerate(b):
            rem[i + j] = F.add(rem[i + j], F.neg(F.mul(c, y)))
    return ref_trim(quot), ref_trim(rem)


def ref_gcd(F, a, b):
    a, b = ref_trim(a), ref_trim(b)
    while b:
        a, b = b, ref_divmod(F, a, b)[1]
    if not a:
        return a
    inv = F.inv(a[-1])
    return [F.mul(c, inv) for c in a]


# -- strategies --------------------------------------------------------------

@st.composite
def field_and_elements(draw, count=3):
    q = draw(st.sampled_from(sorted(FIELDS)))
    return FIELDS[q], [draw(st.integers(0, q - 1)) for _ in range(count)]


@st.composite
def field_and_polys(draw, count=2, max_deg=12, qs=None):
    q = draw(st.sampled_from(qs or sorted(FIELDS)))
    polys = [
        draw(st.lists(st.integers(0, q - 1), max_size=max_deg + 1)) for _ in range(count)
    ]
    return FIELDS[q], polys


# -- field arithmetic --------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(field_and_elements())
def test_field_ops_match_reference_and_axioms(case):
    ctx, (a, b, c) = case
    F = RefField(ctx)
    assert ctx.add(a, b) == F.add(a, b) == ctx.add(b, a)
    assert ctx.mul(a, b) == F.mul(a, b) == ctx.mul(b, a)
    assert ctx.neg(a) == F.neg(a)
    assert ctx.sub(a, b) == F.add(a, F.neg(b))
    assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.add(a, 0) == ctx.mul(a, 1) == a
    assert ctx.add(a, ctx.neg(a)) == 0
    assert ctx.power(a, c % 50) == F.pow(a, c % 50)
    if a:
        assert ctx.inv(a) == F.inv(a)
        assert ctx.mul(a, ctx.inv(a)) == 1
    else:
        with pytest.raises(ZeroDivisionError):
            ctx.inv(a)


@settings(max_examples=200, deadline=None)
@given(field_and_elements(count=2))
def test_field_elements_delegate_to_index_arithmetic(case):
    """An element written as its digit vector enters through index_of and
    leaves through element_text, with the index arithmetic in between."""
    ctx, (a, b) = case
    F = RefField(ctx)
    x, y = F.vec(a), F.vec(b)
    assert ctx.index_of(x) == a
    assert ctx.index_of([c + ctx.p for c in x]) == a  # digits reduce mod p
    total = [(c + d) % ctx.p for c, d in zip(x, y)]
    assert ctx.add(ctx.index_of(x), ctx.index_of(y)) == ctx.index_of(total)
    digits = ",".join(map(str, x))
    assert ctx.element_text(a) == (str(a) if a < ctx.p else f"[{digits}]")


def test_element_index_round_trip_exhaustive():
    for q in (4, 8, 9, 25):
        ctx = FIELDS[q]
        F = RefField(ctx)
        assert [ctx.index_of(F.vec(i)) for i in range(q)] == list(range(q))


def test_tables_are_lazy_and_linear_in_q():
    for q, ctx in FIELDS.items():
        if ctx.e == 1:
            ctx.mul(q - 1, q - 1)
            ctx.inv(q - 1)
            assert ctx._tables is None  # prime fields use native arithmetic
        else:
            exp, log, zech = ctx.tables()
            assert sorted(exp) == list(range(1, q))  # a primitive element
            size = len(exp) + len(log) + (len(zech) if zech else 0)
            assert size <= 3 * q


def test_import_builds_no_field_table():
    src = pathlib.Path(orbitstat.__file__).resolve().parents[1]
    code = (
        "import gc, orbitstat, orbitstat.cli\n"
        "from orbitstat.finite_field import FieldCtx\n"
        "ctxs = [o for o in gc.get_objects() if isinstance(o, FieldCtx)]\n"
        "print(sum(o._tables is not None for o in ctxs))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout == "0\n"


# Default moduli as the search found them before it ran on this core; the
# search order (constant-first lexicographic) must not move.
RECORDED_MODULI = {
    (2, 10): (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (2, 12): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (2, 14): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    (2, 15): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1),
    (2, 16): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1),
    (3, 10): (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1),
    (5, 6): (1, 0, 0, 0, 1, 1, 1),
    (251, 2): (1, 0, 1),
}


@pytest.mark.parametrize("p,e", sorted(RECORDED_MODULI))
def test_default_modulus_search(p, e):
    assert make_field(p, e).modulus == RECORDED_MODULI[p, e]


# -- polynomial arithmetic ---------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(field_and_polys())
def test_poly_mul_divmod_gcd_match_reference(case):
    ctx, (a, b) = case
    F = RefField(ctx)
    f, g = (Poly(ctx, c) for c in (a, b))
    a, b = ref_trim(a), ref_trim(b)
    assert list(f.coeffs) == a and list(g.coeffs) == b
    assert list(_mul(ctx, f.coeffs, g.coeffs)) == ref_mul(F, a, b)
    assert list(_gcd(ctx, f.coeffs, g.coeffs)) == ref_gcd(F, a, b)
    if b:
        quot, rem = _divmod(ctx, f.coeffs, g.coeffs)
        assert [list(quot), list(rem)] == list(ref_divmod(F, a, b))
    assert hash(f) == hash(Poly(ctx, f.coeffs))


@settings(max_examples=150, deadline=None)
@given(field_and_polys(count=1, max_deg=8, qs=SMALL))
def test_factor_expands_back_into_irreducibles(case):
    ctx, (a,) = case
    f = Poly(ctx, a)
    if f.is_zero:
        return
    fac = factor(f)
    assert expand(fac) == f
    assert all(p.is_monic and _is_irreducible(ctx, p.coeffs) for p, _ in fac.factors)


def _necklace_count(q, d):
    """N_d by Moebius inversion of sum_{e | d} e * N_e = q^d."""
    def mobius(n):
        out, m, k = 1, n, 2
        while k * k <= m:
            if m % k == 0:
                m //= k
                if m % k == 0:
                    return 0
                out = -out
            k += 1
        return -out if m > 1 else out

    return sum(mobius(d // e) * q ** e for e in range(1, d + 1) if d % e == 0) // d


@pytest.mark.parametrize("q,dmax", [(8, 4), (9, 4), (25, 3)])
def test_sieve_over_extensions(q, dmax):
    ctx = FIELDS[q]
    for d in range(1, dmax + 1):
        assert count_irreducibles(d, ctx) == _necklace_count(q, d)
    for d in (2, 3):
        if q ** d <= 1000:
            sieved = set(_irreducible_tuples(d, ctx))
            monics = (f.coeffs for f in enumerate_monic(d, ctx))
            assert sieved == {c for c in monics if _is_irreducible(ctx, c)}


def test_necklace_count_helper():
    assert [_necklace_count(2, d) for d in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    assert _necklace_count(4, 2) == 6
