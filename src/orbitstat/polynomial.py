"""Univariate polynomials over F_q: exact arithmetic, deterministic
factorization and irreducible enumeration.

A Poly is a value: its field and an ascending tuple of element indices (see
finite_field) with no trailing zeros; the zero polynomial is the empty tuple
(degree -1).  Poly(ctx, coeffs) takes indices, and Poly.coeffs and leading
give them back.  The arithmetic is one set of functions on those int tuples
(_mul, _divmod, _gcd, _powmod, _is_irreducible): over a prime field with
native integer arithmetic and one reduction mod p per coefficient, over an
extension through the field's exp/log tables.

Monic polynomials of degree d are enumerated by counting their lower
coefficient vector in base q with the constant coefficient as the fastest
digit, which fixes one canonical order for everything downstream.
Factorizations sort their factors by (degree, then the coefficient vector),
so output is byte-stable across runs.

The factorization pipeline is square-free decomposition (with p-th-root
extraction when the derivative vanishes in characteristic p), splitting into
distinct-degree parts via gcd with t^(q^k)-t, then Cantor-Zassenhaus
equal-degree splitting.  The splitting draws from a PRNG seeded with a
constant, and the factors are unique and sorted, so factor() is deterministic
and never needs the sieve: it works for every field the package supports.
The pipeline runs on coefficient tuples from end to end, through the one
tuple-level gcd and powering modulo a polynomial, and makes Polys only of
the factors it returns.

Irreducible enumeration is a sieve over one flag per monic polynomial of
degree K, kept in coefficient-lex order (c0 the top digit).  Write
f = L + t^a*H with deg L < a; an irreducible P of degree a divides f exactly
when L = -(t^a*H mod P), which is affine in H.  So the q^(K-a) multiples of P
form one list, built a digit of H at a time by translating whole lists of low
parts (XOR in characteristic 2, a lookup in a row of digit-wise sums
otherwise), and their flags are cleared together, for every P of degree
a <= K/2 except t.  The multiples of t are the slice [0, q^(K-1)), and they
are never marked: there a monic g of lower degree d sits as t^(K-d)*g, at its
own lex position, in [q^(d-1), q^d) when g(0) != 0, and for K/2 < d <= K it
survives exactly when g is irreducible.  So one array of degree K yields
every degree in (K/2, K], read out already in lex order.  A request for
degree K first requests K // 2, so the passes run top-down over K, K // 2,
K // 4, ..., 1, and a caller that wants degrees 1..K asks for K first.  The
result is memoized per (field, degree), and a degree with q^K >
ENUMERATION_LIMIT is refused before any degree is sieved.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import re
from dataclasses import dataclass
from typing import Iterator

from .errors import CapExceeded, read_int
from .finite_field import FieldCtx, prime_factors
from .symmetric import CosetSpec

ENUMERATION_LIMIT = 10 ** 7


# ---------------------------------------------------------------------------
# Arithmetic on coefficient tuples of element indices
# ---------------------------------------------------------------------------

def _trim(c) -> tuple[int, ...]:
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return tuple(c[:n])


def _ext_ops(ctx: FieldCtx):
    """exp, log, q-1 and the index addition of an extension field."""
    exp, log, _ = ctx.tables()
    return exp, log, ctx.q - 1, operator.xor if ctx.p == 2 else ctx.add


def _mul(ctx: FieldCtx, a: tuple, b: tuple) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    if ctx.e == 1:
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    out[k] += x * y
        p = ctx.p
        return tuple([v % p for v in out])
    exp, log, n, add = _ext_ops(ctx)
    logs_b = [log[y] if y else -1 for y in b]
    for i, x in enumerate(a):
        if x:
            lx = log[x]
            for k, ly in enumerate(logs_b, i):
                if ly >= 0:
                    out[k] = add(out[k], exp[(lx + ly) % n])
    return tuple(out)


def _divmod(ctx: FieldCtx, a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """Quotient and remainder of a by a nonzero b."""
    db = len(b) - 1
    if len(a) <= db:
        return (), a
    rem = list(a)
    quot = [0] * (len(a) - db)
    if ctx.e == 1:
        p = ctx.p
        inv = pow(b[-1], p - 2, p)
        lower = b[:-1]
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + db] % p * inv % p
            if c:
                quot[i] = c
                c = p - c
                for k, y in enumerate(lower, i):
                    rem[k] += c * y
        return tuple(quot), _trim([v % p for v in rem[:db]])
    exp, log, n, add = _ext_ops(ctx)
    shift = n - log[b[-1]]  # log of 1 / lead(b)
    minus = log[ctx.p - 1]  # log of -1
    logs_b = [log[y] if y else -1 for y in b[:-1]]
    for i in range(len(quot) - 1, -1, -1):
        top = rem[i + db]
        if top:
            lc = (log[top] + shift) % n
            quot[i] = exp[lc]
            lc += minus
            for k, ly in enumerate(logs_b, i):
                if ly >= 0:
                    rem[k] = add(rem[k], exp[(lc + ly) % n])
    return tuple(quot), _trim(rem[:db])


def _poly(ctx: FieldCtx, c: tuple) -> "Poly":
    """Poly from a trimmed tuple of element indices, without validation."""
    f = object.__new__(Poly)
    f.ctx = ctx
    f._c = c
    return f


class Poly:
    """A polynomial over a fixed F_q, as a value: its field and its trimmed
    tuple of element indices, compared and hashed by them.  It has no
    arithmetic of its own; every operation runs on the tuples."""

    __slots__ = ("ctx", "_c")

    def __init__(self, ctx: FieldCtx, coeffs=()):
        """coeffs: element indices in 0..q-1, constant coefficient first."""
        items = tuple(coeffs)
        for c in items:
            if not (isinstance(c, int) and 0 <= c < ctx.q):
                raise ValueError(
                    f"coefficient {c!r} is not an element index 0..{ctx.q - 1}"
                )
        self.ctx = ctx
        self._c = _trim(items)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._c

    @property
    def degree(self) -> int:
        return len(self._c) - 1

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def is_monic(self) -> bool:
        return bool(self._c) and self._c[-1] == 1

    @property
    def leading(self) -> int:
        if not self._c:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self._c[-1]

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self._c == other._c
            and self.ctx == other.ctx
        )

    def __hash__(self):
        return hash(self._c)

    def __bool__(self):
        return bool(self._c)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({format_poly(self)!r}, {self.ctx!r})"


def _monic(ctx: FieldCtx, c: tuple) -> tuple[int, ...]:
    """A nonzero tuple scaled by the inverse of its leading coefficient."""
    lead = c[-1]
    if lead == 1:
        return c
    inv, mul = ctx.inv(lead), ctx.mul
    return tuple([mul(x, inv) for x in c])


def _derivative(ctx: FieldCtx, c: tuple) -> tuple[int, ...]:
    mul, p = ctx.mul, ctx.p
    return _trim([mul(x, i % p) for i, x in enumerate(c) if i])


def _gcd(ctx: FieldCtx, a: tuple, b: tuple) -> tuple[int, ...]:
    """Monic gcd of two tuples; the gcd of () and () is ()."""
    while b:
        if len(b) == 1:  # a nonzero constant divides everything
            return (1,)
        a, b = b, _divmod(ctx, a, b)[1]
    return _monic(ctx, a) if a else a


def _powmod(ctx: FieldCtx, base: tuple, k: int, m: tuple) -> tuple[int, ...]:
    """base**k mod m, for k >= 0 and m of degree >= 1."""
    b = base if len(base) < len(m) else _divmod(ctx, base, m)[1]
    result = None  # 1, until the first factor arrives
    while k:
        if k & 1:
            result = b if result is None else _divmod(ctx, _mul(ctx, result, b), m)[1]
        k >>= 1
        if k:
            b = _divmod(ctx, _mul(ctx, b, b), m)[1]
    return (1,) if result is None else result


def _minus_t(ctx: FieldCtx, s: tuple) -> tuple[int, ...]:
    """s - t."""
    c = list(s) + [0] * (2 - len(s))
    c[1] = ctx.sub(c[1], 1)
    return _trim(c)


def divisors(n: int) -> list[int]:
    """Positive divisors of n, ascending."""
    if n < 1:
        raise ValueError(f"divisors of {n}")
    return [d for d in range(1, n + 1) if n % d == 0]


# ---------------------------------------------------------------------------
# Text format.  Grammar: sum of terms c, t, t^k, c*t^k joined by +/-, with
# integer coefficients (reduced mod p) or bracketed vectors [a0,a1,...] for
# extension fields; alternatively one bracketed ascending list [c0,c1,...,cn].
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"^(?:(?P<coef>\d+|\[[-\d,]*\])\*?)?(?P<var>t(?:\^(?P<exp>\d+))?)?$"
)


def _matching_bracket(s: str, start: int) -> int:
    depth = 0
    for i in range(start, len(s)):
        if s[i] == "[":
            depth += 1
        elif s[i] == "]":
            depth -= 1
            if depth == 0:
                return i
    raise ValueError(f"unbalanced brackets in {s!r}")


def signed_terms(s: str) -> list[tuple[int, str]]:
    """Split s on the + and - outside every () and [] group into (sign,
    chunk) pairs; the parsers of polynomials and of statistics both read
    their terms through it.  A sign directly after another sign flips
    it, so "a+-b" is a - b; a trailing sign is an error."""
    out = []
    sign = 1
    depth = 0
    cur: list[str] = []
    for ch in s:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch in "+-" and depth == 0:
            if cur:
                out.append((sign, "".join(cur)))
                cur = []
                sign = 1
            if ch == "-":
                sign = -sign
        else:
            cur.append(ch)
    if not cur:
        raise ValueError(f"dangling sign in {s!r}")
    out.append((sign, "".join(cur)))
    return out


def _coef_from_text(text: str, ctx: FieldCtx, poly: str) -> int:
    """Index of an integer (reduced mod p) or a bracketed digit vector; poly
    is the polynomial text, for the error message."""
    vector = text.startswith("[")
    parts = text[1:-1].split(",") if vector else [text]
    try:
        digits = [read_int(x, poly, "the polynomial") for x in parts] if text != "[]" else []
    except CapExceeded:
        raise
    except ValueError:
        raise ValueError(
            f"bad coefficient {text!r} in {poly!r}: expected an integer "
            "or a bracketed vector of integers such as [1,0,1]"
        ) from None
    return ctx.index_of(digits) if vector else digits[0] % ctx.p


def parse_poly(text: str, ctx: FieldCtx) -> Poly:
    """Parse the term grammar or the bracketed coefficient-list form.  A term
    of degree beyond ENUMERATION_LIMIT is refused before the dense list of
    coefficients is allocated."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    if s[0] == "[" and _matching_bracket(s, 0) == len(s) - 1:
        # whole string is one bracket group: ascending coefficient list
        body = s[1:-1]
        coeffs = []
        i = 0
        while i < len(body):
            if body[i] == "[":
                j = _matching_bracket(body, i)
                coeffs.append(_coef_from_text(body[i : j + 1], ctx, text))
                i = j + 1
                if i < len(body) and body[i] == ",":
                    i += 1
            else:
                j = body.find(",", i)
                part = body[i:] if j < 0 else body[i:j]
                coeffs.append(_coef_from_text(part, ctx, text))
                i = len(body) if j < 0 else j + 1
        return Poly(ctx, coeffs)
    acc: dict[int, int] = {}
    for sign, chunk in signed_terms(s):
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coef") is None and m.group("var") is None):
            raise ValueError(f"bad term {chunk!r} in {text!r}")
        coef = 1 if m.group("coef") is None else _coef_from_text(m.group("coef"), ctx, text)
        if sign < 0:
            coef = ctx.neg(coef)
        if m.group("var") is None:
            exp = 0
        elif m.group("exp") is None:
            exp = 1
        else:
            exp = read_int(m.group("exp"), text, "the polynomial")
            if exp > ENUMERATION_LIMIT:
                raise CapExceeded(
                    f"the degree {exp} in {text!r} is beyond the limit "
                    f"{ENUMERATION_LIMIT}, which no flag raises"
                )
        acc[exp] = ctx.add(acc.get(exp, 0), coef)
    top = max(acc) if acc else 0
    return Poly(ctx, [acc.get(i, 0) for i in range(top + 1)])


def format_poly(f: Poly) -> str:
    """Canonical descending rendering; parse_poly round-trips it."""
    if f.is_zero:
        return "0"
    ctx, c = f.ctx, f._c
    if f.degree == 0:
        ct = ctx.element_text(c[0])
        # a lone bracketed element would read as a coefficient list, so a
        # constant like [0,1] is wrapped into the singleton list form
        return f"[{ct}]" if ct.startswith("[") else ct
    parts = []
    for i in range(f.degree, -1, -1):
        if not c[i]:
            continue
        ct = ctx.element_text(c[i])
        if i == 0:
            parts.append(ct)
        else:
            var = "t" if i == 1 else f"t^{i}"
            parts.append(var if ct == "1" else f"{ct}*{var}")
    return "+".join(parts)


# ---------------------------------------------------------------------------
# Enumeration and the irreducible sieve
# ---------------------------------------------------------------------------

def monic_from_index(d: int, ctx: FieldCtx, idx: int) -> Poly:
    """The idx-th monic polynomial of degree d (constant digit fastest)."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    if not 0 <= idx < ctx.q ** d:
        raise ValueError(f"index {idx} out of range for degree {d}")
    return _poly(ctx, _index_digits(idx, d, ctx.q) + (1,))


def _index_digits(idx: int, d: int, q: int) -> tuple[int, ...]:
    """Coefficient digits (c0, ..., c_{d-1}) of a monic index."""
    digs = []
    for _ in range(d):
        idx, rem = divmod(idx, q)
        digs.append(rem)
    return tuple(digs)


def enumerate_monic(d: int, ctx: FieldCtx) -> Iterator[Poly]:
    """All q^d monic polynomials of degree d, deterministic order."""
    for idx in range(ctx.q ** d):
        yield monic_from_index(d, ctx, idx)


_irr_cache: dict[tuple[FieldCtx, int], list[int]] = {}


def check_sieve_size(d: int, ctx: FieldCtx) -> None:
    """Refuse a degree-d sieve that needs more than ENUMERATION_LIMIT slots."""
    if ctx.q ** d > ENUMERATION_LIMIT:
        raise CapExceeded(
            f"irreducible enumeration needs q^d = {ctx.q ** d} slots, "
            f"beyond the sieve limit {ENUMERATION_LIMIT}, which no flag raises"
        )


def _lex_to_index(n: int, q: int) -> list[int]:
    """The index of each lex position: entry c0*q^(n-1) + ... + c_(n-1) is
    c0 + c1*q + ... + c_(n-1)*q^(n-1)."""
    table, w = [0], 1
    for _ in range(n):
        table = [x + c * w for x in table for c in range(q)]
        w *= q
    return table


def _digit_sum_row(u: int, n: int, p: int) -> list[int]:
    """[l + u for l in range(p^n)], the sum taken digit by digit mod p."""
    row, w = [0], 1
    for _ in range(n):
        u, c = divmod(u, p)
        row = [x + (y + c) % p * w for y in range(p) for x in row]
        w *= p
    return row


def _translator(ctx: FieldCtx, a: int):
    """(block, u) -> the vector sums l + u for l in block, on lex codes of a
    coefficients: XOR in characteristic 2, else one lookup in the row of u,
    built on first use.  There are at most q^a rows of q^a entries, and the
    entries refer to one shared list of ints, 8 bytes an entry."""
    if ctx.p == 2:
        return lambda block, u: [l ^ u for l in block]
    codes = list(range(ctx.q ** a))
    rows: dict[int, list[int]] = {}

    def translate(block, u):
        row = rows.get(u)
        if row is None:
            row = rows[u] = list(map(codes.__getitem__, _digit_sum_row(u, a * ctx.e, ctx.p)))
        return [row[l] for l in block]

    return translate


def _multiple_lows(ctx: FieldCtx, p_idx: int, a: int, d: int, translate) -> list[int]:
    """The low parts of the monic multiples of degree d of P, the monic of
    degree a and index p_idx.

    Write a monic f of degree d as L + t^a*H, with deg L < a and H monic of
    degree m = d-a.  P divides f exactly when L = -(t^a*H mod P), and with
    H = t^m + sum of h_j*t^j that is -(t^d mod P) - sum of h_j*(t^(a+j) mod P),
    affine in H.  Entry r is the lex code of L (c0 the top digit) for the H
    of lex position r, so f sits at lex position L*q^m + r.  The list grows
    one digit of H at a time, the fastest digit h_(m-1) first: block h of
    the new list is the old list translated by -h*(t^(a+j) mod P).
    """
    q = ctx.q
    p_low = list(_index_digits(p_idx, a, q))  # -(t^a mod P)
    t_a = [ctx.neg(c) for c in p_low]  # t^a mod P
    weights = [q ** (a - 1 - k) for k in range(a)]

    def code(vec):
        return sum(c * w for c, w in zip(vec, weights))

    minus = []  # -(t^(a+j) mod P) for j = 0..m, each t times the one before
    r = p_low
    for _ in range(d - a + 1):
        minus.append(r)
        top = r[-1]
        r = [0] + r[:-1]
        if top:
            r = [ctx.add(x, ctx.mul(top, c)) for x, c in zip(r, t_a)]
    lows = [code(minus.pop())]
    for vec in reversed(minus):
        grown = list(lows)
        for h in range(1, q):
            grown += translate(lows, code([ctx.mul(h, c) for c in vec]))
        lows = grown
    return lows


def _sieve(d: int, ctx: FieldCtx) -> bytearray:
    """One flag per monic of degree d in lex order (c0 the top digit), with
    the multiples of every irreducible P != t of degree a <= d/2 cleared a
    whole list at a time."""
    q = ctx.q
    alive = bytearray(b"\x01") * q ** d
    view = memoryview(alive)
    for a in range(1, d // 2 + 1):
        translate = _translator(ctx, a)
        span = q ** (d - a)
        rows = [view[low * span:(low + 1) * span] for low in range(q ** a)]  # by low part
        for p_idx in _irreducible_indices(a, ctx):
            if p_idx == 0:  # t: its multiples are the slice [0, q^(d-1))
                continue
            for r, low in enumerate(_multiple_lows(ctx, p_idx, a, d, translate)):
                rows[low][r] = 0
    return alive


def _irreducible_indices(d: int, ctx: FieldCtx) -> list[int]:
    """Indices of the monic irreducibles of degree d, coefficient-lex order.

    A miss first requests degree d // 2, which fills every degree <= d/2,
    then sieves degree d once.  A monic g of degree k sits in that array as
    t^(d-k)*g, at g's own lex position, in [q^(k-1), q^k) when g(0) != 0;
    for d/2 < k <= d it survives exactly when g is irreducible, since a
    reducible g with g(0) != 0 has a factor P != t of degree <= k/2, and no
    such P divides t^(d-k)*g for an irreducible g.  So every uncached k in
    (d/2, d] is read off the one array, and the survivors turned into
    indices through two tables of about q^(k/2) entries.
    """
    key = (ctx, d)
    got = _irr_cache.get(key)
    if got is not None:
        return got
    if d < 1:
        raise ValueError("irreducibles have degree >= 1")
    check_sieve_size(d, ctx)
    if d > 1:
        _irreducible_indices(d // 2, ctx)
    q = ctx.q
    alive = memoryview(_sieve(d, ctx))
    for k in range(d // 2 + 1, d + 1):
        if (ctx, k) in _irr_cache:
            continue
        start, stop = (q ** (k - 1) if k > 1 else 0), q ** k  # degree 1 keeps t
        half = q ** (k // 2)
        head = _lex_to_index(k - k // 2, q)
        tail = [x * q ** (k - k // 2) for x in _lex_to_index(k // 2, q)]
        survivors = itertools.compress(range(start, stop), alive[start:stop])
        _irr_cache[(ctx, k)] = [head[r // half] + tail[r % half] for r in survivors]
    return _irr_cache[key]


def count_irreducibles(d: int, ctx: FieldCtx) -> int:
    """N_d: the number of monic irreducibles of degree d over F_q."""
    return len(_irreducible_indices(d, ctx))


def necklace_count(k: int, q: int) -> int:
    """N_k by Moebius inversion of sum over e | k of e * N_e = q^k:
    (1/k) * sum over e | k of mu(e) * q^(k/e).  It needs q only, so it is
    independent of the sieve and as cheap for q = 65521 as for q = 2."""
    if k < 1:
        raise ValueError("k must be >= 1")
    total = 0
    for e in divisors(k):
        primes = prime_factors(e)
        if math.prod(primes) == e:  # mu(e) = 0 unless e is square-free
            total += (-1) ** len(primes) * q ** (k // e)
    return total // k


def _irreducible_tuples(d: int, ctx: FieldCtx) -> Iterator[tuple[int, ...]]:
    """Coefficient tuples of the monic irreducibles of degree d, in the
    order of the sieve's memoized list."""
    q = ctx.q
    for idx in _irreducible_indices(d, ctx):
        yield _index_digits(idx, d, q) + (1,)


def _is_irreducible(ctx: FieldCtx, c: tuple) -> bool:
    """Deterministic irreducibility test of a trimmed tuple (Frobenius
    fixed-point criterion).

    c of degree d >= 1 is irreducible iff t^(q^d) == t mod c and, for every
    prime l dividing d, gcd(t^(q^(d/l)) - t, c) = 1.  Every linear polynomial
    is; constants and zero are units or zero, never irreducible.
    """
    d = len(c) - 1
    if d < 2:
        return d == 1
    frob = [(0, 1)]  # t^(q^j) mod c, for j = 0..d
    for _ in range(d):
        frob.append(_powmod(ctx, frob[-1], ctx.q, c))
    if frob[d] != (0, 1):
        return False
    return all(
        len(_gcd(ctx, _minus_t(ctx, frob[d // ell]), c)) == 1 for ell in prime_factors(d)
    )


@dataclass(frozen=True)
class NecklaceCheck:
    k: int
    lhs: int
    rhs: int

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def necklace_check(k: int, ctx: FieldCtx) -> NecklaceCheck:
    """Compare sum over d|k of d*N_d against q^k, both sides exact."""
    if k < 1:
        raise ValueError("k must be >= 1")
    lhs = sum(d * count_irreducibles(d, ctx) for d in divisors(k))
    return NecklaceCheck(k, lhs, ctx.q ** k)


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------

def poly_sort_key(f: Poly) -> tuple:
    """Canonical order: degree, then coefficient vector (constant first)."""
    return (f.degree, f._c)


@dataclass(frozen=True)
class Factorization:
    """unit * product of (monic irreducible)^multiplicity, canonically sorted;
    the unit is an element index of ctx."""

    ctx: FieldCtx
    unit: int
    factors: tuple[tuple[Poly, int], ...]

    @property
    def is_squarefree(self) -> bool:
        return all(r == 1 for _, r in self.factors)

    @property
    def max_multiplicity(self) -> int:
        return max((r for _, r in self.factors), default=0)

    @property
    def spec(self) -> CosetSpec:
        """The block spec: one block (deg p, r) per factor p^r."""
        return CosetSpec(tuple((p.degree, r) for p, r in self.factors))

    def __str__(self):
        unit = self.ctx.element_text(self.unit)
        parts = [unit] if self.unit != 1 or not self.factors else []
        for p, r in self.factors:
            parts.append(f"({p})" + (f"^{r}" if r > 1 else ""))
        return " * ".join(parts) if parts else "1"


def _pth_root(ctx: FieldCtx, c: tuple) -> tuple[int, ...]:
    """Inverse of the Frobenius on a polynomial of the shape g(t^p)."""
    p = ctx.p
    root_exp = p ** (ctx.e - 1)
    out = []
    for i, x in enumerate(c):
        if i % p == 0:
            out.append(ctx.power(x, root_exp))
        elif x:
            raise AssertionError("p-th root of a polynomial that is not in t^p")
    return tuple(out)


def _squarefree_parts(ctx: FieldCtx, f: tuple) -> list[tuple[tuple, int]]:
    """Split a monic f into square-free parts keyed by multiplicity.

    Classic derivative/gcd refinement; whenever the leftover is a p-th power
    (zero derivative in characteristic p) its root is extracted and the
    multiplicity scale goes up by p.  A gcd of 1 divides nothing.
    """
    parts: dict[int, tuple] = {}
    scale = 1
    while True:
        der = _derivative(ctx, f)
        if not der:
            f = _pth_root(ctx, f)
            scale *= ctx.p
            continue
        g = _gcd(ctx, f, der)
        h = f if len(g) == 1 else _divmod(ctx, f, g)[0]  # f square-free, or f/g
        i = 1
        while len(h) > 1:
            gg = _gcd(ctx, g, h) if len(g) > 1 else g
            if len(gg) == 1:
                part = h
            else:
                part = _divmod(ctx, h, gg)[0]
                g = _divmod(ctx, g, gg)[0]
            if len(part) > 1:
                key = i * scale
                parts[key] = _mul(ctx, parts[key], part) if key in parts else part
            h = gg
            i += 1
        if len(g) == 1:
            break
        f = _pth_root(ctx, g)
        scale *= ctx.p
    return [(part, mult) for mult, part in sorted(parts.items())]


def _distinct_degree(ctx: FieldCtx, h: tuple) -> list[tuple[tuple, int]]:
    """Split a monic square-free h into (product, degree-class) pairs.

    s runs through t^(q^k) mod h; t itself is reduced already, since it is
    only used while deg h >= 2k >= 2."""
    out = []
    k = 0
    s = (0, 1)
    while len(h) > 1:
        k += 1
        if 2 * k > len(h) - 1:
            out.append((h, len(h) - 1))
            break
        s = _powmod(ctx, s, ctx.q, h)
        g = _gcd(ctx, _minus_t(ctx, s), h)
        if len(g) > 1:
            out.append((g, k))
            h = _divmod(ctx, h, g)[0]
            if len(h) > 1:
                s = _divmod(ctx, s, h)[1]
    return out


def _equal_degree(ctx: FieldCtx, g: tuple, k: int) -> list[tuple]:
    """The degree-k irreducible factors of g, a monic product of distinct
    such factors, by Cantor-Zassenhaus splitting (von zur Gathen & Gerhard,
    Modern Computer Algebra, ch. 14).

    A random a with deg a < deg h splits h by gcd(b, h), where b is
    a^((q^k-1)/2) - 1 for odd q and the trace a + a^2 + ... + a^(2^(ek-1))
    for q = 2^e; each draw gives a proper factor with probability about 1/2,
    and the pieces are split again until each has degree k.  The draws come
    from a PRNG seeded with a constant on every call, so the result does not
    depend on earlier calls.
    """
    if len(g) - 1 == k:
        return [g]
    rng = random.Random(0)
    half = (ctx.q ** k - 1) // 2
    out = []
    todo = [g]
    while todo:
        h = todo.pop()
        n = len(h) - 1
        if n == k:
            out.append(h)
            continue
        while True:
            a = [rng.randrange(ctx.q) for _ in range(n)]
            if ctx.p == 2:
                b, s = list(a), a
                for _ in range(ctx.e * k - 1):
                    s = _divmod(ctx, _mul(ctx, s, s), h)[1]
                    for i, c in enumerate(s):
                        b[i] ^= c  # index addition in characteristic 2
            else:
                b = _powmod(ctx, _trim(a), half, h) or (0,)
                b = (ctx.sub(b[0], 1),) + b[1:]
            d = _gcd(ctx, _trim(b), h)
            if 1 < len(d) < len(h):
                break
        todo += [d, _divmod(ctx, h, d)[0]]
    return out


def factor(f: Poly) -> Factorization:
    """Deterministic full factorization over F_q.  The pipeline runs on
    coefficient tuples; only the returned factors become Polys."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    ctx = f.ctx
    unit = f.leading
    m = _monic(ctx, f._c)
    found = []
    if len(m) > 1:
        for part, mult in _squarefree_parts(ctx, m):
            for prod, k in _distinct_degree(ctx, part):
                for irr in _equal_degree(ctx, prod, k):
                    found.append((_poly(ctx, irr), mult))
    found.sort(key=lambda item: poly_sort_key(item[0]))
    return Factorization(ctx, unit, tuple(found))
