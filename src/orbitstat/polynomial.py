"""Univariate polynomials over F_q: exact arithmetic, deterministic
factorization and irreducible enumeration.

A Poly holds its field and an ascending tuple of element indices (see
finite_field) with no trailing zeros; the zero polynomial is the empty tuple
(degree -1).  Every operation runs on those int tuples: over a prime field
with native integer arithmetic and one reduction mod p per coefficient, over
an extension through the field's exp/log tables.  Poly(ctx, coeffs) takes
indices, and Poly.coeffs, leading and evaluate give them back.

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

Irreducible enumeration runs a product sieve over all q^d monic polynomials:
every product of a lower-degree irreducible with a monic cofactor is marked,
and the survivors are exactly the irreducibles.  The sieve works on the same
element indices, is memoized per (field, degree) and refuses
q^d > ENUMERATION_LIMIT.
"""

from __future__ import annotations

import math
import operator
import random
import re
from dataclasses import dataclass
from typing import Iterator

from .errors import CapExceeded
from .finite_field import FieldCtx, prime_factors

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
    """A polynomial over a fixed F_q; immutable by convention."""

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

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "Poly":
        return _poly(ctx, ())

    @classmethod
    def one(cls, ctx: FieldCtx) -> "Poly":
        return _poly(ctx, (1,))

    @classmethod
    def x(cls, ctx: FieldCtx) -> "Poly":
        return _poly(ctx, (0, 1))

    @classmethod
    def constant(cls, ctx: FieldCtx, value) -> "Poly":
        return cls(ctx, (value,))

    # -- structure ----------------------------------------------------------

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

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ctx != self.ctx:
                raise ValueError("polynomials over different fields")
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        add = self.ctx.add
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return _poly(self.ctx, _trim(out))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _poly(self.ctx, tuple(map(self.ctx.neg, self._c)))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _poly(self.ctx, _mul(self.ctx, self._c, other._c))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("negative polynomial exponent")
        result = Poly.one(self.ctx)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._c:
            raise ZeroDivisionError("division by the zero polynomial")
        quot, rem = _divmod(self.ctx, self._c, other._c)
        return _poly(self.ctx, quot), _poly(self.ctx, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # -- assorted helpers ---------------------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero or self.is_monic:
            return self
        ctx = self.ctx
        inv = ctx.inv(self._c[-1])
        return _poly(ctx, tuple(ctx.mul(c, inv) for c in self._c))

    def derivative(self) -> "Poly":
        ctx = self.ctx
        return _poly(
            ctx, _trim([ctx.mul(c, i % ctx.p) for i, c in enumerate(self._c) if i > 0])
        )

    def evaluate(self, point: int) -> int:
        """The value at the element index point, by Horner's rule."""
        ctx = self.ctx
        Poly.constant(ctx, point)  # refuses anything but an element index
        acc = 0
        for c in reversed(self._c):
            acc = ctx.add(ctx.mul(acc, point), c)
        return acc

    def divides(self, other: "Poly") -> bool:
        return (other % self).is_zero


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0."""
    if a.ctx != b.ctx:
        raise ValueError("polynomials over different fields")
    ctx, x, y = a.ctx, a._c, b._c
    while y:
        x, y = y, _divmod(ctx, x, y)[1]
    return _poly(ctx, x).monic()


def pow_mod(base: Poly, exp: int, mod: Poly) -> Poly:
    """base**exp reduced mod a polynomial of degree >= 1."""
    if mod.degree < 1:
        raise ValueError("modulus must have degree >= 1")
    if exp < 0:
        raise ValueError("negative exponent")
    if base.ctx != mod.ctx:
        raise ValueError("polynomials over different fields")
    ctx, m = base.ctx, mod._c
    result = (1,)
    b = _divmod(ctx, base._c, m)[1]
    while exp:
        if exp & 1:
            result = _divmod(ctx, _mul(ctx, result, b), m)[1]
        exp >>= 1
        if exp:
            b = _divmod(ctx, _mul(ctx, b, b), m)[1]
    return _poly(ctx, result)


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
    chunk) pairs; the parsers of polynomials, statistics and symbol sums all
    read their terms through it.  A sign directly after another sign flips
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


def _coef_from_text(text: str, ctx: FieldCtx) -> int:
    """Index of an integer (reduced mod p) or a bracketed digit vector."""
    if text.startswith("["):
        return ctx.index_of([int(x) for x in text[1:-1].split(",")] if text != "[]" else [])
    return int(text) % ctx.p


def parse_poly(text: str, ctx: FieldCtx) -> Poly:
    """Parse the term grammar or the bracketed coefficient-list form."""
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
                coeffs.append(_coef_from_text(body[i : j + 1], ctx))
                i = j + 1
                if i < len(body) and body[i] == ",":
                    i += 1
            else:
                j = body.find(",", i)
                part = body[i:] if j < 0 else body[i:j]
                coeffs.append(_coef_from_text(part, ctx))
                i = len(body) if j < 0 else j + 1
        return Poly(ctx, coeffs)
    acc: dict[int, int] = {}
    for sign, chunk in signed_terms(s):
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coef") is None and m.group("var") is None):
            raise ValueError(f"bad term {chunk!r} in {text!r}")
        coef = 1 if m.group("coef") is None else _coef_from_text(m.group("coef"), ctx)
        if sign < 0:
            coef = ctx.neg(coef)
        if m.group("var") is None:
            exp = 0
        elif m.group("exp") is None:
            exp = 1
        else:
            exp = int(m.group("exp"))
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


def _mark_multiples(marks: bytearray, a: int, p_idx: int, d: int, ctx: FieldCtx, steps):
    """Mark every (irreducible of index p_idx, degree a) times (monic of
    degree m = d-a) inside the degree-d index space.

    The cofactors g run through their indices like an odometer.  When digit
    j of g steps from v to v+1 (mod q), the product gains steps[v] * t^j * P
    with steps[v] = (v+1) - v in F_q, so a step updates only a+1 coefficients
    of the product and its index.
    """
    q = ctx.q
    m = d - a
    add = ctx.add
    weights = [q ** k for k in range(d)]
    p_co = _index_digits(p_idx, a, q) + (1,)
    rows = [[ctx.mul(s, c) for c in p_co] for s in steps]
    res = [0] * m + list(p_co[:-1])  # P * t^m below its leading 1
    idx = sum(c * w for c, w in zip(res, weights))
    marks[idx] = 1
    digits = [0] * m
    for _ in range(q ** m - 1):
        j = 0
        while True:
            v = digits[j]
            for k, c in enumerate(rows[v], j):
                if c:
                    old = res[k]
                    res[k] = new = add(old, c)
                    idx += (new - old) * weights[k]
            if v + 1 < q:
                digits[j] = v + 1
                break
            digits[j] = 0
            j += 1
        marks[idx] = 1


def _irreducible_indices(d: int, ctx: FieldCtx) -> list[int]:
    key = (ctx, d)
    got = _irr_cache.get(key)
    if got is not None:
        return got
    if d < 1:
        raise ValueError("irreducibles have degree >= 1")
    if ctx.q ** d > ENUMERATION_LIMIT:
        raise CapExceeded(
            f"irreducible enumeration needs q^d = {ctx.q ** d} slots, "
            f"beyond the sieve limit {ENUMERATION_LIMIT}, which no flag raises"
        )
    if d == 1:
        result = list(range(ctx.q))
    else:
        marks = bytearray(ctx.q ** d)
        steps = [ctx.sub((v + 1) % ctx.q, v) for v in range(ctx.q)]
        for a in range(1, d // 2 + 1):
            for p_idx in _irreducible_indices(a, ctx):
                _mark_multiples(marks, a, p_idx, d, ctx, steps)
        result = [i for i in range(ctx.q ** d) if not marks[i]]
    # reorder from index order (constant digit fastest) to the canonical
    # coefficient-lex order shared with factorization output
    result.sort(key=lambda i: _index_digits(i, d, ctx.q))
    _irr_cache[key] = result
    return result


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


def enumerate_irreducibles(d: int, ctx: FieldCtx) -> Iterator[Poly]:
    """Monic irreducibles of degree d, coefficient-lex order (memoized)."""
    for idx in _irreducible_indices(d, ctx):
        yield monic_from_index(d, ctx, idx)


def is_irreducible(f: Poly) -> bool:
    """Deterministic irreducibility test (Frobenius fixed-point criterion).

    f of degree d >= 1 is irreducible iff t^(q^d) == t mod f and, for every
    prime l dividing d, gcd(t^(q^(d/l)) - t, f) = 1.  Constants and zero are
    units or zero, never irreducible.
    """
    d = f.degree
    if d < 1:
        return False
    ctx = f.ctx
    xm = Poly.x(ctx) % f
    frob = [xm]
    s = xm
    for _ in range(d):
        s = pow_mod(s, ctx.q, f)
        frob.append(s)
    if frob[d] != xm:
        return False
    for ell in prime_factors(d):
        if poly_gcd(frob[d // ell] - xm, f).degree != 0:
            return False
    return True


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

    def expand(self) -> Poly:
        out = Poly.constant(self.ctx, self.unit)
        for p, r in self.factors:
            out = out * p ** r
        return out

    @property
    def is_squarefree(self) -> bool:
        return all(r == 1 for _, r in self.factors)

    @property
    def max_multiplicity(self) -> int:
        return max((r for _, r in self.factors), default=0)

    def __str__(self):
        unit = self.ctx.element_text(self.unit)
        parts = [unit] if self.unit != 1 or not self.factors else []
        for p, r in self.factors:
            parts.append(f"({p})" + (f"^{r}" if r > 1 else ""))
        return " * ".join(parts) if parts else "1"


def _pth_root(f: Poly) -> Poly:
    """Inverse of the Frobenius on a polynomial of the shape g(t^p)."""
    ctx = f.ctx
    p = ctx.p
    root_exp = p ** (ctx.e - 1)
    out = []
    for i, c in enumerate(f._c):
        if i % p == 0:
            out.append(ctx.power(c, root_exp))
        elif c:
            raise AssertionError("p-th root of a polynomial that is not in t^p")
    return _poly(ctx, tuple(out))


def _squarefree_parts(f: Poly) -> list[tuple[Poly, int]]:
    """Split a monic f into square-free parts keyed by multiplicity.

    Classic derivative/gcd refinement; whenever the leftover is a p-th power
    (zero derivative in characteristic p) its root is extracted and the
    multiplicity scale goes up by p.
    """
    ctx = f.ctx
    parts: dict[int, Poly] = {}
    scale = 1
    while True:
        der = f.derivative()
        if der.is_zero:
            f = _pth_root(f)
            scale *= ctx.p
            continue
        g = poly_gcd(f, der)
        h = f // g
        i = 1
        while h.degree > 0:
            gg = poly_gcd(g, h)
            part = h // gg
            if part.degree > 0:
                key = i * scale
                parts[key] = parts.get(key, Poly.one(ctx)) * part
            g = g // gg
            h = gg
            i += 1
        if g.degree == 0:
            break
        f = _pth_root(g)
        scale *= ctx.p
    return [(poly, mult) for mult, poly in sorted(parts.items())]


def _distinct_degree(h: Poly) -> list[tuple[Poly, int]]:
    """Split a monic square-free h into (product, degree-class) pairs."""
    ctx = h.ctx
    out = []
    k = 0
    s = Poly.x(ctx) % h
    while h.degree > 0:
        k += 1
        if 2 * k > h.degree:
            out.append((h, h.degree))
            break
        s = pow_mod(s, ctx.q, h)
        g = poly_gcd(s - (Poly.x(ctx) % h), h)
        if g.degree > 0:
            out.append((g, k))
            h = h // g
            if h.degree > 0:
                s = s % h
    return out


def _equal_degree(g: Poly, k: int) -> list[Poly]:
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
    if g.degree == k:
        return [g]
    ctx = g.ctx
    rng = random.Random(0)
    half = (ctx.q ** k - 1) // 2
    out = []
    todo = [g]
    while todo:
        h = todo.pop()
        if h.degree == k:
            out.append(h)
            continue
        while True:
            a = [rng.randrange(ctx.q) for _ in range(h.degree)]
            if ctx.p == 2:
                b, s = list(a), a
                for _ in range(ctx.e * k - 1):
                    s = _divmod(ctx, _mul(ctx, s, s), h._c)[1]
                    for i, c in enumerate(s):
                        b[i] ^= c  # index addition in characteristic 2
            else:
                b = pow_mod(_poly(ctx, _trim(a)), half, h)._c or (0,)
                b = (ctx.sub(b[0], 1),) + b[1:]
            d = poly_gcd(_poly(ctx, _trim(b)), h)
            if 0 < d.degree < h.degree:
                break
        todo += [d, h // d]
    return out


def factor(f: Poly) -> Factorization:
    """Deterministic full factorization over F_q."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    unit = f.leading
    m = f.monic()
    if m.degree == 0:
        return Factorization(f.ctx, unit, ())
    found = []
    for part, mult in _squarefree_parts(m):
        for prod, k in _distinct_degree(part):
            for irr in _equal_degree(prod, k):
                found.append((irr, mult))
    found.sort(key=lambda item: poly_sort_key(item[0]))
    return Factorization(f.ctx, unit, tuple(found))
