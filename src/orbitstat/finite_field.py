"""Finite fields F_q at desk scale, with elements coded as integers.

A FieldCtx describes F_q with q = p^e: the prime p, the extension degree e
and, for e > 1, a monic irreducible modulus of degree e over F_p.  When no
modulus is supplied, the lexicographically smallest irreducible one is chosen
(coefficient vectors compared constant term first), so identical parameters
always produce identical fields.

The element c0 + c1*t + ... is coded as its index c0 + c1*p + c2*p^2 + ...
in 0..q-1 (constant digit fastest), and that index is the one element type:
FieldCtx.add, sub, neg, mul, inv and power work on indices, index_of turns a
digit vector into its index and element_text prints an index.  Prime fields
use native % and pow.  An extension builds, on first use and never at import,
exp/log tables of its primitive element of smallest index; addition is XOR
of indices in characteristic 2 and goes through a Zech table in odd
characteristic (Lidl and Niederreiter, Finite Fields).  The tables hold fewer
than 3q ints.

There is one shared context per field: make_field (and parse_field_spec,
which calls it) returns the same FieldCtx for every request of one
normalized (p, e, modulus), so "q=4" and "q=2^2" give one object, and the
default-modulus search and the tables run at most once per process.  Only
valid fields are kept, so a refused input is checked again, and refused
again, on every request.

Construction enforces q <= 2**16: larger fields are out of scope for the
exhaustive enumerations this package is built around.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import _shown, read_int

Q_LIMIT = 1 << 16


def is_prime(n: int) -> bool:
    """Whether n is prime: its one prime factor is n itself, found by the
    trial division of prime_factors, plenty for n <= 2**16."""
    return n >= 2 and prime_factors(n) == [n]


def prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p^e with p prime; raise ValueError otherwise."""
    if q < 2:
        raise ValueError(f"not a prime power: {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            e, m = 0, q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise ValueError(f"not a prime power: {q}")
            return p, e
        p += 1
    return q, 1


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Field contexts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldCtx:
    """Immutable description of F_q; build with make_field()."""

    p: int
    e: int
    q: int
    modulus: Optional[tuple[int, ...]]
    # (exp, log, zech) of an extension field, filled in by tables()
    _tables: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __repr__(self):
        if self.e == 1:
            return f"FieldCtx(q={self.q})"
        return f"FieldCtx(q={self.p}^{self.e}, modulus={list(self.modulus)})"

    def index_of(self, digits: Sequence[int]) -> int:
        """Index of the element with up to e residues mod p, constant digit
        first; missing digits are 0."""
        if len(digits) > self.e:
            raise ValueError(
                f"element vector of length {len(digits)} in a degree-{self.e} extension"
            )
        idx = 0
        for c in reversed(digits):
            idx = idx * self.p + c % self.p
        return idx

    def element_text(self, idx: int) -> str:
        """An element as printed: its residue when it lies in the prime
        field, as 3, and else its digit vector, as [1,1]."""
        if idx < self.p:
            return str(idx)
        digits = []
        for _ in range(self.e):
            idx, rem = divmod(idx, self.p)
            digits.append(str(rem))
        return "[" + ",".join(digits) + "]"

    # -- arithmetic on element indices --------------------------------------

    def tables(self) -> tuple:
        """(exp, log, zech) of an extension field, built on first use."""
        tabs = self._tables
        if tabs is None:
            tabs = _build_tables(self)
            object.__setattr__(self, "_tables", tabs)
        return tabs

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if not a or not b:
            return a or b
        exp, log, zech = self.tables()
        n = self.q - 1
        z = zech[(log[b] - log[a]) % n]  # a + b = a * (1 + b/a)
        return 0 if z < 0 else exp[(log[a] + z) % n]

    def neg(self, a: int) -> int:
        return self.mul(a, self.p - 1)  # the index of -1 is p - 1

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return a * b % self.p
        if not a or not b:
            return 0
        exp, log, _ = self.tables()
        return exp[(log[a] + log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return self.power(a, self.q - 2)

    def power(self, a: int, k: int) -> int:
        """a**k for k >= 0, with 0**0 = 1."""
        if self.e == 1:
            return pow(a, k, self.p)
        if not a:
            return 0 if k else 1
        exp, log, _ = self.tables()
        return exp[log[a] * k % (self.q - 1)]


def _build_tables(ctx: FieldCtx) -> tuple:
    """exp, log and Zech tables of an extension field.

    g is the primitive element of smallest index.  exp[k] is the index of g^k
    for 0 <= k < q-1 and log inverts it (log[0] is unused).  In odd
    characteristic zech[k] is log(1 + g^k), or -1 where 1 + g^k = 0; in
    characteristic 2 addition is XOR and zech is None.  The products that
    build the tables are shift-and-add over F_p on the indices themselves.
    """
    p, e, q = ctx.p, ctx.e, ctx.q
    n = q - 1
    top = q // p  # weight of the t^(e-1) digit
    low = 0  # index of t^e - modulus, the reduction of t^e
    for c in reversed(ctx.modulus[:-1]):
        low = low * p + (-c) % p

    def scaled_sum(a: int, c: int, b: int) -> int:
        """Index of a + c*b for c in F_p."""
        if not c:
            return a
        if p == 2:
            return a ^ b
        out, w = 0, 1
        while a or b:
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            out += (x + c * y) % p * w
            w *= p
        return out

    def times(a: int, b: int) -> int:
        out = 0
        while True:
            b, c = divmod(b, p)
            out = scaled_sum(out, c, a)
            if not b:
                return out
            hi, a = divmod(a, top)
            a = scaled_sum(a * p, hi, low)  # a*t, with t^e reduced

    def power(a: int, k: int) -> int:
        out = 1
        while k:
            if k & 1:
                out = times(out, a)
            a = times(a, a)
            k >>= 1
        return out

    primes = prime_factors(n)
    g = next(a for a in range(p, q) if all(power(a, n // r) != 1 for r in primes))
    exp = [0] * n
    log = [0] * q
    x = 1
    for k in range(n):
        exp[k] = x
        log[x] = k
        x = times(x, g)
    if p == 2:
        return exp, log, None
    zech = [0] * n
    for k, x in enumerate(exp):
        y = x - x % p + (x + 1) % p  # 1 + x: only the constant digit moves
        zech[k] = log[y] if y else -1
    return exp, log, zech


def _irreducible_mod_p(coeffs: tuple[int, ...], p: int) -> bool:
    """Irreducibility over F_p, decided by the polynomial core."""
    from .polynomial import _is_irreducible

    return _is_irreducible(make_field(p), coeffs)


def _default_modulus(p: int, e: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree e over F_p.

    Candidates are compared by their coefficient vector (c0, ..., c_{e-1}),
    constant term first, in lexicographic order.  Candidates with constant
    term 0 are divisible by t and skipped without a test.
    """
    for lower in itertools.product(range(p), repeat=e):
        cand = tuple(lower) + (1,)
        if cand[0] and _irreducible_mod_p(cand, p):
            return cand
    raise AssertionError("no irreducible modulus of degree %d over F_%d" % (e, p))


# every valid field made so far, keyed by (p, e, modulus) with the modulus
# reduced mod p, and by (p, e, None) for the default modulus
_fields: dict[tuple, FieldCtx] = {}


def _interned(p: int, e: int, modulus: Optional[tuple[int, ...]]) -> FieldCtx:
    ctx = _fields.get((p, e, modulus))
    if ctx is None:
        ctx = _fields[p, e, modulus] = FieldCtx(p, e, p ** e, modulus)
    return ctx


def make_field(p: int, e: int = 1, modulus: Optional[Sequence[int]] = None) -> FieldCtx:
    """The shared context of F_{p^e}, validating every input.

    For e > 1 a modulus may be supplied as e+1 integers (ascending, monic);
    it must be irreducible over F_p.  Without one, the smallest irreducible
    candidate in constant-first lexicographic order is picked, so the default
    is deterministic.  Equal normalized inputs give the same object.
    """
    if not isinstance(e, int) or e < 1:
        raise ValueError(f"extension degree must be a positive integer, got {e}")
    if isinstance(p, int) and p >= 2 and (p > Q_LIMIT or e >= Q_LIMIT.bit_length()):
        # p^e > 2^16 either way: refused before a primality test or a power
        raise ValueError(f"q = {p}^{e} exceeds the supported bound {Q_LIMIT}")
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    q = p ** e
    if q > Q_LIMIT:
        raise ValueError(f"q = {q} exceeds the supported bound {Q_LIMIT}")
    if e == 1:
        if modulus is not None:
            raise ValueError("a modulus is only meaningful for e > 1")
        return _interned(p, 1, None)
    if modulus is None:
        ctx = _fields.get((p, e, None))
        if ctx is None:
            ctx = _fields[p, e, None] = _interned(p, e, _default_modulus(p, e))
        return ctx
    given = [int(c) for c in modulus]
    if len(given) != e + 1:
        raise ValueError(
            f"modulus must have {e + 1} coefficients for degree {e}, got {len(given)}"
        )
    mod = tuple(c % p for c in given)
    if mod[-1] != 1:
        raise ValueError("modulus must be monic")
    if (p, e, mod) not in _fields and not _irreducible_mod_p(mod, p):
        raise ValueError(f"modulus {given} is reducible over F_{p}")
    return _interned(p, e, mod)


def _parse_int_list(text: str) -> list[int]:
    """The integers of the --mod form [c0,...,cn]."""
    if not re.fullmatch(r"\[([-+]?\d+(,[-+]?\d+)*)?\]", text):
        raise ValueError(
            f"bad --mod {text!r}: expected a bracketed list of integers such as [1,1,1]"
        )
    return [read_int(c, text, "--mod") for c in text[1:-1].split(",") if c]


def parse_field_spec(text: str) -> FieldCtx:
    """Parse "q=p", "q=p^e" or "q=p^e;mod=[c0,...,1]" into a field; the q and
    mod parts are what the --q and --mod flags pass."""
    s = text.strip().replace(" ", "")
    if not s.startswith("q="):
        raise ValueError(f"field spec must start with 'q=', got {text!r}")
    body = s[2:]
    modulus = None
    if ";" in body:
        body, rest = body.split(";", 1)
        if not rest.startswith("mod="):
            raise ValueError(f"unrecognized field spec part {rest!r}")
        modulus = _parse_int_list(rest[4:])
    m = re.fullmatch(r"(\d+)(?:\^(\d+))?", body)
    if not m:
        raise ValueError(f"bad --q {body!r}: expected a prime power such as 8 or 2^3")
    if m.group(2) is None:
        q = read_int(m.group(1), body, "--q")
        if q > Q_LIMIT:  # refused before it is factored
            raise ValueError(f"q = {_shown(body)} exceeds the supported bound {Q_LIMIT}")
        p, e = prime_power(q)
    else:
        p, e = (read_int(x, body, "--q") for x in m.groups())
    return make_field(p, e, modulus)


def format_field_spec(ctx: FieldCtx) -> str:
    if ctx.e == 1:
        return f"q={ctx.p}"
    return f"q={ctx.p}^{ctx.e};mod=[" + ",".join(str(c) for c in ctx.modulus) + "]"
