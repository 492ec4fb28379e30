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
characteristic (Lidl and Niederreiter, Finite Fields).  The build lists x*t
for every index x, so that multiplying by t is one lookup, and walks the
powers of g one coset of <t> at a time through that list: O(q + s*e^2)
steps for the s cosets, with a transient list of q ints.  The tables hold
fewer than 3q ints.

There is one shared context per field: make_field (and parse_field_spec,
which calls it) returns the same FieldCtx for every request of one
normalized (p, e, modulus), so "q=4" and "q=2^2" give one object, and the
tables run at most once per process.  A request without a modulus takes the
default one from a search cached per (p, e), then the same key as a request
that names it.  Only valid fields are kept, so a refused input is checked
again, and refused again, on every request.

Construction enforces q <= 2**16: larger fields are out of scope for the
exhaustive enumerations this package is built around.
"""

from __future__ import annotations

import functools
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
    """Decompose q = p^e with p prime, the one prime factor of q; raise
    ValueError otherwise."""
    primes = prime_factors(q)
    if len(primes) != 1:
        raise ValueError(f"not a prime power: {q}")
    p = primes[0]
    e = 1
    while p ** e < q:
        e += 1
    return p, e


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


def _index_digits(idx: int, d: int, q: int) -> tuple[int, ...]:
    """The d base-q digits of idx, lowest first: the residues of an element
    index (q = p, d = e), the coefficients (c0, ..., c_{d-1}) of a monic
    polynomial's index, or (c_{d-1}, ..., c0) of its lex position."""
    digs = []
    for _ in range(d):
        idx, rem = divmod(idx, q)
        digs.append(rem)
    return tuple(digs)


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
    # the hash of (p, e, q, modulus), taken once: every sieve-cache lookup keys on it
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.p, self.e, self.q, self.modulus)))

    def __hash__(self):
        return self._hash

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
        return "[" + ",".join(map(str, _index_digits(idx, self.e, self.p))) + "]"

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


def _digit_sum_row(u: int, n: int, p: int) -> list[int]:
    """[l + u for l in range(p^n)], the sum taken digit by digit mod p."""
    row, w = [0], 1
    for _ in range(n):
        u, c = divmod(u, p)
        row = [x + d for d in [(y + c) % p * w for y in range(p)] for x in row]
        w *= p
    return row


def _times_t(ctx: FieldCtx) -> list[int]:
    """The index of x*t for every index x of an extension field.

    With x = lo + top*hi and top = p^(e-1), x*t is lo shifted up one digit
    plus u = hi*(t^e mod m): its constant digit is u's, and its upper e-1
    digits are lo + u // p, one entry of the digit-wise sums by u // p.  So
    the list is p rows of _digit_sum_row, one per hi, of q/p entries each.
    """
    p = ctx.p
    out = []
    for hi in range(p):
        u = 0  # index of hi*(t^e mod m) = -hi*(m_0 + m_1*t + ...)
        for c in reversed(ctx.modulus[:-1]):
            u = u * p + -hi * c % p
        out += [u % p + p * y for y in _digit_sum_row(u // p, ctx.e - 1, p)]
    return out


def _build_tables(ctx: FieldCtx) -> tuple:
    """exp, log and Zech tables of an extension field.

    g is the primitive element of smallest index.  exp[k] is the index of g^k
    for 0 <= k < q-1 and log inverts it (log[0] is unused).  In odd
    characteristic zech[k] is log(1 + g^k), or -1 where 1 + g^k = 0; in
    characteristic 2 addition is XOR and zech is None.

    Multiplication by t is one lookup in the list of _times_t.  t has order
    r, and t = g^j, so the q-1 powers of g fall into the s = (q-1)/r cosets
    g^i<t>, i < s, each walked from its start by r lookups, with g^i*t^m
    stored at exponent i + j*m mod q-1.  j is read off the position of g^s
    in the cycle of t.  General products (the search for g, g^s and the
    coset starts) sum b_k * a*t^k over the digits b_k of b, with a*t^k read
    off the same list: e digit-wise sums of e digits.  So the build takes
    O(q + s*e^2) steps, with the list of x*t (q ints) and the cycle of t as
    transient lists, and the tables held stay under 3q ints.
    """
    p, q = ctx.p, ctx.q
    n = q - 1
    xt = _times_t(ctx)

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
        """a*b: the sum of b_k * a*t^k over the digits b_k of b."""
        out = 0
        while b:
            b, c = divmod(b, p)
            out = scaled_sum(out, c, a)
            a = xt[a]
        return out

    def power(a: int, k: int) -> int:
        out = 1
        while k:
            if k & 1:
                out = times(out, a)
            a = times(a, a)
            k >>= 1
        return out

    cycle = [1]  # t^m for m < r, the coset <t>
    x = xt[1]
    while x != 1:
        cycle.append(x)
        x = xt[x]
    r = len(cycle)
    s = n // r
    primes = prime_factors(n)
    g = next(a for a in range(p, q) if all(power(a, n // ell) != 1 for ell in primes))
    # g^s generates <t>: g^s = t^m0, so t = g^j with j = s * (1/m0 mod r)
    j = s * pow(cycle.index(power(g, s)), -1, r)
    exp = [0] * n
    log = [0] * q
    x = 1
    for i in range(s):
        k = i
        for _ in range(r):  # x = g^i * t^m at k = i + j*m mod q-1
            exp[k] = x
            log[x] = k
            x = xt[x]
            k += j
            if k >= n:
                k -= n
        x = times(x, g)  # g^(i+1), the next coset's start
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


@functools.lru_cache(maxsize=None)
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
# reduced mod p; a prime field's modulus is None
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
        return _interned(p, e, _default_modulus(p, e))
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
    """The integers of the --mod form [c0,...,cn], spaces ignored."""
    text = text.strip().replace(" ", "")
    if not re.fullmatch(r"\[([-+]?\d+(,[-+]?\d+)*)?\]", text):
        raise ValueError(
            f"bad --mod {text!r}: expected a bracketed list of integers such as [1,1,1]"
        )
    return [read_int(c, text, "--mod") for c in text[1:-1].split(",") if c]


def field_from_flags(q_text: str, mod_text: Optional[str] = None) -> FieldCtx:
    """The field of a --q value, "p^e" or a prime power such as "8", and an
    optional --mod value "[c0,...,1]", each read on its own."""
    body = q_text.strip().replace(" ", "")
    modulus = None if mod_text is None else _parse_int_list(mod_text)
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


def parse_field_spec(text: str) -> FieldCtx:
    """Parse "q=p", "q=p^e" or "q=p^e;mod=[c0,...,1]" into a field; the q and
    mod parts are what the --q and --mod flags pass to field_from_flags."""
    s = text.strip().replace(" ", "")
    if not s.startswith("q="):
        raise ValueError(f"field spec must start with 'q=', got {text!r}")
    body, sep, rest = s[2:].partition(";")
    if sep and not rest.startswith("mod="):
        raise ValueError(f"unrecognized field spec part {rest!r}")
    return field_from_flags(body, rest[4:] if sep else None)


def format_field_spec(ctx: FieldCtx) -> str:
    if ctx.e == 1:
        return f"q={ctx.p}"
    return f"q={ctx.p}^{ctx.e};mod=[" + ",".join(str(c) for c in ctx.modulus) + "]"
