"""Cycle statistics as polynomials, and truncated series on exponent tuples.

The statistic X_k(sigma) counts k-cycles; binom(X, mu) is the product of
binomial coefficients C(X_k, mu_k).  CharPoly stores an exact-rational linear
combination in that binomial basis (the natural one here, because binom(X, mu)
with norm(mu) = n is the indicator of a single S_n conjugacy class).  Monomial
input like X1^2*X2 is converted into the basis via Stirling numbers.

A truncated series is a dict from exponent tuples to exact coefficients,
and _mul_truncated multiplies two of them, dropping every exponent beyond a
box `top`: the eps^(r+1) = 0 of a nilpotent ring and the z^mu cut of the
coset closed forms in young_stats are both such boxes.  The product takes
Fractions or ints alike.  young_stats scales each block factor by
z_mu = prod_k k^{m_k} m_k!, which clears every denominator of the factor
(each is a divisor of z_mu), so its products run in integers.
_exp_truncated sums the exponential of a series without constant term,
dividing with Fraction so that int input stays exact, and
g_series_identity_check runs the cycle-index generating-series identity on
these dicts.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from fractions import Fraction
from functools import lru_cache

from .errors import CapExceeded, prints, read_int
from .polynomial import signed_terms
from .symmetric import DEFAULT_GROUP_CAP, MultiIndex, enumerate_sn, multi_indices_up_to

# The most binomial terms one monomial may expand into; no flag raises it.
EXPANSION_LIMIT = 10 ** 4

_F0 = Fraction(0)
_F1 = Fraction(1)


def binom_eval(mu: MultiIndex, ct: MultiIndex) -> int:
    """Product of C(ct_k, mu_k); automatically 0 once any mu_k > ct_k."""
    out = 1
    for k, m in mu.items():
        out *= math.comb(ct.get(k), m)
        if out == 0:
            break
    return out


@lru_cache(maxsize=None)
def _stirling2_row(n: int) -> tuple[int, ...]:
    """S(n, 0), ..., S(n, n), one row at a time from S(0, 0) = 1 by
    S(m, j) = j * S(m-1, j) + S(m-1, j-1)."""
    row = [1]
    for m in range(1, n + 1):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, m)] + [1]
    return tuple(row)


def _check_expansion(powers: dict[int, int]) -> None:
    """Refuse the monomial prod_k X_k^{a_k} before its expansion is built:
    it has prod_k a_k binomial terms, and the term binom(X_k, a_k) of X_k^{a_k}
    has the coefficient a_k!, which Python must be able to print."""
    text = "*".join(f"X{k}^{a}" for k, a in sorted(powers.items()) if a)
    terms = math.prod(a for a in powers.values() if a)
    if terms > EXPANSION_LIMIT:
        raise CapExceeded(
            f"the monomial {text} expands into {terms} binomial terms, beyond "
            f"the limit of {EXPANSION_LIMIT} a monomial, which no flag raises"
        )
    top = max(powers.values(), default=0)
    if not prints(math.factorial(top)):
        raise CapExceeded(
            f"the monomial {text} expands with the coefficient {top}! of more "
            f"than {sys.get_int_max_str_digits()} digits, Python's limit for "
            "printing an integer, which no flag raises"
        )


def _stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k)."""
    if not 0 <= k <= n:
        return 0
    return _stirling2_row(n)[k]


class CharPoly:
    """Linear combination of binom(X, mu) terms with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        canon: dict[MultiIndex, Fraction] = {}
        for mu, c in (terms or {}).items():
            if not isinstance(mu, MultiIndex):
                raise TypeError(f"bad basis key {mu!r}")
            c = Fraction(c)
            if c:
                canon[mu] = canon.get(mu, _F0) + c
        self.terms = {mu: c for mu, c in canon.items() if c}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "CharPoly":
        return cls()

    @classmethod
    def binom(cls, mu: MultiIndex, coeff=1) -> "CharPoly":
        return cls({mu: Fraction(coeff)})

    @classmethod
    def from_monomial(cls, powers: dict[int, int], coeff=1) -> "CharPoly":
        """Convert prod_k X_k^{a_k} into the binomial basis.

        Per variable, X^a = sum_j S(a, j) * j! * C(X, j); across distinct k
        the basis elements multiply freely.
        """
        coeff = Fraction(coeff)
        for k, a in powers.items():
            if a < 0:
                raise ValueError(f"exponent of X_{k} must be >= 0")
        _check_expansion(powers)
        # per variable, its terms j = a, ..., 1; every choice of one term per
        # variable is one basis element, built by the validating MultiIndex
        expansions = [
            [(k, j, _stirling2(a, j) * math.factorial(j)) for j in range(a, 0, -1)]
            for k, a in sorted(powers.items())
            if a
        ]
        return cls({
            MultiIndex(tuple((k, j) for k, j, _ in choice)):
                coeff * math.prod(weight for _, _, weight in choice)
            for choice in itertools.product(*expansions)
        })

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, CharPoly):
            return NotImplemented
        out = dict(self.terms)
        for mu, c in other.terms.items():
            out[mu] = out.get(mu, _F0) + c
        return CharPoly(out)

    def __sub__(self, other):
        return self + -other if isinstance(other, CharPoly) else NotImplemented

    def __neg__(self):
        return CharPoly({mu: -c for mu, c in self.terms.items()})

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return CharPoly({mu: c * scalar for mu, c in self.terms.items()})
        return NotImplemented

    __mul__ = __rmul__

    def __eq__(self, other):
        return isinstance(other, CharPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def evaluate(self, ct: MultiIndex) -> Fraction:
        return sum((c * binom_eval(mu, ct) for mu, c in self.terms.items()), _F0)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mu, c in sorted(self.terms.items(), key=lambda it: it[0].entries):
            body = f"binom({mu})" if mu.entries else "binom()"
            if c == 1:
                parts.append(body)
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts)

    def __repr__(self):
        return f"CharPoly({self})"

    # -- parsing ------------------------------------------------------------

    _MONO_RE = re.compile(r"^X(\d+)(?:\^(\d+))?$")

    @classmethod
    def parse(cls, text: str) -> "CharPoly":
        """Parse sums of rational * binom(...) or rational * X-monomial terms."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty expression")
        out = cls.zero()
        for sign, chunk in signed_terms(s):
            out = out + sign * cls._parse_term(chunk)
        return out

    @classmethod
    def _parse_term(cls, chunk: str) -> "CharPoly":
        coeff = _F1
        body = chunk
        if chunk[0].isdigit():
            m = re.match(r"^(\d+(?:/\d+)?)(?:\*(.+))?$", chunk)
            if not m:
                raise ValueError(f"bad term {chunk!r}")
            num, _, den = m.group(1).partition("/")
            try:
                coeff = Fraction(
                    read_int(num, chunk, "the term"),
                    read_int(den, chunk, "the term") if den else 1,
                )
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in term {chunk!r}") from None
            body = m.group(2)
            if body is None:
                return cls.binom(MultiIndex(), coeff)
        if body.startswith("binom(") and body.endswith(")"):
            return cls.binom(MultiIndex.parse(body[6:-1]), coeff)
        powers: dict[int, int] = {}
        for factor_text in body.split("*"):
            m = cls._MONO_RE.match(factor_text)
            if not m:
                raise ValueError(f"bad factor {factor_text!r} in {chunk!r}")
            k = read_int(m.group(1), chunk, "the term")
            a = read_int(m.group(2), chunk, "the term") if m.group(2) else 1
            powers[k] = powers.get(k, 0) + a
        return cls.from_monomial(powers, coeff)


def sn_expectation_closed(mu: MultiIndex, r: int) -> Fraction:
    """Mean of binom(X, mu) over S_r: prod 1/(k^m * m!) while norm(mu) <= r."""
    if mu.norm > r:
        return _F0
    out = _F1
    for k, m in mu.items():
        out *= Fraction(1, k ** m * math.factorial(m))
    return out


# ---------------------------------------------------------------------------
# Truncated series as exponent-tuple dicts
# ---------------------------------------------------------------------------


def _mul_truncated(f: dict, g: dict, top: tuple[int, ...]) -> dict:
    """Product of two exponent-tuple dicts, dropping exponents beyond top.
    The coefficients may be ints or Fractions; sums start at the int 0."""
    out: dict = {}
    for a, x in f.items():
        for b, y in g.items():
            e = tuple(map(int.__add__, a, b))
            if all(map(int.__le__, e, top)):
                out[e] = out.get(e, 0) + x * y
    return out


def _exp_truncated(s: dict, top: tuple[int, ...]) -> dict:
    """exp(s) as the sum of s^k / k!, dropping exponents beyond top; s has no
    constant term, so its powers leave the box and the sum is finite."""
    one = (0,) * len(top)
    if one in s:
        raise ValueError("exp requires zero constant term")
    power = {one: _F1}
    out = dict(power)
    for k in itertools.count(1):
        power = {a: Fraction(c, k) for a, c in _mul_truncated(power, s, top).items()}
        if not power:
            return out
        for a, c in power.items():
            out[a] = out.get(a, _F0) + c


def g_series_identity_check(
    d: int, r: int, t_degree_cap: int, cap: int = DEFAULT_GROUP_CAP
) -> bool:
    """Check that averaging prod_l (1 + eps^l t_{dl})^{X_l} over S_r equals
    exp(sum_l eps^l t_{dl} / l) with eps^(r+1) = 0, and that setting eps to 1
    reproduces the closed-form S_r means coefficient by coefficient.

    A monomial eps^e prod_l t_{dl}^{a_l} is the tuple (e, a_1, ..., a_r) with
    e = sum l*a_l.  Its t-weight is d*e, so eps^(r+1) = 0 and the weight cap
    together bound e, and with it every a_l, by one box."""
    if d < 1 or r < 0 or t_degree_cap < 0:
        raise ValueError("need d >= 1, r >= 0 and t_degree_cap >= 0")
    group = enumerate_sn(r, cap)  # refuses r! > cap before the r + 1 tuples of z
    top = (min(r, t_degree_cap // d),) * (r + 1)
    one = (0,) * (r + 1)
    z = {ell: (ell,) + one[1:ell] + (1,) + one[ell + 1 :] for ell in range(1, r + 1)}
    total: dict[tuple[int, ...], Fraction] = {}
    count = 0
    for sigma in group:
        prod = {one: _F1}
        for ell, m in sigma.cycle_type().items():
            for _ in range(m):
                prod = _mul_truncated(prod, {one: _F1, z[ell]: _F1}, top)
        for a, c in prod.items():
            total[a] = total.get(a, _F0) + c
        count += 1
    lhs = {a: c / count for a, c in total.items()}
    if lhs != _exp_truncated({z[ell]: Fraction(1, ell) for ell in z}, top):
        return False
    flat: dict[tuple[int, ...], Fraction] = {}
    for a, c in lhs.items():
        flat[a[1:]] = flat.get(a[1:], _F0) + c
    expected = {
        tuple(mu.get(ell) for ell in range(1, r + 1)): sn_expectation_closed(mu, r)
        for mu in multi_indices_up_to(top[0])
    }
    return flat == expected
