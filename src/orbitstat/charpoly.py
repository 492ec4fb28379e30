"""Cycle statistics as polynomials, and truncated series on exponent tuples.

The statistic X_k(sigma) counts k-cycles; binom(X, mu) is the product of
binomial coefficients C(X_k, mu_k).  CharPoly stores an exact-rational linear
combination in that binomial basis (the natural one here, because binom(X, mu)
with norm(mu) = n is the indicator of a single S_n conjugacy class).  Monomial
input like X1^2*X2 is converted into the basis via Stirling numbers.  A
CharPoly is a value, parsed and printed, with no operators.

A truncated series is a dict from exponent tuples to exact coefficients,
and _mul_truncated multiplies two of them, dropping every exponent beyond a
box `top`: the z^mu cut of the coset closed forms in young_stats and the
u^d z^mu cut of the ensemble's Euler product in frobenius_stats are both
such boxes.  The product takes Fractions or ints alike.  young_stats scales
each block factor by z_mu = prod_k k^{m_k} m_k!, which clears every
denominator of the factor (each is a divisor of z_mu), so the products of
both run in integers.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from functools import lru_cache

from .errors import CapExceeded, past_print_limit, prints, read_int, refusal, unprintable
from .polynomial import signed_terms
from .symmetric import MultiIndex, centralizer_order

# The most binomial terms one monomial may expand into; no flag raises it.
EXPANSION_LIMIT = 10 ** 4

_F0 = Fraction(0)
_F1 = Fraction(1)


def binom_eval(mu: MultiIndex, ct) -> int:
    """Product of C(ct_k, mu_k); automatically 0 once any mu_k > ct_k.  The
    cycle type ct is a MultiIndex or a dict {k: ct_k}, read by ct.get(k, 0)."""
    out = 1
    for k, m in mu.items():
        out *= math.comb(ct.get(k, 0), m)
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


def _expansion_refusal(powers: dict[int, int], coeff: Fraction) -> CapExceeded | None:
    """The refusal of the monomial coeff * prod_k X_k^{a_k} before its
    expansion is built, or None: it has prod_k a_k binomial terms,
    and for the largest a_k = a its coefficients a! and coeff * S(a, j) * j!
    must print.  The S(a, j) * j! sum to a!/(2 (ln 2)^(a+1)) within 4% (the
    ordered Bell number), so the largest is at least 1/a of that: refused a
    digit past the limit, and no sooner for a larger denominator of coeff."""
    text = "*".join(f"X{k}^{a}" for k, a in sorted(powers.items()) if a)
    terms = math.prod(a for a in powers.values() if a)
    if terms > EXPANSION_LIMIT:
        return refusal(
            f"the monomial {text} expands into {terms} binomial terms", EXPANSION_LIMIT
        )
    a = max(powers.values(), default=0)
    ln_bound = math.lgamma(a + 1) - math.log(max(2 * a, 1)) - (a + 1) * math.log(math.log(2))
    if not prints(math.factorial(a)):
        what = f"the coefficient {a}!"
    elif past_print_limit(ln_bound / math.log(10) - math.log10(coeff.denominator)):
        what = "a coefficient"
    else:
        return None
    return unprintable(f"the monomial {text} expands with {what} of")


class CharPoly:
    """Linear combination of binom(X, mu) terms with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for mu, c in (terms or {}).items():
            if not isinstance(mu, MultiIndex):
                raise TypeError(f"bad basis key {mu!r}")
            if c := Fraction(c):
                self.terms[mu] = c

    @classmethod
    def binom(cls, mu: MultiIndex, coeff=1) -> "CharPoly":
        return cls({mu: coeff})

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
        if refused := _expansion_refusal(powers, coeff):
            raise refused
        # per variable, its terms j = a, ..., 1; every choice of one term per
        # variable is one basis element, built by the validating MultiIndex
        expansions = [
            [(k, j, _stirling2_row(a)[j] * math.factorial(j)) for j in range(a, 0, -1)]
            for k, a in sorted(powers.items())
            if a
        ]
        return cls({
            MultiIndex(tuple((k, j) for k, j, _ in choice)):
                coeff * math.prod(weight for _, _, weight in choice)
            for choice in itertools.product(*expansions)
        })

    def __eq__(self, other):
        return isinstance(other, CharPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        terms = sorted(self.terms.items())
        parts = [f"binom({mu})" if c == 1 else f"{c}*binom({mu})" for mu, c in terms]
        return " + ".join(parts) or "0"

    def __repr__(self):
        return f"CharPoly({self})"

    _MONO_RE = re.compile(r"^X(\d+)(?:\^(\d+))?$")

    @classmethod
    def parse(cls, text: str) -> "CharPoly":
        """Parse sums of rational * binom(...) or rational * X-monomial terms,
        each added where it stands; a monomial whose coefficients sum to 0
        over the statistic and whose expansion would be refused is dropped."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty expression")
        parsed = []
        sums: dict = {}
        for sign, chunk in signed_terms(s):
            key, coeff = cls._parse_term(chunk, text)
            parsed.append((key, sign * coeff))
            sums[key] = sums.get(key, _F0) + sign * coeff
        terms: dict[MultiIndex, Fraction] = {}  # a cancelled term leaves its place
        for key, coeff in parsed:
            if isinstance(key, MultiIndex):
                expansion = {key: coeff}
            elif sums[key] or not _expansion_refusal(dict(key), _F1):
                expansion = cls.from_monomial(dict(key), coeff).terms
            else:
                continue
            for mu, c in expansion.items():
                terms[mu] = terms.get(mu, _F0) + c
                if not terms[mu]:
                    del terms[mu]
        return cls(terms)

    @classmethod
    def _parse_term(cls, chunk: str, text: str) -> tuple[object, Fraction]:
        """(key, coefficient): a binom's or constant's MultiIndex, or a
        monomial's (k, a) pairs as a frozenset, which equals no MultiIndex;
        an error names the term and text, the statistic as typed."""
        coeff = _F1
        body = chunk
        if chunk[0].isdigit():
            m = re.match(r"^(\d+(?:/\d+)?)(?:\*(.+))?$", chunk)
            if not m:
                raise ValueError(f"bad term {chunk!r} in {text!r}")
            num, _, den = m.group(1).partition("/")
            try:
                coeff = Fraction(
                    read_int(num, chunk, "the term"),
                    read_int(den, chunk, "the term") if den else 1,
                )
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in term {chunk!r} of {text!r}") from None
            body = m.group(2)
            if body is None:
                return MultiIndex(), coeff
        if body.startswith("binom(") and body.endswith(")"):
            return MultiIndex.parse(body[6:-1]), coeff
        powers: dict[int, int] = {}
        for factor_text in body.split("*"):
            m = cls._MONO_RE.match(factor_text)
            if not m:
                raise ValueError(f"bad factor {factor_text!r} in term {chunk!r} of {text!r}")
            k = read_int(m.group(1), chunk, "the term")
            a = read_int(m.group(2), chunk, "the term") if m.group(2) else 1
            powers[k] = powers.get(k, 0) + a
        return frozenset((k, a) for k, a in powers.items() if a), coeff


def sn_expectation_closed(mu: MultiIndex, r: int) -> Fraction:
    """Mean of binom(X, mu) over S_r: 1/z_mu while norm(mu) <= r."""
    return Fraction(1, centralizer_order(mu)) if mu.norm <= r else _F0


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

