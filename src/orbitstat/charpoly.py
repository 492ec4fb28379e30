"""Cycle statistics as polynomials, and truncated nilpotent series.

The statistic X_k(sigma) counts k-cycles; binom(X, mu) is the product of
binomial coefficients C(X_k, mu_k).  CharPoly stores an exact-rational linear
combination in that binomial basis (the natural one here, because binom(X, mu)
with norm(mu) = n is the indicator of a single S_n conjugacy class).  Monomial
input like X1^2*X2 is converted into the basis via Stirling numbers.

NilSeries is an element of Q[eps_1..eps_n] / (eps_i^orders[i]), optionally
tensored with polynomial t-variables truncated at a weighted degree cap
(the monomial prod t_k^{a_k} has weight sum k*a_k).  It is the computation
ring for all closed-form coset statistics: exponents that reach the truncation
vanish, and the "set every surviving eps monomial to 1" functional turns a
series into plain numbers.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

from .symmetric import DEFAULT_GROUP_CAP, MultiIndex, enumerate_sn, multi_indices_up_to

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
        expansions = []
        for k, a in sorted(powers.items()):
            if a < 0:
                raise ValueError(f"exponent of X_{k} must be >= 0")
            if a == 0:
                continue
            expansions.append(
                [(k, j, _stirling2(a, j) * math.factorial(j)) for j in range(1, a + 1)]
            )
        out: dict[MultiIndex, Fraction] = {}
        stack = [({}, coeff, 0)]
        while stack:
            counts, c, pos = stack.pop()
            if pos == len(expansions):
                mu = MultiIndex.from_dict(counts)
                out[mu] = out.get(mu, _F0) + c
                continue
            for k, j, weight in expansions[pos]:
                if weight:
                    nxt = dict(counts)
                    nxt[k] = j
                    stack.append((nxt, c * weight, pos + 1))
        return cls(out)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, CharPoly):
            return NotImplemented
        out = dict(self.terms)
        for mu, c in other.terms.items():
            out[mu] = out.get(mu, _F0) + c
        return CharPoly(out)

    def __sub__(self, other):
        if not isinstance(other, CharPoly):
            return NotImplemented
        out = dict(self.terms)
        for mu, c in other.terms.items():
            out[mu] = out.get(mu, _F0) - c
        return CharPoly(out)

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
        for sign, chunk in _split_expr(s):
            if not chunk:
                raise ValueError(f"dangling sign in {text!r}")
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
            coeff = Fraction(m.group(1))
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
            k = int(m.group(1))
            a = int(m.group(2)) if m.group(2) else 1
            powers[k] = powers.get(k, 0) + a
        return cls.from_monomial(powers, coeff)


def _split_expr(s: str) -> list[tuple[int, str]]:
    out = []
    sign = 1
    depth = 0
    cur: list[str] = []
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0:
            if i == 0:
                sign = 1 if ch == "+" else -1
            else:
                out.append((sign, "".join(cur)))
                cur = []
                sign = 1 if ch == "+" else -1
        else:
            cur.append(ch)
    out.append((sign, "".join(cur)))
    return out


def charpoly_eval(P: CharPoly, ct: MultiIndex) -> Fraction:
    return P.evaluate(ct)


def sn_expectation_closed(mu: MultiIndex, r: int) -> Fraction:
    """Mean of binom(X, mu) over S_r: prod 1/(k^m * m!) while norm(mu) <= r."""
    if mu.norm > r:
        return _F0
    out = _F1
    for k, m in mu.items():
        out *= Fraction(1, k ** m * math.factorial(m))
    return out


def sn_expectation_oracle(mu: MultiIndex, r: int, cap: int = DEFAULT_GROUP_CAP) -> Fraction:
    """Same mean by brute-force enumeration of S_r."""
    total = 0
    count = 0
    for sigma in enumerate_sn(r, cap):
        total += binom_eval(mu, sigma.cycle_type())
        count += 1
    return Fraction(total, count)


# ---------------------------------------------------------------------------
# Truncated nilpotent series
# ---------------------------------------------------------------------------

EpsKey = tuple  # ((e_1, ..., e_n), ((k, a), ...))


class NilSeries:
    """Element of Q[eps_1..eps_n]/(eps_i^orders[i]) with optional t-variables.

    terms maps (eps_exponents, t_monomial) to a Fraction, where t_monomial is
    a sorted tuple of (index, exponent) pairs.  Keys whose eps exponent
    reaches the truncation order, or whose t-weight exceeds t_cap, are
    dropped on construction, so arithmetic stays automatically truncated.
    """

    __slots__ = ("orders", "t_cap", "terms")

    def __init__(self, orders: tuple[int, ...], terms=None, t_cap: int = 0):
        self.orders = tuple(orders)
        if any(o < 1 for o in self.orders):
            raise ValueError("orders must be >= 1")
        self.t_cap = t_cap
        canon: dict[EpsKey, Fraction] = {}
        for (eps, tmono), c in (terms or {}).items():
            eps = tuple(eps)
            tmono = tuple(sorted(tmono))
            if len(eps) != len(self.orders):
                raise ValueError("eps exponent width mismatch")
            if any(e < 0 for e in eps) or any(a < 1 or k < 1 for k, a in tmono):
                raise ValueError(f"bad key {(eps, tmono)}")
            if any(e >= o for e, o in zip(eps, self.orders)):
                continue
            if sum(k * a for k, a in tmono) > self.t_cap:
                continue
            c = Fraction(c)
            if c:
                key = (eps, tmono)
                canon[key] = canon.get(key, _F0) + c
        self.terms = {k: v for k, v in canon.items() if v}

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, orders, value, t_cap: int = 0) -> "NilSeries":
        zero_eps = (0,) * len(tuple(orders))
        return cls(orders, {(zero_eps, ()): Fraction(value)}, t_cap)

    @classmethod
    def eps(cls, orders, i: int, power: int = 1, t_cap: int = 0) -> "NilSeries":
        exps = [0] * len(tuple(orders))
        exps[i] = power
        return cls(orders, {(tuple(exps), ()): _F1}, t_cap)

    @classmethod
    def t_var(cls, orders, k: int, t_cap: int) -> "NilSeries":
        zero_eps = (0,) * len(tuple(orders))
        return cls(orders, {(zero_eps, ((k, 1),)): _F1}, t_cap)

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "NilSeries"):
        if self.orders != other.orders or self.t_cap != other.t_cap:
            raise ValueError("series live in different truncated rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NilSeries.constant(self.orders, other, self.t_cap)
        if not isinstance(other, NilSeries):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, _F0) + c
        return NilSeries(self.orders, out, self.t_cap)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NilSeries.constant(self.orders, other, self.t_cap)
        if not isinstance(other, NilSeries):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, _F0) - c
        return NilSeries(self.orders, out, self.t_cap)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NilSeries(
                self.orders,
                {k: c * other for k, c in self.terms.items()},
                self.t_cap,
            )
        if not isinstance(other, NilSeries):
            return NotImplemented
        self._check(other)
        orders = self.orders
        cap = self.t_cap
        out: dict[EpsKey, Fraction] = {}
        for (e1, t1), c1 in self.terms.items():
            for (e2, t2), c2 in other.terms.items():
                eps = tuple(x + y for x, y in zip(e1, e2))
                if any(e >= o for e, o in zip(eps, orders)):
                    continue
                if t2:
                    merged: dict[int, int] = dict(t1)
                    for k, a in t2:
                        merged[k] = merged.get(k, 0) + a
                    tmono = tuple(sorted(merged.items()))
                else:
                    tmono = t1
                if sum(k * a for k, a in tmono) > cap:
                    continue
                key = (eps, tmono)
                out[key] = out.get(key, _F0) + c1 * c2
        return NilSeries(orders, out, cap)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = NilSeries.constant(self.orders, 1, self.t_cap)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def exp(self) -> "NilSeries":
        """exp of a series with zero constant term (nilpotent, so finite)."""
        zero_eps = (0,) * len(self.orders)
        if self.terms.get((zero_eps, ())):
            raise ValueError("exp requires zero constant term")
        result = NilSeries.constant(self.orders, 1, self.t_cap)
        power = result
        k = 1
        while True:
            power = power * self
            if not power.terms:
                return result
            result = result + power * Fraction(1, math.factorial(k))
            k += 1

    def __eq__(self, other):
        return (
            isinstance(other, NilSeries)
            and self.orders == other.orders
            and self.t_cap == other.t_cap
            and self.terms == other.terms
        )

    def coefficient(self, eps: tuple[int, ...], tmono=()) -> Fraction:
        return self.terms.get((tuple(eps), tuple(sorted(tmono))), _F0)

    def flatten_eps(self) -> dict[tuple, Fraction]:
        """Image under eps_monomial -> 1, grouped by t-monomial."""
        out: dict[tuple, Fraction] = {}
        for (_, tmono), c in self.terms.items():
            out[tmono] = out.get(tmono, _F0) + c
        return {k: v for k, v in out.items() if v}

    def __repr__(self):
        return f"NilSeries(orders={self.orders}, t_cap={self.t_cap}, terms={self.terms})"


def g_series_identity_check(
    d: int, r: int, t_degree_cap: int, cap: int = DEFAULT_GROUP_CAP
) -> bool:
    """Check that averaging prod_l (1 + eps^l t_{dl})^{X_l} over S_r equals
    exp(sum_l eps^l t_{dl} / l) with eps^(r+1) = 0, and that setting eps to 1
    reproduces the closed-form S_r means coefficient by coefficient."""
    if d < 1 or r < 0:
        raise ValueError("need d >= 1 and r >= 0")
    orders = (r + 1,)
    total = NilSeries.constant(orders, 0, t_degree_cap)
    count = 0
    for sigma in enumerate_sn(r, cap):
        ct = sigma.cycle_type()
        prod = NilSeries.constant(orders, 1, t_degree_cap)
        for ell, m in ct.items():
            base = NilSeries.constant(orders, 1, t_degree_cap) + NilSeries(
                orders, {((ell,), ((d * ell, 1),)): _F1}, t_degree_cap
            )
            prod = prod * base ** m
        total = total + prod
        count += 1
    lhs = total * Fraction(1, count)
    arg = NilSeries.constant(orders, 0, t_degree_cap)
    for ell in range(1, r + 1):
        arg = arg + NilSeries(
            orders, {((ell,), ((d * ell, 1),)): Fraction(1, ell)}, t_degree_cap
        )
    if lhs != arg.exp():
        return False
    flat = lhs.flatten_eps()
    expected: dict[tuple, Fraction] = {}
    for mu in multi_indices_up_to(r):
        tmono = tuple(sorted((d * ell, m) for ell, m in mu.items()))
        if sum(k * a for k, a in tmono) > t_degree_cap:
            continue
        expected[tmono] = sn_expectation_closed(mu, r)
    return flat == expected
