"""The division-symbol algebra over F_q[t], kept as the tests' oracle.

A SymbolSum is an exact-rational linear combination of symbols eps_g indexed
by monic polynomials g, multiplying by eps_g * eps_h = eps_{g*h}; the identity
is eps_1.  Evaluating at a polynomial f sends eps_g to 1 when g divides f and
to 0 otherwise, extended linearly.  Evaluation is deliberately NOT
multiplicative (eps_t^2 evaluates to 0 at f = t while eps_t evaluates to 1),
so products must be expanded into monomial symbols before evaluating; the
operators here do exactly that, guarded by a term-count cap.

frobenius_stats.chi_symbolic expands the same products in the quotient by the
symbols that vanish at f; SymbolSum keeps the whole expansion, and the tests
evaluate it at f as the oracle of that route.

Averaging eps_g over all monic f of degree N gives q^(-deg g) while
deg g <= N and 0 beyond, which is what the one-variable truncation
lambda_map implements: eps_g -> (eps/q)^(deg g) in Q[eps]/(eps^(N+1)), as an
exponent-tuple dict that charpoly._mul_truncated multiplies with top (N,).
Setting eps to 1, the sum of its values, recovers the mean exactly.
"""

from fractions import Fraction

from orbitstat.errors import CapExceeded
from orbitstat.frobenius_stats import DEFAULT_TERM_CAP
from orbitstat.polynomial import Poly, _divmod, _mul, parse_poly, poly_sort_key, signed_terms

_F0 = Fraction(0)
_F1 = Fraction(1)


class SymbolSum:
    """Formal sum of divisibility symbols keyed by monic polynomials."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms=None):
        canon: dict[Poly, Fraction] = {}
        for g, c in (terms or {}).items():
            if not isinstance(g, Poly):
                raise TypeError(f"symbol key must be a polynomial, got {g!r}")
            if g.ctx != ctx:
                raise ValueError("symbol key over a different field")
            if not g.is_monic:
                raise ValueError(f"symbol keys must be monic, got {g}")
            c = Fraction(c)
            if c:
                canon[g] = canon.get(g, _F0) + c
        self.ctx = ctx
        self.terms = {g: c for g, c in canon.items() if c}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ctx) -> "SymbolSum":
        return cls(ctx)

    @classmethod
    def one(cls, ctx) -> "SymbolSum":
        return cls(ctx, {Poly(ctx, (1,)): _F1})

    @classmethod
    def symbol(cls, g: Poly, coeff=1) -> "SymbolSum":
        return cls(g.ctx, {g: Fraction(coeff)})

    # -- linear structure ---------------------------------------------------

    def _check(self, other: "SymbolSum"):
        if self.ctx != other.ctx:
            raise ValueError("symbol sums over different fields")

    def __add__(self, other):
        if not isinstance(other, SymbolSum):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for g, c in other.terms.items():
            out[g] = out.get(g, _F0) + c
        return SymbolSum(self.ctx, out)

    def __sub__(self, other):
        if not isinstance(other, SymbolSum):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for g, c in other.terms.items():
            out[g] = out.get(g, _F0) - c
        return SymbolSum(self.ctx, out)

    def __neg__(self):
        return SymbolSum(self.ctx, {g: -c for g, c in self.terms.items()})

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return SymbolSum(self.ctx, {g: c * scalar for g, c in self.terms.items()})
        if isinstance(scalar, SymbolSum):
            return self.mul(scalar)
        return NotImplemented

    def mul(self, other: "SymbolSum", term_cap: int = DEFAULT_TERM_CAP) -> "SymbolSum":
        """Bilinear product eps_g * eps_h = eps_{gh}, term-count guarded."""
        self._check(other)
        if len(self.terms) * len(other.terms) > term_cap:
            raise CapExceeded(
                f"symbolic product would touch {len(self.terms) * len(other.terms)} "
                f"term pairs (cap {term_cap}); raise it with --cap-terms, or for "
                "coset statistics use the factored evaluator in frobenius_stats"
            )
        out: dict[Poly, Fraction] = {}
        for g, c in self.terms.items():
            for h, e in other.terms.items():
                key = Poly(self.ctx, _mul(self.ctx, g.coeffs, h.coeffs))
                out[key] = out.get(key, _F0) + c * e
        return SymbolSum(self.ctx, out)

    def __mul__(self, other):
        if isinstance(other, SymbolSum):
            return self.mul(other)
        return self.__rmul__(other)

    def pow(self, n: int, term_cap: int = DEFAULT_TERM_CAP) -> "SymbolSum":
        """n-th power by repeated squaring of whole sums."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = SymbolSum.one(self.ctx)
        base = self
        while n:
            if n & 1:
                result = result.mul(base, term_cap)
            n >>= 1
            if n:
                base = base.mul(base, term_cap)
        return result

    def __pow__(self, n: int):
        return self.pow(n)

    def __eq__(self, other):
        return (
            isinstance(other, SymbolSum)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, f: Poly) -> Fraction:
        """Sum of coefficients over the symbols dividing f."""
        if f.ctx != self.ctx:
            raise ValueError("evaluating over a different field")
        if f.is_zero:
            raise ValueError("evaluation at the zero polynomial")
        total = _F0
        fdeg = f.degree
        for g, c in self.terms.items():
            if g.degree > fdeg:
                continue
            if not _divmod(f.ctx, f.coeffs, g.coeffs)[1]:
                total += c
        return total

    # -- text ---------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for g in sorted(self.terms, key=poly_sort_key):
            c = self.terms[g]
            body = f"eps({g})"
            parts.append(body if c == 1 else f"{c}*{body}")
        return " + ".join(parts)

    def __repr__(self):
        return f"SymbolSum({self}, {self.ctx!r})"

    @classmethod
    def parse(cls, text: str, ctx) -> "SymbolSum":
        """Parse sums like "3*eps(t^2+t) + 1/2*eps(t)"; a bare rational is
        that multiple of the identity eps(1), so str(zero) = "0" parses back."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty symbol sum")
        out = cls.zero(ctx)
        for sign, chunk in signed_terms(s):
            coeff = Fraction(sign)
            body = chunk
            star = chunk.find("*eps(")
            if star >= 0:
                coeff *= Fraction(chunk[:star])
                body = chunk[star + 1 :]
            elif not chunk.startswith("eps("):
                coeff *= Fraction(chunk)
                body = "eps(1)"
            if not (body.startswith("eps(") and body.endswith(")")):
                raise ValueError(f"bad term {chunk!r}")
            g = parse_poly(body[4:-1], ctx)
            out = out + cls.symbol(g, coeff)
        return out


def lambda_map(a: SymbolSum, n: int) -> dict[tuple[int], Fraction]:
    """Push a symbol sum into Q[eps]/(eps^(n+1)) via eps_g -> (eps/q)^deg(g),
    as the one-variable exponent-tuple dict {(k,): coefficient of eps^k}.

    This is the averaging substitution: setting eps to 1, that is summing
    the values, gives the mean over monic polynomials of degree n.
    """
    if n < 0:
        raise ValueError("truncation degree must be >= 0")
    q = a.ctx.q
    out: dict[tuple[int], Fraction] = {}
    for g, c in a.terms.items():
        dg = g.degree
        if dg <= n:
            out[(dg,)] = out.get((dg,), _F0) + c / q ** dg
    return {k: v for k, v in out.items() if v}

