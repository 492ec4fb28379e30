"""Polynomial helpers of the tests, on coefficient tuples: the product of
several factors, and the expansion of a factorization back into the
polynomial it stands for, the oracle of factor's round trips."""

from orbitstat.polynomial import Poly, _mul


def product(ctx, *factors) -> tuple[int, ...]:
    """The product of coefficient tuples; (1,) for none."""
    out = (1,)
    for c in factors:
        out = _mul(ctx, out, c)
    return out


def expand(fac) -> Poly:
    """unit * prod p^r: the Poly a Factorization stands for."""
    powers = (p.coeffs for p, r in fac.factors for _ in range(r))
    return Poly(fac.ctx, product(fac.ctx, (fac.unit,), *powers))
