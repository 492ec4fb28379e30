"""Cycle statistics attached to polynomial factorizations.

A monic f over F_q with factorization prod p_i^{r_i} determines blocks
(d_i, r_i) with d_i = deg p_i, hence a coset spec: the cycle statistics of f
are the averages over that coset.  Three independent routes compute them:

* chi_oracle enumerates the coset and averages directly;
* chi_formula "factored" evaluates the closed form in the truncated
  nilpotent ring built from the factorization (the fast path, which never
  needs irreducibles beyond the factors of f);
* chi_formula "symbolic" expands the product of divisibility-symbol sums
  over all irreducibles of degree dividing k, jointly across every k of mu,
  and evaluates the expansion at f.

Ensemble sums accumulate the closed form over all monic f of a given degree,
optionally filtered by a predicate on the factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .charpoly import CharPoly, sn_expectation_closed
from .division_algebra import DEFAULT_TERM_CAP, SymbolSum
from .errors import CapExceeded
from .polynomial import (
    Factorization,
    Poly,
    count_irreducibles,
    divisors,
    enumerate_irreducibles,
    factor,
    monic_from_index,
    poly_sort_key,
)
from .symmetric import DEFAULT_GROUP_CAP, CosetSpec, MultiIndex, cycle_type, spec_embed
from .young_stats import expected_binom_on_coset

DEFAULT_ENUM_CAP = 10 ** 6

_F0 = Fraction(0)
_F1 = Fraction(1)


@dataclass(frozen=True)
class SigmaStructure:
    """f together with its coset spec and the factor behind each block."""

    f: Poly
    spec: CosetSpec
    factor_map: tuple[Poly, ...]


def _structure_from_factorization(f: Poly, fac: Factorization) -> SigmaStructure:
    triples = sorted(
        ((p.degree, r, p) for p, r in fac.factors),
        key=lambda t: (t[0], t[1], poly_sort_key(t[2])),
    )
    spec = CosetSpec(tuple((d, r) for d, r, _ in triples))
    return SigmaStructure(f, spec, tuple(p for _, _, p in triples))


def sigma_structure(f: Poly) -> SigmaStructure:
    """Factor a monic f and read off its block structure."""
    if f.is_zero or not f.is_monic:
        raise ValueError("sigma structure requires a monic nonzero polynomial")
    return _structure_from_factorization(f, factor(f))


def chi_oracle(f: Poly, P: CharPoly, cap: int = DEFAULT_GROUP_CAP) -> Fraction:
    """Average of P over the coset, by enumerating all of H."""
    struct = sigma_structure(f)
    hs, tau = spec_embed(struct.spec, cap)
    total = _F0
    for h in hs:
        total += P.evaluate(cycle_type(tau * h))
    return total / len(hs)


def _chi_symbolic(f: Poly, mu: MultiIndex, term_cap: int) -> Fraction:
    ctx = f.ctx
    total = SymbolSum.one(ctx)
    pref = _F1
    for k, m in mu.items():
        s = SymbolSum.zero(ctx)
        for d in divisors(k):
            for p in enumerate_irreducibles(d, ctx):
                s = s + SymbolSum.symbol(p ** (k // d), d)
        total = total.mul(s.pow(m, term_cap), term_cap)
        pref *= Fraction(1, k ** m * math.factorial(m))
    return pref * total.evaluate(f)


def chi_formula(
    f: Poly,
    mu: MultiIndex,
    method: str = "factored",
    term_cap: int = DEFAULT_TERM_CAP,
) -> Fraction:
    """Closed-form value of binom(X, mu) at f.

    method "factored" works in the truncated nilpotent ring defined by the
    factorization of f; method "symbolic" expands divisibility symbols over
    every irreducible of degree dividing each k (an independent route kept
    for cross-validation, much more expensive).
    """
    if f.is_zero or not f.is_monic:
        raise ValueError("chi is defined for monic nonzero polynomials")
    if method == "factored":
        return expected_binom_on_coset(sigma_structure(f).spec, mu)
    if method == "symbolic":
        return _chi_symbolic(f, mu, term_cap)
    raise ValueError(f"unknown method {method!r}")


def chi_of_f(f: Poly, P: CharPoly) -> Fraction:
    """Closed-form value of a whole CharPoly at f (factored route)."""
    struct = sigma_structure(f)
    return _chi_from_spec(struct.spec, P)


def _chi_from_spec(spec: CosetSpec, P: CharPoly) -> Fraction:
    total = _F0
    for mu, c in P.terms.items():
        total += c * expected_binom_on_coset(spec, mu)
    return total


def xk_of_f(f: Poly, k: int) -> Fraction:
    """The k-cycle statistic of f: sum over d | k of (d/k) times the number
    of degree-d irreducible factors dividing f at least k/d times."""
    if k < 1:
        raise ValueError("cycle length must be >= 1")
    if f.is_zero or not f.is_monic:
        raise ValueError("cycle statistics require a monic nonzero polynomial")
    fac = factor(f)
    total = _F0
    for d in divisors(k):
        hits = sum(1 for p, r in fac.factors if p.degree == d and r >= k // d)
        if hits:
            total += Fraction(d * hits, k)
    return total


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

def predicate_squarefree(fac: Factorization) -> bool:
    return fac.is_squarefree


def predicate_max_multiplicity(m: int) -> Callable[[Factorization], bool]:
    if m < 1:
        raise ValueError("multiplicity bound must be >= 1")

    def pred(fac: Factorization) -> bool:
        return fac.max_multiplicity <= m

    return pred


def parse_predicate(text: Optional[str]) -> Optional[Callable[[Factorization], bool]]:
    """Map "all"/None, "squarefree", "maxmult=m" to a factorization filter."""
    if text is None or text == "all":
        return None
    if text == "squarefree":
        return predicate_squarefree
    if text.startswith("maxmult="):
        return predicate_max_multiplicity(int(text[8:]))
    raise ValueError(f"unknown predicate {text!r}")


def ensemble_sum(
    d: int,
    ctx,
    P: CharPoly,
    predicate: Optional[Callable[[Factorization], bool]] = None,
    cap: int = DEFAULT_ENUM_CAP,
    threads: int = 1,
) -> tuple[Fraction, int]:
    """(sum of chi over surviving monic f of degree d, surviving count).

    The index space is split into contiguous chunks combined in order, so the
    result is identical for every thread count.
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    space = ctx.q ** d
    if space > cap:
        raise CapExceeded(
            f"ensemble over {space} polynomials exceeds cap {cap}; raise it with --cap-enum"
        )

    def run(lo: int, hi: int) -> tuple[Fraction, int]:
        subtotal = _F0
        count = 0
        for idx in range(lo, hi):
            f = monic_from_index(d, ctx, idx)
            fac = factor(f)
            if predicate is not None and not predicate(fac):
                continue
            struct = _structure_from_factorization(f, fac)
            subtotal += _chi_from_spec(struct.spec, P)
            count += 1
        return subtotal, count

    if threads <= 1:
        return run(0, space)
    from concurrent.futures import ThreadPoolExecutor

    bounds = [space * i // threads for i in range(threads + 1)]
    total = _F0
    count = 0
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for subtotal, subcount in pool.map(lambda b: run(*b), zip(bounds, bounds[1:])):
            total += subtotal
            count += subcount
    return total, count


@dataclass(frozen=True)
class EqualExpectationReport:
    """The three routes to the mean of binom(X, mu) over monic degree-d f."""

    d: int
    q: int
    mu: MultiIndex
    ensemble_mean: Fraction
    symmetric_mean: Fraction
    necklace_product_form: Fraction

    @property
    def equal(self) -> bool:
        return self.ensemble_mean == self.symmetric_mean == self.necklace_product_form


def equal_expectation_check(
    d: int, ctx, mu: MultiIndex, cap: int = DEFAULT_ENUM_CAP
) -> EqualExpectationReport:
    """Compare the polynomial-ensemble mean, the S_d mean, and the S_d mean
    rescaled by necklace-count factors (which the count relations force to 1).
    """
    total, _ = ensemble_sum(d, ctx, CharPoly.binom(mu), cap=cap)
    ensemble_mean = total / ctx.q ** d
    symmetric_mean = sn_expectation_closed(mu, d)
    product_form = symmetric_mean
    for k, m in mu.items():
        necklace = Fraction(
            sum(dd * count_irreducibles(dd, ctx) for dd in divisors(k)),
            ctx.q ** k,
        )
        product_form *= necklace ** m
    return EqualExpectationReport(
        d, ctx.q, mu, ensemble_mean, symmetric_mean, product_form
    )
