"""Cycle statistics attached to polynomial factorizations.

A monic f over F_q with factorization prod p_i^{r_i} determines blocks
(d_i, r_i) with d_i = deg p_i, hence a coset spec (block_spec): the cycle
statistics of f are the averages over that coset.  Three independent routes
compute the value of a whole CharPoly P at f, one function each, named after
the CLI's --method:

* chi_formula(spec, P) evaluates the closed form, a product over the blocks
  of the spec for each term of P (the fast path, which never needs
  irreducibles beyond the factors of f);
* chi_symbolic(f, P) expands the product of divisibility-symbol sums over
  the irreducibles of degree dividing k, jointly across every k of each
  term's mu, in the quotient by the symbols that vanish at f, and reads off
  its value at f; it finds those symbols with the sieve and division, never
  factor;
* chi_oracle(spec, P) enumerates the coset and averages directly.

Ensemble sums accumulate the closed form over all monic f of a given degree,
optionally filtered by a predicate on the block spec.  ensemble_formula
counts the f of each block spec with the Moebius necklace counts and
evaluates the closed form once per spec; ensemble_sum factors every f and is
kept as its oracle.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Optional

from .charpoly import CharPoly
from .division_algebra import DEFAULT_TERM_CAP
from .errors import CapExceeded
from .polynomial import (
    Factorization,
    Poly,
    _divmod,
    _irreducible_tuples,
    _mul,
    divisors,
    enumerate_monic,
    factor,
    format_poly,
    necklace_count,
)
from .symmetric import (
    DEFAULT_GROUP_CAP,
    CosetSpec,
    MultiIndex,
    block_multisets,
    count_block_multisets,
)
from .young_stats import _block_reach, coset_histogram, expected_binom_on_coset

DEFAULT_ENUM_CAP = 10 ** 6

_F0 = Fraction(0)
_F1 = Fraction(1)


def _check_monic(f: Poly) -> None:
    if f.is_zero or not f.is_monic:
        raise ValueError(
            f"cycle statistics need a monic nonzero polynomial, not {format_poly(f)!r}"
        )


def block_spec(f: Poly) -> CosetSpec:
    """Factor a monic f and read off its coset spec: one block (deg p, r)
    per factor p^r."""
    _check_monic(f)
    return factor(f).spec


def chi_formula(spec: CosetSpec, P: CharPoly) -> Fraction:
    """Mean of P over the coset of spec by the closed form: one product of
    block factors per term of P."""
    return sum((c * expected_binom_on_coset(spec, mu) for mu, c in P.terms.items()), _F0)


def chi_oracle(spec: CosetSpec, P: CharPoly, cap: int = DEFAULT_GROUP_CAP) -> Fraction:
    """Mean of P over the coset of spec, by enumerating all of H: P is
    evaluated once per cycle type of the enumerated histogram."""
    hist = coset_histogram(spec, cap)
    return sum((n * P.evaluate(ct) for ct, n in hist.items()), _F0) / spec.order_h()


def _spend_terms(work: int, term_cap: int) -> None:
    if work > term_cap:
        raise CapExceeded(
            f"the symbolic route would reach {work} steps (candidate symbols "
            f"tested against f plus term pairs multiplied), beyond the cap "
            f"{term_cap}; raise it with --cap-terms, or for coset statistics "
            "use the factored route"
        )


def chi_symbolic(f: Poly, P: CharPoly, term_cap: int = DEFAULT_TERM_CAP) -> Fraction:
    """Value of P at a monic f by the divisibility-symbol expansion; it never
    factors f.  Each term binom(X, mu) of P is prod_k S_k^(m_k) / (k^(m_k) m_k!)
    at f, with S_k = sum over d | k and irreducible p of degree d of
    d * eps_{p^(k/d)}.

    Evaluation at f sends eps_g to 0 unless g divides f, and then no multiple
    g*h divides f either: the symbols that do not divide f span an ideal that
    evaluation kills, so the expansion runs in the quotient by it, exactly.
    Every key of the product has degree |mu|, so nothing survives a |mu|
    beyond deg f; S_k keeps only the p^(k/d) that divide f, and each product
    keeps only the keys that divide f.  Every key left divides f, so the
    value at f is the sum of the coefficients.  A key eps_g is stored as its
    cofactor f/g: eps_h times it survives exactly when h divides the
    cofactor, and the quotient is the cofactor of the product.

    The S_k are found once per call, for every k that some term needs, and
    shared by the terms.  term_cap bounds the whole statistic: the candidate
    symbols of those S_k tested against f, plus the term pairs of every
    product, checked before each step starts.  The candidates are the sieve's
    irreducibles, counted by the necklace formula before any is sieved.
    """
    _check_monic(f)
    ctx, fc = f.ctx, f.coeffs
    ks = sorted({k for mu in P.terms for k, _ in mu.items()})
    work = sum(necklace_count(d, ctx.q) for k in ks for d in divisors(k))
    _spend_terms(work, term_cap)
    # the irreducibles of each degree that divide f, each tested once, as
    # coefficient tuples
    dividing = {
        d: [p for p in _irreducible_tuples(d, ctx) if not _divmod(ctx, fc, p)[1]]
        for d in sorted({d for k in ks for d in divisors(k)})
    }
    symbols: dict[int, list[tuple[tuple, int]]] = {}
    for k in ks:
        s_k = symbols[k] = []
        for d in divisors(k):
            for p in dividing[d]:
                g = p
                for _ in range(k // d - 1):
                    g = _mul(ctx, g, p)
                if d == k or not _divmod(ctx, fc, g)[1]:
                    s_k.append((g, d))
    total = _F0
    for mu, coef in P.terms.items():
        terms = {fc: 1}  # cofactor f/g -> integer coefficient of eps_g
        pref = _F1
        for k, m in mu.items():
            for _ in range(m):
                work += len(terms) * len(symbols[k])
                _spend_terms(work, term_cap)
                out: dict[tuple, int] = {}
                for c, x in terms.items():
                    for h, y in symbols[k]:
                        quot, rem = _divmod(ctx, c, h)
                        if not rem:
                            out[quot] = out.get(quot, 0) + x * y
                terms = out
            pref *= Fraction(1, k ** m * math.factorial(m))
        total += coef * pref * sum(terms.values())
    return total


def xk_of_f(f: Poly, k: int) -> Fraction:
    """The k-cycle statistic of f: sum over d | k of (d/k) times the number
    of degree-d irreducible factors dividing f at least k/d times."""
    if k < 1:
        raise ValueError("cycle length must be >= 1")
    _check_monic(f)
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

# Filters read only is_squarefree and max_multiplicity, which a Factorization
# and a CosetSpec both have, so each works on either.

def predicate_squarefree(fac: Factorization | CosetSpec) -> bool:
    return fac.is_squarefree


def predicate_max_multiplicity(m: int) -> Callable[[Factorization | CosetSpec], bool]:
    if m < 1:
        raise ValueError("multiplicity bound must be >= 1")

    def pred(fac: Factorization | CosetSpec) -> bool:
        return fac.max_multiplicity <= m

    return pred


def parse_predicate(
    text: Optional[str],
) -> Optional[Callable[[Factorization | CosetSpec], bool]]:
    """Map "all"/None, "squarefree", "maxmult=m" to a filter."""
    if text is None or text == "all":
        return None
    if text == "squarefree":
        return predicate_squarefree
    if text.startswith("maxmult="):
        try:
            return predicate_max_multiplicity(int(text[8:]))
        except ValueError:
            pass
    raise ValueError(
        f"bad --filter {text!r}: expected all, squarefree, or maxmult=m "
        "with an integer m >= 1"
    )


def factored_types(
    d: int, ctx, predicate: Optional[Callable[[CosetSpec], bool]] = None
) -> Counter:
    """Block spec of every monic f of degree d that passes predicate, tallied
    by factoring each f: the oracle for factorization_types."""
    tally: Counter = Counter()
    for f in enumerate_monic(d, ctx):
        spec = block_spec(f)
        if predicate is None or predicate(spec):
            tally[spec] += 1
    return tally


def ensemble_sum(
    d: int,
    ctx,
    P: CharPoly,
    predicate: Optional[Callable[[CosetSpec], bool]] = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> tuple[Fraction, int]:
    """(sum of chi over surviving monic f of degree d, surviving count), by
    factoring every f: the oracle for ensemble_formula."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    space = ctx.q ** d
    if space > cap:
        raise CapExceeded(
            f"ensemble over {space} polynomials exceeds cap {cap}; raise it with --cap-enum"
        )
    tally = factored_types(d, ctx, predicate)
    total = sum((n_f * chi_formula(spec, P) for spec, n_f in tally.items()), _F0)
    return total, sum(tally.values())


def factorization_types(
    d: int, q: int, cap: int = DEFAULT_ENUM_CAP
) -> dict[CosetSpec, int]:
    """Number of monic f of degree d over F_q with each block spec, for the
    specs that some f has.

    Such an f picks distinct irreducibles for its blocks of each degree k:
    N_k (N_k - 1) ... choices for j blocks, divided by the orderings of
    blocks with equal multiplicity.  cap bounds the number of block
    multisets walked.
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    n_specs = count_block_multisets(d)
    if n_specs > cap:
        raise CapExceeded(
            f"ensemble over {n_specs} factorization types of degree {d} exceeds "
            f"cap {cap}; raise it with --cap-enum"
        )
    necklaces = {k: necklace_count(k, q) for k in range(1, d + 1)}
    out = {}
    for spec in block_multisets(d):
        count = 1
        for k, j in Counter(k for k, _ in spec.blocks).items():
            count *= math.perm(necklaces[k], j)
        if count:
            for same in Counter(spec.blocks).values():
                count //= math.factorial(same)
            out[spec] = count
    return out


def _blocks_seen_by(spec: CosetSpec, mu: MultiIndex) -> CosetSpec:
    """The part of spec that binom(X, mu) sees on the coset.

    A block (d, r) enters the k-cycle counts only for k of mu with d | k.
    Its factor holds S_r means of binom(X, {k/d: a_k}) with a <= mu, which
    depend on r only through whether r reaches sum of a_k * k/d, and that
    sum is at most the reach sum of m_k * k/d, so r can be cut to it.
    """
    seen = []
    for d, r in spec.blocks:
        reach = _block_reach(d, mu)
        if reach:
            seen.append((d, min(r, reach)))
    return CosetSpec(tuple(seen))


def ensemble_formula(
    d: int,
    ctx,
    P: CharPoly,
    predicate: Optional[Callable[[CosetSpec], bool]] = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> tuple[Fraction, int]:
    """ensemble_sum by factorization types, with no polynomial enumerated.

    chi at f depends only on the block spec of f, so each term binom(X, mu)
    of P is evaluated once per distinct part of a spec that it sees, and
    weighted by the number of f that share that part.
    """
    types = factorization_types(d, ctx.q, cap)
    if predicate is not None:
        types = {spec: n_f for spec, n_f in types.items() if predicate(spec)}
    total = _F0
    for mu, c in P.terms.items():
        weights: Counter = Counter()
        for spec, n_f in types.items():
            weights[_blocks_seen_by(spec, mu)] += n_f
        total += c * sum(
            (n_f * expected_binom_on_coset(spec, mu) for spec, n_f in weights.items()), _F0
        )
    return total, sum(types.values())
