"""Test oracles for charpoly, symmetric, young_stats and frobenius_stats.

h_by_slots lists H as the product of enumerate_sn per slot, each h a tuple
of blocks, each block a tuple of its d slots' elements of S_r: the tests'
own copy of the order of young_stats.walk_coset.  tau and
structured_to_permutation build tau and each such h as whole permutations of
the N points, image tuples flattened in lexicographic (i, j, k) order: the
tests' own copy of the point layout, against which young_stats' slot_tables
is checked.  compose multiplies two image tuples, the right factor acting
first, as tau*h does.

whole_coset_histogram is the oracle for coset_histogram, which walks each
block's coset on its own and convolves the results.  This walks every h of
the whole H at once on walk_coset, with no use of block independence beyond
the slot tables, and counts the cycles of each tau*h on all n points.

sn_expectation_oracle is the S_r mean of binom(X, mu) by enumerating S_r,
and count_cycle_type_in_coset the number of elements of tau*H of one cycle
type, read off the closed-form mean.

expected_k_cycles is the mean number of k-cycles on a coset, counted
straight from the blocks.

ensemble_walk is the oracle for frobenius_stats.ensemble_formula: it walks
the factorization types of degree d, and for each term binom(X, mu) of the
statistic evaluates the coset closed form once per distinct part of a type
that mu sees, weighted by the number of f that share it.

ensemble_cycle_types walks the same types but reads each coset's closed-form
cycle-type histogram instead, which gives every statistic at once: the
oracle for sweeps over many mu.

equal_expectation_check puts the walk's ensemble mean of binom(X, mu) over
the monic polynomials of degree d next to the S_d mean and its necklace
product form.
"""

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from orbitstat.charpoly import CharPoly, binom_eval, sn_expectation_closed
from orbitstat.frobenius_stats import DEFAULT_ENUM_CAP, factorization_types
from orbitstat.polynomial import divisors, necklace_count
from orbitstat.symmetric import (
    DEFAULT_GROUP_CAP,
    CosetSpec,
    MultiIndex,
    cycle_lengths,
    cycle_type,
    enumerate_sn,
)
from orbitstat.young_stats import (
    _block_reach,
    class_count,
    cycle_type_distribution,
    expected_binom_on_coset,
    walk_coset,
)


def _offsets(spec: CosetSpec) -> list[int]:
    """The first flattened point of each block."""
    offs = []
    acc = 0
    for d, r in spec.blocks:
        offs.append(acc)
        acc += d * r
    return offs


def compose(a: tuple, b: tuple) -> tuple:
    """a * b, which sends x to a(b(x)): b acts first."""
    return tuple(a[y] for y in b)


def tau(spec: CosetSpec) -> tuple:
    """The block-cycling permutation (i, j, k) -> (i, j, k+1 mod d_i)."""
    images = [0] * spec.n
    offs = _offsets(spec)
    for i, (d, r) in enumerate(spec.blocks):
        base = offs[i]
        for j in range(r):
            for k in range(d):
                images[base + j * d + k] = base + j * d + (k + 1) % d
    return tuple(images)


def h_by_slots(spec: CosetSpec):
    """Every h of H, one element of S_r per slot (block i, position k), the
    last slot varying fastest and each in enumerate_sn order, as a tuple of
    blocks, each a tuple of its d slots' elements."""
    pools = [tuple(enumerate_sn(r)) for d, r in spec.blocks for _ in range(d)]
    for flat in itertools.product(*pools):
        h = []
        for d, _ in spec.blocks:
            h.append(flat[:d])
            flat = flat[d:]
        yield tuple(h)


def structured_to_permutation(spec: CosetSpec, h: tuple) -> tuple:
    """Flatten a slot tuple to a permutation of the N points."""
    images = [0] * spec.n
    offs = _offsets(spec)
    for i, (d, r) in enumerate(spec.blocks):
        base = offs[i]
        for k in range(d):
            perm = h[i][k]
            for j in range(r):
                images[base + j * d + k] = base + perm[j] * d + k
    return tuple(images)


def sn_expectation_oracle(mu: MultiIndex, r: int, cap: int = DEFAULT_GROUP_CAP) -> Fraction:
    """Mean of binom(X, mu) over S_r by brute-force enumeration of S_r."""
    total = 0
    count = 0
    for sigma in enumerate_sn(r, cap):
        total += binom_eval(mu, cycle_type(sigma))
        count += 1
    return Fraction(total, count)


def count_cycle_type_in_coset(spec: CosetSpec, mu: MultiIndex) -> int:
    """Number of elements of tau*H with cycle type mu (norm(mu) = N): |H|
    times the mean of binom(X, mu), the indicator of that cycle type."""
    n = spec.n
    if mu.norm != n:
        raise ValueError(f"cycle type of norm {mu.norm} on {n} points")
    return class_count(spec, mu, expected_binom_on_coset(spec, mu))


def whole_coset_histogram(
    spec: CosetSpec, cap: int = DEFAULT_GROUP_CAP
) -> dict[MultiIndex, int]:
    """Cycle-type counts of tau*h over all h in H, by direct enumeration: h
    runs in walk_coset order, and each tau*h is counted on its list of
    images."""
    tally: dict[tuple[int, ...], int] = {}
    for _, images in walk_coset(spec, cap):
        key = cycle_lengths(images)
        tally[key] = tally.get(key, 0) + 1
    return {MultiIndex.from_dict(Counter(key)): count for key, count in tally.items()}


def expected_k_cycles(spec: CosetSpec, k: int) -> Fraction:
    """Mean number of k-cycles on the coset: (1/k) * sum of the d_i with
    d_i | k and d_i * r_i >= k."""
    if k < 1:
        raise ValueError("cycle length must be >= 1")
    total = sum(d for d, r in spec.blocks if k % d == 0 and d * r >= k)
    return Fraction(total, k)


# the oracle tests walk each degree once per statistic and filter
_factorization_types = lru_cache(maxsize=None)(factorization_types)


def ensemble_walk(
    d: int,
    ctx,
    P: CharPoly,
    maxmult: Optional[int] = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> tuple[Fraction, int]:
    """(sum of chi over the monic f of degree d whose factors have
    multiplicity at most maxmult, their count), by factorization types: chi
    at f depends only on the block spec of f, so each term binom(X, mu) of P
    is evaluated once per distinct part of a spec that it sees, and weighted
    by the number of f that share that part.  cap bounds the number of
    block multisets walked.

    A block (k, r) enters the cycle counts of mu only if k divides a part of
    mu.  Its factor holds S_r means of binom(X, {j/k: a_j}) with a <= mu,
    which depend on r only through whether r reaches sum of a_j * j/k, and
    that sum is at most the reach sum of m_j * j/k, so r is cut to it.
    """
    types = _factorization_types(d, ctx.q, cap)
    if maxmult is not None:
        types = {spec: n_f for spec, n_f in types.items() if spec.max_multiplicity <= maxmult}
    total = Fraction(0)
    for mu, c in P.terms.items():
        reach = {k: _block_reach(k, mu) for k in range(1, d + 1)}
        weights: Counter = Counter()
        for spec, n_f in types.items():
            seen = sorted((k, min(r, reach[k])) for k, r in spec.blocks if reach[k])
            weights[tuple(seen)] += n_f
        for seen, n_f in weights.items():
            total += c * n_f * expected_binom_on_coset(CosetSpec(seen), mu)
    return total, sum(types.values())


_histogram = lru_cache(maxsize=None)(cycle_type_distribution)


def ensemble_cycle_types(
    d: int, q: int, maxmult: Optional[int] = None
) -> dict[MultiIndex, Fraction]:
    """Sum over the monic f of degree d whose factors have multiplicity at
    most maxmult of the share of each cycle type in the coset of f, by
    factorization types and the closed-form histogram of each.  The ensemble
    sum of P is the sum over cycle types ct of this weight times P at ct."""
    out: dict[MultiIndex, Fraction] = {}
    for spec, n_f in _factorization_types(d, q, DEFAULT_ENUM_CAP).items():
        if maxmult is None or spec.max_multiplicity <= maxmult:
            share = Fraction(n_f, spec.order_h())
            for ct, count in _histogram(spec).items():
                out[ct] = out.get(ct, 0) + share * count
    return out


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
    total, _ = ensemble_walk(d, ctx, CharPoly.binom(mu), cap=cap)
    ensemble_mean = total / ctx.q ** d
    symmetric_mean = sn_expectation_closed(mu, d)
    product_form = symmetric_mean
    for k, m in mu.items():
        necklace = Fraction(
            sum(dd * necklace_count(dd, ctx.q) for dd in divisors(k)),
            ctx.q ** k,
        )
        product_form *= necklace ** m
    return EqualExpectationReport(
        d, ctx.q, mu, ensemble_mean, symmetric_mean, product_form
    )
