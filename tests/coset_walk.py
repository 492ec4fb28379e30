"""Test oracles for charpoly, symmetric, young_stats and frobenius_stats.

tau and structured_to_permutation build tau and each h of H as whole
Permutations of the N points, flattened in lexicographic (i, j, k) order:
the tests' own copy of the point layout, against which young_stats'
slot_tables is checked.

whole_coset_histogram is the oracle for coset_histogram, which walks each
block's coset on its own and convolves the results.  This walks every h of
the whole H at once, in enumerate_h_structured order, with no use of block
independence beyond the slot tables, and counts the cycles of each tau*h on
all n points.

sn_expectation_oracle is the S_r mean of binom(X, mu) by enumerating S_r,
and count_cycle_type_in_coset the number of elements of tau*H of one cycle
type, read off the closed-form mean.

expected_k_cycles is the mean number of k-cycles on a coset, counted
straight from the blocks.

equal_expectation_check puts the ensemble mean of binom(X, mu) over the
monic polynomials of degree d next to the S_d mean and its necklace
product form.
"""

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from orbitstat.charpoly import CharPoly, binom_eval, sn_expectation_closed
from orbitstat.errors import CapExceeded
from orbitstat.frobenius_stats import DEFAULT_ENUM_CAP, ensemble_formula
from orbitstat.polynomial import divisors, necklace_count
from orbitstat.symmetric import (
    DEFAULT_GROUP_CAP,
    CosetSpec,
    MultiIndex,
    Permutation,
    StructuredH,
    enumerate_sn,
)
from orbitstat.young_stats import (
    class_count,
    cycle_lengths,
    expected_binom_on_coset,
    slot_tables,
)


def _offsets(spec: CosetSpec) -> list[int]:
    """The first flattened point of each block."""
    offs = []
    acc = 0
    for d, r in spec.blocks:
        offs.append(acc)
        acc += d * r
    return offs


def tau(spec: CosetSpec) -> Permutation:
    """The block-cycling permutation (i, j, k) -> (i, j, k+1 mod d_i)."""
    images = [0] * spec.n
    offs = _offsets(spec)
    for i, (d, r) in enumerate(spec.blocks):
        base = offs[i]
        for j in range(r):
            for k in range(d):
                images[base + j * d + k] = base + j * d + (k + 1) % d
    return Permutation(tuple(images))


def structured_to_permutation(spec: CosetSpec, h: StructuredH) -> Permutation:
    """Flatten a slot tuple to a permutation of the N points."""
    images = [0] * spec.n
    offs = _offsets(spec)
    for i, (d, r) in enumerate(spec.blocks):
        base = offs[i]
        for k in range(d):
            perm = h[i][k]
            for j in range(r):
                images[base + j * d + k] = base + perm(j) * d + k
    return Permutation(tuple(images))


def sn_expectation_oracle(mu: MultiIndex, r: int, cap: int = DEFAULT_GROUP_CAP) -> Fraction:
    """Mean of binom(X, mu) over S_r by brute-force enumeration of S_r."""
    total = 0
    count = 0
    for sigma in enumerate_sn(r, cap):
        total += binom_eval(mu, sigma.cycle_type())
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
    runs in enumerate_h_structured order, and each tau*h is written slot by
    slot into one list of images."""
    order = spec.order_h()
    if order > cap:
        raise CapExceeded(f"|H| = {order} exceeds cap {cap}; raise it with --cap-group")
    tables = slot_tables(spec)
    slices = [sl for sl, _ in tables]
    images = list(range(spec.n))
    tally: dict[tuple[int, ...], int] = {}
    for choice in itertools.product(*(table.values() for _, table in tables)):
        for sl, values in zip(slices, choice):
            images[sl] = values
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
    total, _ = ensemble_formula(d, ctx, CharPoly.binom(mu), cap=cap)
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
