"""Test oracles for young_stats.

whole_coset_histogram is the oracle for coset_histogram, which walks each
block's coset on its own and convolves the results.  This walks every h of
the whole H at once, in enumerate_h_structured order, with no use of block
independence beyond the slot tables, and counts the cycles of each tau*h on
all n points.

expected_k_cycles is the mean number of k-cycles on a coset, counted
straight from the blocks.
"""

import itertools
from collections import Counter
from fractions import Fraction

from orbitstat.errors import CapExceeded
from orbitstat.symmetric import DEFAULT_GROUP_CAP, CosetSpec, MultiIndex
from orbitstat.young_stats import cycle_lengths, slot_tables


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
