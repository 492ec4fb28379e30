"""Cycle statistics on block-cycling cosets tau*H, closed form and oracle.

Every closed form here is a product over blocks.  On block (d, r), an element
h of H is a tuple of d permutations sigma_1, ..., sigma_d in S_r, and each
l-cycle of the product sigma_d ... sigma_1 becomes a (d*l)-cycle of tau*h.
Every element of S_r is that product for exactly (r!)^(d-1) tuples, so the
block's cycles are those of one uniform element of S_r, stretched by d, and
blocks are independent.

* The histogram of cycle types is the convolution over blocks of the S_r
  class sizes, stretched and weighted by (r!)^(d-1).
* The mean of binom(X, mu) splits over the blocks by Vandermonde's identity:
  it is the z^mu coefficient of the product of block factors
  B_{d,r}(z) = sum over a, supported on multiples of d, of
  E_{S_r} binom(X, {k/d: a_k}) z^a.  So one product, truncated at a box,
  holds the mean of every binom(X, mu) with mu in the box: coset_means
  builds it once per spec over the join box of the requested mu (each k of
  some mu, with its largest m_k) and reads every mu off it.  The box has
  one exponent per k; the coefficient at a is prod_k 1/((k/d)^{a_k} a_k!)
  while sum_k a_k * k/d <= r, else 0, so block (d, r) lives on
  sum_k a_k * k <= d*r, and a box of all mu of norm <= n holds nothing
  beyond norm n.  Each factor is scaled by D = z_box = prod_k k^{m_k} m_k!,
  which depends only on the box: the scaled coefficient
  prod_k k^{m_k - a_k} d^{a_k} m_k!/a_k! is an integer, since a_k <= m_k.
  So the product runs in integers, and each Fraction is built at the end,
  dividing by D to the number of factors multiplied.  A statistic with
  several terms takes one product per term, in the term's own box: joining
  terms whose k differ multiplies over a far larger box.

coset_histogram enumerates cosets directly and is kept as the oracle.  H and
tau both map each block's points to themselves, so tau*H is the product of the
one-block cosets, and the cycle lengths of tau*h are those of its blocks put
together.  The oracle walks each distinct block's coset on its own d*r points,
all (r!)^d elements of it, tallies their sorted cycle lengths, and convolves
the tallies over the blocks.  It relies on no fact about S_r: block
independence is the one step it shares with the closed forms, and verify's
projection-measure check tests that step on every h of the whole H.  Both
run on walk_coset, the one walk of a coset: a product of one table per slot
(slot_tables) writes each tau*h slot by slot into one reused list of images,
whose cycles symmetric.cycle_lengths counts; each sigma is an image tuple.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .charpoly import _mul_truncated
from .errors import CapExceeded, prints
from .symmetric import (
    DEFAULT_GROUP_CAP,
    CosetSpec,
    MultiIndex,
    _multi_index,
    _sn_list,
    centralizer_order,
    cycle_lengths,
    partition_counts,
    partitions,
)

# The histogram has no group cap to bound it, so its work is bounded here: no
# convolution step may pair more cycle types than this.
HISTOGRAM_LIMIT = 10 ** 5


def _check_pairs(spec: CosetSpec, have: int, block: int) -> None:
    if have * block > HISTOGRAM_LIMIT:
        raise CapExceeded(
            f"the histogram of {spec} pairs at least {have} x {block} cycle types "
            f"in one step, beyond the limit {HISTOGRAM_LIMIT}, which no flag raises"
        )


def cycle_type_distribution(spec: CosetSpec) -> dict[MultiIndex, int]:
    """Cycle-type counts of tau*h over all h in H, by the block product."""
    dist: dict[tuple, int] = {(): 1}  # cycle type as sorted (k, m_k) pairs
    for (d, r), count in Counter(spec.blocks).items():
        # p(r), counted no further than the first count beyond the limit
        classes = next(
            p for m, p in enumerate(partition_counts()) if m == r or p > HISTOGRAM_LIMIT
        )
        _check_pairs(spec, len(dist), classes)  # before listing any partition
        weight = math.factorial(r) ** d  # (r!)^(d-1) times the class size r!/z
        block = [
            ([(d * ell, m) for ell, m in lam.items()], weight // centralizer_order(lam))
            for lam in partitions(r)
        ]
        for _ in range(count):
            _check_pairs(spec, len(dist), len(block))
            nxt: dict[tuple, int] = {}
            for ct, c in dist.items():
                for stretched, w in block:
                    merged = dict(ct)
                    for k, m in stretched:
                        merged[k] = merged.get(k, 0) + m
                    key = tuple(sorted(merged.items()))
                    nxt[key] = nxt.get(key, 0) + c * w
            dist = nxt
    return {MultiIndex(ct): c for ct, c in dist.items()}


def _block_reach(d: int, mu: MultiIndex) -> int:
    """sum of m_k * k/d over the k of mu with d | k: the most points of a
    block of cycle length d that binom(X, mu) can see.  A block (d, r) has the
    same factor for every r >= reach, and only the constant when reach = 0."""
    return sum(m * k // d for k, m in mu.items() if k % d == 0)


@lru_cache(maxsize=4096)
def _block_factor(d: int, r: int, box: MultiIndex) -> Mapping[tuple[int, ...], int]:
    """B_{d,r}(z) truncated at the box and scaled by z_box: at each exponent
    tuple a <= box with a_k = 0 unless d | k, and sum a_k * k/d <= r, the
    integer z_box times the S_r mean of binom(X, {k/d: a_k}).  Only those
    tuples are walked; every other coefficient is 0."""
    terms = [((), 1, 0)]  # (a so far, scaled coefficient, sum a_k * k/d)
    for k, m in box.items():
        if k % d:
            whole = k ** m * math.factorial(m)
            terms = [(a + (0,), c * whole, used) for a, c, used in terms]
            continue
        step = k // d
        # the k-part of z_box over (k/d)^e * e!, for each e the block can reach
        weight = [k ** m * math.factorial(m)]
        for e in range(min(m, r // step)):
            weight.append(weight[-1] * d // (k * (e + 1)))
        terms = [
            (a + (e,), c * weight[e], used + e * step)
            for a, c, used in terms
            for e in range(min(m, (r - used) // step) + 1)
        ]
    return MappingProxyType({a: c for a, c, _ in terms})


def _join_box(mus: list[MultiIndex]) -> tuple[MultiIndex, list[tuple[int, ...]]]:
    """The least box that holds every mu of mus, each k of some mu with its
    largest m_k, and each mu as an exponent tuple of that box.  One mu is its
    own box."""
    if len(mus) == 1:
        (box,) = mus
        return box, [tuple(m for _, m in box.items())]
    join: dict[int, int] = {}
    for mu in mus:
        for k, m in mu.items():
            if m > join.get(k, 0):
                join[k] = m
    ks = sorted(join)
    zeros = (0,) * len(ks)
    at = [tuple(map(dict(mu.items()).get, ks, zeros)) for mu in mus]
    return _multi_index(tuple((k, join[k]) for k in ks)), at


def coset_means(spec: CosetSpec, mus: Iterable[MultiIndex]) -> dict[MultiIndex, Fraction]:
    """Exact mean of binom(X, mu) over the coset tau*H for every mu of mus,
    all read off one product of the block factors, one factor per block,
    truncated at the join box of mus.  The factors are integers scaled by
    z_box, so the product runs in integers and each coefficient is divided
    by z_box to the number of factors multiplied."""
    mus = list(mus)
    box, at = _join_box(mus)
    top = tuple(m for _, m in box.items())
    factors = []
    for (d, r), count in Counter(spec.blocks).items():
        factor = _block_factor(d, min(r, _block_reach(d, box)), box)
        if len(factor) > 1:  # more than the constant: some cycle of the block counts
            factors += [factor] * count
    scale = centralizer_order(box) ** len(factors)
    # the empty product 1 has no z^mu term unless mu is empty
    one = (0,) * len(top)
    *factors, last = factors or [{one: 1}]
    acc = factors[0] if factors else {one: 1}
    for factor in factors[1:]:
        acc = _mul_truncated(acc, factor, top)
    # the last factor is multiplied in only if that costs no more than reading
    # each mu off the pairs of it and the product so far, one sum per mu
    if len(at) < len(last):
        coeffs = [
            sum(c * last.get(tuple(map(int.__sub__, e, a)), 0) for a, c in acc.items())
            for e in at
        ]
    else:
        acc = _mul_truncated(acc, last, top) if factors else last
        coeffs = [acc.get(e, 0) for e in at]
    return {mu: Fraction(c, scale) for mu, c in zip(mus, coeffs)}


def expected_binom_on_coset(spec: CosetSpec, mu: MultiIndex) -> Fraction:
    """Exact mean of binom(X, mu) over the coset tau*H: coset_means of the
    one mu, whose box is mu itself."""
    (mean,) = coset_means(spec, (mu,)).values()
    return mean


def class_count(spec: CosetSpec, mu: MultiIndex, mean: Fraction) -> int:
    """|H| times the mean of binom(X, mu) for a cycle type mu of norm N: the
    number of elements of tau*H of that cycle type, which must be a natural
    number."""
    value = spec.order_h() * mean
    if value.denominator != 1 or value < 0:
        raise ArithmeticError(
            f"cycle-type count for {spec} at {mu} is not a natural number: {value}"
        )
    return int(value)


def slot_tables(spec: CosetSpec) -> list[tuple[slice, dict]]:
    """One table per slot (block i, position k), in walk_coset order: the
    slice of the points (i, j, k), j < r_i, and for each sigma of S_{r_i},
    in enumerate_sn order, the images of tau*h on those points when h holds
    sigma in that slot.  The points are flattened to 0, ..., N-1 in
    lexicographic (i, j, k) order."""
    tables = []
    base = 0
    for d, r in spec.blocks:
        for k in range(d):
            step = (k + 1) % d  # tau moves (i, j, k) to (i, j, k + 1 mod d)
            points = tuple(base + j * d + step for j in range(r))  # j -> (i, j, step)
            images = {
                sigma: tuple(map(points.__getitem__, sigma)) for sigma in _sn_list(r)
            }
            tables.append((slice(base + k, base + r * d, d), images))
        base += d * r
    return tables


def _check_order(spec: CosetSpec, cap: int) -> None:
    """Refuse |H| > cap, naming --cap-group, and an |H| too long to print by
    its spec."""
    order = spec.order_h()
    if order > cap:
        what = f"|H| = {order}" if prints(order) else (
            f"|H| of {spec}, a number of more than {sys.get_int_max_str_digits()} digits,"
        )
        raise CapExceeded(f"{what} exceeds cap {cap}; raise it with --cap-group")


def walk_coset(spec: CosetSpec, cap: int = DEFAULT_GROUP_CAP) -> Iterator[tuple]:
    """Every h of H, refused when |H| > cap: one S_{r_i} element per slot,
    the last slot varying fastest and each in enumerate_sn order.  Each h
    comes as its slots' (sigma, images) entries of slot_tables and the
    images of tau*h on all N points, one list rewritten in place for each h."""
    _check_order(spec, cap)
    tables = slot_tables(spec)
    slices = [sl for sl, _ in tables]
    images = list(range(spec.n))
    for entries in itertools.product(*(table.items() for _, table in tables)):
        for sl, (_, values) in zip(slices, entries):
            images[sl] = values
        yield entries, images


@lru_cache(maxsize=None)
def _block_tally(d: int, r: int) -> Mapping[tuple[int, ...], int]:
    """Sorted cycle lengths of tau*h -> count, over all (r!)^d elements h of
    the one-block coset (d, r), met in walk_coset order.  Its caller has
    checked the whole |H|, so the block's own order is its cap."""
    tally: dict[tuple[int, ...], int] = {}
    for _, images in walk_coset(CosetSpec(((d, r),)), math.factorial(r) ** d):
        key = cycle_lengths(images)
        tally[key] = tally.get(key, 0) + 1
    return MappingProxyType(tally)


def coset_histogram(spec: CosetSpec, cap: int = DEFAULT_GROUP_CAP) -> dict[MultiIndex, int]:
    """Cycle-type counts of tau*h over all h in H, by direct enumeration of
    each block's coset, convolved over the blocks in order.  The counts come
    in the order in which a walk_coset of all of H first meets each cycle
    type."""
    _check_order(spec, cap)
    tally: dict[tuple[int, ...], int] = {(): 1}
    for d, r in spec.blocks:
        block = _block_tally(d, r).items()
        nxt: dict[tuple[int, ...], int] = {}
        for key, count in tally.items():
            for block_key, block_count in block:
                merged = tuple(sorted(key + block_key))
                nxt[merged] = nxt.get(merged, 0) + count * block_count
        tally = nxt
    return {MultiIndex.from_dict(Counter(key)): count for key, count in tally.items()}
