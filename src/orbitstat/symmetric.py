"""Permutations, cycle types and block-cycling cosets of Young subgroups.

A permutation of {0, ..., n-1} is its image tuple, as
itertools.permutations yields it; nothing here composes permutations.  A
MultiIndex mu = {k: mu_k} doubles as the exponent of a cycle statistic and,
when its norm equals n, as a cycle type.

A CosetSpec is a multiset of blocks (d_i, r_i).  Block i contributes the index
points {(i, j, k) : 0 <= j < r_i, 0 <= k < d_i}.  The subgroup H is the
product of one copy of S_{r_i} per slot (i, k), acting on the j coordinate,
and tau is the block-cycling permutation (i, j, k) -> (i, j, k+1 mod d_i),
which normalizes H.  The statistics downstream live on the coset tau*H,
which young_stats.walk_coset walks slot by slot on the points laid out by
young_stats.slot_tables; no element of H is built here.

A MultiIndex is the tuple of its entries (k, mu_k) and a CosetSpec the tuple
of its sorted blocks, each validated once: they hash and compare as tuples,
and no dict mixes them as keys.

cycle_lengths is the one cycle counter, and sorted cycle lengths the working
form of a cycle type: _lengths_type makes each tallied class a MultiIndex.
"""

from __future__ import annotations

import bisect
import itertools
import math
import re
from functools import lru_cache
from typing import Iterator

from .errors import count_text, past_print_limit, read_int, refusal

DEFAULT_GROUP_CAP = 10 ** 6


def cycle_lengths(images) -> tuple[int, ...]:
    """Sorted cycle lengths of the permutation with these images: the one
    cycle counter, on image tuples and the image lists of the coset walks."""
    seen = bytearray(len(images))
    lengths = []
    for start, done in enumerate(seen):
        if done:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = 1
            x = images[x]
            length += 1
        lengths.append(length)
    lengths.sort()
    return tuple(lengths)


class MultiIndex(tuple):
    """Sparse exponent vector {k: m_k}: the tuple of its entries (k, m_k),
    sorted by k, all m_k >= 1."""

    __slots__ = ()

    def __new__(cls, entries=()):
        mu = tuple.__new__(cls, entries)
        last = 0
        for k, m in mu:
            if k < 1:
                raise ValueError(f"cycle lengths must be >= 1: {mu!r}")
            if k <= last:
                raise ValueError(f"entries must be sorted by k: {mu!r}")
            if m < 1:
                raise ValueError(f"counts must be >= 1: {mu!r}")
            last = k
        return mu

    @classmethod
    def from_dict(cls, d: dict[int, int]) -> "MultiIndex":
        return cls(sorted((k, m) for k, m in d.items() if m))

    @classmethod
    def parse(cls, text: str) -> "MultiIndex":
        """Parse "1:2,2:1"; an optional "mu=" prefix and "" are accepted."""
        s = text.strip().replace(" ", "")
        if s.startswith("mu="):
            s = s[3:]
        if not s:
            return cls()
        if not re.fullmatch(r"\d+:\d+(,\d+:\d+)*", s):
            raise ValueError(
                f"bad multi-index {text!r}: expected k:m entries with integers "
                "k and m, as in --mu 1:2,3:1"
            )
        counts: dict[int, int] = {}
        for part in s.split(","):
            k, m = part.split(":")
            k, m = read_int(k, text, "the multi-index"), read_int(m, text, "the multi-index")
            counts[k] = counts.get(k, 0) + m
        return cls.from_dict(counts)

    @property
    def norm(self) -> int:
        """The weighted size sum(k * m_k)."""
        return sum(k * m for k, m in self)

    def get(self, k: int, default: int = 0) -> int:
        for kk, m in self:
            if kk == k:
                return m
        return default

    def items(self):
        return self

    def __str__(self):
        return ",".join(f"{k}:{m}" for k, m in self)


def _multi_index(entries: tuple[tuple[int, int], ...]) -> MultiIndex:
    """MultiIndex from entries already sorted by k >= 1 with counts >= 1,
    without validating them again."""
    return tuple.__new__(MultiIndex, entries)


def _lengths_type(lengths: tuple[int, ...]) -> MultiIndex:
    """The cycle type with these sorted cycle lengths, unvalidated."""
    entries = []
    start = 0
    while start < len(lengths):  # one run of equal lengths a step
        end = bisect.bisect_right(lengths, lengths[start], start)
        entries.append((lengths[start], end - start))
        start = end
    return _multi_index(tuple(entries))


def cycle_type(images) -> MultiIndex:
    """The cycle type of the permutation with these images; anything but a
    permutation of {0, ..., n-1} is a ValueError."""
    if sorted(images) != list(range(len(images))):
        raise ValueError(f"not a permutation: {images}")
    return _lengths_type(cycle_lengths(images))


class CosetSpec(tuple):
    """Canonical multiset of blocks (d, r): the tuple of its blocks, sorted."""

    __slots__ = ()

    def __new__(cls, blocks=()):
        norm = []
        for d, r in blocks:
            if not (isinstance(d, int) and isinstance(r, int) and d >= 1 and r >= 1):
                raise ValueError(f"bad block ({d}, {r})")
            norm.append((d, r))
        return tuple.__new__(cls, sorted(norm))

    @property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        return self

    @classmethod
    def parse(cls, text: str) -> "CosetSpec":
        """Parse "1^2,2^1" (block d^r); optional "blocks=" prefix."""
        s = text.strip().replace(" ", "")
        if s.startswith("blocks="):
            s = s[7:]
        if not re.fullmatch(r"\d+\^\d+(,\d+\^\d+)*", s):
            raise ValueError(
                f"bad --blocks {text!r}: expected d^r entries with integers "
                "d and r, as in 1^2,2^1"
            )
        blocks = []
        for part in s.split(","):
            d, r = part.split("^")
            what = "the block spec"
            blocks.append((read_int(d, text, what), read_int(r, text, what)))
        return cls(blocks)

    def __str__(self):
        return ",".join(f"{d}^{r}" for d, r in self.blocks)

    @property
    def n(self) -> int:
        """Number of flattened points: sum of d_i * r_i."""
        return sum(d * r for d, r in self.blocks)

    @property
    def max_multiplicity(self) -> int:
        return max((r for _, r in self.blocks), default=0)

    def order_h(self) -> int:
        out = 1
        for d, r in self.blocks:
            out *= math.factorial(r) ** d
        return out

    def order_h_prints(self) -> bool:
        """Whether |H| is within Python's limit on the digits of a printed
        integer, decided by log10 |H| = sum of d * lgamma(r + 1) / ln 10, so
        that an |H| past it is never computed.  With no limit, every |H|
        prints."""
        log10 = sum(d * math.lgamma(r + 1) for d, r in self.blocks) / math.log(10)
        return not past_print_limit(log10, self.order_h)


def _blocks_from(remaining: int, lowest: tuple[int, int]) -> Iterator[tuple]:
    if remaining == 0:
        yield ()
        return
    for d in range(1, remaining + 1):
        for r in range(1, remaining // d + 1):
            if (d, r) < lowest:
                continue
            for rest in _blocks_from(remaining - d * r, (d, r)):
                yield ((d, r),) + rest


def block_multisets(n: int) -> Iterator[CosetSpec]:
    """Every multiset of blocks (d, r) with sum of d*r equal to n, in
    lexicographic order of the sorted block tuples."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return (CosetSpec(blocks) for blocks in _blocks_from(n, (1, 1)))


def enumerate_sn(n: int, cap: int = DEFAULT_GROUP_CAP) -> Iterator[tuple[int, ...]]:
    """All of S_n as image tuples, in lexicographic order; refuses n! > cap,
    found by multiplying 2 * 3 * ... only until the product passes cap."""
    if n < 0:
        raise ValueError("n must be >= 0")
    order = 1
    for k in range(2, n + 1):
        if order > cap:
            break
        order *= k
    if order > cap:  # n! is named, not computed, when lgamma puts it past the limit
        log10 = math.lgamma(n + 1) / math.log(10)
        count = count_text(log10, lambda: math.factorial(n), f"{n}!", "elements")
        raise refusal(f"S_{n} has {count}", cap, "--cap-group")
    return itertools.permutations(range(n))


@lru_cache(maxsize=None)
def _sn_list(r: int) -> tuple[tuple[int, ...], ...]:
    """S_r in enumerate_sn order, with no cap: its callers check |H| first."""
    return tuple(itertools.permutations(range(r)))


def centralizer_order(mu: MultiIndex) -> int:
    """Order of the centralizer in S_n of a permutation of cycle type mu:
    the product of k^m_k * m_k!."""
    out = 1
    for k, m in mu.items():
        out *= k ** m * math.factorial(m)
    return out


def partitions(n: int) -> Iterator[MultiIndex]:
    """All multi-indices of norm exactly n, in reverse lexicographic order of
    the parts listed largest first: (n) first, (1^n) last."""
    if n < 0:
        return
    parts = [[n, 1]] if n else []  # [part, multiplicity], largest part first
    while True:
        yield _multi_index(tuple(map(tuple, reversed(parts))))
        ones = parts.pop()[1] if parts and parts[-1][0] == 1 else 0
        if not parts:
            return
        # the next partition takes one copy of the smallest part p > 1 and
        # refills p plus the ones with parts of p - 1 and one remainder
        top = parts[-1]
        p = top[0]
        top[1] -= 1
        if not top[1]:
            parts.pop()
        count, rest = divmod(p + ones, p - 1)
        parts.append([p - 1, count])
        if rest:
            parts.append([rest, 1])


def partition_counts() -> Iterator[int]:
    """p(0), p(1), p(2), ..., the numbers of partitions, without listing any,
    by Euler's pentagonal recurrence: p(n) is the sum over k >= 1 of
    (-1)^(k+1) * (p(n - k(3k-1)/2) + p(n - k(3k+1)/2)), p of a negative 0."""
    p = [1]
    yield 1
    for n in itertools.count(1):
        total = 0
        for k in itertools.count(1):
            g = k * (3 * k - 1) // 2
            if g > n:
                break
            pair = p[n - g] + (p[n - g - k] if g + k <= n else 0)
            total += pair if k % 2 else -pair
        p.append(total)
        yield total


def multi_indices_up_to(n: int) -> Iterator[MultiIndex]:
    """All multi-indices of norm 0, 1, ..., n."""
    for m in range(n + 1):
        yield from partitions(m)
