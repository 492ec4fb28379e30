"""Permutations, cycle types and block-cycling cosets of Young subgroups.

A Permutation stores its image tuple on {0, ..., n-1}; composition follows
(a * b)(x) = a(b(x)), so b acts first.  A MultiIndex mu = {k: mu_k} doubles as
the exponent of a cycle statistic and, when its norm equals n, as a cycle
type.

A CosetSpec is a multiset of blocks (d_i, r_i).  Block i contributes the index
points {(i, j, k) : 0 <= j < r_i, 0 <= k < d_i}, flattened to {0, ..., N-1} in
lexicographic (i, j, k) order.  The subgroup H is the product of one copy of
S_{r_i} per slot (i, k), acting on the j coordinate, and tau is the
block-cycling permutation (i, j, k) -> (i, j, k+1 mod d_i), which normalizes
H.  The statistics downstream live on the coset tau*H.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import CapExceeded

DEFAULT_GROUP_CAP = 10 ** 6


@dataclass(frozen=True)
class Permutation:
    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("permutations of different sizes")
        return Permutation(tuple(self.images[y] for y in other.images))

    def inverse(self) -> "Permutation":
        out = [0] * self.n
        for x, y in enumerate(self.images):
            out[y] = x
        return Permutation(tuple(out))

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition, each cycle starting at its smallest point."""
        seen = set()
        out = []
        for start in range(self.n):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> "MultiIndex":
        counts: dict[int, int] = {}
        for cyc in self.cycles():
            counts[len(cyc)] = counts.get(len(cyc), 0) + 1
        return MultiIndex.from_dict(counts)


def cycle_type(sigma: Permutation) -> "MultiIndex":
    return sigma.cycle_type()


@dataclass(frozen=True, order=True)
class MultiIndex:
    """Sparse exponent vector {k: m_k}, entries sorted by k, all m_k >= 1."""

    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        last = 0
        for k, m in self.entries:
            if k <= last:
                raise ValueError(f"entries must be sorted by k: {self.entries}")
            if m < 1:
                raise ValueError(f"counts must be >= 1: {self.entries}")
            last = k

    @classmethod
    def from_dict(cls, d: dict[int, int]) -> "MultiIndex":
        return cls(tuple(sorted((k, m) for k, m in d.items() if m)))

    @classmethod
    def parse(cls, text: str) -> "MultiIndex":
        """Parse "1:2,2:1"; an optional "mu=" prefix and "" are accepted."""
        s = text.strip().replace(" ", "")
        if s.startswith("mu="):
            s = s[3:]
        if not s:
            return cls()
        counts: dict[int, int] = {}
        for part in s.split(","):
            k_text, _, m_text = part.partition(":")
            if not _:
                raise ValueError(f"bad multi-index entry {part!r}")
            k, m = int(k_text), int(m_text)
            counts[k] = counts.get(k, 0) + m
        return cls.from_dict(counts)

    @property
    def norm(self) -> int:
        """The weighted size sum(k * m_k)."""
        return sum(k * m for k, m in self.entries)

    def get(self, k: int) -> int:
        for kk, m in self.entries:
            if kk == k:
                return m
        return 0

    def items(self):
        return self.entries

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)

    def __str__(self):
        return ",".join(f"{k}:{m}" for k, m in self.entries)


@dataclass(frozen=True)
class CosetSpec:
    """Canonical multiset of blocks (d, r); stored sorted."""

    blocks: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        norm = []
        for d, r in self.blocks:
            if not (isinstance(d, int) and isinstance(r, int) and d >= 1 and r >= 1):
                raise ValueError(f"bad block ({d}, {r})")
            norm.append((d, r))
        object.__setattr__(self, "blocks", tuple(sorted(norm)))

    @classmethod
    def parse(cls, text: str) -> "CosetSpec":
        """Parse "1^2,2^1" (block d^r); optional "blocks=" prefix."""
        s = text.strip().replace(" ", "")
        if s.startswith("blocks="):
            s = s[7:]
        if not s:
            raise ValueError("empty block list")
        blocks = []
        for part in s.split(","):
            d_text, _, r_text = part.partition("^")
            if not _:
                raise ValueError(f"bad block {part!r}, expected d^r")
            blocks.append((int(d_text), int(r_text)))
        return cls(tuple(blocks))

    def __str__(self):
        return ",".join(f"{d}^{r}" for d, r in self.blocks)

    @property
    def n(self) -> int:
        """Number of flattened points: sum of d_i * r_i."""
        return sum(d * r for d, r in self.blocks)

    def order_h(self) -> int:
        out = 1
        for d, r in self.blocks:
            out *= math.factorial(r) ** d
        return out

    def _offsets(self) -> list[int]:
        offs = []
        acc = 0
        for d, r in self.blocks:
            offs.append(acc)
            acc += d * r
        return offs

    def point_index(self, i: int, j: int, k: int) -> int:
        d, r = self.blocks[i]
        if not (0 <= j < r and 0 <= k < d):
            raise ValueError(f"point ({i},{j},{k}) outside block ({d},{r})")
        return self._offsets()[i] + j * d + k

    def tau(self) -> Permutation:
        images = [0] * self.n
        offs = self._offsets()
        for i, (d, r) in enumerate(self.blocks):
            base = offs[i]
            for j in range(r):
                for k in range(d):
                    images[base + j * d + k] = base + j * d + (k + 1) % d
        return Permutation(tuple(images))


def enumerate_sn(n: int, cap: int = DEFAULT_GROUP_CAP) -> Iterator[Permutation]:
    """All of S_n in lexicographic image order; refuses n! > cap."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if math.factorial(n) > cap:
        raise CapExceeded(
            f"S_{n} has {math.factorial(n)} elements, beyond cap {cap}; "
            "raise it with --cap-group"
        )
    return (Permutation(p) for p in itertools.permutations(range(n)))


def permutation_at(n: int, index: int) -> Permutation:
    """The index-th element of the enumerate_sn order (factorial digits)."""
    if not 0 <= index < math.factorial(n):
        raise ValueError(f"index {index} out of range for S_{n}")
    avail = list(range(n))
    images = []
    for pos in range(n, 0, -1):
        f = math.factorial(pos - 1)
        digit, index = divmod(index, f)
        images.append(avail.pop(digit))
    return Permutation(tuple(images))


@lru_cache(maxsize=None)
def _sn_list(r: int) -> tuple[Permutation, ...]:
    return tuple(enumerate_sn(r, cap=math.factorial(r)))


StructuredH = tuple  # per block: a tuple of d_i permutations of {0..r_i-1}


def enumerate_h_structured(spec: CosetSpec, cap: int = DEFAULT_GROUP_CAP) -> Iterator[StructuredH]:
    """H as slot tuples, one S_{r_i} element per (block, k) slot.

    The last slot varies fastest; each slot runs in enumerate_sn order.
    """
    if spec.order_h() > cap:
        raise CapExceeded(f"|H| = {spec.order_h()} exceeds cap {cap}; raise it with --cap-group")
    slot_pools = []
    for d, r in spec.blocks:
        slot_pools.extend([_sn_list(r)] * d)
    shape = [d for d, _ in spec.blocks]
    for flat in itertools.product(*slot_pools):
        out = []
        pos = 0
        for d in shape:
            out.append(tuple(flat[pos : pos + d]))
            pos += d
        yield tuple(out)


def h_structured_at(spec: CosetSpec, index: int) -> StructuredH:
    """Random access into the enumerate_h_structured order."""
    sizes = []
    for d, r in spec.blocks:
        sizes.extend([math.factorial(r)] * d)
    digits = [0] * len(sizes)
    for pos in range(len(sizes) - 1, -1, -1):
        index, digits[pos] = divmod(index, sizes[pos])
    if index:
        raise ValueError("index out of range for H")
    out = []
    pos = 0
    for d, r in spec.blocks:
        out.append(tuple(_sn_list(r)[digits[pos + k]] for k in range(d)))
        pos += d
    return tuple(out)


def structured_to_permutation(spec: CosetSpec, h: StructuredH) -> Permutation:
    """Flatten a slot tuple to a permutation of the N points."""
    images = [0] * spec.n
    offs = spec._offsets()
    for i, (d, r) in enumerate(spec.blocks):
        base = offs[i]
        for k in range(d):
            perm = h[i][k]
            for j in range(r):
                images[base + j * d + k] = base + perm(j) * d + k
    return Permutation(tuple(images))


def spec_embed(spec: CosetSpec, cap: int = DEFAULT_GROUP_CAP) -> tuple[list[Permutation], Permutation]:
    """Materialize (H as permutations of {0..N-1}, tau)."""
    hs = [structured_to_permutation(spec, h) for h in enumerate_h_structured(spec, cap)]
    return hs, spec.tau()


def m_projection(h: StructuredH, spec: CosetSpec, i: int) -> Permutation:
    """Collapse block i of h to one S_{r_i} element.

    Walking the slots in k order composes them with the later slot on the
    left, which is exactly how tau*h moves the j coordinate around block i.
    """
    d, r = spec.blocks[i]
    result = Permutation.identity(r)
    for perm in h[i]:
        result = perm * result
    return result


def conjugacy_class_size(mu: MultiIndex, n: int) -> int:
    """Size of the S_n conjugacy class with cycle type mu."""
    if mu.norm != n:
        raise ValueError(f"cycle type of norm {mu.norm} in S_{n}")
    denom = 1
    for k, m in mu.items():
        denom *= k ** m * math.factorial(m)
    num = math.factorial(n)
    assert num % denom == 0
    return num // denom


def partitions(n: int) -> Iterator[MultiIndex]:
    """All multi-indices of norm exactly n, deterministic order."""

    def gen(remaining: int, max_part: int):
        if remaining == 0:
            yield []
            return
        for part in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - part, part):
                yield [part] + rest

    for parts in gen(n, n):
        counts: dict[int, int] = {}
        for part in parts:
            counts[part] = counts.get(part, 0) + 1
        yield MultiIndex.from_dict(counts)


def multi_indices_up_to(n: int) -> Iterator[MultiIndex]:
    """All multi-indices of norm 0, 1, ..., n."""
    for m in range(n + 1):
        yield from partitions(m)
