"""Permutations as image tuples, cycle types, block cosets, and their
enumerations.

The coset oracle here rebuilds membership from scratch: h lies in H exactly
when it permutes each block's copies while fixing the copy coordinate, so the
histogram of tau*H can be computed by filtering the whole symmetric group.
"""

import math
import re
import sys
import time
from collections import Counter
from itertools import islice, permutations as iterperms

import pytest
from hypothesis import given, strategies as st

from orbitstat.errors import CapExceeded
from orbitstat.symmetric import (
    CosetSpec,
    MultiIndex,
    block_multisets,
    centralizer_order,
    cycle_type,
    enumerate_sn,
    multi_indices_up_to,
    partition_counts,
    partitions,
    _sn_list,
)
from orbitstat.verify import _block_projections
from orbitstat.young_stats import coset_histogram, walk_coset

from coset_walk import (
    compose,
    count_block_multisets,
    h_by_slots,
    structured_to_permutation,
    tau,
)

P_COUNTS = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}


def perms(n):
    return st.permutations(range(n)).map(tuple)


# -- permutations ------------------------------------------------------------

def test_composition_applies_right_factor_first():
    a = (1, 0, 2)  # swap 0,1
    b = (0, 2, 1)  # swap 1,2
    ab = compose(a, b)
    assert ab[1] == a[b[1]] == 2
    assert ab == (1, 2, 0)


def test_permutation_validation():
    with pytest.raises(ValueError, match=r"not a permutation: \(0, 0, 1\)"):
        cycle_type((0, 0, 1))
    with pytest.raises(ValueError, match="not a permutation"):
        cycle_type((0, 2))


@given(perms(5), perms(5), perms(5))
def test_composition_associative(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_cycles_and_cycle_type():
    assert cycle_type((1, 0, 3, 4, 2, 5)) == MultiIndex.from_dict({1: 1, 2: 1, 3: 1})
    assert cycle_type((0, 1, 2, 3)) == MultiIndex.from_dict({1: 4})
    assert cycle_type(()) == MultiIndex()


@given(perms(6), perms(6))
def test_cycle_type_is_a_conjugacy_invariant(a, g):
    conjugate = [0] * 6  # g a g^-1 sends g(x) to g(a(x))
    for x, y in enumerate(a):
        conjugate[g[x]] = g[y]
    assert cycle_type(conjugate) == cycle_type(a)


def test_enumerate_sn_is_lexicographic():
    s3 = list(enumerate_sn(3))
    assert s3 == [
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)
    ]


def test_cached_sn_list_equals_enumerate_sn():
    """The cached S_r holds the image tuples of S_r, each a permutation, in
    enumerate_sn order."""
    for r in range(7):
        cached = _sn_list(r)
        assert cached == tuple(enumerate_sn(r)) == tuple(iterperms(range(r)))
        assert all(sorted(p) == list(range(r)) for p in cached)
        assert len(set(cached)) == math.factorial(r)


def test_enumerate_sn_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_sn(12, cap=10 ** 6))


@pytest.mark.parametrize("n", [2000, 100000])
def test_enumerate_sn_refuses_an_unprintable_order_at_once(n):
    # n! is never written out, and 100000! is never computed
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as refused:
        enumerate_sn(n)
    assert time.perf_counter() - start < 0.01
    assert str(refused.value) == (
        f"S_{n} has {n}! elements, a number of more than "
        f"{sys.get_int_max_str_digits()} digits, beyond the cap 1000000; "
        "raise it with --cap-group"
    )


def test_enumerate_sn_prints_an_order_within_the_digit_limit():
    with pytest.raises(CapExceeded) as refused:
        enumerate_sn(9, cap=40320)
    assert str(refused.value) == (
        "S_9 has 362880 elements, beyond the cap 40320; raise it with --cap-group"
    )
    assert len(list(enumerate_sn(8, cap=40320))) == 40320


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_conjugacy_class_sizes_partition_the_group(n):
    total = 0
    for mu in partitions(n):
        size = math.factorial(n) // centralizer_order(mu)
        brute = sum(1 for s in enumerate_sn(n) if cycle_type(s) == mu)
        assert size == brute
        total += size
    assert total == math.factorial(n)


# -- multi-indices -----------------------------------------------------------

def test_multi_index_parse_and_str():
    mu = MultiIndex.parse("2:1,1:2")
    assert mu == MultiIndex.from_dict({1: 2, 2: 1})
    assert str(mu) == "1:2,2:1"
    assert mu.norm == 4
    assert mu.get(1) == 2 and mu.get(7) == 0
    assert MultiIndex.parse("mu=3:1").norm == 3
    assert MultiIndex.parse("") == MultiIndex()
    with pytest.raises(ValueError):
        MultiIndex.parse("2")
    with pytest.raises(ValueError, match="cycle lengths must be >= 1"):
        MultiIndex.parse("0:1")


def test_multi_index_refuses_unsorted_entries_and_zero_counts():
    with pytest.raises(ValueError, match=re.escape("entries must be sorted by k: ((2, 1), (1, 1))")):
        MultiIndex(((2, 1), (1, 1)))
    with pytest.raises(ValueError, match=re.escape("counts must be >= 1: ((1, 0),)")):
        MultiIndex(((1, 0),))


@given(st.dictionaries(st.integers(1, 9), st.integers(1, 4), max_size=4),
       st.dictionaries(st.integers(1, 9), st.integers(1, 4), max_size=4))
def test_a_multi_index_hashes_compares_and_sorts_as_its_entries(a, b):
    mu, nu = MultiIndex.from_dict(a), MultiIndex.from_dict(b)
    ea, eb = tuple(sorted(a.items())), tuple(sorted(b.items()))
    assert isinstance(mu, tuple) and tuple(mu) == ea and mu.items() == ea
    assert hash(mu) == hash(ea)
    assert (mu == nu) == (ea == eb) and (mu < nu) == (ea < eb) and (mu <= nu) == (ea <= eb)
    assert bool(mu) == bool(a)
    assert not hasattr(mu, "__dict__")  # a tuple and nothing else


def test_multi_indices_sort_by_their_entries():
    # the order of the entry tuples, which young --histogram prints in
    assert [str(mu) for mu in sorted(multi_indices_up_to(3))] == [
        "", "1:1", "1:1,2:1", "1:2", "1:3", "2:1", "3:1",
    ]
    mus = list(multi_indices_up_to(8))
    as_lists = sorted(mus, key=lambda mu: [list(entry) for entry in mu.items()])
    assert sorted(mus) == as_lists and len(as_lists) == sum(P_COUNTS.values())


def test_partition_counts_up_to_8():
    for n, want in P_COUNTS.items():
        assert sum(1 for _ in partitions(n)) == want
    assert sum(1 for _ in multi_indices_up_to(6)) == sum(
        P_COUNTS[j] for j in range(7)
    )


def test_partitions_have_the_right_norm():
    for mu in partitions(6):
        assert mu.norm == 6


def recursive_partitions(n, largest=None):
    """Partitions of n as part lists, largest part first, the larger first
    part before the smaller."""
    if n == 0:
        yield []
        return
    for part in range(min(n, n if largest is None else largest), 0, -1):
        for rest in recursive_partitions(n - part, part):
            yield [part] + rest


def test_partitions_follow_the_recursive_order():
    for n in range(21):
        want = [MultiIndex.from_dict(Counter(parts)) for parts in recursive_partitions(n)]
        assert list(partitions(n)) == want


def test_partition_counts():
    # the reference counts partitions by largest part: ways[j] after part s
    # counts the partitions of j into parts of size at most s
    ways = [1] + [0] * 200
    for size in range(1, 201):
        for total in range(size, 201):
            ways[total] += ways[total - size]
    assert list(islice(partition_counts(), 201)) == ways
    for n in range(41):
        assert sum(1 for _ in partitions(n)) == ways[n]
    assert sum(1 for _ in partitions(60)) == ways[60] == 966467


def test_the_partition_and_multi_index_lists_are_lazy():
    # p(200) is about 4 * 10^12, so neither list can be built before the
    # first entry comes out, and no cache may hold one
    start = time.perf_counter()
    assert next(partitions(200)) == MultiIndex.from_dict({200: 1})
    assert next(multi_indices_up_to(200)) == MultiIndex()
    assert time.perf_counter() - start < 0.5


# -- block specs -------------------------------------------------------------

def test_spec_parse_sorts_blocks():
    spec = CosetSpec.parse("2^1,1^2")
    assert spec.blocks == ((1, 2), (2, 1))
    assert str(spec) == "1^2,2^1"
    assert spec.n == 4
    assert spec.order_h() == 2  # 2!^1 * 1!^2
    assert CosetSpec.parse("blocks=3^2").order_h() == 2 ** 3


@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=5),
       st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=5))
def test_a_spec_hashes_and_compares_as_its_sorted_blocks(a, b):
    spec, other = CosetSpec(a), CosetSpec(b)
    ta, tb = tuple(sorted(a)), tuple(sorted(b))
    assert isinstance(spec, tuple) and spec == ta and spec.blocks == ta
    assert hash(spec) == hash(ta)
    assert (spec == other) == (ta == tb) and (spec < other) == (ta < tb)
    assert CosetSpec(reversed(a)) == spec  # a multiset: the order given is lost
    assert bool(spec) == bool(a)
    assert not hasattr(spec, "__dict__")


def test_spec_rejects_bad_blocks():
    with pytest.raises(ValueError):
        CosetSpec(((0, 1),))
    with pytest.raises(ValueError):
        CosetSpec(((1, 0),))
    with pytest.raises(ValueError):
        CosetSpec.parse("1,2")


def test_tau_frozen_examples():
    # a single block of degree 2 with one copy: tau swaps the two points
    assert tau(CosetSpec(((2, 1),))) == (1, 0)
    # degree 3: a 3-cycle on the flattened points
    assert tau(CosetSpec(((3, 1),))) == (1, 2, 0)
    # two copies of degree 2: independent swaps per copy
    assert tau(CosetSpec(((2, 2),))) == (1, 0, 3, 2)
    # degree-1 blocks contribute fixed points
    assert tau(CosetSpec(((1, 2),))) == (0, 1)


def test_tau_cycle_type():
    spec = CosetSpec(((1, 2), (2, 1), (3, 1)))
    assert cycle_type(tau(spec)) == MultiIndex.from_dict({1: 2, 2: 1, 3: 1})


def test_h_enumeration_counts_and_indexing():
    for text in ("1^2", "2^2", "1^2,2^1", "3^1,1^3"):
        spec = CosetSpec.parse(text)
        hs = [(entries, tuple(images)) for entries, images in walk_coset(spec)]
        assert len(hs) == spec.order_h()
        assert len(set(hs)) == len(hs)
        for _, images in hs:
            assert sorted(images) == list(range(spec.n))


# -- the coset, against a from-scratch membership test -----------------------

def membership_histogram(spec):
    """Cycle types of tau*sigma for sigma in H, with H recognized point by
    point: a permutation lies in H iff it maps every point (i, j, k) to a
    point with the same block i and the same position k."""
    coords = []
    for i, (d, r) in enumerate(spec.blocks):
        for j in range(r):
            for k in range(d):
                coords.append((i, k))
    n = spec.n
    cycling = tau(spec)
    hist = {}
    for images in iterperms(range(n)):
        if any(coords[x] != coords[y] for x, y in enumerate(images)):
            continue
        ct = cycle_type(compose(cycling, images))
        hist[ct] = hist.get(ct, 0) + 1
    return hist


@pytest.mark.parametrize(
    "text", ["1^2", "2^1", "1^2,2^1", "2^2", "1^3", "3^2", "1^1,1^1,2^1", "2^1,3^1"]
)
def test_coset_matches_membership_filter(text):
    spec = CosetSpec.parse(text)
    assert coset_histogram(spec) == membership_histogram(spec)


def test_structured_h_flattens_to_distinct_permutations():
    spec = CosetSpec.parse("1^2,2^2")
    hs = {structured_to_permutation(spec, h) for h in h_by_slots(spec)}
    assert len(hs) == 2 * 2 * 2
    assert tuple(range(spec.n)) in hs


def slots(*sigmas):
    """Walk entries holding these slot elements; the projection reads only
    the sigmas."""
    return [(sigma, None) for sigma in sigmas]


def test_m_projection_frozen_example():
    spec = CosetSpec(((2, 2),))
    ms = [_block_projections(spec.blocks, entries) for entries, _ in walk_coset(spec)]
    assert len(ms) == 4
    for (m,) in ms:
        assert sorted(m) == [0, 1]
    # the projection of the identity is the identity
    assert ms[0] == ((0, 1),)


def test_m_projection_composes_slots_in_order():
    # one block (2, 2): slots are the two positions, each holding an S_2
    # element; the projection multiplies position 1 after position 0
    blocks = ((2, 2),)
    swap = (1, 0)
    ident = (0, 1)
    for h, want in [
        (slots(swap, ident), swap),
        (slots(ident, swap), swap),
        (slots(swap, swap), ident),
    ]:
        assert _block_projections(blocks, h) == (want,)


def test_m_projection_puts_later_slots_on_the_left():
    # S_3 does not commute, so the order of the slots shows, in a block with
    # d = 2 after a block with d = 1 and before one with d = 3
    a, b = (1, 2, 0), (1, 0, 2)
    ba = compose(b, a)
    assert ba != compose(a, b)
    assert _block_projections(((2, 3),), slots(a, b)) == (ba,)
    blocks = ((1, 2), (2, 3), (3, 3))
    swap = (1, 0)
    h = slots(swap, a, b, a, b, b)
    assert _block_projections(blocks, h) == (swap, ba, compose(b, ba))


def test_enumeration_caps_name_the_flag():
    with pytest.raises(CapExceeded, match="--cap-group"):
        list(enumerate_sn(5, cap=100))
    with pytest.raises(CapExceeded, match="--cap-group"):
        list(walk_coset(CosetSpec.parse("1^4"), cap=10))


def test_block_multisets_are_the_specs_of_total_n():
    assert [str(s) for s in block_multisets(3)] == [
        "1^1,1^1,1^1", "1^1,1^2", "1^1,2^1", "1^3", "3^1"
    ]
    assert list(block_multisets(0)) == [CosetSpec(())]
    for n in range(0, 13):
        specs = list(block_multisets(n))
        assert len(specs) == len(set(specs)) == count_block_multisets(n)
        assert all(s.n == n for s in specs)
    assert count_block_multisets(20) == 14750


def test_spec_multiplicity_properties():
    assert CosetSpec.parse("1^1,2^1,3^1").max_multiplicity == 1
    assert CosetSpec.parse("1^1,2^2").max_multiplicity == 2
    assert CosetSpec.parse("1^1,2^2,1^3").max_multiplicity == 3
    assert CosetSpec(()).max_multiplicity == 0
