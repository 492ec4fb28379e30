"""Closed-form coset statistics against direct enumeration."""

import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitstat import young_stats
from orbitstat.charpoly import CharPoly, _mul_truncated, binom_eval, sn_expectation_closed
from orbitstat.errors import CapExceeded
from orbitstat.finite_field import make_field
from orbitstat.frobenius_stats import chi_formula, chi_oracle
from orbitstat.symmetric import (
    DEFAULT_GROUP_CAP,
    CosetSpec,
    MultiIndex,
    centralizer_order,
    cycle_type,
    multi_indices_up_to,
    partitions,
)
from orbitstat.verify import (
    check_coset_statistics,
    check_equal_expectations,
    enumerate_coset_specs,
)
from orbitstat.young_stats import (
    _block_factor,
    coset_histogram,
    coset_means,
    cycle_type_distribution,
    expected_binom_on_coset,
    slot_tables,
    walk_coset,
)

from coset_walk import (
    count_cycle_type_in_coset,
    ensemble_walk,
    compose,
    expected_k_cycles,
    h_by_slots,
    structured_to_permutation,
    tau,
    whole_coset_histogram,
)


def spec(text):
    return CosetSpec.parse(text)


def mi(text):
    return MultiIndex.parse(text)


def test_double_point_block():
    # two copies of a degree-1 block: the coset is all of S_2
    s = spec("1^2")
    assert expected_binom_on_coset(s, mi("2:1")) == Fraction(1, 2)
    assert expected_binom_on_coset(s, mi("1:1")) == 1
    assert expected_binom_on_coset(s, mi("1:2")) == Fraction(1, 2)
    assert count_cycle_type_in_coset(s, mi("2:1")) == 1
    assert count_cycle_type_in_coset(s, mi("1:2")) == 1


def test_mixed_spec_histogram_and_mean():
    s = spec("1^2,2^1")
    hist = coset_histogram(s)
    assert hist == {mi("1:2,2:1"): 1, mi("2:2"): 1}
    # E[binom(X_2, 1)] = (1 + 2) / 2
    assert expected_binom_on_coset(s, mi("2:1")) == Fraction(3, 2)
    assert count_cycle_type_in_coset(s, mi("2:2")) == 1


def test_single_irreducible_block_is_deterministic():
    s = spec("3^1")
    assert coset_histogram(s) == {mi("3:1"): 1}
    assert expected_binom_on_coset(s, mi("3:1")) == 1
    assert expected_binom_on_coset(s, mi("1:1")) == 0


def test_counts_partition_the_group():
    for text in ("1^3", "2^2", "1^2,2^1", "1^1,3^1", "2^3"):
        s = spec(text)
        total = 0
        hist = coset_histogram(s)
        for mu in partitions(s.n):
            cnt = count_cycle_type_in_coset(s, mu)
            assert cnt == hist.get(mu, 0)
            assert cnt >= 0
            total += cnt
        assert total == s.order_h()


def test_count_requires_full_norm():
    with pytest.raises(ValueError):
        count_cycle_type_in_coset(spec("1^2"), mi("1:1"))


def test_means_match_bruteforce():
    for text in ("1^4", "2^2", "1^2,3^1", "4^1,1^1"):
        s = spec(text)
        for mu in multi_indices_up_to(s.n):
            closed = expected_binom_on_coset(s, mu)
            brute = chi_oracle(s, CharPoly.binom(mu))
            assert closed == brute, (text, str(mu))


def test_statistics_beyond_the_coset_size_vanish():
    s = spec("2^1")
    assert expected_binom_on_coset(s, mi("1:3")) == 0
    assert expected_binom_on_coset(s, mi("2:2")) == 0


def test_expected_k_cycles_values():
    assert expected_k_cycles(spec("1^2"), 2) == Fraction(1, 2)
    assert expected_k_cycles(spec("1^2"), 1) == 1
    assert expected_k_cycles(spec("2^1"), 2) == 1
    assert expected_k_cycles(spec("2^1"), 1) == 0
    # degree-2 block with three copies: 6-cycles need all three glued
    assert expected_k_cycles(spec("2^3"), 6) == Fraction(1, 3)
    assert expected_k_cycles(spec("2^3"), 4) == Fraction(1, 2)
    assert expected_k_cycles(spec("2^3"), 3) == 0


def test_expected_k_cycles_matches_histogram():
    for text in ("1^3", "2^2", "1^2,2^1", "3^2"):
        s = spec(text)
        hist = coset_histogram(s)
        order = s.order_h()
        for k in range(1, s.n + 1):
            brute = Fraction(
                sum(cnt * ct.get(k) for ct, cnt in hist.items()), order
            )
            assert expected_k_cycles(s, k) == brute, (text, k)


def test_histogram_cap_and_repeated_calls_agree():
    s = spec("1^8")
    with pytest.raises(CapExceeded):
        coset_histogram(s, cap=100)
    h1 = coset_histogram(s)
    h3 = coset_histogram(s)
    assert h1 == h3


# -- closed forms as products over blocks -----------------------------------

def test_histogram_limit_counts_no_further_than_it_needs():
    # p(100000) has over 300 digits; the refusal must not compute it
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="no flag"):
        cycle_type_distribution(CosetSpec(((1, 100000),)))
    assert time.perf_counter() - start < 0.5


def test_distribution_equals_enumeration_on_every_small_spec():
    specs = list(enumerate_coset_specs(8))
    assert len(specs) == 216
    for s in specs:
        assert cycle_type_distribution(s) == coset_histogram(s), str(s)


def fraction_box_product(s, mu):
    """The z^mu coefficient by the Fraction block factors multiplied over the
    whole box, each coefficient an S_r mean."""
    top = tuple(m for _, m in mu.items())
    acc = {(0,) * len(top): Fraction(1)}
    for d, r in s.blocks:
        ranges = [range(m + 1) if k % d == 0 else (0,) for k, m in mu.items()]
        factor = {
            a: sn_expectation_closed(
                MultiIndex(tuple((k // d, e) for (k, _), e in zip(mu.items(), a) if e)), r
            )
            for a in itertools.product(*ranges)
        }
        acc = _mul_truncated(acc, factor, top)
    return acc.get(top, Fraction(0))


def test_integer_block_product_equals_the_fraction_box_product_on_every_small_spec():
    specs = list(enumerate_coset_specs(7))
    for s in specs:
        means = coset_means(s, multi_indices_up_to(s.n))  # one product over the join box
        assert list(means) == list(multi_indices_up_to(s.n))
        for mu, shared in means.items():
            value = expected_binom_on_coset(s, mu)
            assert type(value) is Fraction and type(shared) is Fraction
            assert value == shared == fraction_box_product(s, mu), (str(s), str(mu))


def test_block_factor_is_the_s_r_mean_scaled_to_an_integer():
    for mu in multi_indices_up_to(6):
        scale = centralizer_order(mu)
        for d, r in itertools.product(range(1, 5), range(6)):
            factor = _block_factor(d, r, mu)
            assert all(type(c) is int for c in factor.values())
            ranges = [range(m + 1) if k % d == 0 else (0,) for k, m in mu.items()]
            for a in itertools.product(*ranges):
                nu = MultiIndex(tuple((k // d, e) for (k, _), e in zip(mu.items(), a) if e))
                assert factor.get(a, 0) == scale * sn_expectation_closed(nu, r), (d, r, str(mu), a)


def test_coset_statistics_multiply_one_product_per_spec(coset_products):
    # one factor per block, and the first needs no product: sum of (blocks - 1)
    assert check_coset_statistics(nmax=5).ok
    assert len(coset_products) == sum(len(s.blocks) - 1 for s in enumerate_coset_specs(5)) == 44
    coset_products.clear()
    assert check_coset_statistics().ok
    assert len(coset_products) <= 454


def test_statistics_read_one_product_per_term(monkeypatch):
    # joining terms with disjoint k would multiply over a much larger box
    calls = []
    means = young_stats.coset_means

    def spy(s, mus):
        mus = list(mus)
        calls.append(mus)
        return means(s, mus)

    monkeypatch.setattr(young_stats, "coset_means", spy)
    P = CharPoly.parse("binom(1:12)+binom(2:6)+binom(3:4)+binom(4:3)")
    chi_formula(spec("1^12,2^6,4^3"), P)
    assert calls == [[mu] for mu in P.terms]
    calls.clear()
    ensemble_walk(4, make_field(3), CharPoly.parse("binom(1:2)+binom(2:1)"))
    assert calls and all(len(mus) == 1 for mus in calls)


def test_a_wrong_block_coefficient_fails_the_coset_checks(monkeypatch):
    """One coefficient off by one in every block factor that has more than
    its constant: both checks that read means off the shared product fail."""
    factor = young_stats._block_factor

    def wrong(d, r, box):
        out = dict(factor(d, r, box))
        if len(out) > 1:
            out[max(out)] += 1
        return out

    factor.cache_clear()
    monkeypatch.setattr(young_stats, "_block_factor", wrong)
    try:
        assert not check_coset_statistics(nmax=4).ok
        assert not check_equal_expectations(dmax=3).ok
    finally:
        factor.cache_clear()


def test_blocks_share_one_factor_beyond_their_reach():
    # binom(X, 1:2) sees at most 2 points of a linear block, so S_5 and S_9 agree
    _block_factor.cache_clear()
    assert expected_binom_on_coset(spec("1^5"), mi("1:2")) == Fraction(1, 2)
    assert expected_binom_on_coset(spec("1^9"), mi("1:2")) == Fraction(1, 2)
    assert _block_factor.cache_info().misses == 1


def reference_histogram(s):
    """Cycle types of tau*h, with each h built and composed as an image tuple."""
    cycling = tau(s)
    hist = {}
    for h in h_by_slots(s):
        ct = cycle_type(compose(cycling, structured_to_permutation(s, h)))
        hist[ct] = hist.get(ct, 0) + 1
    return hist


def test_enumeration_matches_composed_permutations_on_every_small_spec():
    specs = list(enumerate_coset_specs(8))
    assert len(specs) == 216
    for s in specs:
        # the same counts, met in the same enumeration order
        assert list(coset_histogram(s).items()) == list(reference_histogram(s).items()), str(s)


def test_slot_tables_hold_the_images_of_tau_h_on_each_slot():
    """Entry sigma of a slot's table is tau*h on that slot's points, for h
    composed as an image tuple, on every h of every spec with n <= 6; and
    walk_coset meets the h in the order of the product of enumerate_sn per
    slot, each as its slots' table entries and the images of tau*h."""
    for s in enumerate_coset_specs(6):
        cycling = tau(s)
        tables = slot_tables(s)
        for (entries, images), h in zip(walk_coset(s), h_by_slots(s), strict=True):
            want = compose(cycling, structured_to_permutation(s, h))
            sigmas = tuple(itertools.chain.from_iterable(h))
            for (sl, table), sigma, entry in zip(tables, sigmas, entries, strict=True):
                assert table[sigma] == want[sl] and entry == (sigma, table[sigma]), (str(s), h)
            assert tuple(images) == want, (str(s), h)


def test_per_block_histogram_equals_the_whole_walk_on_every_small_spec():
    specs = list(enumerate_coset_specs(8))
    assert len(specs) == 216
    for s in specs:
        # the same counts, met in the same order
        assert list(coset_histogram(s).items()) == list(whole_coset_histogram(s).items()), str(s)


ENUMERATION_LIMIT = 5 * 10 ** 4


@st.composite
def enumerable_specs(draw, nmax=14):
    """Block multisets with n <= nmax and |H| <= ENUMERATION_LIMIT."""
    blocks = []
    room = nmax
    order = 1
    for _ in range(draw(st.integers(1, 6))):
        if room == 0:
            break
        # r first, so that large copies of S_r come up as often as long cycles
        rmax = max(
            r for r in range(1, room + 1) if order * math.factorial(r) <= ENUMERATION_LIMIT
        )
        r = draw(st.integers(1, rmax))
        dmax = max(
            d
            for d in range(1, room // r + 1)
            if order * math.factorial(r) ** d <= ENUMERATION_LIMIT
        )
        d = draw(st.integers(1, dmax))
        blocks.append((d, r))
        room -= d * r
        order *= math.factorial(r) ** d
    return CosetSpec(tuple(blocks))


@settings(max_examples=30, deadline=None)
@given(enumerable_specs())
def test_enumeration_equals_block_product(s):
    hist = coset_histogram(s)
    assert sum(hist.values()) == s.order_h()
    assert hist == cycle_type_distribution(s)


@st.composite
def many_block_specs(draw):
    """Up to 8 blocks with |H| <= DEFAULT_GROUP_CAP, each block's own coset
    within ENUMERATION_LIMIT: a whole-H walk would visit up to 10^6 elements,
    the per-block walks at most 8 x ENUMERATION_LIMIT."""
    blocks = []
    order = 1
    for _ in range(draw(st.integers(1, 8))):
        room = min(DEFAULT_GROUP_CAP // order, ENUMERATION_LIMIT)
        r = draw(st.integers(1, max(r for r in range(1, 9) if math.factorial(r) <= room)))
        d = draw(st.integers(1, max(d for d in range(1, 9) if math.factorial(r) ** d <= room)))
        blocks.append((d, r))
        order *= math.factorial(r) ** d
    return CosetSpec(tuple(blocks))


@settings(max_examples=30, deadline=None)
@given(many_block_specs())
def test_per_block_histogram_sums_to_h_and_equals_the_block_product(s):
    hist = coset_histogram(s)
    assert sum(hist.values()) == s.order_h()
    assert hist == cycle_type_distribution(s)


def test_distribution_of_a_large_coset():
    s = spec("5^6,3^4,2^5,1^7")
    start = time.perf_counter()
    dist = cycle_type_distribution(s)
    assert time.perf_counter() - start < 1
    assert sum(dist.values()) == s.order_h()
    assert all(ct.norm == s.n for ct in dist)
    assert all(cnt > 0 for cnt in dist.values())


@st.composite
def specs(draw, nmax=30):
    """Block multisets with n <= nmax, blocks up to (6, 6)."""
    blocks = []
    room = nmax
    for _ in range(draw(st.integers(1, 8))):
        if room == 0:
            break
        d = draw(st.integers(1, min(6, room)))
        r = draw(st.integers(1, min(6, room // d)))
        blocks.append((d, r))
        room -= d * r
    return CosetSpec(tuple(blocks))


def multi_indices(kmax):
    return st.dictionaries(
        st.integers(1, kmax), st.integers(1, 3), min_size=1, max_size=3
    ).map(MultiIndex.from_dict)


@settings(max_examples=40, deadline=None)
@given(specs(), st.data())
def test_distribution_sums_to_h_and_gives_the_means(s, data):
    dist = cycle_type_distribution(s)
    assert sum(dist.values()) == s.order_h()
    for mu in data.draw(st.lists(multi_indices(s.n), min_size=1, max_size=4)):
        total = sum(cnt * binom_eval(mu, ct) for ct, cnt in dist.items())
        assert expected_binom_on_coset(s, mu) == Fraction(total, s.order_h()), str(mu)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 60), st.integers(0, 8))
def test_distinct_linear_blocks_count_selections(n, m):
    s = CosetSpec(((1, 1),) * n)
    assert expected_binom_on_coset(s, MultiIndex.from_dict({1: m})) == math.comb(n, m)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 30), st.data())
def test_one_linear_block_is_the_symmetric_group(r, data):
    mu = data.draw(multi_indices(r + 2))
    assert expected_binom_on_coset(spec(f"1^{r}"), mu) == sn_expectation_closed(mu, r)


@settings(max_examples=40, deadline=None)
@given(specs(), st.data())
def test_mean_of_k_cycles(s, data):
    k = data.draw(st.integers(1, s.n + 1))
    assert expected_binom_on_coset(s, MultiIndex.from_dict({k: 1})) == expected_k_cycles(s, k)


@settings(max_examples=40, deadline=None)
@given(specs(nmax=14))
def test_class_counts_from_one_product_are_the_distribution(s):
    """Beyond the reach of per-mu enumeration: every mean of norm <= n from
    one product, and the class counts among them natural numbers summing to
    |H| and equal to the block-product distribution."""
    means = coset_means(s, multi_indices_up_to(s.n))
    dist = cycle_type_distribution(s)
    counts = {mu: s.order_h() * mean for mu, mean in means.items() if mu.norm == s.n}
    assert all(c.denominator == 1 and c >= 0 for c in counts.values())
    assert sum(counts.values()) == s.order_h()
    assert {mu: c for mu, c in counts.items() if c} == dist
