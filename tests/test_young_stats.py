"""Closed-form coset statistics against direct enumeration."""

from fractions import Fraction

import pytest

from orbitstat.errors import CapExceeded
from orbitstat.symmetric import CosetSpec, MultiIndex, partitions, multi_indices_up_to
from orbitstat.young_stats import (
    coset_bruteforce,
    coset_histogram,
    count_cycle_type_in_coset,
    expected_binom_on_coset,
    expected_k_cycles,
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
            brute, _ = coset_bruteforce(s, mu)
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


def test_histogram_cap_and_threads():
    s = spec("1^8")
    with pytest.raises(CapExceeded):
        coset_histogram(s, cap=100)
    h1 = coset_histogram(s)
    h3 = coset_histogram(s)
    assert h1 == h3
