"""Acceptance gate: the ten full-scale correctness checks, one per test.

Each test runs the corresponding check from orbitstat.verify at its full
scale, prints a single PASS/FAIL line (visible under ``pytest -s``), and
asserts the result and a time budget of BUDGET_S seconds.
"""

import time

from orbitstat import verify


# every check takes under a second at full scale on a 2-vCPU machine, so a
# tenfold slowdown of any of them fails its test
BUDGET_S = 10.0


def _run(num, label):
    start = time.perf_counter()
    (res,) = verify.run_all(names=(label,))
    elapsed = time.perf_counter() - start
    status = "PASS" if res.ok else "FAIL"
    print(f"{status} criterion-{num:02d} {label}: {res.detail} "
          f"[{elapsed:.2f}s]")
    assert res.ok, f"criterion-{num:02d} {label}: {res.detail}"
    assert elapsed < BUDGET_S, (
        f"criterion-{num:02d} {label} took {elapsed:.2f}s "
        f"(budget {BUDGET_S}s)")
    return res


def test_criterion_01_necklace_count():
    _run(1, "necklace-count")


def test_criterion_02_equal_expectations():
    _run(2, "equal-expectation")


def test_criterion_03_chi_routes():
    _run(3, "chi-routes")


def test_criterion_04_coset_statistics():
    _run(4, "coset-statistics")


def test_criterion_05_sym_expectation():
    _run(5, "sym-expectation")


def test_criterion_06_projection_measure():
    _run(6, "projection-measure")


def test_criterion_07_generating_series():
    _run(7, "generating-series")


def test_criterion_08_divisor_average():
    _run(8, "divisor-average")


def test_criterion_09_known_values():
    _run(9, "known-values")


def test_criterion_10_stabilization():
    _run(10, "stabilization")
