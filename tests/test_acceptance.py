"""Acceptance gate: the ten full-scale correctness checks, one per test.

Each test runs the corresponding check from orbitstat.verify at its full
scale, prints a single PASS/FAIL line (visible under ``pytest -s``), and
asserts the result.  Checks with a stated time budget are timed.
"""

import time

from orbitstat import verify


def _run(num, label, budget=None):
    start = time.perf_counter()
    (res,) = verify.run_all(names=(label,))
    elapsed = time.perf_counter() - start
    status = "PASS" if res.ok else "FAIL"
    print(f"{status} criterion-{num:02d} {label}: {res.detail} "
          f"[{elapsed:.2f}s]")
    assert res.ok, f"criterion-{num:02d} {label}: {res.detail}"
    if budget is not None:
        assert elapsed < budget, (
            f"criterion-{num:02d} {label} took {elapsed:.2f}s "
            f"(budget {budget}s)")
    return res


def test_criterion_01_necklace_count():
    _run(1, "necklace-count", budget=30.0)


def test_criterion_02_equal_expectations():
    _run(2, "equal-expectation", budget=120.0)


def test_criterion_03_chi_routes():
    _run(3, "chi-routes", budget=20.0)


def test_criterion_04_coset_statistics():
    _run(4, "coset-statistics", budget=20.0)


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
