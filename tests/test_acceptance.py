"""Acceptance gate: the ten full-scale correctness checks, one per test.

Each test runs the corresponding check from orbitstat.verify at its full
scale, prints a single PASS/FAIL line (visible under ``pytest -s``), and
asserts the result, its detail line, which counts the cases compared, and a
time budget of BUDGET_S seconds.  A change that drops cases from a check
changes its count and fails here.
"""

import time

from orbitstat import verify


# every check takes under a second at full scale on a 2-vCPU machine, so a
# tenfold slowdown of any of them fails its test
BUDGET_S = 10.0


def _run(num, label, detail):
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
    assert res.detail == detail


def test_criterion_01_necklace_count():
    _run(1, "necklace-count", "32 count identities hold for q in (2, 3, 4, 5), k <= 8")


def test_criterion_02_equal_expectations():
    _run(
        2,
        "equal-expectation",
        "148 means agree across ensemble, symmetric-group, and product routes",
    )


def test_criterion_03_chi_routes():
    _run(3, "chi-routes", "2079 (f, mu) pairs agree across all three routes")


def test_criterion_04_coset_statistics():
    _run(
        4,
        "coset-statistics",
        "13491 statistics verified against full enumeration of 216 specs",
    )


def test_criterion_05_sym_expectation():
    _run(5, "sym-expectation", "281 means agree for r <= 8")


def test_criterion_06_projection_measure():
    _run(
        6,
        "projection-measure",
        "cycle decomposition and uniform fibers hold for 216 specs",
    )


def test_criterion_07_generating_series():
    _run(
        7,
        "generating-series",
        "429 Euler-product sums at m = d equal q^d / z_mu for q in (2, 3, 65521), "
        "d in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 40), |mu| <= 4",
    )


def test_criterion_08_divisor_average():
    _run(
        8,
        "divisor-average",
        "69 symbol expansions agree with ensemble means for q in (2, 3), d <= 4, "
        "and with closed forms for q in (2, 3, 4), |H| < 10^31",
    )


def test_criterion_09_known_values():
    _run(9, "known-values", "1260 frozen values reproduced")


def test_criterion_10_stabilization():
    _run(
        10,
        "stabilization",
        "58 statistics constant in degree for q in (2, 3), d <= 6",
    )
