"""verify checks the routes that the commands run.

The reach test runs `verify --quick`, and every golden command line that is
not verify, each side in a fresh interpreter under sys.setprofile, and
collects the functions of the package that each side calls.  A function
outside verify and cli that only verify calls is a formula that no command
runs: it fails the test unless it is one of the enumeration oracles named
in ORACLES.  The other way round, each route in ROUTES must be called by
both sides, so that a check dropped from verify shows.  A fresh interpreter
per side keeps a cache warmed by another test from hiding a call.

The mutation tests break one route at a time, as a command would run it,
and expect each check that compares that route to fail.
"""

import json
import os
import pathlib
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import orbitstat
from orbitstat import frobenius_stats, verify
from orbitstat.symmetric import MultiIndex

from test_golden_cli import CASES

# the brute-force enumerations that verify runs as oracles, by module
ORACLES = {
    "frobenius_stats.factored_types",
    "polynomial.enumerate_monic",
    "polynomial.monic_from_index",
    "symmetric._blocks_from",
    "symmetric.block_multisets",
    "symmetric.enumerate_sn",
    "symmetric.multi_indices_up_to",
}

# the routes that verify compares, each run by some command as well
ROUTES = {
    "frobenius_stats.chi_formula",
    "frobenius_stats.chi_symbolic",
    "frobenius_stats.chi_oracle",
    "young_stats.cycle_type_distribution",
    "young_stats.coset_histogram",
    "frobenius_stats.ensemble_formula",
    "frobenius_stats._series_sum",
    "polynomial.factor",
    "polynomial._squarefree_parts",
    "polynomial._distinct_degree",
    "polynomial._equal_degree",
}

_TRACE = r"""
import contextlib, io, json, os, sys
import orbitstat
from orbitstat.cli import main

package = os.path.dirname(orbitstat.__file__)
reached = set()

def profile(frame, event, arg):
    if event == "call" and os.path.dirname(frame.f_code.co_filename) == package:
        module = os.path.basename(frame.f_code.co_filename)[:-3]
        reached.add(module + "." + frame.f_code.co_qualname.split(".<locals>")[0])

sys.setprofile(profile)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
print(json.dumps([codes, sorted(reached)]))
"""


def _reached(lines: list[list[str]]) -> set[str]:
    """module.function of every function of the package, a nested one under
    its enclosing function, that running the command lines calls."""
    src = pathlib.Path(orbitstat.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-c", _TRACE, json.dumps(lines)],
        env=env, capture_output=True, text=True, check=True,
    )
    codes, reached = json.loads(run.stdout)
    assert codes == [0] * len(lines)
    return set(reached)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="reads co_qualname")
def test_verify_reaches_no_formula_that_only_it_runs():
    commands = _reached([argv for argv in CASES.values() if argv[0] != "verify"])
    checks = _reached([["verify", "--quick"]])
    only_verify = {
        name for name in checks - commands if not name.startswith(("verify.", "cli."))
    }
    assert only_verify - ORACLES == set()
    assert ORACLES <= only_verify  # an oracle that a command runs leaves the list
    assert ROUTES - (commands & checks) == set()  # and verify still checks each route


def _shifted(route, when, shift):
    """route, with shift(value, *args) returned in place of its value on the
    calls whose arguments pass when."""

    def broken(*args):
        value = route(*args)
        return shift(value, *args) if when(*args) else value

    return broken


def _plus_one(value, *args):
    """A route's value plus 1; a sum and count pair moves its sum."""
    if isinstance(value, tuple):
        return (value[0] + 1, *value[1:])
    return value + 1


def _mean_plus_one(value, *args):
    """An ensemble pair (sum, count) whose mean is 1 more at every degree."""
    total, count = value
    return total + count, count


@pytest.mark.parametrize(
    "route, when, shift, names",
    [
        ("_series_sum", lambda d, q, *_: (d, q) == (12, 3), _plus_one, ["generating-series"]),
        ("ensemble_formula", lambda d, *_: d == 12, _plus_one, ["generating-series"]),
        (
            "ensemble_formula",
            lambda d, *_: d == 2,
            _plus_one,
            ["equal-expectation", "divisor-average", "stabilization"],
        ),
        # constant in d, yet the factored tally, the series and the divisor
        # sums each tell it from the route
        (
            "ensemble_formula",
            lambda *_: True,
            _mean_plus_one,
            ["equal-expectation", "generating-series", "divisor-average", "stabilization"],
        ),
        # the ensemble tier and the t^2 anchors
        ("chi_symbolic", lambda f, P: f.degree <= 3, _plus_one, ["divisor-average", "known-values"]),
        # only the polynomials with a large H
        ("chi_symbolic", lambda f, P: f.degree > 3, _plus_one, ["divisor-average"]),
        # one spec, which the polynomials of two fields share
        ("chi_oracle", lambda spec, *_: str(spec) == "1^1,1^1", _plus_one, ["chi-routes"]),
    ],
    ids=[
        "series", "shortcut", "ensemble-means", "constant-means", "symbolic-small",
        "symbolic-large-h", "oracle-one-spec",
    ],
)
def test_each_retargeted_check_fails_on_a_wrong_route(monkeypatch, route, when, shift, names):
    assert all(r.ok for r in verify.run_all(quick=True, names=names))
    monkeypatch.setattr(verify, route, _shifted(getattr(verify, route), when, shift))
    results = verify.run_all(quick=True, names=names)
    assert [r.name for r in results if r.ok] == []


def test_a_spec_route_that_keeps_a_class_whole_fails_the_spec_checks(monkeypatch, cleared_caches):
    """block_spec counting a class of two factors of degree k, whose product
    has degree 2k, as one block (2k, r), as if the product were irreducible:
    the spec checks fail, through verify's own block_spec and through the
    tally of factored_types."""
    names = ["equal-expectation", "chi-routes"]
    assert all(r.ok for r in verify.run_all(quick=True, names=names))
    classes = frobenius_stats._degree_classes

    def whole(ctx, m):
        for prod, k, r in classes(ctx, m):
            yield prod, len(prod) - 1 if len(prod) - 1 == 2 * k else k, r

    verify._ensemble_specs.cache_clear()  # the passing run above filled it
    monkeypatch.setattr(frobenius_stats, "_degree_classes", whole)
    results = verify.run_all(quick=True, names=names)
    assert [r.name for r in results if r.ok] == []


def test_the_spec_routes_run_once_per_spec_within_a_check(monkeypatch):
    """chi-routes runs chi_formula and chi_oracle once per distinct (spec, mu)
    and equal-expectation runs coset_means once per distinct spec, however
    many fields share it; a second call of the check runs them all again."""
    calls = []

    def spied(name):
        route = getattr(verify, name)

        def spy(spec, arg, *rest):
            calls.append((name, spec, str(arg)))
            return route(spec, arg, *rest)

        return spy

    for name in ("chi_formula", "chi_oracle", "coset_means"):
        monkeypatch.setattr(verify, name, spied(name))
    for check in ("chi-routes", "equal-expectation"):
        runs = []
        for _ in range(2):
            calls.clear()
            assert verify.run_all(quick=True, names=[check])[0].ok
            runs.append(list(calls))
        assert runs[0] == runs[1] and len(set(runs[0])) == len(runs[0]) > 0


def test_a_coset_mean_one_numerator_off_fails_coset_statistics(monkeypatch):
    """coset_means with the numerator of one mean raised by 1, the mean of
    binom(X, 1:1) on 1^1,2^2, which no class count reads: the integer
    cross-multiplication against the enumerated histogram sees it."""
    assert verify.run_all(quick=True, names=["coset-statistics"])[0].ok
    means = verify.coset_means

    def wrong(spec, mus):
        out = means(spec, mus)
        if str(spec) == "1^1,2^2":
            mu = MultiIndex.parse("1:1")
            out[mu] = Fraction(out[mu].numerator + 1, out[mu].denominator)
        return out

    monkeypatch.setattr(verify, "coset_means", wrong)
    (res,) = verify.run_all(quick=True, names=["coset-statistics"])
    assert not res.ok
    assert res.detail == "mismatches: [('mean', '1^1,2^2', '1:1', Fraction(2, 1), Fraction(1, 1))]"


def test_a_tally_count_one_off_fails_equal_expectation(monkeypatch):
    """One count of the factored tally of F_3 in degree 3 raised by 1: the
    tally's means, summed in integers, move off the routes' for that (q, d)
    alone."""
    assert verify.run_all(quick=True, names=["equal-expectation"])[0].ok
    specs = verify._ensemble_specs

    def wrong(ctx, d):
        tally = Counter(specs(ctx, d))  # a copy: the cached tally stays right
        if (ctx.q, d) == (3, 3):
            tally[next(iter(tally))] += 1
        return tally

    monkeypatch.setattr(verify, "_ensemble_specs", wrong)
    (res,) = verify.run_all(quick=True, names=["equal-expectation"])
    assert not res.ok
    assert res.detail.startswith("mismatches: [(3, 3, ")
