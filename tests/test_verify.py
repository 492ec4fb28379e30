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

import pytest

import orbitstat
from orbitstat import verify

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
        # constant in d, so only the factored oracle tells it from the route
        ("ensemble_formula", lambda *_: True, _mean_plus_one, ["stabilization"]),
        # the ensemble tier and the t^2 anchors
        ("chi_symbolic", lambda f, P: f.degree <= 3, _plus_one, ["divisor-average", "known-values"]),
        # only the polynomials with a large H
        ("chi_symbolic", lambda f, P: f.degree > 3, _plus_one, ["divisor-average"]),
    ],
    ids=[
        "series", "shortcut", "ensemble-means", "constant-means", "symbolic-small",
        "symbolic-large-h",
    ],
)
def test_each_retargeted_check_fails_on_a_wrong_route(monkeypatch, route, when, shift, names):
    assert all(r.ok for r in verify.run_all(quick=True, names=names))
    monkeypatch.setattr(verify, route, _shifted(getattr(verify, route), when, shift))
    results = verify.run_all(quick=True, names=names)
    assert [r.name for r in results if r.ok] == []
