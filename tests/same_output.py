"""Compare what two source trees print for every benchmark command, for
`verify --quick` and for a fixed list of refusals.

    python tests/same_output.py PARENT CHANGE [--seeds 1 2 3]

PARENT and CHANGE are checkouts of this repository.  For each tree, one
subprocess with the tree's src and perfbench directories on its path draws
the command lists of every workload in perfbench/workloads.py for each seed
and runs each command in-process through orbitstat.cli.main, recording its
exit code, stdout and stderr.  It then runs `verify --quick` and the lines
of REFUSALS twice: at Python's default digit limit, and with no limit
(sys.set_int_max_str_digits(0)), where a count past the default limit is
still named, not computed; the lines of LIMITED run at the default limit
only.  The first difference between the trees is
printed, with the command line and the first differing line of the output;
the exit status is 1 when any command differs and 0 when none does.
Bytecode is not written into either tree.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# The example refusals of README's caps table, the --cap-enum one at a small
# cap, and refusals of a count or coefficient too long to print.
REFUSALS = [
    "young --blocks 2^4,3^2 --mu 1:1 --method oracle --cap-group 4607",
    "ensemble --q 2 --d 999 --filter squarefree --mu 1:2 --cap-enum 1000",
    "eval --q 2 t^3 --mu 1:2 --method symbolic --cap-terms 1",
    "necklace --q 65521 --kmax 2",
    "young --blocks 1^6,1^35 --histogram",
    "eval --q 2 t --stat X1^40*X2^40*X3^40",
    "ensemble --q 3 --d 9013 --mu 1:1",
    "eval --q 2 t --mu 1000000000:1 --method symbolic",
    "young --blocks 1^2000 --mu 1:1",
]
# Refused at the default digit limit only: with no limit it answers, and
# prints a statistic of 6 MB in over a second.
LIMITED = ["eval --q 2 t --stat X1^1500"]

_RUN = r"""
import contextlib, io, json, random, sys
import orbitstat, workloads
from orbitstat import cli

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        code = f"{type(exc).__name__}: {exc}"
    return [argv, code, out.getvalue(), err.getvalue()]

seeds, refusals, limited = map(json.loads, sys.argv[1:])
rows = []
for seed in seeds:
    for name, workload in workloads.WORKLOADS.items():
        commands, _ = workload(random.Random(seed))
        rows += [[f"seed {seed} {name} #{i}", *run(c.argv)] for i, c in enumerate(commands)]
for mode, lines in (("default digit limit", refusals + limited), ("no digit limit", refusals)):
    if mode == "no digit limit":
        sys.set_int_max_str_digits(0)
    lines = ["verify --quick"] + lines
    rows += [[f"{mode} #{i}", *run(line.split())] for i, line in enumerate(lines)]
json.dump([orbitstat.__file__, rows], sys.stdout)
"""


def outputs(tree: Path, seeds: list[int]) -> list[list]:
    """[where, argv, exit code, stdout, stderr] of every command, as the
    orbitstat under tree runs them."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree / "perfbench")]),
        PYTHONDONTWRITEBYTECODE="1",
    )
    run = subprocess.run(
        [sys.executable, "-c", _RUN, *map(json.dumps, (seeds, REFUSALS, LIMITED))],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if run.returncode:
        raise SystemExit(f"{tree}: the commands did not run:\n{run.stderr}")
    module, rows = json.loads(run.stdout)
    if not Path(module).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"{tree}: imported orbitstat from {module}")
    return rows


def first_difference(a: str, b: str) -> str:
    """The first line where two texts differ, each side quoted."""
    for i, (x, y) in enumerate(zip(a.splitlines() + [""], b.splitlines() + [""]), 1):
        if x != y:
            return f"line {i}: {x!r} != {y!r}"
    return "same lines, other line endings"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args(argv)
    old, new = outputs(args.parent, args.seeds), outputs(args.change, args.seeds)
    if len(old) != len(new):
        print(f"{len(old)} commands in {args.parent}, {len(new)} in {args.change}")
        return 1
    differ = 0
    for a, b in zip(old, new):
        if a == b:
            continue
        differ += 1
        if differ == 1:
            print(f"first difference: {a[0]}: orbitstat {' '.join(a[1])}")
            for field, x, y in zip(("argv", "exit code", "stdout", "stderr"), a[1:], b[1:]):
                if x != y:
                    diff = first_difference(x, y) if isinstance(x, str) else f"{x!r} != {y!r}"
                    print(f"  {field}: {diff}")
    print(f"{len(old)} commands, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
