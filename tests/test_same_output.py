"""tests/same_output.py finds no difference between a tree and itself, and
finds the one line of output that a copy of the tree changes."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def same_output(parent, change):
    return subprocess.run(
        [sys.executable, str(ROOT / "tests" / "same_output.py"), str(parent), str(change),
         "--seeds", "1"],
        capture_output=True, text=True,
    )


def test_a_tree_prints_the_same_as_itself():
    run = same_output(ROOT, ROOT)
    assert run.returncode == 0, run.stdout + run.stderr
    assert re.fullmatch(r"[1-9]\d* commands, 0 differ\n", run.stdout)


def test_one_changed_output_line_is_found(tmp_path):
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "orbitstat" / "cli.py"
    source = cli.read_text()
    assert source.count('"yes" if sqf else "no"') == 1
    cli.write_text(source.replace('"yes" if sqf else "no"', '"yes" if sqf else "No"'))
    run = same_output(ROOT, tmp_path)
    assert run.returncode == 1
    lines = run.stdout.splitlines()
    assert lines[0].startswith("first difference: seed 1 ") and " orbitstat factor " in lines[0]
    assert re.fullmatch(r"  stdout: line \d+: 'squarefree = no' != 'squarefree = No'", lines[1])
    assert re.fullmatch(r"\d+ commands, [1-9]\d* differ", lines[-1])
