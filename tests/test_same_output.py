"""tests/same_output.py finds no difference between a tree and itself, and
finds the one line of output that a copy of the tree changes, a refusal
with no digit limit among them."""

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


def copy_tree(tmp_path):
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))


def test_one_changed_output_line_is_found(tmp_path):
    copy_tree(tmp_path)
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


def test_a_refusal_changed_only_with_no_digit_limit_is_found(tmp_path):
    copy_tree(tmp_path)
    errors = tmp_path / "src" / "orbitstat" / "errors.py"
    source = errors.read_text()
    assert source.count('f"at least 10^{print_limit()}"') == 1
    errors.write_text(source.replace(
        'f"at least 10^{print_limit()}"', 'f"at least 10^{sys.get_int_max_str_digits()}"'
    ))
    run = same_output(ROOT, tmp_path)
    assert run.returncode == 1
    lines = run.stdout.splitlines()
    assert lines[0] == (
        "first difference: no digit limit #8: orbitstat eval --q 2 t --mu 1000000000:1 "
        "--method symbolic"
    )
    assert lines[1].startswith("  stderr: line 1: ") and lines[1].endswith(
        "'error: the symbolic route would reach at least 10^0 steps (candidate symbols "
        "tested against f plus term pairs multiplied), beyond the cap 1000000; raise it "
        "with --cap-terms, or for coset statistics use the factored route'"
    )
    assert re.fullmatch(r"\d+ commands, 1 differ", lines[-1])
