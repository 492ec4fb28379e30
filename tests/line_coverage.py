"""List the statements of the package that no test executes.

    python tests/line_coverage.py [PYTEST_ARGS ...]

The tier-1 suite (or the pytest arguments given) runs in this process
under sys.settrace, which records each line that code under src/orbitstat
executes; a test's subprocess is not traced.  A statement counts as
executed when a line of it runs: its decorators up to its body for a
compound statement, all of its lines for a simple one.  Statements that
compile to no bytecode are not counted.  Each statement that did not run
is printed as FILE:LINE and its first line of source, then one summary
line with pytest's exit code.  Tracing slows the suite several times, so
the tests that time themselves may fail; the report is printed all the
same, and the exit status is 0.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orbitstat"


def traced_lines(run, root: Path) -> set[tuple[str, int]]:
    """(real path, line) of every line of a file under root that run()
    executes."""
    prefix = str(root.resolve()) + os.sep
    paths: dict[str, str | None] = {}  # co_filename -> its real path under root, or None
    hit = set()

    def local(frame, event, arg):
        if event == "line":
            hit.add((paths[frame.f_code.co_filename], frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in paths:
            real = os.path.realpath(name)
            paths[name] = real if real.startswith(prefix) else None
        return local if paths[name] else None

    old, old_threads = sys.gettrace(), threading.gettrace()
    threading.settrace(call)
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(old)
        threading.settrace(old_threads)
    return hit


def _bytecode_lines(code: types.CodeType) -> set[int]:
    """The lines that some instruction of code or its nested code maps to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _bytecode_lines(const)
    return lines


def _own_lines(node: ast.stmt) -> range:
    """The lines whose execution runs the statement node itself."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
    return range(first, max(first, last) + 1)


def unexecuted(path: Path, hit: set[tuple[str, int]]) -> tuple[int, list[int]]:
    """The number of statements of the file at path that compile to
    bytecode, and the first lines of those that no line of hit runs."""
    source = path.read_text()
    code_lines = _bytecode_lines(compile(source, str(path), "exec"))
    real = os.path.realpath(path)
    ran = {line for name, line in hit if name == real}
    count, missed = 0, []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt) and code_lines.intersection(lines := _own_lines(node)):
            count += 1
            if not ran.intersection(lines):
                missed.append(node.lineno)
    return count, sorted(missed)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    os.chdir(ROOT)  # pytest reads its settings, src on the path among them, here
    codes = []
    hit = traced_lines(
        lambda: codes.append(pytest.main(["-q", "-p", "no:cacheprovider", *args])), PACKAGE
    )
    total, missing = 0, 0
    for path in sorted(PACKAGE.rglob("*.py")):
        count, missed = unexecuted(path, hit)
        total, missing = total + count, missing + len(missed)
        lines = path.read_text().splitlines()
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
    print(f"{missing} of {total} statements not executed (pytest exit code {int(codes[0])})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
