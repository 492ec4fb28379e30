"""No module or class body defines one function or class name twice: the
later definition silently replaces the earlier one, so a test defined twice
in one file runs only once."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/orbitstat/*.py"), *ROOT.glob("tests/*.py")])


def duplicate_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each function or class defined again in a body that
    already defines it: the module body and every class body."""
    bodies = [tree.body]
    bodies += [node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    found = []
    for body in bodies:
        seen = set()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name in seen:
                    found.append((node.name, node.lineno))
                seen.add(node.name)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_duplicate_definitions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert duplicate_definitions(tree) == []


def test_duplicates_are_found_in_modules_and_classes():
    assert ROOT / "src" / "orbitstat" / "cli.py" in SOURCES
    assert Path(__file__).resolve() in SOURCES
    tree = ast.parse(
        "def f(): pass\n"
        "class C:\n"
        "    def g(self): pass\n"
        "    def g(self): pass\n"
        "    def f(self): pass\n"
        "def f(): pass\n"
    )
    assert duplicate_definitions(tree) == [("f", 6), ("g", 4)]
