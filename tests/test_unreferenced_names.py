"""Everything defined under src/orbitstat has a reader under src/: a
module-level function or class is in __all__ or named outside its own
definition, and a method or property of such a class is read as an
attribute.  Surface that only the tests call belongs in tests/, as an oracle.

Attributes match by name alone, on whatever object they are read.  Operator
dunders are never read as attributes (a + b calls __add__ unseen), so no
reader of one can be seen: an arithmetic operator defined in a class, by def
or by assignment (__mul__ = __rmul__), is reported whatever reads it.  The
values under src/ carry no operator algebra; their arithmetic runs on plain
ints, Fractions and tuples."""

import ast
from pathlib import Path

import orbitstat

ROOT = Path(__file__).resolve().parent.parent
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCTIONS, ast.ClassDef)
_BINARY = (
    "add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "divmod",
    "pow", "lshift", "rshift", "and", "xor", "or",
)
OPERATORS = {f"__{side}{op}__" for op in _BINARY for side in ("", "r", "i")} | {
    "__neg__", "__pos__", "__abs__", "__invert__",
}


def _operators(node: ast.ClassDef) -> list[str]:
    """The arithmetic operators a class body defines, by def or by
    assignment."""
    names = []
    for item in node.body:
        if isinstance(item, _FUNCTIONS):
            names.append(item.name)
        elif isinstance(item, (ast.Assign, ast.AnnAssign)):
            targets = item.targets if isinstance(item, ast.Assign) else [item.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if name in OPERATORS]


def unreferenced(trees: dict[str, ast.Module], public: set[str]) -> list[str]:
    """The definitions in trees (keyed by module) that nothing reads, as "f"
    or "Class.method", sorted."""
    names, attrs = [], set()  # names: (name, module, line) of each load
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.append((node.id, module, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    found = []
    for module, tree in trees.items():
        for node in (n for n in tree.body if isinstance(n, _DEFS)):
            own = range(node.lineno, node.end_lineno + 1)
            if node.name not in public and not any(
                name == node.name and (where != module or line not in own)
                for name, where, line in names
            ):
                found.append(node.name)
            if isinstance(node, ast.ClassDef):
                found += [
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, _FUNCTIONS)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                    and item.name not in attrs
                ]
                found += [f"{node.name}.{name}" for name in _operators(node)]
    return sorted(found)


def test_every_definition_under_src_has_a_reader():
    sources = sorted(ROOT.glob("src/orbitstat/*.py"))
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sources}
    assert {"cli", "__main__"} <= set(trees)
    assert unreferenced(trees, set(orbitstat.__all__)) == []


def test_unread_definitions_are_found():
    tree = ast.parse(
        "def used(): pass\n"
        "def recursive(): return recursive()\n"
        "def exported(): pass\n"
        "class C:\n"
        "    def read(self): pass\n"
        "    def again(self): return self.again()\n"
        "    @property\n"
        "    def shown(self): pass\n"
        "    @property\n"
        "    def hidden(self): pass\n"
        "    def __add__(self, other): pass\n"
        "    __radd__ = __add__\n"
        "    size: int = 0\n"
        "    def __eq__(self, other): pass\n"
        "used()\n"
        "print(C().read(), C().shown, C() + C())\n"
    )
    assert unreferenced({"m": tree}, {"exported"}) == [
        "C.__add__", "C.__radd__", "C.hidden", "recursive"
    ]
