"""One loop takes Frobenius steps: the one call _powmod(..., x.q, ...) under
src/orbitstat, s <- s^q mod h, sits in polynomial._distinct_degree.
factor's distinct-degree stage and Ben-Or's irreducibility test both run
that loop, so a faster Frobenius step changes one place."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _is_step(call: ast.Call) -> bool:
    """Whether call is _powmod, by name or attribute, with an argument x.q."""
    if "_powmod" not in (getattr(call.func, "id", None), getattr(call.func, "attr", None)):
        return False
    args = call.args + [kw.value for kw in call.keywords]
    return any(isinstance(a, ast.Attribute) and a.attr == "q" for a in args)


def frobenius_steps(tree: ast.Module) -> list[str]:
    """The name of the innermost function around each Frobenius step in
    tree, in source order; "<module>" for one outside every function."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and _is_step(child):
                found.append(where)
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_frobenius_steps_sees_every_way_of_calling():
    source = (
        "def _distinct_degree(ctx, h):\n"
        "    s = _powmod(ctx, s, ctx.q, h)\n"
        "def _is_irreducible(ctx, c):\n"
        "    def step(s):\n"
        "        return polynomial._powmod(ctx, s, F.q, c)\n"
        "    return _powmod(ctx, s, half, c)\n"  # not a Frobenius step
        "x = _powmod(ctx, s, k=ctx.q, m=h)\n"
    )
    assert frobenius_steps(ast.parse(source)) == ["_distinct_degree", "step", "<module>"]


def test_one_loop_takes_frobenius_steps():
    found = []
    for path in sorted(ROOT.glob("src/orbitstat/*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.stem, where) for where in frobenius_steps(tree)]
    assert found == [("polynomial", "_distinct_degree")]
