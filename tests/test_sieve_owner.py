"""One module decides the irreducible sieve's passes and its limit: no module
under src/orbitstat other than polynomial names the limit, its check, the
cache or the memoized sieve entry.  Callers name the degrees they need to
polynomial's planner instead.  __init__ may re-export what is public."""

import ast
from pathlib import Path

import orbitstat

ROOT = Path(__file__).resolve().parent.parent
OWNED = {"ENUMERATION_LIMIT", "check_sieve_size", "_irr_cache", "_irreducible_indices"}


def owned_names(tree: ast.Module) -> set[str]:
    """The names of OWNED that tree reads, writes, imports or looks up as an
    attribute."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named |= {node.name, node.asname}
    return named & OWNED


def test_owned_names_sees_every_way_of_naming():
    source = (
        "from .polynomial import check_sieve_size as check\n"
        "from . import polynomial\n"
        "polynomial._irr_cache.clear()\n"
        "x = ENUMERATION_LIMIT\n"
        "'_irreducible_indices'\n"
    )
    assert owned_names(ast.parse(source)) == OWNED - {"_irreducible_indices"}


def test_only_polynomial_names_the_sieve_limit_and_cache():
    found = {}
    for path in sorted(ROOT.glob("src/orbitstat/*.py")):
        if path.stem == "polynomial":
            continue
        named = owned_names(ast.parse(path.read_text(), filename=str(path)))
        if path.stem == "__init__":
            named -= set(orbitstat.__all__)
        if named:
            found[path.stem] = sorted(named)
    assert found == {}
