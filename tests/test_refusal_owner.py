"""One module words every refusal: no module under src/orbitstat other than
errors constructs CapExceeded or holds the tail of a refusal.  A site
decides that it refuses and asks errors for the line (refusal, unprintable,
count_text)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TAILS = ("which no flag raises", "raise it with", "Python's limit for printing")


def worded_refusals(tree: ast.Module) -> set[str]:
    """"CapExceeded(" when tree constructs CapExceeded, and each tail of
    TAILS that one of its string literals holds, f-strings included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if "CapExceeded" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.add("CapExceeded(")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found |= {tail for tail in TAILS if tail in node.value}
    return found


def test_worded_refusals_sees_every_way_of_wording():
    source = (
        "raise CapExceeded('x')\n"
        "f'{a}, beyond the cap {b}; raise it with --cap-enum'\n"
        "'beyond the limit 10, ' 'which no flag raises'\n"
        "x = \"more than 4300 digits, Python's limit for printing an integer\"\n"
    )
    assert worded_refusals(ast.parse(source)) == {"CapExceeded(", *TAILS}
    assert worded_refusals(ast.parse("raise errors.CapExceeded(text)")) == {"CapExceeded("}
    # catching, re-raising and naming the type word nothing
    source = "try:\n    f()\nexcept CapExceeded:\n    raise\nx: CapExceeded = refusal(w, 1)\n"
    assert worded_refusals(ast.parse(source)) == set()


def test_only_errors_words_a_refusal():
    found = {}
    for path in sorted(ROOT.glob("src/orbitstat/*.py")):
        if path.stem == "errors":
            continue
        worded = worded_refusals(ast.parse(path.read_text(), filename=str(path)))
        if worded:
            found[path.stem] = sorted(worded)
    assert found == {}
