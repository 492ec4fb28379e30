"""One module words every refusal and owns what decides one: no module
under src/orbitstat other than errors constructs CapExceeded, holds the
tail of a refusal or a work cap's "would reach" line, or reads Python's
digit limit.  A site decides that it refuses and asks errors for the line
(refusal, unprintable, count_text, Budget) and for the limit
(past_print_limit, print_limit, prints)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TAILS = ("which no flag raises", "raise it with", "Python's limit for printing", "would reach")
LIMIT = "get_int_max_str_digits"


def worded_refusals(tree: ast.Module) -> set[str]:
    """"CapExceeded(" when tree constructs CapExceeded, LIMIT when it names
    sys.get_int_max_str_digits, and each tail of TAILS that one of its
    string literals holds, f-strings included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if "CapExceeded" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.add("CapExceeded(")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found |= {tail for tail in TAILS if tail in node.value}
        elif LIMIT in (getattr(node, "id", None), getattr(node, "attr", None)):
            found.add(LIMIT)
        elif isinstance(node, ast.ImportFrom) and any(a.name == LIMIT for a in node.names):
            found.add(LIMIT)
    return found


def test_worded_refusals_sees_every_way_of_wording():
    source = (
        "raise CapExceeded('x')\n"
        "f'{a}, beyond the cap {b}; raise it with --cap-enum'\n"
        "'beyond the limit 10, ' 'which no flag raises'\n"
        "x = \"more than 4300 digits, Python's limit for printing an integer\"\n"
        "f'the ensemble series would reach {work} steps (coefficients built)'\n"
        "limit = sys.get_int_max_str_digits()\n"
    )
    assert worded_refusals(ast.parse(source)) == {"CapExceeded(", LIMIT, *TAILS}
    assert worded_refusals(ast.parse("raise errors.CapExceeded(text)")) == {"CapExceeded("}
    for source in (
        "limit = sys.get_int_max_str_digits\n",
        "from sys import get_int_max_str_digits as digits\n",
        "n = get_int_max_str_digits() or 4300\n",
    ):
        assert worded_refusals(ast.parse(source)) == {LIMIT}, source
    # catching, re-raising and naming the type word nothing; asking errors
    # or setting the limit reads nothing
    source = "try:\n    f()\nexcept CapExceeded:\n    raise\nx: CapExceeded = refusal(w, 1)\n"
    source += "if past_print_limit(x, f):\n    sys.set_int_max_str_digits(0)\n"
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
