"""README examples: every `$ orbitstat ...` block prints exactly the lines
shown under it, the Library block runs and prints what its comments say, the
module map names exactly the modules of the package, the list of
subcommands names exactly the commands of the cli, the list of checks
names exactly the checks of verify, and the caps table names every cap and
limit."""

import pathlib
import re
import shlex

import pytest

from orbitstat import cli, verify
from orbitstat.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)
COMMANDS = [body for lang, body in BLOCKS if body.startswith("$ orbitstat ")]
LIBRARY = [body for lang, body in BLOCKS if lang == "python"]
NUMBERS = "zero one two three four five six seven eight nine ten eleven twelve".split()


def test_readme_has_the_examples():
    assert len(COMMANDS) == 6 and len(LIBRARY) == 1


@pytest.mark.parametrize("block", COMMANDS, ids=lambda b: b.split()[2])
def test_command_block_prints_what_it_shows(capsys, block):
    command, _, shown = block.partition("\n")
    assert main(shlex.split(command)[2:]) == 0
    assert capsys.readouterr().out == shown


def test_library_block_runs(capsys):
    (code,) = LIBRARY
    exec(compile(code, "README.md", "exec"), {})
    printed = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    assert capsys.readouterr().out == "".join(line + "\n" for line in printed)


def test_module_map_names_every_module():
    # the package's entry points are not modules of the library
    modules = {path.stem for path in (ROOT / "src" / "orbitstat").glob("*.py")}
    modules -= {"__init__", "__main__"}
    section = README.split("Module map:\n", 1)[1].split("\n## ", 1)[0]
    mapped = re.findall(r"^- `(\w+)`:", section, re.M)
    assert len(mapped) == len(set(mapped))
    assert set(mapped) == modules


def test_module_map_names_only_what_exists():
    """Every backticked identifier of the module map (and its note on the test
    oracles) names a module of the package, something defined in one, or in
    tests/coset_walk.py or tests/symbol_sum.py; a bare name may be a method
    of any of their classes, a dotted one is looked up part by part."""
    import importlib

    import coset_walk
    import symbol_sum

    names = {path.stem for path in (ROOT / "src" / "orbitstat").glob("*.py")}
    names -= {"__init__", "__main__"}
    modules = {name: importlib.import_module(f"orbitstat.{name}") for name in names}
    scopes = [*modules.values(), coset_walk, symbol_sum]
    classes = [v for scope in scopes for v in vars(scope).values() if isinstance(v, type)]
    section = README.split("Module map:\n", 1)[1].split("\n## ", 1)[0]
    spans = re.findall(r"`([^`]+)`", section)
    idents = [s for s in spans if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", s)]
    assert len(idents) >= 50

    def resolves(ident):
        head, *rest = ident.split(".")
        found = [modules[head]] if head in modules else [
            vars(scope)[head] for scope in scopes if head in vars(scope)
        ]
        if not rest:
            return bool(found) or any(hasattr(cls, head) for cls in classes)
        for part in rest:
            found = [getattr(obj, part) for obj in found if hasattr(obj, part)]
        return bool(found)

    assert [ident for ident in idents if not resolves(ident)] == []


def test_subcommand_lists_name_the_commands_of_the_cli():
    """README's "Six subcommands: ..." sentence and the cli docstring's list
    name exactly the commands of cli's table, in its order."""
    count, names = re.search(r"^(\w+) subcommands: (.*?)\.", README, re.M | re.S).groups()
    listed = re.findall(r"`(\w+)`", names)
    assert NUMBERS.index(count.lower()) == len(listed)
    assert listed == re.findall(r"^\* (\w+) ", cli.__doc__, re.M) == list(cli._COMMANDS)


def test_check_list_names_the_checks_of_verify():
    """README's "Check names: ..." sentence names exactly verify's checks, in
    the order that they run, and its count of them is theirs."""
    names = re.search(r"Check names: (.*?)\.$", README, re.M | re.S).group(1)
    count = re.search(r"runs all (\w+) checks", README).group(1)
    listed = re.findall(r"`([\w-]+)`", names)
    assert NUMBERS.index(count) == len(listed)
    assert listed == list(verify.CHECK_NAMES)


def test_caps_table_names_every_cap_and_limit():
    """README's caps table has a row for every --cap-* flag of every
    command's argument table and for each limit that no flag raises."""
    table = re.search(r"^\| Flag \| Constant, default \|.*?\n\n", README, re.M | re.S).group()
    rows = [row.split("|")[1:3] for row in table.strip().splitlines()[2:]]
    flags = {cell.strip(" `") for cell, _ in rows}
    constants = {name for _, cell in rows for name in re.findall(r"`(\w+)`", cell)}
    caps = {option for name in cli._COMMANDS for option in cli._table(name).options
            if option.startswith("--cap-")}
    assert caps and caps <= flags
    assert {"ENUMERATION_LIMIT", "HISTOGRAM_LIMIT", "EXPANSION_LIMIT"} <= constants
