"""Command line behavior: output shape, determinism, and exit codes."""

import argparse
import contextlib
import io
import json
import math
import re
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from orbitstat import cli, finite_field, frobenius_stats, young_stats
from orbitstat.cli import main
from orbitstat.errors import prints


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_factor_text(capsys):
    code, out, err = run(capsys, "factor", "--q", "2", "t^4+t")
    assert code == 0 and err == ""
    assert out == (
        "field = q=2\n"
        "f = t^4+t\n"
        "factorization = (t) * (t+1) * (t^2+t+1)\n"
        "  t  degree=1 multiplicity=1\n"
        "  t+1  degree=1 multiplicity=1\n"
        "  t^2+t+1  degree=2 multiplicity=1\n"
        "blocks = 1^1,1^1,2^1\n"
        "squarefree = yes\n"
    )


def test_factor_json(capsys):
    code, out, _ = run(capsys, "factor", "--q", "3", "--format", "json", "t^9+2*t")
    assert code == 0
    doc = json.loads(out)
    assert doc["field"] == "q=3"
    assert doc["squarefree"] is True
    assert len(doc["factors"]) == 6
    assert doc["factors"][0] == {"poly": "t", "degree": 1, "multiplicity": 1}


def test_eval_both_agrees(capsys):
    code, out, _ = run(capsys, "eval", "--q", "2", "t^2", "--mu", "2:1",
                       "--method", "both")
    assert code == 0
    assert "formula = 1/2 (0.500000)" in out
    assert "oracle = 1/2 (0.500000)" in out
    assert out.endswith("agree = yes\n")


def test_eval_symbolic_method(capsys):
    code, out, _ = run(capsys, "eval", "--q", "2", "t^2", "--mu", "2:1",
                       "--method", "symbolic")
    assert code == 0
    assert "symbolic = 1/2 (0.500000)" in out


def test_cap_terms_bounds_candidates_and_term_pairs(capsys):
    # f = t^3*(t+1) over F_2, mu = 1:2,2:1.  Candidates: t and t+1 for k = 1;
    # t^2, (t+1)^2 and t^2+t+1 for k = 2: 5.  Of them t, t+1 and t^2 divide f.
    # Products: 1 x 2, then 2 x 2 (the keys t*(t+1) and t^2 survive), then
    # 2 x 1 term pairs: 8.  So the route needs 13.
    argv = ("eval", "--q", "2", "t^4+t^3", "--mu", "1:2,2:1", "--method", "symbolic")
    code, out, err = run(capsys, *argv, "--cap-terms", "12")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--cap-terms" in err and "13" in err
    code, out, err = run(capsys, *argv, "--cap-terms", "13")
    assert code == 0 and err == ""
    assert "symbolic = 1/2 (0.500000)" in out


def test_cap_terms_counts_the_whole_statistic(capsys):
    # f = t^3*(t+1) over F_2, P = binom(1:1) + binom(2:1).  The scan, once for
    # both terms: t and t+1 for k = 1; t^2, (t+1)^2 and t^2+t+1 for k = 2: 5.
    # S_1 keeps t and t+1, S_2 keeps t^2.  Products: 1 x 2 for the first term
    # and 1 x 1 for the second: 3.  So the route needs 8, though each term on
    # its own, scan included, needs only 4.
    argv = ("eval", "--q", "2", "t^4+t^3", "--stat", "X1+binom(2:1)", "--method", "symbolic")
    code, out, err = run(capsys, *argv, "--cap-terms", "7")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--cap-terms" in err and "8" in err
    code, out, err = run(capsys, *argv, "--cap-terms", "8")
    assert code == 0 and err == ""
    assert "symbolic = 5/2 (2.500000)" in out


def test_symbolic_scans_the_candidates_once_for_every_term(capsys):
    # X1^30 has 30 terms binom(1:j); each once sieved and divided by all 65521
    # linear polynomials on its own
    start = time.perf_counter()
    code, out, _ = run(capsys, "eval", "--q", "65521", "t^3+5", "--stat", "X1^30",
                       "--method", "symbolic")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert out.endswith("symbolic = 0\n")


def test_symbolic_beyond_deg_f_counts_its_work_like_any_mu(capsys):
    # |mu| > deg f has the value 0, reached through the same counted
    # candidates and products as any other mu
    argv = ("t", "--mu", "2:1", "--method", "symbolic")
    code, out, err = run(capsys, "eval", "--q", "65521", *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--cap-terms" in err
    code, out, err = run(capsys, "eval", "--q", "2", *argv)
    assert code == 0 and err == ""
    assert "symbolic = 0\n" in out


def test_eval_stat_expression(capsys):
    code, out, _ = run(capsys, "eval", "--q", "2", "t^2", "--stat",
                       "X1 + 2*binom(2:1)")
    assert code == 0
    assert "formula = 2" in out


def test_ensemble_json_fields(capsys):
    code, out, _ = run(capsys, "ensemble", "--q", "2", "--d", "2", "--mu", "2:1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["sum"] == {"num": 2, "den": 1, "decimal": "2.000000"}
    assert doc["count"] == 4
    assert doc["mean"] == {"num": 1, "den": 2, "decimal": "0.500000"}
    assert doc["scaled"]["num"] == 1 and doc["scaled"]["den"] == 2


def test_ensemble_filter(capsys):
    code, out, _ = run(capsys, "ensemble", "--q", "2", "--d", "2", "--mu", "1:1",
                       "--filter", "squarefree")
    assert code == 0
    assert "count = 2\n" in out
    assert "sum = 2\n" in out


def test_young_value_and_count(capsys):
    code, out, _ = run(capsys, "young", "--blocks", "1^2,2^1", "--mu", "2:2",
                       "--method", "both")
    assert code == 0
    assert "formula = 1/2 (0.500000)" in out
    assert "class_count = 1" in out


@pytest.mark.parametrize("method", ["formula", "both", "oracle"])
def test_young_builds_the_closed_form_once_for_a_class_count(capsys, monkeypatch, method):
    calls = []
    means = young_stats.coset_means

    def spy(spec, mus):
        calls.append(str(spec))
        return means(spec, mus)

    monkeypatch.setattr(young_stats, "coset_means", spy)
    code, out, _ = run(capsys, "young", "--blocks", "1^2,2^3", "--mu", "1:2,2:3",
                       "--method", method)
    assert code == 0
    assert "class_count = 6\n" in out
    assert calls == ["1^2,2^3"]


def test_young_walks_only_the_block_terms_within_reach(capsys):
    # the box of 41^4 exponent tuples holds only a handful of weight <= 3
    start = time.perf_counter()
    code, out, _ = run(capsys, "young", "--blocks", "1^3,2^2", "--mu", "1:40,2:40,3:40,4:40")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.endswith("formula = 0\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("young", "--blocks", "1^1", "--mu", "1:6000"),
        ("eval", "--q", "2", "t", "--mu", "1:6000"),
        ("ensemble", "--q", "2", "--d", "3", "--mu", "1:6000"),
    ],
    ids=["young", "eval", "ensemble"],
)
def test_a_large_multiplicity_builds_only_the_weights_in_reach(capsys, argv):
    # each block factor once built a weight, with two factorials, for every
    # e <= 6000, though a block of 1 to 3 points reads at most 3 of them
    start = time.perf_counter()
    code, out, _ = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert "formula = 0\n" in out or "sum = 0\n" in out


def test_young_histogram(capsys):
    code, out, _ = run(capsys, "young", "--blocks", "1^2", "--histogram")
    assert code == 0
    assert out == (
        "blocks = 1^2\n"
        "n = 2\n"
        "order_h = 2\n"
        "1:2  1\n"
        "2:1  1\n"
    )


def test_necklace(capsys):
    code, out, _ = run(capsys, "necklace", "--q", "2", "--kmax", "3")
    assert code == 0
    assert "k=3 weighted_sum=8 q^k=8 ok" in out
    assert out.endswith("identity = ok\n")


def test_verify_quick_subset(capsys):
    code, out, _ = run(capsys, "verify", "--quick", "--checks",
                       "necklace-count,known-values")
    assert code == 0
    assert out.count("[ok]") == 2
    assert out.endswith("all ok\n")


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--quick", "--checks", "sym-expectation",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True
    assert doc["checks"][0]["name"] == "sym-expectation"


def test_unknown_check_is_an_error(capsys):
    code, out, err = run(capsys, "verify", "--checks", "nope")
    assert code == 1
    assert "error:" in err


def test_error_exit_codes(capsys):
    assert run(capsys, "eval", "--q", "6", "t", "--mu", "1:1")[0] == 1
    assert run(capsys, "eval", "--q", "2", "t^^", "--mu", "1:1")[0] == 1
    assert run(capsys, "factor", "--q", "2", "0")[0] == 1
    assert run(capsys, "eval", "--q", "2", "t", "--mu", "0:1")[0] == 1


def test_errors_go_to_stderr(capsys):
    code, out, err = run(capsys, "factor", "--q", "6", "t")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_extension_field_round_trip(capsys):
    code, out, _ = run(capsys, "factor", "--q", "4", "t^2+[0,1]")
    assert code == 0
    assert "field = q=2^2;mod=[1,1,1]" in out
    assert "multiplicity=2" in out


def test_formula_histogram_ignores_the_group_cap(capsys):
    code, formula, err = run(capsys, "young", "--blocks", "1^3", "--histogram",
                             "--cap-group", "2")
    assert code == 0 and err == ""
    _, oracle, _ = run(capsys, "young", "--blocks", "1^3", "--histogram",
                       "--method", "oracle")
    assert formula == oracle
    assert formula.endswith("1:1,2:1  3\n1:3  1\n3:1  2\n")


def test_histogram_both_prints_the_formula_and_agreement(capsys):
    code, out, _ = run(capsys, "young", "--blocks", "1^2,2^2", "--histogram",
                       "--method", "both")
    _, formula, _ = run(capsys, "young", "--blocks", "1^2,2^2", "--histogram")
    assert code == 0
    assert out == formula + "agree = yes\n"
    code, out, _ = run(capsys, "young", "--blocks", "1^2,2^2", "--histogram",
                       "--method", "both", "--format", "json")
    assert code == 0 and json.loads(out)["agree"] is True


def test_the_histogram_oracle_walks_each_block_on_its_own(capsys):
    # |H| = 186624, but the blocks' own cosets have 24, 36 and 216 elements
    start = time.perf_counter()
    code, out, _ = run(capsys, "young", "--blocks", "1^4,2^3,3^3", "--histogram",
                       "--method", "both")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.endswith("agree = yes\n")


def test_the_group_cap_bounds_the_order_of_h(capsys):
    # |H| = (4!)^2 (2!)^3 = 4608, though no block's own coset has more than 576
    argv = ("young", "--blocks", "2^4,3^2", "--mu", "1:1", "--method", "oracle")
    code, out, err = run(capsys, *argv, "--cap-group", "4607")
    assert code == 1 and out == ""
    assert err == "error: |H| = 4608, beyond the cap 4607; raise it with --cap-group\n"
    code, out, err = run(capsys, *argv, "--cap-group", "4608")
    assert code == 0 and err == ""
    assert out.endswith("oracle = 0\n")


def test_histogram_both_fails_on_disagreement(capsys, monkeypatch):
    import orbitstat.cli as cli

    monkeypatch.setattr(cli, "cycle_type_distribution", lambda spec: {})
    code, out, _ = run(capsys, "young", "--blocks", "1^2", "--histogram",
                       "--method", "both")
    assert code == 1
    assert out.endswith("agree = NO\n")


def test_one_parser_serves_every_call(capsys):
    calls = [
        ("young", "--blocks", "1^2,2^1", "--histogram"),
        ("ensemble", "--q", "3", "--d", "3", "--mu", "1:1,2:1", "--format", "json"),
    ]
    first = [run(capsys, *argv) for argv in calls]
    with pytest.raises(SystemExit):
        main(["eval", "--q", "2", "t", "--mu", "1:1", "--stat", "X1"])
    failed = capsys.readouterr()
    assert failed.out == "" and "not allowed with argument" in failed.err
    assert [run(capsys, *argv) for argv in calls] == first
    with pytest.raises(SystemExit):
        main(["eval", "--q", "2", "t", "--mu", "1:1", "--stat", "X1"])
    assert capsys.readouterr() == failed


# one golden case of each command, by its name in tests/golden
ONE_OF_EACH = {
    "factor": "factor_q2_split",
    "necklace": "necklace_q3",
    "eval": "symbolic_q2",
    "ensemble": "ensemble_q2",
    "young": "young_class_count",
    "verify": "verify_quick_coset_means",
}


def test_a_command_line_builds_only_its_own_parser(capsys, monkeypatch):
    """With the whole tree's builder raising, one well-formed command line of
    each command still prints its golden output, and six commands run twice
    build no argparse parser: each is read from its command's table."""
    from test_golden_cli import CASES, GOLDEN

    for value in vars(cli).values():  # forget the tables recorded so far
        if getattr(value, "__module__", None) == cli.__name__ and hasattr(value, "cache_clear"):
            value.cache_clear()

    def no_tree():
        raise AssertionError("the whole tree was built")

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli, "build_parser", no_tree)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(2):
        for name, case in ONE_OF_EACH.items():
            code, out, err = run(capsys, *CASES[case])
            assert (code, err) == (0, "")
            assert out == (GOLDEN / f"{case}.txt").read_text()
    assert built == []
    assert list(ONE_OF_EACH) == list(cli._COMMANDS)


@pytest.mark.parametrize(
    "argv",
    [
        *([name, "-h"] for name in ONE_OF_EACH),
        ["eval", "--q"],
        ["ensemble", "--q", "2", "--d", "x", "--mu", "1:1"],
        ["eval", "--q", "2", "t", "--mu", "1:1", "--method", "fastest"],
        ["eval", "--q", "2", "t", "--mu", "1:1", "--stat", "X1"],
        ["young", "--mu", "1:1"],
        ["factor", "--q", "2", "t", "--extra"],
        ["cohomology", "--q", "2"],
        [],
    ],
    ids=[
        *(f"{name}-help" for name in ONE_OF_EACH),
        "missing-value", "non-integer-d", "bad-method", "mu-with-stat", "missing-blocks",
        "leftover", "unknown-command", "no-arguments",
    ],
)
def test_usage_errors_read_as_the_whole_tree_writes_them(capsys, argv):
    def outcome(parse):
        with pytest.raises(SystemExit) as stopped:
            parse(list(argv))
        return stopped.value.code, capsys.readouterr()

    tree = outcome(cli.build_parser().parse_args)
    assert outcome(main) == tree
    assert tree[0] == (0 if argv[1:] == ["-h"] else 2)


def test_every_golden_command_line_is_read_from_its_table():
    from test_golden_cli import CASES

    tree = cli.build_parser()
    for argv in CASES.values():
        assert vars(cli._read(argv)) == vars(tree.parse_args(argv)), argv


# a well-formed line of each command, in pieces that can be dropped,
# repeated and reordered: a flag with its value, or a positional
WELL_FORMED = {
    "factor": [["--q", "2"], ["t^2+t"], ["--format", "json"], ["--timing"]],
    "necklace": [["--q", "4"], ["--mod", "[1,1,1]"], ["--kmax", "4"]],
    "eval": [
        ["t^3"], ["--q", "2"], ["--mu", "1:1"], ["--method", "both"],
        ["--cap-group", "9"], ["--cap-terms", "9"],
    ],
    "ensemble": [
        ["--q", "2"], ["--d", "3"], ["--stat", "X1"], ["--filter", "squarefree"],
        ["--cap-enum", "9"],
    ],
    "young": [["--blocks", "1^2"], ["--histogram"], ["--method", "oracle"], ["--cap-group", "9"]],
    "verify": [["--quick"], ["--checks", "necklace-count"], ["--format", "json"]],
}


def _pieces(name: str) -> list[list[list[str]]]:
    """Pieces that argparse may read otherwise than the table does, in one
    group per option and one of other tokens: each option with good and bad
    values, in both forms and abbreviated, a bare flag given a value, -h,
    --, values that start with -, and extra tokens."""
    groups = [[["extra"], ["-h"], ["--help"], ["--"], ["-x"], ["--x=1"]]]
    for option, (_, convert, choices, takes_value) in cli._table(name).options.items():
        shorter = option[:-1] if len(option) > 3 else option
        if not takes_value:
            groups.append([[option], [shorter], [option + "="], [option + "=1"]])
            continue
        if choices:
            values = [*choices, "fastest"]
        elif convert is cli._int_flag:
            values = ["5", "x", "1.5", "", "1_0"]
        else:
            values = ["2", "1:1", ""]
        group = [[option]]
        for value in [*values, "-1", "--", "-h", "-x=1"]:
            group += [[option, value], [f"{option}={value}"], [shorter, value]]
        groups.append(group)
    return groups


@st.composite
def command_lines(draw):
    name = draw(st.sampled_from(sorted(WELL_FORMED)))
    kept = [piece for piece in WELL_FORMED[name] if draw(st.integers(0, 4))]
    pieces = st.one_of(*map(st.sampled_from, _pieces(name)))
    extra = draw(st.lists(pieces, max_size=3))
    return [name, *(token for piece in draw(st.permutations(kept + extra)) for token in piece)]


@settings(max_examples=600, deadline=None)
@given(command_lines())
@example(["eval", "t", "--q", "2", "--mu=--"])  # argparse drops the value --
@example(["verify", "--quick", "extra"])
def test_the_table_reads_a_line_as_argparse_does_or_passes_it_on(argv):
    """The reader returns None, or the arguments that the whole tree's
    parser of that command reads with nothing left over."""
    tree = cli.build_parser()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args, rest = tree.parse_known_args(argv)
    except SystemExit:
        args, rest = None, []
    read = cli._read(argv)
    assert read is None or (args is not None and vars(read) == vars(args) and rest == [])


@pytest.mark.parametrize(
    "kwargs",
    [{"nargs": 2}, {"nargs": "?"}, {"action": "append"}, {"action": "count"}, {"metavar": "N"}],
)
def test_the_table_refuses_a_flag_it_does_not_model(kwargs):
    with pytest.raises(TypeError):
        cli._Table().add_argument("--x", **kwargs)
    with pytest.raises(TypeError):
        cli._Table().add_mutually_exclusive_group().add_argument("--x", **kwargs)


def test_output_is_byte_deterministic(capsys):
    for args in (
        ("ensemble", "--q", "3", "--d", "3", "--mu", "1:1,2:1", "--format", "json"),
        ("factor", "--q", "5", "t^10-t^2"),  # splits t^4-1 and t^4+1
        # the enumeration oracle tallies cycle types in the order it meets them
        ("young", "--blocks", "2^2,2^4", "--histogram", "--method", "oracle",
         "--format", "json"),
        ("young", "--blocks", "2^4,3^2", "--mu", "1:2", "--method", "both"),
    ):
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


def test_timing_flag_appends_without_reordering(capsys):
    _, plain, _ = run(capsys, "eval", "--q", "2", "t^2", "--mu", "2:1")
    _, timed, _ = run(capsys, "eval", "--q", "2", "t^2", "--mu", "2:1", "--timing")
    assert timed.startswith(plain)
    assert "elapsed = " in timed


def test_ensemble_mean_of_two_cycles(capsys):
    code, out, _ = run(capsys, "ensemble", "--q", "2", "--d", "4", "--mu", "2:1")
    assert code == 0
    assert "sum = 8" in out
    assert "mean = 1/2" in out


def test_ensemble_reaches_large_fields(capsys):
    code, out, err = run(capsys, "ensemble", "--q", "65521", "--d", "12", "--mu", "1:1")
    assert code == 0 and err == ""
    assert f"count = {65521 ** 12}\n" in out
    assert "scaled = 1\n" in out


@pytest.mark.parametrize(
    "argv,limit",
    [
        (("ensemble", "--q", "2", "--d", "30", "--filter", "squarefree", "--mu", "1:2"), 0.5),
        (("ensemble", "--q", "2", "--d", "100", "--filter", "squarefree", "--mu", "1:2"), 1.0),
        (("ensemble", "--q", "3", "--d", "40", "--filter", "maxmult=2", "--mu", "1:2,2:1"), 1.0),
        (("ensemble", "--q", "65521", "--d", "20", "--mu", "1:2,3:1"), 0.5),
        (("ensemble", "--q", "3", "--d", "9012", "--mu", "1:1"), 1.0),
    ],
    ids=["squarefree-30", "squarefree-100", "maxmult-40", "q65521-20", "count-at-limit"],
)
def test_ensemble_answers_large_degrees_under_the_default_caps(capsys, argv, limit):
    # the Euler product's work grows polynomially in d; the type walk took
    # 4.5 s at d = 30 and refused d >= 34
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < limit
    assert code == 0 and err == ""
    q, d = int(argv[2]), int(argv[4])
    assert f"d = {d}\n" in out and "scaled = " in out
    if "--filter" not in argv:
        assert f"count = {q ** d}\n" in out


@pytest.mark.parametrize("d", ["100000", "1000000000"])
def test_an_ensemble_too_large_to_count_is_refused_at_once(capsys, d):
    start = time.perf_counter()
    code, out, err = run(capsys, "ensemble", "--q", "2", "--d", d, "--mu", "1:1")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"2^{d}" in err and f"{sys.get_int_max_str_digits()} digits" in err
    assert "no flag" in err


_LONG = "9" * (sys.get_int_max_str_digits() + 700)


@pytest.mark.parametrize(
    "argv,what",
    [
        (("factor", "--q", "2", f"t^{_LONG}"), "the polynomial"),
        (("factor", "--q", _LONG, "t"), "--q"),
        (("eval", "--q", "2", "t", "--stat", f"X1^{_LONG}"), "the term"),
        (("eval", "--q", "2", "t", "--stat", f"{_LONG}*X1"), "the term"),
        (("eval", "--q", "2", "t", "--stat", f"binom(1:{_LONG})"), "the multi-index"),
        (("ensemble", "--q", "2", "--d", "3", "--mu", f"1:{_LONG}"), "the multi-index"),
        (("young", "--blocks", f"1^{_LONG}", "--mu", "1:1"), "the block spec"),
        (("factor", "--q", "4", "--mod", f"[1,{_LONG},1]", "t"), "--mod"),
        (("ensemble", "--q", "2", "--d", "3", "--mu", "1:1", "--filter", f"maxmult={_LONG}"),
         "--filter"),
    ],
    ids=["factor-degree", "field", "stat-power", "stat-coefficient", "stat-binom",
         "ensemble-mu", "young-blocks", "field-modulus", "filter"],
)
def test_a_literal_too_long_to_read_names_the_input_and_the_limit(capsys, argv, what):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {what} ") and err.count("\n") == 1
    assert f"{len(_LONG)} digits, more than {sys.get_int_max_str_digits()}" in err
    assert "no flag" in err and "set_int_max_str_digits" not in err
    assert len(err) < 300


@pytest.mark.parametrize(
    "q", ["1000000000000000003", "99999999999999999989^2", "2^99999999999", "65537", "2^17"]
)
def test_a_field_beyond_the_bound_is_refused_before_any_prime_test(capsys, q):
    # a large q was once factored, and a large p tested, by trial division,
    # and a large e raised p to it
    start = time.perf_counter()
    code, out, err = run(capsys, "factor", "--q", q, "t")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == f"error: q = {q} exceeds the supported bound 65536\n"


def test_a_zero_extension_degree_is_one_error_line(capsys):
    code, out, err = run(capsys, "factor", "--q", "2^0", "t")
    assert (code, out) == (1, "")
    assert err == "error: extension degree must be a positive integer, got 0\n"


def test_printed_statistic_parses_back(capsys):
    code, first, _ = run(capsys, "eval", "--q", "2", "t^2", "--stat=X1-X2")
    assert code == 0
    assert "stat = binom(1:1) + -1*binom(2:1)\n" in first
    printed = first.split("stat = ")[1].split("\n")[0]
    assert run(capsys, "eval", "--q", "2", "t^2", f"--stat={printed}") == (0, first, "")


@pytest.mark.parametrize(
    "flag,words",
    [
        ("--mu=0:1", "cycle lengths must be >= 1"),
        ("--stat=X0", "cycle lengths must be >= 1"),
        ("--stat=X1+", "dangling sign"),
        ("--stat=1/0*X1", "zero denominator in term '1/0*X1'"),
    ],
    ids=["mu-zero", "stat-zero", "trailing-sign", "zero-denominator"],
)
def test_bad_statistics_are_one_line_errors(capsys, flag, words):
    code, out, err = run(capsys, "eval", "--q", "2", "t", flag)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert words in err


@pytest.mark.parametrize(
    "stat,err",
    [
        ("X1*-X2", "error: bad factor '' in term 'X1*' of 'X1*-X2'\n"),
        ("X1^-1", "error: bad factor 'X1^' in term 'X1^' of 'X1^-1'\n"),
    ],
)
def test_a_bad_statistic_is_named_as_typed(capsys, stat, err):
    assert run(capsys, "eval", "--q", "2", "t", f"--stat={stat}") == (1, "", err)


@pytest.mark.parametrize(
    "argv",
    [
        *(("eval", "--q", "2", "t", "--mu", mu, "--method", method)
          for mu in ("1:1000000", "1:10000000", "1:99999999999999999999")
          for method in ("formula", "symbolic", "oracle", "both")),
        *(("young", "--blocks", "1^2", "--mu", mu, "--method", method)
          for mu in ("1:10000000", "1:99999999999999999999")
          for method in ("formula", "oracle", "both")),
    ],
)
def test_a_mu_beyond_the_coset_is_zero_at_once(capsys, argv):
    """binom(X, mu) is 0 on every permutation that moves fewer than
    norm(mu) points; no route computes a factorial of mu's counts first."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    method = argv[-1]
    if method == "both":
        assert out.endswith("formula = 0\noracle = 0\nagree = yes\n")
    else:
        assert out.endswith(f"{method} = 0\n")


@pytest.mark.parametrize(
    "argv,words",
    [
        (("eval", "--q", "2", "t", "--mu", "1:x"), ["--mu", "'1:x'"]),
        (("young", "--blocks", "2^x", "--mu", "1:1"), ["--blocks", "'2^x'"]),
        (("factor", "--q", "x", "t"), ["--q", "'x'"]),
        (("factor", "--q", "2^x", "t"), ["--q", "'2^x'"]),
        (("factor", "--q", "4", "--mod", "[1,x,1]", "t"), ["--mod", "'[1,x,1]'"]),
        (("necklace", "--q", "2", "--kmax", "0"), ["--kmax", "got 0"]),
        (("necklace", "--q", "2", "--kmax", "-3"), ["--kmax", "got -3"]),
    ],
    ids=["mu", "blocks", "q", "q-power", "mod", "kmax-zero", "kmax-negative"],
)
def test_bad_inputs_are_one_line_errors_naming_flag_and_input(capsys, argv, words):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    for word in words:
        assert word in err


@pytest.mark.parametrize(
    "q,poly,coef",
    [("2", "[1,x]", "'x'"), ("4", "t+[1,,1]", "'[1,,1]'"), ("3", "[1,,1]", "''")],
)
def test_bad_coefficient_names_it_and_the_polynomial(capsys, q, poly, coef):
    code, out, err = run(capsys, "factor", "--q", q, poly)
    assert code == 1 and out == ""
    assert err == (
        f"error: bad coefficient {coef} in {poly!r}: expected an integer or a "
        "bracketed vector of integers such as [1,0,1]\n"
    )


@pytest.mark.parametrize(
    "poly,coef",
    [("[1,0,1,]", "''"), ("[1,[0,1]1]", "'[0,1]1'"), ("[[1,0][0,1],1]", "'[1,0][0,1]'")],
    ids=["trailing-comma", "vector-then-digit", "two-vectors"],
)
def test_a_malformed_coefficient_list_names_its_bad_element(capsys, poly, coef):
    # the elements of a list are the texts between the commas outside its
    # vectors: a comma too many or too few leaves one that is no coefficient
    code, out, err = run(capsys, "factor", "--q", "4", poly)
    assert code == 1 and out == ""
    assert err == (
        f"error: bad coefficient {coef} in {poly!r}: expected an integer or a "
        "bracketed vector of integers such as [1,0,1]\n"
    )


def test_necklace_refuses_an_oversized_kmax_before_sieving(capsys, sieve_passes):
    # degrees 1..23 fit the sieve; sieving them first took over a minute
    start = time.perf_counter()
    code, out, err = run(capsys, "necklace", "--q", "2", "--kmax", "30")
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == ""
    assert err == (
        "error: irreducible enumeration needs q^d = 16777216 slots, beyond the "
        "limit 10000000, which no flag raises\n"
    )
    assert sieve_passes == []


def test_necklace_sieves_the_top_degree_and_its_halvings(capsys, sieve_passes):
    code, out, err = run(capsys, "necklace", "--q", "2", "--kmax", "12")
    assert code == 0 and err == "" and out.endswith("identity = ok\n")
    assert sieve_passes == [1, 3, 6, 12]


# the two endings of a refusal of a cap or a limit, and the ending of a
# refusal of an integer too long to print (errors.refusal, errors.unprintable)
_TAILS = (
    re.compile(r", beyond the cap \d+; raise it with (--cap-[a-z]+)"
               r"(, or for coset statistics use the factored route)?\n\Z"),
    re.compile(r", beyond the limit \d+, which no flag raises\n\Z()"),
    re.compile(r" of more than \d+ digits, Python's limit for printing an integer, "
               r"which no flag raises\n\Z()"),
)


def _refusal_flag(err: str):
    """The flag that the one-line refusal err names, "" when no flag raises
    its limit, and None when no refusal ending ends it; at most one does."""
    ends = [m.group(1) for m in (tail.search(err) for tail in _TAILS) if m]
    assert err.startswith("error: ") and err.count("\n") == 1 and len(ends) <= 1
    return ends[0] if ends else None


# the steps of --mu 2000:1 over F_2, a count of 599 digits, which the
# refusal prints whole
_SYMBOLIC_2000_STEPS = (
    "5740653476371272621164166005888409920111588510443476002388213684128831"
    "3069618515692832974315825313495922298231949373138672355948043152766571"
    "2965678083326592695649945726561400003443895741200224357144634950317431"
    "2239080773182319418197365851302023317698545249827908119940447231480281"
    "1655824768082110985171698215120385828833994926435042413009836474525915"
    "9182517201102951646705166287467306066377747124209492412728622859747976"
    "3682565563048265014458391455779727774362114030676102047724338964622413"
    "6995117490845394563326746643528016086545000307623976036271532792608371"
    "328999869859035413410338121048324763216"
)


@pytest.mark.parametrize(
    "argv,err",
    [
        (
            ("necklace", "--q", "2", "--kmax", "1000000000"),
            "error: irreducible enumeration needs q^d = 16777216 slots, beyond the "
            "limit 10000000, which no flag raises\n",
        ),
        (
            ("necklace", "--q", "65521", "--kmax", "2"),
            "error: irreducible enumeration needs q^d = 4293001441 slots, beyond the "
            "limit 10000000, which no flag raises\n",
        ),
        (
            ("eval", "--q", "2", "t", "--mu", "2000:1", "--method", "symbolic",
             "--cap-terms", "1" + "0" * 24),
            f"error: the symbolic route would reach {_SYMBOLIC_2000_STEPS} steps "
            "(candidate symbols tested against f plus term pairs multiplied), beyond "
            "the cap 1000000000000000000000000; raise it with --cap-terms, or for "
            "coset statistics use the factored route\n",
        ),
        (
            # degree 23 fits the sieve (8.4M slots) and took seconds to sieve
            # before degree 46 was refused
            ("eval", "--q", "2", "t", "--mu", "46:1", "--method", "symbolic",
             "--cap-terms", "10000000000000"),
            "error: irreducible enumeration needs q^d = 70368744177664 slots, beyond "
            "the limit 10000000, which no flag raises\n",
        ),
    ],
    ids=["necklace-huge-kmax", "necklace-q65521", "symbolic-steps", "symbolic-46"],
)
def test_refusals_are_whole_and_come_before_any_sieve_pass(capsys, sieve_passes, argv, err):
    start = time.perf_counter()
    code, out, got = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == "" and got == err
    assert _refusal_flag(got) == ("--cap-terms" if "the cap" in got else "")
    assert sieve_passes == []


@pytest.mark.parametrize(
    "argv",
    [("--q", "9;mod=[1,0,1]"), ("--q", "9;mod=[2,0,1]", "--mod", "[1,0,1]")],
    ids=["modulus-in-q", "modulus-in-both"],
)
def test_q_and_mod_are_read_apart(capsys, argv):
    # a modulus written into --q is no field spec, and --mod names only
    # what was passed as --mod
    code, out, err = run(capsys, "factor", *argv, "t")
    assert code == 1 and out == ""
    assert err == f"error: bad --q {argv[1]!r}: expected a prime power such as 8 or 2^3\n"


def test_histogram_limit_refuses_before_listing_partitions(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "young", "--blocks", "1^500", "--histogram")
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == ""
    assert "limit" in err and "no flag" in err


_LIMIT_TAIL = "cycle types in one step, beyond the limit 100000, which no flag raises\n"
_EIGHT_SEVENS = ",".join(["1^7"] * 8)


@pytest.mark.parametrize(
    "blocks,pairs",
    [("1^6,1^35", "11 x 14883"), ("1^6,1^20,1^20", "2217 x 627"), (_EIGHT_SEVENS, "11418 x 15")],
    ids=["second-block", "third-block", "eighth-copy"],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_histogram_limit_refusals_are_pinned(capsys, blocks, pairs, fmt):
    # the closed form refuses at the first block whose classes, paired with
    # the cycle types so far, pass the limit; --method both refuses the same
    for method in ("formula", "both"):
        code, out, err = run(capsys, "young", "--blocks", blocks, "--histogram",
                             "--method", method, "--format", fmt)
        assert (code, out) == (1, "")
        assert err == f"error: the histogram of {blocks} pairs at least {pairs} {_LIMIT_TAIL}"


def test_the_histogram_oracle_is_not_bound_by_the_pair_limit(capsys):
    # the eight blocks 1^7 pass the limit in the closed form, but each
    # block's coset has 5040 elements, and their tallies convolve freely
    code, out, err = run(capsys, "young", "--blocks", _EIGHT_SEVENS, "--histogram",
                         "--method", "oracle", "--cap-group", str(10 ** 30))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[:3] == ["blocks = " + _EIGHT_SEVENS, "n = 56", f"order_h = {5040 ** 8}"]
    assert len(lines) == 3 + 21351
    assert sum(int(line.split("  ")[1]) for line in lines[3:]) == 5040 ** 8


_F2_24A = "t^24+t^4+t^3+t+1"
_F2_24B = "t^24+t^6+t^5+t^3+t^2+t+1"
_F2_16A = "t^2+t+[0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0]"
_F2_16B = "t^2+t+[1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0]"


@pytest.mark.parametrize(
    "q,poly,factors",
    [
        ("65521", "t^4+t^2+5", ["t^2+31595", "t^2+33927"]),
        ("65521", "[1156,0,65436,0,1]", ["t^2+65453", "t^2+65504"]),
        (
            "2",
            "t^48+t^30+t^29+t^28+t^26+t^10+t^8+t^5+t^4+t^3+1",
            [_F2_24A, _F2_24B],
        ),
        ("65536", "t^4+t+[0,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0]", [_F2_16A, _F2_16B]),
    ],
    ids=["q=65521", "q=65521-list", "q=2-degree-24", "q=2^16"],
)
def test_factor_splits_equal_degree_factors_in_any_field(capsys, q, poly, factors):
    start = time.perf_counter()
    code, out, err = run(capsys, "factor", "--q", q, poly)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    assert "factorization = " + " * ".join(f"({p})" for p in factors) + "\n" in out


def test_young_refuses_an_order_too_long_to_print(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "young", "--blocks", "1^2000", "--mu", "1:1")
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "order_h" in err and "no flag" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--blocks", "1^1000000", "--mu", "1:1"),
        ("--blocks", "1^2,2^300000", "--mu", "1:1"),
        ("--blocks", "1^300000", "--mu", "1:1"),
        ("--blocks", "1^1000000", "--mu", "1:1", "--method", "oracle"),
    ],
)
def test_young_refuses_an_order_too_long_to_print_without_computing_it(capsys, argv):
    """|H| = (10^6)! has 5565709 digits and takes seconds to compute; its
    logarithm refuses it at once, with the line of the exact test."""
    start = time.perf_counter()
    code, out, err = run(capsys, "young", *argv)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err == (
        "error: order_h has more than 4300 digits, Python's limit for printing "
        "an integer, which no flag raises\n"
    )


def test_mu_and_stat_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit):
        main(["eval", "--q", "2", "t", "--mu", "1:1", "--stat", "X1"])


@pytest.mark.parametrize(
    "argv,words",
    [
        (
            ("ensemble", "--q", "2", "--d", "3", "--mu", "1:2", "--filter", "squarefree",
             "--cap-enum", "4"),
            ["--cap-enum", "coefficient pairs"],
        ),
        (
            ("eval", "--q", "2", "t^3", "--mu", "1:2", "--method", "symbolic",
             "--cap-terms", "1"),
            ["--cap-terms", "factored"],
        ),
        (
            ("eval", "--q", "2", "t^4", "--mu", "1:1", "--method", "oracle",
             "--cap-group", "2"),
            ["--cap-group"],
        ),
        (
            ("young", "--blocks", "1^3", "--histogram", "--method", "oracle",
             "--cap-group", "2"),
            ["--cap-group"],
        ),
        (
            ("eval", "--q", "2", "t^2000", "--mu", "1:1", "--method", "oracle"),
            ["--cap-group", "1^2000", f"{sys.get_int_max_str_digits()} digits"],
        ),
        (("necklace", "--q", "65521", "--kmax", "2"), ["limit", "no flag"]),
        (("young", "--blocks", "1^30,2^30", "--histogram"), ["limit", "no flag"]),
        (("eval", "--q", "2", "t^2+1", "--stat", "X1^999999"), ["limit", "no flag"]),
        (
            ("eval", "--q", "2", "t", "--stat", "X1^100*X2^100*X3^100*X4^100"),
            ["limit", "no flag"],
        ),
        (("ensemble", "--q", "2", "--d", "3", "--stat", "X1^3000"), ["limit", "no flag"]),
        (("factor", "--q", "2", "t^99999999999"), ["limit", "no flag"]),
        (
            ("ensemble", "--q", "2", "--d", "3", "--mu", "1:1", "--filter", "maxmult=x"),
            ["--filter 'maxmult=x'", "all, squarefree, or maxmult=m"],
        ),
        (("ensemble", "--q", "3", "--d", "9013", "--mu", "1:1"), ["3^9013", "limit", "no flag"]),
        *[
            (("eval", "--q", "2", "t", "--mu", f"{k}:1", "--method", "symbolic"),
             ["--cap-terms", f"at least 10^{sys.get_int_max_str_digits()} steps"])
            for k in (100000, 10 ** 9)
        ],
    ],
    ids=[
        "ensemble", "symbolic", "coset", "histogram", "coset-unprintable", "sieve",
        "histogram-limit", "expansion-terms", "expansion-variables", "expansion-factorial",
        "degree-limit", "filter", "ensemble-count", "symbolic-unprintable", "symbolic-huge-k",
    ],
)
def test_cap_errors_name_their_flag(capsys, argv, words):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    for word in words:
        assert word in err
    assert "set_int_max_str_digits" not in err
    # a cap names its flag, a limit none, and a bad input is no refusal
    flag = next((w for w in words if w.startswith("--cap-")), "")
    assert _refusal_flag(err) == (None if err.startswith("error: bad ") else flag)


def test_a_huge_symbolic_cycle_length_is_refused_before_its_divisors(capsys, monkeypatch):
    # divisors(k) takes O(k) steps and N_k needs q^k: the refusal is read off
    # k*log10(q) before either
    k = 10 ** 9
    count = frobenius_stats.necklace_count

    def counted(d, q):
        assert d != k, "N_k was computed"
        return count(d, q)

    monkeypatch.setattr(frobenius_stats, "necklace_count", counted)
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--q", "2", "t", "--mu", f"{k}:1", "--method", "symbolic")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == "" and "--cap-terms" in err


def test_a_huge_symbolic_cycle_length_is_refused_with_no_digit_limit(capsys, monkeypatch):
    # with no limit, the refusal is decided at Python's default limit
    k = 10 ** 9
    count = frobenius_stats.necklace_count

    def counted(d, q):
        assert d != k, "N_k was computed"
        return count(d, q)

    monkeypatch.setattr(frobenius_stats, "necklace_count", counted)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        start = time.perf_counter()
        code, out, err = run(
            capsys, "eval", "--q", "2", "t", "--mu", f"{k}:1", "--method", "symbolic"
        )
        assert time.perf_counter() - start < 1.0
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 1 and out == ""
    assert err == (
        f"error: the symbolic route would reach at least "
        f"10^{sys.int_info.default_max_str_digits} steps (candidate symbols tested "
        "against f plus term pairs multiplied), beyond the cap 1000000; raise it "
        "with --cap-terms, or for coset statistics use the factored route\n"
    )


@pytest.mark.parametrize("argv, key, value", [
    (["young", "--blocks", "1^2000", "--mu", "1:1"], "order_h", math.factorial(2000)),
    (["ensemble", "--q", "3", "--d", "9013", "--mu", "1:1"], "count", 3 ** 9013),
], ids=["young", "ensemble"])
def test_a_number_refused_at_the_digit_limit_is_printed_with_none(capsys, argv, key, value):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, out, err = run(capsys, *argv)
        assert f"{key} = {value}" in out.splitlines()
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("eval", "--q", "2", "t", "--mu", "1:1"), "--cap-terms"),
        (("eval", "--q", "2", "t", "--mu", "1:1"), "--cap-group"),
        (("ensemble", "--q", "2", "--mu", "1:1", "--d", "3"), "--cap-enum"),
        (("ensemble", "--q", "2", "--mu", "1:1"), "--d"),
        (("necklace", "--q", "2"), "--kmax"),
        (("young", "--blocks", "1^2", "--mu", "1:1"), "--cap-group"),
    ],
)
def test_an_integer_flag_too_long_to_read_is_a_usage_error(capsys, argv, flag):
    def last_line(parse, value):
        with pytest.raises(SystemExit) as stopped:
            parse([*argv, flag, value])
        assert stopped.value.code == 2
        return capsys.readouterr().err.splitlines()[-1]

    limit = sys.get_int_max_str_digits()
    huge = "1" + "0" * limit
    assert last_line(main, huge) == (
        f"orbitstat {argv[0]}: error: argument {flag}: the value "
        f"'{huge[:20]}...{huge[-10:]}' holds an integer of {limit + 1} digits, "
        f"more than {limit}, Python's limit for reading an integer, which no flag raises"
    )
    # any other bad value reads as type=int words it
    reference = argparse.ArgumentParser(prog=f"orbitstat {argv[0]}")
    reference.add_argument(flag, type=int)
    for bad in ("x", "1.5", "", "1e3"):
        assert last_line(main, bad) == last_line(lambda args: reference.parse_args(args[-2:]), bad)
    # as is one too long to read that int would read with no limit
    spaced = "1_" + "0" * limit
    assert last_line(main, spaced) == (
        f"orbitstat {argv[0]}: error: argument {flag}: invalid int value: "
        f"'{spaced[:20]}...{spaced[-10:]}'"
    )


@pytest.mark.parametrize("name", list(ONE_OF_EACH))
def test_a_value_of_double_dash_is_a_missing_value(capsys, name):
    """--flag=-- is refused as --flag -- is, for every option of the command
    that takes a value: argparse strips the --, and an empty value is neither
    read as the flag's default nor handed to its handler."""
    from test_golden_cli import CASES

    def stderr(argv):
        with pytest.raises(SystemExit) as stopped:
            main(argv)
        assert stopped.value.code == 2
        return capsys.readouterr().err

    line = CASES[ONE_OF_EACH[name]][1:]
    options = [o for o, spec in cli._table(name).options.items() if spec[3]]
    assert options
    for option in options:
        err = stderr([name, f"{option}=--", *line])
        assert err.splitlines()[-1] == (
            f"orbitstat {name}: error: argument {option}: expected one argument"
        )
        assert err == stderr([name, option, "--", *line])


def test_an_unprintable_statistic_is_refused_before_it_is_formatted(capsys, monkeypatch):
    # each coefficient is tested by its bit length, so the text of a
    # statistic with one too long is never built
    def formatted(self):
        raise AssertionError("the statistic was formatted")

    monkeypatch.setattr(cli.CharPoly, "__str__", formatted)
    # the largest S(1485, j) * j! has 4302 digits, too close to the limit for
    # the parser's bound to refuse it
    code, out, err = run(capsys, "eval", "--q", "2", "t", "--stat", "X1^1485")
    assert code == 1 and out == ""
    assert err == (
        f"error: the statistic X1^1485 has a coefficient of more than "
        f"{sys.get_int_max_str_digits()} digits, Python's limit for printing an "
        "integer, which no flag raises\n"
    )


@pytest.mark.parametrize("stat", ["X1^1486-X1^1486", "X1^3000-X1^3000"])
def test_a_statistic_whose_huge_monomials_cancel_is_zero(capsys, stat):
    code, out, err = run(capsys, "eval", "--q", "2", "t", "--stat", stat)
    assert (code, err) == (0, "")
    assert out == "field = q=2\nf = t\nstat = 0\nformula = 0\n"
    code, out, err = run(capsys, "eval", "--q", "2", "t", "--stat", "X1^1486")
    assert (code, out) == (1, "")
    assert err.startswith("error: the monomial X1^1486 expands with a coefficient of more than")


def test_prints_agrees_with_str_at_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    edge = 10 ** limit
    for bits in range(edge.bit_length() - 8, edge.bit_length() + 8):
        for value in (2 ** bits - 1, 2 ** bits, 3 << (bits - 2), edge - 1, edge, edge + 1):
            for signed in (value, -value):
                try:
                    shown = bool(str(signed))
                except ValueError:
                    shown = False
                assert prints(signed) == shown, (bits, value == edge)
    assert prints(0) and prints(-1) and not prints(2 ** 10 ** 6)


def test_huge_monomial_ends_without_a_traceback(capsys):
    # X1^1500 expands through Stirling numbers S(1500, j), too long for
    # Python to print; the parser bounds them from 1500 alone and refuses the
    # monomial before any is built
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--q", "2", "t", "--stat", "X1^1500")
    assert time.perf_counter() - start < 2.5
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    for word in ("X1^1500", f"{sys.get_int_max_str_digits()} digits", "no flag"):
        assert word in err
    # ensemble prints its statistic through the same guard, before its sum
    start = time.perf_counter()
    code, out, err = run(capsys, "ensemble", "--q", "2", "--d", "3", "--stat", "X1^1500")
    assert time.perf_counter() - start < 2.5
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    for word in ("X1^1500", f"{sys.get_int_max_str_digits()} digits", "no flag"):
        assert word in err
    # the value 1/2000! has a denominator too long to print
    code, out, err = run(capsys, "eval", "--q", "2", "t^2000", "--mu", "1:2000")
    assert code == 1 and out == ""
    assert err.startswith("error: formula ") and err.count("\n") == 1
    assert f"{sys.get_int_max_str_digits()} digits" in err and "no flag" in err


def test_eval_of_a_non_monic_polynomial_names_it(capsys):
    code, out, err = run(capsys, "eval", "--q", "3", "2*t", "--mu", "1:1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "monic" in err and "'2*t'" in err


def test_a_field_builds_its_tables_once_per_process(capsys, monkeypatch):
    built = []
    build = finite_field._build_tables

    def counted(ctx):
        built.append(ctx.q)
        return build(ctx)

    monkeypatch.setattr(finite_field, "_fields", {})  # as in a fresh process
    monkeypatch.setattr(finite_field, "_build_tables", counted)
    outs = [run(capsys, "factor", "--q", "4096", "t^3+[0,1]")[1] for _ in range(2)]
    assert outs[0] == outs[1] and "blocks = 3^1" in outs[0]
    assert built == [4096]


def test_a_reducible_modulus_is_refused_on_every_call(capsys):
    for _ in range(2):
        code, out, err = run(capsys, "factor", "--q", "4", "--mod", "[1,0,1]", "t")
        assert (code, out) == (1, "")
        assert err == "error: modulus [1, 0, 1] is reducible over F_2\n"


def test_a_monomial_and_a_binomial_of_the_same_entries_stay_apart(capsys):
    """X1^a and binom(1:a) are two terms: the monomial's expansion is refused
    on its own even though binom(1:1486) cancels its sign, and X1^2 less
    binom(1:2) keeps the binom(1:1) of the expansion."""
    code, out, err = run(capsys, "eval", "--q", "2", "t", "--stat", "X1^1486-binom(1:1486)")
    assert (code, out) == (1, "")
    assert err == (
        "error: the monomial X1^1486 expands with a coefficient of more than 4300 "
        "digits, Python's limit for printing an integer, which no flag raises\n"
    )
    code, out, _ = run(capsys, "eval", "--q", "3", "t^2+1", "--stat", "X1^2-binom(1:2)")
    assert code == 0
    assert "stat = binom(1:1) + binom(1:2)\n" in out


@pytest.mark.parametrize(
    "q, template",
    [("2", "{}*t+1"), ("3", "[{},1]"), ("4", "[[1,{}],1]")],
    ids=["term", "list", "vector"],
)
def test_a_coefficient_too_long_to_read_is_one_error_line(capsys, q, template):
    limit = sys.get_int_max_str_digits()
    text = template.format("1" + "0" * limit)
    code, out, err = run(capsys, "factor", "--q", q, text)
    assert (code, out) == (1, "")
    assert err == (
        f"error: the polynomial '{text[:20]}...{text[-10:]}' holds an integer of "
        f"{limit + 1} digits, more than {limit}, Python's limit for reading an "
        "integer, which no flag raises\n"
    )


@pytest.mark.parametrize("stat", ["2X1", "1/2/3*X1", "3/"])
def test_a_statistic_term_with_a_bad_coefficient_is_refused(capsys, stat):
    code, out, err = run(capsys, "eval", "--q", "2", "t", "--stat", stat)
    assert (code, out) == (1, "")
    assert err == f"error: bad term {stat!r} in {stat!r}\n"
