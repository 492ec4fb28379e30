"""Command line behavior: output shape, determinism, and exit codes."""

import json
import sys
import time

import pytest

from orbitstat.cli import main


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


def test_histogram_limit_refuses_before_listing_partitions(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "young", "--blocks", "1^500", "--histogram")
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == ""
    assert "limit" in err and "no flag" in err


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


def test_mu_and_stat_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit):
        main(["eval", "--q", "2", "t", "--mu", "1:1", "--stat", "X1"])


@pytest.mark.parametrize(
    "argv,words",
    [
        (("ensemble", "--q", "2", "--d", "3", "--mu", "1:1", "--cap-enum", "4"), ["--cap-enum"]),
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
        (("necklace", "--q", "65521", "--kmax", "2"), ["sieve limit", "no flag"]),
        (("young", "--blocks", "1^30,2^30", "--histogram"), ["limit", "no flag"]),
        (
            ("ensemble", "--q", "2", "--d", "3", "--mu", "1:1", "--filter", "maxmult=x"),
            ["--filter 'maxmult=x'", "all, squarefree, or maxmult=m"],
        ),
    ],
    ids=["ensemble", "symbolic", "coset", "histogram", "sieve", "histogram-limit", "filter"],
)
def test_cap_errors_name_their_flag(capsys, argv, words):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    for word in words:
        assert word in err


def test_huge_monomial_ends_without_a_traceback(capsys):
    # X1^1500 expands through Stirling numbers S(1500, j), too long for
    # Python to print; the statistic is printed before any route runs, so the
    # error comes right after the parse
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--q", "2", "t", "--stat", "X1^1500")
    assert time.perf_counter() - start < 2.5
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    for word in ("X1^1500", f"{sys.get_int_max_str_digits()} digits", "no flag"):
        assert word in err
