"""Command line behavior: output shape, determinism, and exit codes."""

import json

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


def test_output_is_byte_deterministic(capsys):
    args = ("ensemble", "--q", "3", "--d", "3", "--mu", "1:1,2:1", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_timing_flag_appends_without_reordering(capsys):
    _, plain, _ = run(capsys, "eval", "--q", "2", "t^2", "--mu", "2:1")
    _, timed, _ = run(capsys, "eval", "--q", "2", "t^2", "--mu", "2:1", "--timing")
    assert timed.startswith(plain)
    assert "elapsed = " in timed


def test_threads_flag_accepted(capsys):
    code, out, _ = run(capsys, "ensemble", "--q", "2", "--d", "4", "--mu", "2:1",
                       "--threads", "3")
    assert code == 0
    assert "sum = 8" in out
    assert "mean = 1/2" in out


def test_mu_and_stat_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit):
        main(["eval", "--q", "2", "t", "--mu", "1:1", "--stat", "X1"])


@pytest.mark.parametrize("threads", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ("ensemble", "--q", "2", "--d", "2", "--mu", "1:1"),
        ("young", "--blocks", "1^2", "--histogram"),
    ],
    ids=["ensemble", "young"],
)
def test_threads_below_one_rejected(capsys, argv, threads):
    code, out, err = run(capsys, *argv, "--threads", threads)
    assert code == 1 and out == ""
    assert err == f"error: --threads must be at least 1, got {threads}\n"


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
        (("young", "--blocks", "1^3", "--histogram", "--cap-group", "2"), ["--cap-group"]),
        (("factor", "--q", "65521", "t^4+t^2+5"), ["sieve limit", "no flag"]),
    ],
    ids=["ensemble", "symbolic", "coset", "histogram", "sieve"],
)
def test_cap_errors_name_their_flag(capsys, argv, words):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    for word in words:
        assert word in err


def test_huge_monomial_ends_without_a_traceback(capsys):
    # X1^1500 expands through Stirling numbers S(1500, j); printing the
    # statistic may hit Python's integer-to-string limit, which is reported
    # as a one-line error
    code, out, err = run(capsys, "eval", "--q", "2", "t", "--stat", "X1^1500")
    assert "Traceback" not in err
    assert code == 0 or (code == 1 and err.startswith("error: ") and err.count("\n") == 1)
