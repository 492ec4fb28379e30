"""Golden CLI outputs: the stdout of fixed commands, byte for byte.

Each case's expected stdout is tests/golden/<name>.txt.  The cases cover
factor, necklace, eval (every method) and ensemble over
q in {2, 3, 4, 5, 8, 9, 4096, 65521}, young histograms and means of
block cosets, and every check of verify --quick, in text and JSON.  Every case runs in
well under a second.

To add a case, put it in CASES and record its file with

    PYTHONPATH=src python tests/test_golden_cli.py

which writes only the golden files that do not exist yet, so a recorded
output is never overwritten by the code it is meant to check.
"""

import contextlib
import io
import pathlib
import sys

import pytest

from orbitstat.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

# the default modulus of F_4096, given explicitly so that the cases do not
# spend their time searching for it (test_field_core checks the search)
MOD_4096 = "[1,0,0,0,0,0,0,0,0,1,0,0,1]"

CASES = {
    "factor_q2_split": ["factor", "--q", "2", "t^4+t"],
    "factor_q2_deg12": ["factor", "--q", "2", "t^12+t^9+t^5+t^2+1"],
    "factor_q3_json": ["factor", "--q", "3", "--format", "json", "t^9+2*t"],
    "factor_q3_unit": ["factor", "--q", "3", "2*t^6+t^4+t^3+2"],
    "factor_q4": ["factor", "--q", "4", "t^5+[0,1]*t^3+[1,1]*t+1"],
    "factor_q4_inseparable": ["factor", "--q", "4", "t^6+t^4+t^2"],
    "factor_q8": ["factor", "--q", "8", "t^4+[1,1]*t^2+[0,0,1]"],
    "factor_q9": ["factor", "--q", "9", "t^6+[1,2]*t^3+2*t+[0,1]"],
    "factor_q4096_square": ["factor", "--q", "4096", "--mod", MOD_4096, "t^2+[0,1]"],
    "factor_q4096_json": [
        "factor", "--q", "4096", "--mod", MOD_4096, "--format", "json", "t^2+t",
    ],
    "factor_q65521": ["factor", "--q", "65521", "t^5+3*t^4+65000*t+7"],
    "necklace_q2": ["necklace", "--q", "2", "--kmax", "10"],
    "necklace_q3": ["necklace", "--q", "3", "--kmax", "6"],
    "necklace_q4": ["necklace", "--q", "4", "--kmax", "5"],
    "necklace_q8": ["necklace", "--q", "8", "--kmax", "4"],
    "necklace_q9_json": ["necklace", "--q", "9", "--kmax", "3", "--format", "json"],
    "necklace_q4096": ["necklace", "--q", "4096", "--mod", MOD_4096, "--kmax", "1"],
    "necklace_q65521": ["necklace", "--q", "65521", "--kmax", "1"],
    "necklace_q2_k14": ["necklace", "--q", "2", "--kmax", "14"],
    "necklace_q5_k7_json": ["necklace", "--q", "5", "--kmax", "7", "--format", "json"],
    "necklace_q7_k5": ["necklace", "--q", "7", "--kmax", "5"],
    "symbolic_q2": ["eval", "--q", "2", "t^5+t^2+1", "--mu", "1:1,2:1", "--method", "symbolic"],
    "symbolic_q2_cube": ["eval", "--q", "2", "t^6+t^3+1", "--mu", "1:1,3:1", "--method", "symbolic"],
    "symbolic_q3_json": [
        "eval", "--q", "3", "t^4+t+2", "--mu", "2:1", "--method", "symbolic", "--format", "json",
    ],
    "symbolic_q4": ["eval", "--q", "4", "t^3+[0,1]*t+1", "--mu", "1:1,2:1", "--method", "symbolic"],
    "symbolic_q4_square": [
        "eval", "--q", "4", "t^4+[1,1]*t+1", "--mu", "1:2,2:1", "--method", "symbolic",
    ],
    "symbolic_q5": ["eval", "--q", "5", "t^3+t+2", "--mu", "1:1,2:1", "--method", "symbolic"],
    "symbolic_q8": ["eval", "--q", "8", "t^3+t+1", "--mu", "1:2", "--method", "symbolic"],
    "symbolic_q9": ["eval", "--q", "9", "t^3+[0,1]*t+1", "--mu", "2:1", "--method", "symbolic"],
    "both_q2_stat": ["eval", "--q", "2", "t^4+t", "--stat", "X1+2*binom(2:1)", "--method", "both"],
    "both_q3": ["eval", "--q", "3", "t^5+2*t", "--mu", "1:2", "--method", "both"],
    "both_q4": ["eval", "--q", "4", "t^4+t", "--mu", "3:1", "--method", "both"],
    "both_q8": ["eval", "--q", "8", "t^4+[1,1]*t^2+[0,0,1]", "--mu", "2:1", "--method", "both"],
    "both_q9": ["eval", "--q", "9", "t^4+t", "--mu", "1:1,3:1", "--method", "both"],
    "both_q65521": ["eval", "--q", "65521", "t^5+3*t^4+65000*t+7", "--mu", "1:1", "--method", "both"],
    "both_q65521_json": [
        "eval", "--q", "65521", "t^5+3*t^4+65000*t+7", "--stat", "X1+X5",
        "--method", "both", "--format", "json",
    ],
    "formula_q3_stat": ["eval", "--q", "3", "t^6+2*t^4+t^2", "--stat", "1/3*X1^2-X2+7"],
    "oracle_q2": ["eval", "--q", "2", "t^6+t^4+t^2", "--mu", "1:2,2:1", "--method", "oracle"],
    "symbolic_q5_stat": [
        "eval", "--q", "5", "t^4+t^2", "--stat", "X1+2*binom(2:1)-1/4*X2^2+1",
        "--method", "symbolic",
    ],
    "ensemble_q2": ["ensemble", "--q", "2", "--d", "6", "--mu", "1:1"],
    "ensemble_q3_squarefree": [
        "ensemble", "--q", "3", "--d", "4", "--stat", "X1^2", "--filter", "squarefree",
    ],
    "ensemble_q4_json": ["ensemble", "--q", "4", "--d", "3", "--mu", "2:1", "--format", "json"],
    "ensemble_q4_maxmult": [
        "ensemble", "--q", "4", "--d", "3", "--stat=2*X1-1/3", "--filter", "maxmult=2",
    ],
    "ensemble_q8": ["ensemble", "--q", "8", "--d", "2", "--mu", "1:2", "--filter", "maxmult=1"],
    "ensemble_q9": ["ensemble", "--q", "9", "--d", "2", "--stat", "X1+X2"],
    "ensemble_q9_d0_json": [
        "ensemble", "--q", "9", "--d", "0", "--stat", "X1+3", "--format", "json",
    ],
    "ensemble_q65521_d12": [
        "ensemble", "--q", "65521", "--d", "12", "--stat", "binom(1:2,3:1)-X2+1/5*X4^2",
    ],
    "ensemble_q2_d16_squarefree": [
        "ensemble", "--q", "2", "--d", "16", "--mu", "1:2,2:1,4:1", "--filter", "squarefree",
    ],
    "ensemble_q3_d10_maxmult3": [
        "ensemble", "--q", "3", "--d", "10", "--stat", "X1^2-2*binom(2:1,4:1)+1/3",
        "--filter", "maxmult=3",
    ],
    "ensemble_q9_d6_maxmult2_json": [
        "ensemble", "--q", "9", "--d", "6", "--mu", "2:1,3:1", "--filter", "maxmult=2",
        "--format", "json",
    ],
    "ensemble_q5_d9_squarefree_stat": [
        "ensemble", "--q", "5", "--d", "9", "--stat", "X1*X2+X3", "--filter", "squarefree",
    ],
    "young_histogram_mixed": ["young", "--blocks", "3^2,1^3,2^2", "--histogram"],
    "young_histogram_25920": ["young", "--blocks", "1^6,2^3", "--histogram"],
    "young_histogram_json": ["young", "--blocks", "1^3,2^2", "--histogram", "--format", "json"],
    "young_class_count": ["young", "--blocks", "1^2,2^2", "--mu", "1:2,2:2"],
    "young_both": ["young", "--blocks", "2^3,1^2", "--mu", "1:1,2:1", "--method", "both"],
    "young_six_factors_json": [
        "young", "--blocks", "1^6,1^2,2^5,2^1,3^4,6^2", "--mu", "1:6,2:4,3:3,6:2",
        "--format", "json",
    ],
    "young_class_count_16": ["young", "--blocks", "1^4,2^3,3^2", "--mu", "1:2,2:1,6:2"],
    "young_oracle": ["young", "--blocks", "1^2,2^2,3^1", "--mu", "1:1,2:1", "--method", "oracle"],
    "young_oracle_json": [
        "young", "--blocks", "1^3,2^1", "--mu", "1:2,2:1", "--method", "oracle",
        "--format", "json",
    ],
    "young_histogram_oracle_both": [
        "young", "--blocks", "2^2,2^4,1^2", "--histogram", "--method", "both",
    ],
    "young_histogram_oracle_json": [
        "young", "--blocks", "3^2,3^2,1^3", "--histogram", "--method", "oracle",
        "--format", "json",
    ],
    "oracle_q3_stat": [
        "eval", "--q", "3", "t^7+2*t^5+t^3", "--stat", "X1^2+2*X2-1/2*binom(1:1,2:1)+3",
        "--method", "oracle",
    ],
    "verify_quick_coset_means": [
        "verify", "--quick", "--checks", "coset-statistics,equal-expectation,stabilization",
    ],
    "verify_quick": ["verify", "--quick"],
    "verify_quick_json": ["verify", "--quick", "--format", "json"],
    "young_class_count_mixed": ["young", "--blocks", "1^2,2^3", "--mu", "1:2,2:3"],
    "young_class_count_mixed_json": [
        "young", "--blocks", "1^2,2^3", "--mu", "1:2,2:3", "--format", "json",
    ],
    "young_class_count_oracle": [
        "young", "--blocks", "1^2,2^3", "--mu", "1:2,2:3", "--method", "oracle",
    ],
}


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, argv
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert _stdout(CASES[name]) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        path = GOLDEN / f"{name}.txt"
        if not path.exists():
            path.write_text(_stdout(argv))
            print(f"recorded {path.name}", file=sys.stderr)
