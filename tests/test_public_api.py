"""The public API: orbitstat.__all__ is pinned, so a change to it is seen."""

import orbitstat

PUBLIC = [
    "CHECK_NAMES",
    "CapExceeded",
    "CharPoly",
    "CheckResult",
    "CosetSpec",
    "DEFAULT_ENUM_CAP",
    "DEFAULT_GROUP_CAP",
    "DEFAULT_TERM_CAP",
    "ENUMERATION_LIMIT",
    "Factorization",
    "FieldCtx",
    "MultiIndex",
    "Poly",
    "binom_eval",
    "block_spec",
    "chi_formula",
    "chi_oracle",
    "chi_symbolic",
    "coset_histogram",
    "count_irreducibles",
    "cycle_type",
    "cycle_type_distribution",
    "ensemble_formula",
    "ensemble_sum",
    "enumerate_coset_specs",
    "enumerate_monic",
    "enumerate_sn",
    "expected_binom_on_coset",
    "factor",
    "format_field_spec",
    "format_poly",
    "make_field",
    "multi_indices_up_to",
    "necklace_count",
    "necklace_sums",
    "parse_field_spec",
    "parse_poly",
    "parse_predicate",
    "partitions",
    "prime_power",
    "run_all",
    "sn_expectation_closed",
]


def test_all_is_pinned():
    assert sorted(orbitstat.__all__) == PUBLIC


def test_all_has_no_duplicates():
    assert len(set(orbitstat.__all__)) == len(orbitstat.__all__)


def test_every_public_name_resolves():
    for name in orbitstat.__all__:
        assert getattr(orbitstat, name) is not None, name
