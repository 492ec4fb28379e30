"""Exact cycle statistics of polynomial factorizations over finite fields.

The factorization type of a monic polynomial singles out a coset in a
symmetric group, and averages of cycle-counting statistics over that coset
admit closed forms as products over the blocks of the factorization.  This
package computes both sides exactly, in rational arithmetic, together with
the polynomial-ensemble averages and the supporting algebra: finite fields,
polynomial factorization, irreducible enumeration, symmetric-group
combinatorics, and divisibility symbols.

Everything is deterministic and validated against brute-force enumeration;
see the verify module and the command line tool of the same name.
"""

from .charpoly import (
    CharPoly,
    binom_eval,
    g_series_identity_check,
    sn_expectation_closed,
)
from .division_algebra import (
    DEFAULT_TERM_CAP,
    SymbolSum,
    expectation_epsilon,
    expectation_epsilon_oracle,
    lambda_map,
)
from .errors import CapExceeded
from .finite_field import (
    FieldCtx,
    format_field_spec,
    make_field,
    parse_field_spec,
    prime_power,
)
from .frobenius_stats import (
    DEFAULT_ENUM_CAP,
    EqualExpectationReport,
    SigmaStructure,
    chi_formula,
    chi_of_f,
    chi_oracle,
    ensemble_formula,
    ensemble_sum,
    equal_expectation_check,
    parse_predicate,
    sigma_structure,
    xk_of_f,
)
from .polynomial import (
    ENUMERATION_LIMIT,
    Factorization,
    Poly,
    count_irreducibles,
    enumerate_irreducibles,
    enumerate_monic,
    factor,
    format_poly,
    is_irreducible,
    necklace_check,
    necklace_count,
    parse_poly,
    poly_gcd,
)
from .symmetric import (
    DEFAULT_GROUP_CAP,
    CosetSpec,
    MultiIndex,
    Permutation,
    cycle_type,
    enumerate_sn,
    m_projection,
    multi_indices_up_to,
    partitions,
)
from .verify import CHECK_NAMES, CheckResult, enumerate_coset_specs, run_all
from .young_stats import (
    coset_bruteforce,
    coset_histogram,
    count_cycle_type_in_coset,
    cycle_type_distribution,
    expected_binom_on_coset,
)

__version__ = "1.0.0"

__all__ = [
    "CapExceeded",
    "CharPoly",
    "CheckResult",
    "CosetSpec",
    "CHECK_NAMES",
    "DEFAULT_ENUM_CAP",
    "DEFAULT_GROUP_CAP",
    "DEFAULT_TERM_CAP",
    "ENUMERATION_LIMIT",
    "EqualExpectationReport",
    "Factorization",
    "FieldCtx",
    "MultiIndex",
    "Permutation",
    "Poly",
    "SigmaStructure",
    "SymbolSum",
    "binom_eval",
    "chi_formula",
    "chi_of_f",
    "chi_oracle",
    "coset_bruteforce",
    "coset_histogram",
    "count_cycle_type_in_coset",
    "count_irreducibles",
    "cycle_type",
    "cycle_type_distribution",
    "ensemble_formula",
    "ensemble_sum",
    "enumerate_coset_specs",
    "enumerate_irreducibles",
    "enumerate_monic",
    "enumerate_sn",
    "equal_expectation_check",
    "expectation_epsilon",
    "expectation_epsilon_oracle",
    "expected_binom_on_coset",
    "factor",
    "format_field_spec",
    "format_poly",
    "g_series_identity_check",
    "is_irreducible",
    "lambda_map",
    "m_projection",
    "make_field",
    "multi_indices_up_to",
    "necklace_check",
    "necklace_count",
    "parse_field_spec",
    "parse_poly",
    "parse_predicate",
    "partitions",
    "poly_gcd",
    "prime_power",
    "run_all",
    "sigma_structure",
    "sn_expectation_closed",
    "xk_of_f",
]
