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
    DEFAULT_TERM_CAP,
    block_spec,
    chi_formula,
    chi_oracle,
    chi_symbolic,
    ensemble_formula,
    ensemble_sum,
    parse_predicate,
    xk_of_f,
)
from .polynomial import (
    ENUMERATION_LIMIT,
    Factorization,
    Poly,
    count_irreducibles,
    enumerate_monic,
    factor,
    format_poly,
    necklace_check,
    necklace_count,
    parse_poly,
)
from .symmetric import (
    DEFAULT_GROUP_CAP,
    CosetSpec,
    MultiIndex,
    cycle_type,
    enumerate_sn,
    multi_indices_up_to,
    partitions,
)
from .verify import CHECK_NAMES, CheckResult, enumerate_coset_specs, run_all
from .young_stats import (
    coset_histogram,
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
    "g_series_identity_check",
    "make_field",
    "multi_indices_up_to",
    "necklace_check",
    "necklace_count",
    "parse_field_spec",
    "parse_poly",
    "parse_predicate",
    "partitions",
    "prime_power",
    "run_all",
    "sn_expectation_closed",
    "xk_of_f",
]
