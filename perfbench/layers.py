"""Per-layer metrics from a cProfile run, grouped by orbitstat module.

Self time goes to the module whose source defines the code object.  Builtins
and code outside orbitstat and `fractions` go to `other`.  Methods that
`dataclasses` generates (`__init__`, `__eq__`, `__hash__`, ...) are compiled
from a string, so their code objects name no file; they are matched to the
class that owns them, and so to its module.  Without that, the `FieldElement`
and `FieldCtx` hashes inside `Poly.__hash__` would land in `other`.
"""

from __future__ import annotations

import inspect
import os
import sys

MODULES = (
    "finite_field",
    "polynomial",
    "division_algebra",
    "frobenius_stats",
    "charpoly",
    "fractions",
    "symmetric",
    "young_stats",
    "verify",
    "cli",
    "other",
)

_ELEM_OPS = tuple(
    f"FieldElement.{name}"
    for name in (
        "__add__",
        "__sub__",
        "__rsub__",
        "__neg__",
        "__mul__",
        "__truediv__",
        "__rtruediv__",
        "__pow__",
        "inverse",
    )
)

# metric -> (module, qualified names, what to sum: call counts or cumulative s)
NAMED = {
    "finite_field.elem_ops": ("finite_field", _ELEM_OPS, "calls"),
    "polynomial.poly_mul": ("polynomial", ("Poly.__mul__",), "calls"),
    "polynomial.poly_hash": ("polynomial", ("Poly.__hash__",), "calls"),
    "polynomial.poly_divmod": ("polynomial", ("Poly.__divmod__",), "calls"),
    "polynomial.factor_calls": ("polynomial", ("factor",), "calls"),
    "polynomial.factor_s": ("polynomial", ("factor",), "cumulative"),
    "polynomial.sieve_s": (
        "polynomial",
        ("count_irreducibles", "enumerate_irreducibles"),
        "cumulative",
    ),
    "division_algebra.symbol_mul": ("division_algebra", ("SymbolSum.mul",), "calls"),
    "frobenius_stats.chi_formula_s": (
        "frobenius_stats",
        ("chi_formula", "chi_of_f"),
        "cumulative",
    ),
    "frobenius_stats.chi_oracle_s": ("frobenius_stats", ("chi_oracle",), "cumulative"),
    "frobenius_stats.ensemble_sum_s": (
        "frobenius_stats",
        ("ensemble_sum",),
        "cumulative",
    ),
    "charpoly.nilseries_mul": ("charpoly", ("NilSeries.__mul__",), "calls"),
    "fractions.new": ("fractions", ("Fraction.__new__",), "calls"),
    "symmetric.perm_mul": ("symmetric", ("Permutation.__mul__",), "calls"),
    "young_stats.histogram_s": ("young_stats", ("coset_histogram",), "cumulative"),
}


def _generated_owners() -> dict[int, str]:
    """id(code) -> module, for functions of orbitstat classes compiled from
    a string rather than read from a source file."""
    owners = {}
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("orbitstat.") or module is None:
            continue
        short = modname.rsplit(".", 1)[1]
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != modname:
                continue
            for attr in vars(cls).values():
                func = inspect.unwrap(attr) if callable(attr) else None
                code = getattr(func, "__code__", None)
                if code is not None and not os.path.isabs(code.co_filename):
                    owners[id(code)] = short
    return owners


def _module_of(code, owners: dict[int, str]) -> str:
    if isinstance(code, str):  # a builtin
        return "other"
    if id(code) in owners:
        return owners[id(code)]
    head, name = os.path.split(code.co_filename)
    stem = name[:-3] if name.endswith(".py") else name
    if os.path.basename(head) == "orbitstat" or stem == "fractions":
        return stem if stem in MODULES else "other"
    return "other"


def aggregate(entries, traced_wall_s: float) -> dict[str, float]:
    """Self time per module, the NAMED counters and totals, and the share of
    the traced wall time that the module self times account for."""
    owners = _generated_owners()
    out = {f"{m}.self_s": 0.0 for m in MODULES}
    out.update({name: 0 if kind == "calls" else 0.0 for name, (_, _, kind) in NAMED.items()})
    wanted = {}
    for name, (module, qualnames, kind) in NAMED.items():
        for qualname in qualnames:
            wanted.setdefault((module, qualname), []).append((name, kind))
    for entry in entries:
        module = _module_of(entry.code, owners)
        out[f"{module}.self_s"] += entry.inlinetime
        if isinstance(entry.code, str):
            continue
        for name, kind in wanted.get((module, entry.code.co_qualname), ()):
            out[name] += entry.callcount if kind == "calls" else entry.totaltime
    out["trace.wall_s"] = traced_wall_s
    out["trace.accounted"] = sum(out[f"{m}.self_s"] for m in MODULES) / traced_wall_s
    return out
