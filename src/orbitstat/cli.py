"""Command line front end.

Subcommands:

* factor    factor a polynomial and show its block structure
* necklace  irreducible counts and the weighted count identity
* eval      coset statistics of one polynomial (formula, symbolic, oracle)
* ensemble  accumulate a statistic over all monic polynomials of a degree,
            by counting factorization types
* young     closed-form and enumerated statistics of a block coset
* verify    run the cross-validation battery

All quantities are exact rationals; text output appends a 6-place decimal for
non-integers and JSON carries numerator and denominator.  Output is byte
identical from run to run unless --timing is given.  Exit status is 0 on
success, 1 on errors or on any disagreement between routes.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import sys
import time
from fractions import Fraction

from .charpoly import CharPoly
from .finite_field import format_field_spec, parse_field_spec
from .frobenius_stats import (
    DEFAULT_ENUM_CAP,
    DEFAULT_TERM_CAP,
    block_spec,
    chi_formula,
    chi_oracle,
    chi_symbolic,
    ensemble_formula,
    parse_predicate,
)
from .polynomial import (
    ENUMERATION_LIMIT,
    check_sieve_size,
    count_irreducibles,
    factor,
    format_poly,
    necklace_check,
    parse_poly,
)
from .symmetric import DEFAULT_GROUP_CAP, CosetSpec, MultiIndex
from .verify import CHECK_NAMES, run_all
from .young_stats import (
    class_count,
    coset_histogram,
    cycle_type_distribution,
    expected_binom_on_coset,
)


def _decimal6(fr: Fraction) -> str:
    """Round-half-up 6-place decimal, in integer arithmetic."""
    sign = "-" if fr < 0 else ""
    a = abs(fr)
    scaled = (a.numerator * 10 ** 6 + a.denominator // 2) // a.denominator
    digits = f"{scaled:07d}"
    return f"{sign}{digits[:-6]}.{digits[-6:]}"


def _exact_text(fr: Fraction) -> str:
    if fr.denominator == 1:
        return str(fr.numerator)
    return f"{fr} ({_decimal6(fr)})"


def _frac_text(value, name: str) -> str:
    return _printed(Fraction(value), f"{name} needs an integer of", _exact_text)


def _frac_json(value) -> dict:
    fr = Fraction(value)
    return {"num": fr.numerator, "den": fr.denominator, "decimal": _decimal6(fr)}


def _ctx(args):
    spec = f"q={args.q}"
    if args.mod:
        spec += f";mod={args.mod}"
    return parse_field_spec(spec)


def _printed(value, subject: str, show=str) -> str:
    """show(value), or a one-line error when an integer in it has more digits
    than Python prints; subject names the value, e.g. "order_h has"."""
    try:
        return show(value)
    except ValueError:
        raise ValueError(
            f"{subject} more than {sys.get_int_max_str_digits()} digits, "
            "Python's limit for printing an integer, which no flag raises"
        ) from None


def _stat(args) -> tuple[CharPoly, str]:
    """The statistic of --mu or --stat and its text, printed before any route
    runs, so that a statistic too long to print fails fast."""
    if args.mu is not None:
        P = CharPoly.binom(MultiIndex.parse(args.mu))
    else:
        P = CharPoly.parse(args.stat)
    return P, _printed(P, f"the statistic {args.stat or args.mu} has a coefficient of")


def _add_values(lines, payload, values: dict[str, Fraction]) -> None:
    payload["values"] = {}
    for name, val in values.items():
        lines.append(f"{name} = {_frac_text(val, name)}")
        payload["values"][name] = _frac_json(val)


def _agree(lines, payload, same: bool) -> int:
    """Record whether the formula and the oracle agree (--method both); the
    exit code is 1 when they do not."""
    lines.append(f"agree = {'yes' if same else 'NO'}")
    payload["agree"] = same
    return 0 if same else 1


# ---------------------------------------------------------------------------
# Handlers: each returns (exit_code, json_payload, text_lines)
# ---------------------------------------------------------------------------

def cmd_factor(args):
    ctx = _ctx(args)
    f = parse_poly(args.poly, ctx)
    fac = factor(f)
    spec = fac.spec
    lines = [
        f"field = {format_field_spec(ctx)}",
        f"f = {format_poly(f)}",
        f"factorization = {fac}",
    ]
    for p, r in fac.factors:
        lines.append(f"  {format_poly(p)}  degree={p.degree} multiplicity={r}")
    lines.append(f"blocks = {spec}")
    lines.append(f"squarefree = {'yes' if fac.is_squarefree else 'no'}")
    payload = {
        "field": format_field_spec(ctx),
        "f": format_poly(f),
        "unit": ctx.element_text(fac.unit),
        "factors": [
            {"poly": format_poly(p), "degree": p.degree, "multiplicity": r}
            for p, r in fac.factors
        ],
        "blocks": str(spec),
        "squarefree": fac.is_squarefree,
    }
    return 0, payload, lines


def cmd_necklace(args):
    if args.kmax < 1:
        raise ValueError(f"--kmax must be >= 1, got {args.kmax}")
    ctx = _ctx(args)
    # the first degree past the sieve limit would end the run, so it is
    # refused before any degree below it is sieved
    k = 1
    while k < args.kmax and ctx.q ** k <= ENUMERATION_LIMIT:
        k += 1
    check_sieve_size(k, ctx)
    count_irreducibles(args.kmax, ctx)  # the top degree first: one sieve a halving
    rows = []
    lines = [f"field = {format_field_spec(ctx)}"]
    all_ok = True
    for k in range(1, args.kmax + 1):
        res = necklace_check(k, ctx)
        ok = res.equal
        all_ok = all_ok and ok
        rows.append(
            {"k": k, "weighted_sum": res.lhs, "q_pow_k": res.rhs, "ok": ok}
        )
        lines.append(
            f"k={k} weighted_sum={res.lhs} q^k={res.rhs} {'ok' if ok else 'FAIL'}"
        )
    lines.append("identity = " + ("ok" if all_ok else "FAIL"))
    payload = {"field": format_field_spec(ctx), "rows": rows, "all_ok": all_ok}
    return (0 if all_ok else 1), payload, lines


def cmd_eval(args):
    ctx = _ctx(args)
    f = parse_poly(args.poly, ctx)
    P, stat_text = _stat(args)
    values: dict[str, Fraction] = {}
    if args.method != "symbolic":  # formula and oracle share one factorization
        spec = block_spec(f)
    if args.method in ("formula", "both"):
        values["formula"] = chi_formula(spec, P)
    if args.method == "symbolic":
        values["symbolic"] = chi_symbolic(f, P, args.cap_terms)
    if args.method in ("oracle", "both"):
        values["oracle"] = chi_oracle(spec, P, args.cap_group)
    lines = [
        f"field = {format_field_spec(ctx)}",
        f"f = {format_poly(f)}",
        f"stat = {stat_text}",
    ]
    payload = {
        "field": format_field_spec(ctx),
        "f": format_poly(f),
        "stat": stat_text,
    }
    _add_values(lines, payload, values)
    code = 0
    if args.method == "both":
        code = _agree(lines, payload, values["formula"] == values["oracle"])
    return code, payload, lines


def cmd_ensemble(args):
    ctx = _ctx(args)
    P, stat_text = _stat(args)
    predicate = parse_predicate(args.filter)
    total, count = ensemble_formula(args.d, ctx, P, predicate, cap=args.cap_enum)
    scaled = Fraction(total) / ctx.q ** args.d
    lines = [
        f"field = {format_field_spec(ctx)}",
        f"d = {args.d}",
        f"stat = {stat_text}",
        f"filter = {args.filter}",
        f"sum = {_frac_text(total, 'sum')}",
        f"count = {count}",
    ]
    payload = {
        "field": format_field_spec(ctx),
        "d": args.d,
        "stat": stat_text,
        "filter": args.filter,
        "sum": _frac_json(total),
        "count": count,
    }
    if count:
        mean = Fraction(total) / count
        lines.append(f"mean = {_frac_text(mean, 'mean')}")
        payload["mean"] = _frac_json(mean)
    else:
        lines.append("mean = n/a")
        payload["mean"] = None
    lines.append(f"scaled = {_frac_text(scaled, 'scaled')}")
    payload["scaled"] = _frac_json(scaled)
    return 0, payload, lines


def cmd_young(args):
    spec = CosetSpec.parse(args.blocks)
    order_h = spec.order_h()
    order_text = _printed(order_h, "order_h has")
    lines = [f"blocks = {spec}", f"n = {spec.n}", f"order_h = {order_text}"]
    payload = {"blocks": str(spec), "n": spec.n, "order_h": order_h}
    if args.histogram:
        if args.method == "oracle":
            hist = coset_histogram(spec, args.cap_group)
        else:
            hist = cycle_type_distribution(spec)
        payload["histogram"] = []
        # the same order as MultiIndex's generated comparison, which is slow
        for ct in sorted(hist, key=operator.attrgetter("entries")):
            text, count = str(ct), hist[ct]
            lines.append(f"{text}  {count}")
            payload["histogram"].append({"cycle_type": text, "count": count})
        code = 0
        if args.method == "both":
            code = _agree(lines, payload, hist == coset_histogram(spec, args.cap_group))
        return code, payload, lines
    mu = MultiIndex.parse(args.mu)
    lines.append(f"mu = {mu}")
    payload["mu"] = str(mu)
    values: dict[str, Fraction] = {}
    counted = mu.norm == spec.n
    if counted or args.method in ("formula", "both"):
        formula = expected_binom_on_coset(spec, mu)
    if args.method in ("formula", "both"):
        values["formula"] = formula
    if args.method in ("oracle", "both"):
        values["oracle"] = chi_oracle(spec, CharPoly.binom(mu), args.cap_group)
    _add_values(lines, payload, values)
    code = 0
    if args.method == "both":
        code = _agree(lines, payload, values["formula"] == values["oracle"])
    if counted:
        cnt = class_count(spec, mu, formula)
        lines.append(f"class_count = {cnt}")
        payload["class_count"] = cnt
    return code, payload, lines


def cmd_verify(args):
    names = CHECK_NAMES if args.checks == "all" else tuple(args.checks.split(","))
    results = run_all(quick=args.quick, names=names)
    lines = [str(r) for r in results]
    failures = sum(1 for r in results if not r.ok)
    lines.append("all ok" if failures == 0 else f"{failures} check(s) failed")
    payload = {
        "checks": [
            {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
        ],
        "all_ok": failures == 0,
    }
    return (0 if failures == 0 else 1), payload, lines


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p, field=True):
    if field:
        p.add_argument(
            "--q",
            required=True,
            help="field size: a prime, p^e, or a prime power like 8",
        )
        p.add_argument(
            "--mod",
            help="modulus coefficients [c0,...,1], constant first (extensions only)",
        )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument(
        "--timing",
        action="store_true",
        help="append elapsed wall time (omitted by default for reproducible output)",
    )


def _add_stat_group(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--mu", help="cycle-count multi-index, e.g. 2:1 or 1:2,3:1")
    g.add_argument("--stat", help="statistic expression, e.g. 'X1 + 2*binom(2:1)'")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="orbitstat",
        description="Exact cycle statistics of polynomial factorizations "
        "over finite fields.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor a polynomial")
    p.add_argument("poly", help="polynomial, e.g. 't^4+t' or '[0,1,0,0,1]'")
    _add_common(p)

    p = sub.add_parser("necklace", help="irreducible counts and the count identity")
    p.add_argument("--kmax", type=int, default=8, help="largest degree checked")
    _add_common(p)

    p = sub.add_parser("eval", help="coset statistics of one polynomial")
    p.add_argument("poly", help="monic polynomial")
    _add_stat_group(p)
    p.add_argument(
        "--method",
        choices=("formula", "symbolic", "oracle", "both"),
        default="formula",
        help="both compares formula against oracle and fails on disagreement",
    )
    p.add_argument("--cap-group", type=int, default=DEFAULT_GROUP_CAP)
    p.add_argument("--cap-terms", type=int, default=DEFAULT_TERM_CAP)
    _add_common(p)

    p = sub.add_parser("ensemble", help="sum a statistic over monic polynomials")
    p.add_argument("--d", type=int, required=True, help="degree of the ensemble")
    _add_stat_group(p)
    p.add_argument(
        "--filter",
        default="all",
        help="all, squarefree, or maxmult=m",
    )
    p.add_argument(
        "--cap-enum",
        type=int,
        default=DEFAULT_ENUM_CAP,
        help="largest number of factorization types (block multisets) of degree d",
    )
    _add_common(p)

    p = sub.add_parser("young", help="statistics of a block coset")
    p.add_argument("--blocks", required=True, help="block spec, e.g. 1^2,2^1")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--mu", help="cycle-count multi-index")
    g.add_argument(
        "--histogram",
        action="store_true",
        help="cycle-type histogram of the coset (formula: block product, "
        "oracle: enumeration)",
    )
    p.add_argument(
        "--method",
        choices=("formula", "oracle", "both"),
        default="formula",
        help="both compares formula against oracle and fails on disagreement",
    )
    p.add_argument("--cap-group", type=int, default=DEFAULT_GROUP_CAP)
    _add_common(p, field=False)

    p = sub.add_parser("verify", help="run the cross-validation battery")
    p.add_argument("--quick", action="store_true", help="reduced scales")
    p.add_argument(
        "--checks",
        default="all",
        help="comma-separated check names, or all: " + ", ".join(CHECK_NAMES),
    )
    _add_common(p, field=False)

    return ap


_HANDLERS = {
    "factor": cmd_factor,
    "necklace": cmd_necklace,
    "eval": cmd_eval,
    "ensemble": cmd_ensemble,
    "young": cmd_young,
    "verify": cmd_verify,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once: parse_args returns a fresh Namespace and
    leaves the parser unchanged, so one parser serves every call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        code, payload, lines = _HANDLERS[args.command](args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.timing:
        elapsed = time.perf_counter() - t0
        payload["elapsed_s"] = round(elapsed, 3)
        lines.append(f"elapsed = {elapsed:.3f}s")
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
