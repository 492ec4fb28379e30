"""Command line front end.

Subcommands:

* factor    factor a polynomial and show its block structure
* necklace  irreducible counts and the weighted count identity
* eval      coset statistics of one polynomial (formula, symbolic, oracle)
* ensemble  accumulate a statistic over all monic polynomials of a degree,
            by the Euler product over the irreducibles
* young     closed-form and enumerated statistics of a block coset
* verify    run the cross-validation battery

All quantities are exact rationals; text output appends a 6-place decimal for
non-integers and JSON carries numerator and denominator.  Output is byte
identical from run to run unless --timing is given.  Exit status is 0 on
success, 1 on errors or on any disagreement between routes, and 2 on a
malformed command line, which argparse ends with a usage line.

Each command has its own parser, built from one table (_COMMANDS) on first
use, and a well-formed command line runs only that parser.  The whole tree,
built from the same table, answers the rest (no arguments, -h, an unknown
command, leftover arguments) in its own words.

Each handler writes every `key = value` field once, through _put (or
_put_frac for a rational), which adds it to the text lines and to the JSON
payload together, so the two formats list the same fields in one order.
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
from .errors import CapExceeded, _shown, prints, read_int
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
    """Round-half-up 6-place decimal, in integer arithmetic; the whole part
    has no more digits than the value, so it prints whenever the value does."""
    sign = "-" if fr < 0 else ""
    a = abs(fr)
    scaled = (a.numerator * 10 ** 6 + a.denominator // 2) // a.denominator
    whole, places = divmod(scaled, 10 ** 6)
    return f"{sign}{whole}.{places:06d}"


def _exact_text(fr: Fraction) -> str:
    if fr.denominator == 1:
        return str(fr.numerator)
    return f"{fr} ({_decimal6(fr)})"


def _ctx(args):
    spec = f"q={args.q}"
    if args.mod:
        spec += f";mod={args.mod}"
    return parse_field_spec(spec)


def _printed(value, subject: str, show=str, ints=()) -> str:
    """show(value), or a one-line error when an integer in it has more digits
    than Python prints; subject names the value, e.g. "order_h has".  The
    integers of ints are tested first, by errors.prints, so that a value
    holding one too long fails before any of it is formatted."""
    try:
        if all(map(prints, ints)):
            return show(value)
    except ValueError:
        pass
    raise ValueError(
        f"{subject} more than {sys.get_int_max_str_digits()} digits, "
        "Python's limit for printing an integer, which no flag raises"
    )


def _stat(args) -> tuple[CharPoly, str]:
    """The statistic of --mu or --stat and its text, printed before any route
    runs, so that a statistic too long to print fails fast."""
    if args.mu is not None:
        P = CharPoly.binom(MultiIndex.parse(args.mu))
    else:
        P = CharPoly.parse(args.stat)
    subject = f"the statistic {args.stat or args.mu} has a coefficient of"
    ints = [n for c in P.terms.values() for n in (c.numerator, c.denominator)]
    return P, _printed(P, subject, ints=ints)


def _put(lines: list, payload: dict, key: str, value, text=None) -> None:
    """Write one reported field: value to the JSON payload under key, and
    `key = text` to the text lines, text defaulting to str(value)."""
    lines.append(f"{key} = {value if text is None else text}")
    payload[key] = value


def _put_frac(lines: list, payload: dict, key: str, value) -> None:
    """_put of an exact rational: numerator, denominator and decimal in the
    JSON, _exact_text in the text, made first, so that a value too long to
    print fails by name."""
    fr = Fraction(value)
    text = _printed(fr, f"{key} needs an integer of", _exact_text)
    json_value = {"num": fr.numerator, "den": fr.denominator, "decimal": _decimal6(fr)}
    _put(lines, payload, key, json_value, text)


def _add_values(lines, payload, values: dict[str, Fraction]) -> int:
    """Write the values of the routes run; with --method both, formula and
    oracle, also whether they agree, the exit code being 1 when they do not."""
    payload["values"] = {}
    for name, val in values.items():
        _put_frac(lines, payload["values"], name, val)
    if "formula" in values and "oracle" in values:
        return _agree(lines, payload, values["formula"] == values["oracle"])
    return 0


def _agree(lines, payload, same: bool) -> int:
    """Record whether the formula and the oracle agree (--method both); the
    exit code is 1 when they do not."""
    _put(lines, payload, "agree", same, "yes" if same else "NO")
    return 0 if same else 1


# ---------------------------------------------------------------------------
# Handlers: each returns (exit_code, json_payload, text_lines)
# ---------------------------------------------------------------------------

def cmd_factor(args):
    ctx = _ctx(args)
    f = parse_poly(args.poly, ctx)
    fac = factor(f)
    lines, payload = [], {}
    _put(lines, payload, "field", format_field_spec(ctx))
    _put(lines, payload, "f", format_poly(f))
    lines.append(f"factorization = {fac}")
    payload["unit"] = ctx.element_text(fac.unit)
    payload["factors"] = []
    for p, r in fac.factors:
        lines.append(f"  {format_poly(p)}  degree={p.degree} multiplicity={r}")
        payload["factors"].append(
            {"poly": format_poly(p), "degree": p.degree, "multiplicity": r}
        )
    _put(lines, payload, "blocks", str(fac.spec))
    sqf = fac.is_squarefree
    _put(lines, payload, "squarefree", sqf, "yes" if sqf else "no")
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
    lines, payload = [], {}
    _put(lines, payload, "field", format_field_spec(ctx))
    rows = payload["rows"] = []
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
    payload["all_ok"] = all_ok
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
    lines, payload = [], {}
    _put(lines, payload, "field", format_field_spec(ctx))
    _put(lines, payload, "f", format_poly(f))
    _put(lines, payload, "stat", stat_text)
    return _add_values(lines, payload, values), payload, lines


def cmd_ensemble(args):
    ctx = _ctx(args)
    P, stat_text = _stat(args)
    maxmult = parse_predicate(args.filter)
    total, count = ensemble_formula(args.d, ctx, P, maxmult, cap=args.cap_enum)
    lines, payload = [], {}
    _put(lines, payload, "field", format_field_spec(ctx))
    _put(lines, payload, "d", args.d)
    _put(lines, payload, "stat", stat_text)
    _put(lines, payload, "filter", args.filter)
    _put_frac(lines, payload, "sum", total)
    _put(lines, payload, "count", count, _printed(count, "count has"))
    # count is q^d, or q^d - q^(d-m) >= 1 once d > m: never 0
    _put_frac(lines, payload, "mean", Fraction(total) / count)
    _put_frac(lines, payload, "scaled", Fraction(total) / ctx.q ** args.d)
    return 0, payload, lines


def cmd_young(args):
    spec = CosetSpec.parse(args.blocks)
    order_h = spec.order_h()
    order_text = _printed(order_h, "order_h has")
    lines, payload = [], {}
    _put(lines, payload, "blocks", str(spec))
    _put(lines, payload, "n", spec.n)
    _put(lines, payload, "order_h", order_h, order_text)
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
    _put(lines, payload, "mu", str(mu))
    values: dict[str, Fraction] = {}
    counted = mu.norm == spec.n
    if counted or args.method in ("formula", "both"):
        formula = expected_binom_on_coset(spec, mu)
    if args.method in ("formula", "both"):
        values["formula"] = formula
    if args.method in ("oracle", "both"):
        values["oracle"] = chi_oracle(spec, CharPoly.binom(mu), args.cap_group)
    code = _add_values(lines, payload, values)
    if counted:
        _put(lines, payload, "class_count", class_count(spec, mu, formula))
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
# Parsers
# ---------------------------------------------------------------------------

def _int_flag(text: str) -> int:
    """An integer flag's value: a literal too long to read is read_int's
    line, naming the limit; any other bad one is type=int's words, shortened."""
    try:
        return read_int(text, text, "the value")
    except CapExceeded as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)!r}") from None


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


def _add_factor(p):
    p.add_argument("poly", help="polynomial, e.g. 't^4+t' or '[0,1,0,0,1]'")
    _add_common(p)


def _add_necklace(p):
    p.add_argument("--kmax", type=_int_flag, default=8, help="largest degree checked")
    _add_common(p)


def _add_eval(p):
    p.add_argument("poly", help="monic polynomial")
    _add_stat_group(p)
    p.add_argument(
        "--method",
        choices=("formula", "symbolic", "oracle", "both"),
        default="formula",
        help="both compares formula against oracle and fails on disagreement",
    )
    p.add_argument("--cap-group", type=_int_flag, default=DEFAULT_GROUP_CAP)
    p.add_argument("--cap-terms", type=_int_flag, default=DEFAULT_TERM_CAP)
    _add_common(p)


def _add_ensemble(p):
    p.add_argument("--d", type=_int_flag, required=True, help="degree of the ensemble")
    _add_stat_group(p)
    p.add_argument(
        "--filter",
        default="all",
        help="all, squarefree, or maxmult=m",
    )
    p.add_argument(
        "--cap-enum",
        type=_int_flag,
        default=DEFAULT_ENUM_CAP,
        help="largest number of steps of the ensemble series: coefficients built "
        "plus coefficient pairs multiplied, over the whole statistic",
    )
    _add_common(p)


def _add_young(p):
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
    p.add_argument("--cap-group", type=_int_flag, default=DEFAULT_GROUP_CAP)
    _add_common(p, field=False)


def _add_verify(p):
    p.add_argument("--quick", action="store_true", help="reduced scales")
    p.add_argument(
        "--checks",
        default="all",
        help="comma-separated check names, or all: " + ", ".join(CHECK_NAMES),
    )
    _add_common(p, field=False)


# name -> (handler, help, add_arguments), in the order that -h lists them
_COMMANDS = {
    "factor": (cmd_factor, "factor a polynomial", _add_factor),
    "necklace": (cmd_necklace, "irreducible counts and the count identity", _add_necklace),
    "eval": (cmd_eval, "coset statistics of one polynomial", _add_eval),
    "ensemble": (cmd_ensemble, "sum a statistic over monic polynomials", _add_ensemble),
    "young": (cmd_young, "statistics of a block coset", _add_young),
    "verify": (cmd_verify, "run the cross-validation battery", _add_verify),
}


def build_parser() -> argparse.ArgumentParser:
    """The whole tree: orbitstat and a subparser for each command."""
    ap = argparse.ArgumentParser(
        prog="orbitstat",
        description="Exact cycle statistics of polynomial factorizations "
        "over finite fields.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_text, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return ap


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, the same as the tree's subparser of that
    name, built on first use: parse_args returns a fresh Namespace and
    leaves the parser unchanged, so one parser serves every call."""
    p = argparse.ArgumentParser(prog=f"orbitstat {name}")
    _COMMANDS[name][2](p)
    p.set_defaults(command=name)
    return p


def _parse(argv: list[str]) -> argparse.Namespace:
    """The arguments of argv, the tree's Namespace.  A command line that
    starts with a command's name goes to that command's parser alone.  The
    whole tree answers the rest (no arguments, -h, an unknown command) and
    reports what the command's parser left over, so that each usage line
    and error reads as the tree writes it."""
    if argv and argv[0] in _COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    t0 = time.perf_counter()
    try:
        code, payload, lines = _COMMANDS[args.command][0](args)
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
