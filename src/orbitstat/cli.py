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

Each command's _add_* function declares its flags once.  Passed a _Table in
place of an ArgumentParser, it records the command's argument table, from
which a well-formed command line is read directly; no parser is built.  The
whole tree, built by argparse from the same functions, reads every other
line (no arguments, -h, an unknown command, an abbreviation, a value that
starts with -, a bad value, leftover arguments), so argparse writes every
usage line, help text and error.

Each handler writes every `key = value` field once, through _put (or
_put_frac for a rational), which adds it to the text lines and to the JSON
payload together, so the two formats list the same fields in one order.
"""

from __future__ import annotations

import functools
import json
import operator
import sys
import time
import types
from fractions import Fraction

from .charpoly import CharPoly
from .errors import CapExceeded, _shown, prints, read_int, unprintable
from .finite_field import field_from_flags, format_field_spec
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
from .polynomial import factor, format_poly, necklace_sums, parse_poly
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


def _exact_text(fr: Fraction) -> tuple[str, str]:
    """The text of an exact rational, its _decimal6 after it unless it is an
    integer, and that decimal, made once for the text and the JSON."""
    decimal = _decimal6(fr)
    return (str(fr.numerator) if fr.denominator == 1 else f"{fr} ({decimal})"), decimal


def _ctx(args):
    return field_from_flags(args.q, args.mod or None)


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
    raise unprintable(subject)


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
    text, decimal = _printed(fr, f"{key} needs an integer of", _exact_text)
    json_value = {"num": fr.numerator, "den": fr.denominator, "decimal": decimal}
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
    lines, payload = [], {}
    _put(lines, payload, "field", format_field_spec(ctx))
    rows = payload["rows"] = []
    all_ok = True
    for k, lhs in enumerate(necklace_sums(args.kmax, ctx), 1):
        rhs = ctx.q ** k
        ok = lhs == rhs
        all_ok = all_ok and ok
        rows.append({"k": k, "weighted_sum": lhs, "q_pow_k": rhs, "ok": ok})
        lines.append(f"k={k} weighted_sum={lhs} q^k={rhs} {'ok' if ok else 'FAIL'}")
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
    if not spec.order_h_prints():
        raise unprintable("order_h has")
    lines, payload = [], {}
    _put(lines, payload, "blocks", str(spec))
    _put(lines, payload, "n", spec.n)
    _put(lines, payload, "order_h", spec.order_h())
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
    line, naming the limit; any other bad one is type=int's words, shortened.
    argparse is imported only to word such an error or to build the tree."""
    try:
        return read_int(text, text, "the value")
    except CapExceeded as exc:
        words = str(exc)
    except ValueError:
        words = f"invalid int value: {_shown(text)!r}"
    import argparse

    raise argparse.ArgumentTypeError(words)


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


def build_parser():
    """The whole tree, an argparse.ArgumentParser: orbitstat and a subparser
    for each command.  argparse strips the value of --flag=--, leaving an
    empty list; each subparser's default action refuses it with the words of
    a missing value."""
    import argparse

    class Store(argparse.Action):
        def __call__(self, parser, namespace, values, option_string=None):
            if values == []:
                raise argparse.ArgumentError(self, "expected one argument")
            setattr(namespace, self.dest, values)

    ap = argparse.ArgumentParser(
        prog="orbitstat",
        description="Exact cycle statistics of polynomial factorizations "
        "over finite fields.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_text, add_arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.register("action", None, Store)
        add_arguments(p)
    return ap


class _Table:
    """The argument table of one command, recorded by its _add_* function in
    place of an ArgumentParser: each option string's (dest, type, choices,
    takes_value), the positionals in order, the defaults, the dests that must
    be given and the mutually exclusive groups.  An add_argument keyword or
    action that it does not model is a TypeError, so that a new kind of flag
    fails instead of being misread."""

    def __init__(self):
        self.options, self.positionals, self.defaults = {}, [], {}
        self.required, self.groups = set(), []

    def add_argument(self, name, *, action=None, type=str, choices=None,
                     default=None, required=False, help=None):
        if action not in (None, "store_true"):
            raise TypeError(f"the argument table does not model action={action!r}")
        dest = name.lstrip("-").replace("-", "_")
        self.defaults[dest] = False if action else default
        spec = (dest, type, choices, not action)
        if name.startswith("-"):
            self.options[name] = spec
        else:
            self.positionals.append(spec)
            required = True
        if required:
            self.required.add(dest)
        return dest

    def add_mutually_exclusive_group(self, required=False):
        dests = set()
        self.groups.append((dests, required))
        return types.SimpleNamespace(
            add_argument=lambda *a, **kw: dests.add(self.add_argument(*a, **kw))
        )


@functools.cache
def _table(name: str) -> _Table:
    table = _Table()
    _COMMANDS[name][2](table)
    return table


def _read(argv: list[str]):
    """The arguments of a well-formed command line, read from its command's
    table as argparse reads them, or None for any other line: an unknown or
    abbreviated option, -h, --, a value that starts with -, a bad type or
    choice, a leftover token, a missing flag or two of one group."""
    table = _table(argv[0])
    values = dict(table.defaults, command=argv[0])
    seen = set()
    positionals = iter(table.positionals)
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            name, eq, text = token.partition("=")
            spec = table.options.get(name)
            # argparse drops a value "--", and refuses one given to a bare flag
            if spec is None or text == "--" or (eq and not spec[3]):
                return None
            if spec[3] and not eq:
                text = next(tokens, "-")
                if text.startswith("-"):
                    return None
        else:
            spec, text = next(positionals, None), token
            if spec is None:
                return None
        dest, convert, choices, takes_value = spec
        try:
            value = convert(text) if takes_value else True
        except Exception:  # the tree converts it again and words the error
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        seen.add(dest)
    if not table.required <= seen or any(
        len(dests & seen) > 1 or (required and not dests & seen)
        for dests, required in table.groups
    ):
        return None
    return types.SimpleNamespace(**values)


def _parse(argv: list[str]):
    """The arguments of argv, as attributes: a well-formed command line is
    read from its command's table, and the whole tree answers the rest, so
    that argparse writes every usage line, help text and error."""
    if argv and argv[0] in _COMMANDS and (args := _read(argv)) is not None:
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
