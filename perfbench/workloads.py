"""The benchmark's four workloads: seeded orbitstat command lists, each command
paired with a check of its output that does not trust orbitstat.

A workload function takes a `random.Random` and returns the commands of one
pass plus a dict of facts about the stream.  The seed changes the inputs,
never their sizes: every seed runs the same classes of command (field,
degree, filter, statistic form, coset), and the seed draws the polynomials,
statistics and order inside each class.  Per-seed costs stay close, so the
spread between seeds measures the machine, not the draw.

Why each workload (see also BENCHMARK.json):

* routes   - chi-routes as a request stream: `eval --method symbolic` and
             `--method both` per draw.  Heaviest on finite_field, Poly
             multiply/hash and division_algebra; (q, mu) pairs repeat, so
             cross-request memoization would show here.
* ensemble - `ensemble` over every monic f of a degree plus
             `verify --quick --checks equal-expectation`: gcd, divmod and
             pow_mod inside `factor`, once per f; extension-field arithmetic
             at q = 4.  Counting factorization types would remove this work.
* coset    - `young` histograms, closed forms and `--method both` over
             cosets with |H| up to 25920, plus the coset verify checks.
             NilSeries, Fraction and permutation composition, and no field
             or polynomial code: the control workload for field and
             polynomial changes.
* fields   - `necklace` to depth and `factor` of polynomials built from
             known factors over q in {2, 4, 2^12, 65521}: the irreducible
             sieve and equal-degree splitting.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import fpoly


class Command(NamedTuple):
    argv: list[str]
    # check(stdouts, i) -> None if stdouts[i] is right, else the reason; it
    # may raise ValueError, KeyError or IndexError on unreadable output
    check: Callable[[list[str], int], Optional[str]]


def _lines(text: str) -> dict[str, str]:
    """The `key = value` lines of a text report."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def _value(text: str) -> Fraction:
    """An exact value as the CLI prints it: '1/2 (0.500000)' or '3'."""
    return Fraction(text.split(" (")[0])


def _mu_text(mu: dict[int, int]) -> str:
    return ",".join(f"{k}:{m}" for k, m in sorted(mu.items()) if m)


def _norm(mu: dict[int, int]) -> int:
    return sum(k * m for k, m in mu.items())


def _multi_indices(norm: int, smallest: int = 1) -> list[dict[int, int]]:
    """Every multi-index {k: m} with sum(k * m) == norm and all k >= smallest."""
    if norm == 0:
        return [{}]
    out = []
    for k in range(smallest, norm + 1):
        for m in range(1, norm // k + 1):
            for rest in _multi_indices(norm - k * m, k + 1):
                out.append({k: m, **rest})
    return out


def _random_mu(rng: random.Random, lo: int, hi: int) -> dict[int, int]:
    return rng.choice(_multi_indices(rng.randint(lo, hi)))


def _verify_check(names: tuple[str, ...]):
    def check(outs, i):
        lines = outs[i].splitlines()
        for name in names:
            if not any(line.startswith(f"[ok] {name}:") for line in lines):
                return f"verify did not report [ok] {name}"
        return None if lines and lines[-1] == "all ok" else "verify did not end with 'all ok'"

    return check


# ---------------------------------------------------------------------------
# routes
# ---------------------------------------------------------------------------

ROUTE_DEGREE_CAPS = {2: 6, 3: 4, 4: 4, 5: 3}


def _element_text(q: int, idx: int) -> str:
    if q == 4:  # its two coordinates over F_2, constant first
        return f"[{idx % 2},{idx // 2}]"
    return str(idx)


def _symbolic_matches_formula(outs, i):
    sym = _lines(outs[i - 1]).get("symbolic")
    got = _lines(outs[i])
    if got["agree"] != "yes" or _value(got["formula"]) != _value(got["oracle"]):
        return "formula and oracle routes disagree"
    if sym is None or _value(sym) != _value(got["formula"]):
        return f"symbolic {sym} != formula {got['formula']}"
    return None


def _symbolic_printed(outs, i):
    return None if "symbolic" in _lines(outs[i]) else "no symbolic value"


def routes(rng: random.Random):
    """One draw per (q, deg f, mu) class, 1 <= |mu| <= deg f <= the degree
    cap of q, in seeded order; f is a seeded monic polynomial with
    coefficients from all of F_q.  Each draw is sent as `--method symbolic`
    and then `--method both`."""
    classes = [
        (q, d, mu)
        for q, cap in ROUTE_DEGREE_CAPS.items()
        for d in range(1, cap + 1)
        for norm in range(1, d + 1)
        for mu in _multi_indices(norm)
    ]
    rng.shuffle(classes)
    commands, seen, repeats = [], set(), 0
    for q, d, mu in classes:
        coeffs = [_element_text(q, rng.randrange(q)) for _ in range(d)] + ["1"]
        base = ["eval", "--q", str(q), "[" + ",".join(coeffs) + "]", "--mu", _mu_text(mu)]
        commands.append(Command(base + ["--method", "symbolic"], _symbolic_printed))
        commands.append(Command(base + ["--method", "both"], _symbolic_matches_formula))
        key = (q, _mu_text(mu))
        repeats += key in seen
        seen.add(key)
    return commands, {"draws": len(classes), "repeat_share_q_mu": repeats / len(classes)}


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------

# (q, d, filter, statistic given as --mu or --stat): every q, every filter and
# both statistic forms in each pass, with the same cost in every seed.
ENSEMBLE_CELLS = (
    (2, 7, "all", "stat"),
    (2, 8, "squarefree", "mu"),
    (3, 4, "maxmult", "stat"),
    (3, 5, "all", "mu"),
    (4, 3, "maxmult", "mu"),
    (4, 4, "all", "stat"),
    (5, 3, "squarefree", "stat"),
    (5, 4, "all", "mu"),
)


def _mean_binom_all(mu: dict[int, int], d: int) -> Fraction:
    """Mean of binom(X, mu) over all monic f of degree d: the S_d mean."""
    if _norm(mu) > d:
        return Fraction(0)
    out = Fraction(1)
    for k, m in mu.items():
        out /= k ** m * math.factorial(m)
    return out


def _stirling2(n: int, k: int) -> int:
    return sum((-1) ** (k - j) * math.comb(k, j) * j ** n for j in range(k + 1)) // math.factorial(k)


def _mean_monomial_all(powers: dict[int, int], d: int) -> Fraction:
    """Mean of prod X_k^a_k, expanding X^a = sum_j S(a, j) j! binom(X, j)."""
    total = Fraction(0)
    choices = [[(k, j) for j in range(a + 1)] for k, a in powers.items()]
    for combo in itertools.product(*choices):
        weight = 1
        for (k, j) in combo:
            weight *= _stirling2(powers[k], j) * math.factorial(j)
        if weight:
            total += weight * _mean_binom_all({k: j for k, j in combo if j}, d)
    return total


def _random_coef(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 4))) * rng.choice((1, -1))


def _random_stat(rng: random.Random, d: int) -> tuple[str, Fraction]:
    """A three-term statistic c1*binom(mu) + c2*monomial + c3, as text, with
    its mean over all monic f of degree d."""
    mu = _random_mu(rng, 1, d + 1)
    powers = {}
    for _ in range(rng.randint(1, 2)):
        k = rng.randint(1, 3)
        powers[k] = powers.get(k, 0) + rng.randint(1, 2)
    c1, c2, c3 = (_random_coef(rng) for _ in range(3))
    terms = [
        (c1, f"binom({_mu_text(mu)})"),
        (c2, "*".join(f"X{k}^{a}" if a > 1 else f"X{k}" for k, a in sorted(powers.items()))),
        (c3, None),
    ]
    text = ""
    for c, body in terms:
        sign = "-" if c < 0 else ("+" if text else "")
        text += sign + (str(abs(c)) if body is None else f"{abs(c)}*{body}")
    mean = c1 * _mean_binom_all(mu, d) + c2 * _mean_monomial_all(powers, d) + c3
    return text, mean


def _ensemble_check(q: int, d: int, filt: str, mean: Optional[Fraction]):
    if filt == "all":
        count = q ** d
    else:
        m = 1 if filt == "squarefree" else int(filt.split("=")[1])
        count = q ** d - q ** (d - m) if d > m else q ** d

    def check(outs, i):
        got = _lines(outs[i])
        if got.get("count") != str(count):
            return f"count {got.get('count')} != {count}"
        total = _value(got["sum"])
        if _value(got["mean"]) != total / count:
            return f"mean {got['mean']} != sum / count"
        scaled = _value(got["scaled"])
        if scaled != total / q ** d or (mean is not None and scaled != mean):
            return f"scaled {got['scaled']} is not sum / q^d = {mean}"
        return None

    return check


def ensemble(rng: random.Random):
    commands = []
    for q, d, filt, form in ENSEMBLE_CELLS:
        if filt == "maxmult":
            filt = f"maxmult={rng.randint(2, 3)}"
        if form == "mu":
            mu = _random_mu(rng, 1, d + 1)
            stat, mean = ["--mu", _mu_text(mu)], _mean_binom_all(mu, d)
        else:
            text, mean = _random_stat(rng, d)
            stat = [f"--stat={text}"]  # one token: the text may start with "-"
        argv = ["ensemble", "--q", str(q), "--d", str(d), *stat, "--filter", filt]
        commands.append(
            Command(argv, _ensemble_check(q, d, filt, mean if filt == "all" else None))
        )
    rng.shuffle(commands)
    checks = ("equal-expectation",)
    commands.append(
        Command(["verify", "--quick", "--checks", ",".join(checks)], _verify_check(checks))
    )
    return commands, {"ensemble_commands": len(ENSEMBLE_CELLS)}


# ---------------------------------------------------------------------------
# coset
# ---------------------------------------------------------------------------

# Fixed cosets with |H| from 1296 to 25920.  Enumeration cost depends on the
# block shape, not only on |H|, so the seed draws the statistics, not the cosets.
HISTOGRAM_SPECS = (
    ((4, 3),),
    ((1, 4), (3, 3)),
    ((3, 4),),
    ((1, 5), (3, 3)),
    ((2, 3), (2, 4)),
    ((1, 6), (2, 3)),
)
BOTH_SPECS = (((1, 2), (2, 4)), ((2, 2), (2, 4)), ((2, 4), (3, 2)))
FORMULAS_PER_SPEC = 24


def _spec_text(spec) -> str:
    return ",".join(f"{d}^{r}" for d, r in spec)


def _order(spec) -> int:
    return math.prod(math.factorial(r) ** d for d, r in spec)


def _histogram(text: str) -> dict[tuple, int]:
    """The cycle-type lines of `young --histogram`: {((k, m), ...): count}."""
    out = {}
    for line in text.splitlines()[3:]:
        ctype, _, count = line.partition("  ")
        out[tuple(tuple(map(int, e.split(":"))) for e in ctype.split(","))] = int(count)
    return out


def _histogram_check(spec):
    order = _order(spec)
    n = sum(d * r for d, r in spec)

    def check(outs, i):
        if _lines(outs[i]).get("order_h") != str(order):
            return f"order_h is not {order}"
        hist = _histogram(outs[i])
        if any(_norm(dict(ct)) != n for ct in hist):
            return f"a cycle type does not partition n={n}"
        total = sum(hist.values())
        return None if total == order else f"histogram sums to {total}, not |H| = {order}"

    return check


def _formula_check(hist_index: int, mu: dict[int, int], n: int):
    """The closed-form coset mean of binom(X, mu) equals the mean over the
    histogram printed earlier in the pass, and when |mu| = n the class count
    equals the histogram's count of that cycle type."""

    def check(outs, i):
        hist = _histogram(outs[hist_index])
        total = sum(
            count * math.prod(math.comb(dict(ct).get(k, 0), m) for k, m in mu.items())
            for ct, count in hist.items()
        )
        got = _lines(outs[i])
        want = Fraction(total, sum(hist.values()))
        if _value(got["formula"]) != want:
            return f"formula {got.get('formula')} != histogram mean {want}"
        if _norm(mu) == n and got.get("class_count") != str(hist.get(tuple(sorted(mu.items())), 0)):
            return f"class_count {got.get('class_count')} disagrees with the histogram"
        return None

    return check


def _agree_check(outs, i):
    return None if _lines(outs[i]).get("agree") == "yes" else "formula and oracle disagree"


def coset(rng: random.Random):
    """`young --histogram` per spec; then FORMULAS_PER_SPEC closed-form
    `young --mu` requests per spec, checked against its histogram; then
    `young --method both` on smaller cosets and the coset verify checks.
    The short formula requests run as one block, so the calibration slices
    around them are close to them in time."""
    commands = [
        Command(["young", "--blocks", _spec_text(spec), "--histogram"], _histogram_check(spec))
        for spec in HISTOGRAM_SPECS
    ]
    for hist_index, spec in enumerate(HISTOGRAM_SPECS):
        n = sum(d * r for d, r in spec)
        for i in range(FORMULAS_PER_SPEC):
            mu = rng.choice(_multi_indices(1 + i % n))  # every |mu| up to n
            argv = ["young", "--blocks", _spec_text(spec), "--mu", _mu_text(mu)]
            commands.append(Command(argv, _formula_check(hist_index, mu, n)))
    for spec in BOTH_SPECS:
        mu = _random_mu(rng, 1, 6)
        argv = ["young", "--blocks", _spec_text(spec), "--mu", _mu_text(mu), "--method", "both"]
        commands.append(Command(argv, _agree_check))
    checks = ("coset-statistics", "projection-measure")
    commands.append(
        Command(["verify", "--quick", "--checks", ",".join(checks)], _verify_check(checks))
    )
    return commands, {"coset_elements": sum(map(_order, HISTOGRAM_SPECS + BOTH_SPECS))}


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

NECKLACE_DEPTHS = {2: 14, 3: 9, 4: 7, 5: 6}
P_LARGE = 65521


def _necklace_check(q: int, kmax: int):
    def check(outs, i):
        rows = [line.split() for line in outs[i].splitlines() if line.startswith("k=")]
        if len(rows) != kmax:
            return f"{len(rows)} rows, expected {kmax}"
        for k, row in enumerate(rows, start=1):
            if row[:3] != [f"k={k}", f"weighted_sum={q ** k}", f"q^k={q ** k}"]:
                return f"row {' '.join(row)} breaks weighted_sum = q^k"
        return None if outs[i].splitlines()[-1] == "identity = ok" else "identity not ok"

    return check


def _factors_check(p: int, factors):
    """Over prime q: the printed (factor, multiplicity) multiset is exactly
    the one f was built from."""
    want = sorted((tuple(c), m) for c, m in factors)

    def check(outs, i):
        got = []
        for line in outs[i].splitlines():
            if line.startswith("  "):
                poly, _, mult = line.split()
                got.append((fpoly.parse_printed(poly, p), int(mult.split("=")[1])))
        return None if sorted(got) == want else f"factors {sorted(got)} != {want}"

    return check


def _blocks_check(e: int, f2_factors):
    """Over q = 2^e with f built from F_2-irreducibles: a degree-n factor of
    multiplicity r splits into gcd(n, e) distinct factors of degree
    n / gcd(n, e), so the block multiset is known in advance."""
    want = []
    for f, r in f2_factors:
        n = f.bit_length() - 1
        g = math.gcd(n, e)
        want += [(n // g, r)] * g

    def check(outs, i):
        text = _lines(outs[i]).get("blocks", "")
        got = sorted(tuple(int(x) for x in b.split("^")) for b in text.split(",") if b)
        return None if got == sorted(want) else f"blocks {text} != {sorted(want)}"

    return check


def _f2_factors(rng: random.Random, shape) -> list[tuple[int, int]]:
    """Distinct random F_2-irreducibles with the (degree, multiplicity) shape."""
    chosen = []
    for n, r in shape:
        chosen.append((fpoly.gf2_random_irreducible(rng, n, avoid={f for f, _ in chosen}), r))
    return chosen


def _f2_command(q: int, factors) -> list[str]:
    f = 1
    for g, r in factors:
        for _ in range(r):
            f = fpoly.gf2_mul(f, g)
    return ["factor", "--q", str(q), fpoly.list_text(fpoly.gf2_coeffs(f))]


def _linear_roots(rng: random.Random, count: int, band: tuple[float, float]) -> list[int]:
    """count distinct roots a of linear factors t - a over F_65521.

    Trial division tries t + c for c = 0, 1, ... and stops once one factor
    is left, so its cost is set by the second-largest c = -a.  That c is
    drawn from a fixed band of the field, the others below and above it, so
    every seed asks for the same amount of work."""
    p = P_LARGE
    stop = rng.randrange(int(band[0] * p), int(band[1] * p))
    cs = {stop, rng.randrange(stop + 1, p)}
    while len(cs) < count:
        cs.add(rng.randrange(0, stop))
    return [(-c) % p for c in cs]


def fields(rng: random.Random):
    commands = [
        Command(["necklace", "--q", str(q), "--kmax", str(k)], _necklace_check(q, k))
        for q, k in NECKLACE_DEPTHS.items()
    ]
    # F_2, degrees 40 and 46, with repeated factors and equal-degree classes
    for shape in (
        ((1, 1), (1, 2), (2, 1), (3, 1), (3, 1), (4, 2), (5, 1), (7, 1), (9, 1)),
        ((2, 3), (3, 2), (6, 1), (8, 1), (10, 1), (10, 1)),
    ):
        factors = _f2_factors(rng, shape)
        commands.append(
            Command(
                _f2_command(2, factors),
                _factors_check(2, [(fpoly.gf2_coeffs(f), r) for f, r in factors]),
            )
        )
    # F_4 and F_4096 from F_2-irreducibles, split as _blocks_check says; the
    # roots of t^2+t+1 lie in F_4, so over F_4096 it needs trial division
    for q, e, shape in ((4, 2, ((3, 1), (4, 1), (5, 2), (6, 1))), (4096, 12, ((7, 1),))):
        factors = _f2_factors(rng, shape)
        if q == 4096:
            factors.append((0b111, 1))
        commands.append(Command(_f2_command(q, factors), _blocks_check(e, factors)))
    # F_65521: linear factors at random roots, one with an irreducible quadratic
    p = P_LARGE
    for count, band, quadratic in ((3, (0.195, 0.205), True), (2, (0.145, 0.155), False)):
        factors = [((-a % p, 1), 1) for a in _linear_roots(rng, count, band)]
        if quadratic:
            c = rng.randrange(2, p)
            while pow(c, (p - 1) // 2, p) == 1:
                c = rng.randrange(2, p)
            factors.append(((-c % p, 0, 1), 1))  # t^2 - c, c a non-residue
        argv = ["factor", "--q", str(p), fpoly.list_text(fpoly.fp_product(factors, p))]
        commands.append(Command(argv, _factors_check(p, factors)))
    necklaces, factor_commands = commands[:4], commands[4:]
    rng.shuffle(factor_commands)
    return necklaces + factor_commands, {"factor_commands": len(factor_commands)}


WORKLOADS = {"routes": routes, "ensemble": ensemble, "coset": coset, "fields": fields}
