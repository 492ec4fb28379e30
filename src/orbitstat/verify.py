"""Cross-validation battery pairing each route of the CLI with another.

Every check here compares two or three independently implemented ways of
computing the same quantity and demands exact equality of rationals: a
route that a command runs against another route or a brute-force
enumeration, never a formula that only verify runs.  The
default scales are the ones the acceptance suite runs at; smaller scales are
available through keyword arguments (the CLI exposes a quick preset).
Each check collects its failures in a list and ends through _verdict, which
turns that list and the check's success detail into its CheckResult.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from .charpoly import CharPoly, binom_eval, sn_expectation_closed
from .finite_field import FieldCtx, make_field, prime_power
from .frobenius_stats import (
    DEFAULT_ENUM_CAP,
    _series_sum,
    block_spec,
    chi_formula,
    chi_oracle,
    chi_symbolic,
    ensemble_formula,
    factored_types,
)
from .polynomial import (
    Poly,
    _irreducible_tuples,
    _mul,
    count_irreducibles,
    enumerate_monic,
    factor,
    necklace_count,
    necklace_sums,
)
from .symmetric import (
    CosetSpec,
    MultiIndex,
    block_multisets,
    _lengths_type,
    cycle_lengths,
    enumerate_sn,
    multi_indices_up_to,
    partitions,
)
from .young_stats import (
    class_count,
    coset_histogram,
    coset_means,
    cycle_type_distribution,
    walk_coset,
)

_F1 = Fraction(1)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str

    def __str__(self):
        return f"[{'ok' if self.ok else 'FAIL'}] {self.name}: {self.detail}"


def _verdict(
    name: str, bad: list, detail: str, failed: str = "mismatches: ", shown=3
) -> CheckResult:
    """The one ending of every check: ok with detail when bad is empty, else
    a failure printing failed and the first shown entries of bad (all of them
    when shown is None)."""
    if bad:
        return CheckResult(name, False, f"{failed}{bad[:shown]}")
    return CheckResult(name, True, detail)


def _field(q: int) -> FieldCtx:
    p, e = prime_power(q)
    return make_field(p, e)


def enumerate_coset_specs(nmax: int) -> Iterator[CosetSpec]:
    """All block multisets with 1 <= sum(d*r) <= nmax and |H| <= 10^4."""
    for n in range(1, nmax + 1):
        for spec in block_multisets(n):
            if spec.order_h() <= 10 ** 4:
                yield spec


def _block_projections(blocks, entries) -> tuple[tuple[int, ...], ...]:
    """The projection of each block of h to S_r, as an image tuple: the
    sigmas of its slots, read off walk_coset's (sigma, images) entries and
    composed in k order with the later slot on the left, which is how tau*h
    moves the j coordinate around the block."""
    out = []
    slots = iter(entries)
    for d, r in blocks:
        images = range(r)
        for sigma, _ in itertools.islice(slots, d):
            images = tuple(map(sigma.__getitem__, images))
        out.append(images)
    return tuple(out)


@lru_cache(maxsize=None)
def _ensemble_specs(ctx: FieldCtx, d: int) -> Counter:
    """Block spec of every monic degree-d polynomial, read once and
    tallied."""
    return factored_types(d, ctx)


def _tally_means(
    ctx: FieldCtx, d: int, means: dict[CosetSpec, dict[MultiIndex, Fraction]]
) -> dict[MultiIndex, Fraction]:
    """The oracle's ensemble mean of binom(X, mu) for every mu of norm <= d,
    from the tally of the block specs of every monic f of degree d.  A
    spec's coset means do not depend on q, so means, a memo that the calling
    check owns, holds one coset_means call per spec for the whole check; it
    lives for that call alone, so means cached before a route was broken
    never hide it."""
    mus = list(multi_indices_up_to(d))
    total = dict.fromkeys(mus, Fraction(0))
    for spec, c in _ensemble_specs(ctx, d).items():
        if spec not in means:
            means[spec] = coset_means(spec, mus)
        for mu, mean in means[spec].items():
            total[mu] += c * mean
    return {mu: value / ctx.q ** d for mu, value in total.items()}


def _route_mean(ctx: FieldCtx, d: int, mu: MultiIndex) -> Fraction:
    """The mean of binom(X, mu) over the monic f of degree d by
    ensemble_formula, which `orbitstat ensemble` runs."""
    total, count = ensemble_formula(d, ctx, CharPoly.binom(mu))
    return total / count


# ---------------------------------------------------------------------------
# The checks, in the order the acceptance suite runs them
# ---------------------------------------------------------------------------

def check_necklace(qs: Sequence[int] = (2, 3, 4, 5), kmax: int = 8) -> CheckResult:
    """Sum of d * (number of irreducibles of degree d) over d | k equals q^k,
    with the irreducible counts coming from the product sieve, and each sieve
    count equals the Moebius formula."""
    bad = []
    n = 0
    for q in qs:
        ctx = _field(q)
        for k, lhs in enumerate(necklace_sums(kmax, ctx), 1):
            n += 1
            if lhs != q ** k:
                bad.append((q, k, lhs, q ** k))
            sieved = count_irreducibles(k, ctx)
            if sieved != necklace_count(k, q):
                bad.append((q, k, "N_k", sieved, necklace_count(k, q)))
    detail = f"{n} count identities hold for q in {tuple(qs)}, k <= {kmax}"
    return _verdict("necklace-count", bad, detail, "failed at ", None)


def check_equal_expectations(qs: Sequence[int] = (2, 3), dmax: int = 6) -> CheckResult:
    """Mean of binom(X, mu) over monic degree-d polynomials equals the S_d
    mean, and also the S_d mean rescaled by necklace factors (each forced to 1
    by the count identity, but computed from the sieve, not assumed).  The
    ensemble mean is ensemble_formula's, and the oracle's from the factored
    polynomials must equal it."""
    bad = []
    n = 0
    means: dict = {}  # spec -> its coset means, for this call only
    for q in qs:
        ctx = _field(q)
        sums = necklace_sums(dmax, ctx)
        for d in range(1, dmax + 1):
            for mu, tally in _tally_means(ctx, d, means).items():
                ens = _route_mean(ctx, d, mu)
                sym = sn_expectation_closed(mu, d)
                prod_form = sym
                for k, m in mu.items():
                    prod_form *= Fraction(sums[k - 1], q ** k) ** m
                n += 1
                if not ens == tally == sym == prod_form:
                    bad.append((q, d, str(mu), ens, tally, sym, prod_form))
    detail = f"{n} means agree across ensemble, symmetric-group, and product routes"
    return _verdict("equal-expectation", bad, detail)


def check_chi_routes(
    scales: Sequence[tuple[int, int]] = ((2, 5), (3, 4))
) -> CheckResult:
    """Coset statistics of each f: factored closed form == symbolic expansion
    == direct coset average, for every monic f and every mu up to its degree.
    Each f's block spec is read once; the factored form and the coset
    average depend on f only through it, so each runs once per distinct
    (spec, mu) of the call, and every f's symbolic expansion, which never
    factors, is compared with them.  The coset average is chi_oracle, which
    eval --method oracle runs."""
    bad = []
    n = 0
    by_spec: dict = {}  # (spec, mu) -> (closed form, coset average), this call only
    for q, dmax in scales:
        ctx = _field(q)
        for d in range(1, dmax + 1):
            for f in enumerate_monic(d, ctx):
                spec = block_spec(f)
                for mu in multi_indices_up_to(d):
                    P = CharPoly.binom(mu)
                    if (spec, mu) not in by_spec:
                        by_spec[spec, mu] = chi_formula(spec, P), chi_oracle(spec, P)
                    a, c = by_spec[spec, mu]
                    b = chi_symbolic(f, P)
                    n += 1
                    if not a == b == c:
                        bad.append((q, str(f), str(mu), a, b, c))
    detail = f"{n} (f, mu) pairs agree across all three routes"
    return _verdict("chi-routes", bad, detail)


def check_coset_statistics(nmax: int = 8) -> CheckResult:
    """For every block spec: the closed-form histogram equals the enumerated
    one, the closed-form coset means of binom(X, mu), all read off one block
    product per spec, match the enumerated histogram, and for |mu| = n the
    class counts read off the same product are non-negative integers
    matching the histogram and summing to |H|.
    """
    bad = []
    nspecs = 0
    n = 0
    for spec in enumerate_coset_specs(nmax):
        hist = coset_histogram(spec)
        order = spec.order_h()
        nspecs += 1
        if cycle_type_distribution(spec) != hist:
            bad.append(("histogram", str(spec)))
        means = coset_means(spec, multi_indices_up_to(spec.n))
        for mu, closed in means.items():
            brute = Fraction(
                sum(cnt * binom_eval(mu, ct) for ct, cnt in hist.items()), order
            )
            n += 1
            if closed != brute:
                bad.append(("mean", str(spec), str(mu), closed, brute))
        total = 0
        for mu in partitions(spec.n):
            try:
                cnt = class_count(spec, mu, means[mu])
            except ArithmeticError as exc:
                bad.append(("count", str(spec), str(mu), str(exc)))
                continue
            n += 1
            if cnt != hist.get(mu, 0):
                bad.append(("count", str(spec), str(mu), cnt, hist.get(mu, 0)))
            total += cnt
        if total != order:
            bad.append(("total", str(spec), total, order))
    detail = f"{n} statistics verified against full enumeration of {nspecs} specs"
    return _verdict("coset-statistics", bad, detail)


def check_sym_expectation(rmax: int = 8) -> CheckResult:
    """Closed S_r mean of binom(X, mu) against a one-pass group enumeration,
    including mu just past r where both sides must vanish."""
    bad = []
    n = 0
    for r in range(1, rmax + 1):
        tally = Counter(map(cycle_lengths, enumerate_sn(r)))
        hist = {_lengths_type(lengths): cnt for lengths, cnt in tally.items()}
        order = math.factorial(r)
        for mu in multi_indices_up_to(r + 1):
            closed = sn_expectation_closed(mu, r)
            brute = Fraction(
                sum(cnt * binom_eval(mu, ct) for ct, cnt in hist.items()), order
            )
            n += 1
            if closed != brute:
                bad.append((r, str(mu), closed, brute))
    return _verdict("sym-expectation", bad, f"{n} means agree for r <= {rmax}")


def check_projection_measure(nmax: int = 8) -> CheckResult:
    """Cycle counts of tau*h decompose through the block projections, and the
    projection tuple map is exactly |H| / prod(r_i!) to one."""
    bad = []
    nspecs = 0
    for spec in enumerate_coset_specs(nmax):
        blocks = spec.blocks
        order = spec.order_h()
        image_size = math.prod(math.factorial(r) for _, r in blocks)
        fiber = order // image_size
        seen: dict[tuple, int] = {}
        nspecs += 1
        for entries, images in walk_coset(spec):
            ms = _block_projections(blocks, entries)
            # each l-cycle of block i's projection is a (d_i * l)-cycle of tau*h
            predicted = tuple(sorted(
                d * ell for (d, _), m in zip(blocks, ms) for ell in cycle_lengths(m)
            ))
            if (lengths := cycle_lengths(images)) != predicted:
                ct, predicted = Counter(lengths), Counter(predicted)
                bad.extend(
                    ("cycles", str(spec), k, ct[k], predicted[k])
                    for k in range(1, spec.n + 1)
                    if ct[k] != predicted[k]
                )
            seen[ms] = seen.get(ms, 0) + 1
        if len(seen) != image_size or set(seen.values()) != {fiber}:
            bad.append(("fibers", str(spec), len(seen), sorted(set(seen.values()))))
    detail = f"cycle decomposition and uniform fibers hold for {nspecs} specs"
    return _verdict("projection-measure", bad, detail)


def check_generating_series(
    qs: Sequence[int] = (2, 3, 65521),
    degrees: Sequence[int] = (*range(1, 13), 40),
    nmax: int = 4,
) -> CheckResult:
    """The cycle-index exponential behind the Euler product: the ensemble
    series under a multiplicity bound m = d, which binds no f of degree d,
    equals ensemble_formula's closed form for all, the u^d coefficient of
    1/(1 - qu) * exp(sum_k z_k (qu)^k / k): sum q^d / z_mu and count q^d.
    Both are routes of `orbitstat ensemble`, the first under --filter."""
    bad = []
    n = 0
    for q in qs:
        ctx = _field(q)
        for d in degrees:
            for mu in multi_indices_up_to(nmax):
                if not mu.norm:
                    continue
                P = CharPoly.binom(mu)
                series = _series_sum(d, q, P, d, DEFAULT_ENUM_CAP)
                closed = ensemble_formula(d, ctx, P)
                n += 1
                if series != closed:
                    bad.append((q, d, str(mu), series, closed))
    detail = (
        f"{n} Euler-product sums at m = d equal q^d / z_mu for q in {tuple(qs)}, "
        f"d in {tuple(degrees)}, |mu| <= {nmax}"
    )
    return _verdict("generating-series", bad, detail)


# the statistics of the divisor-average check's polynomials with large H
_LARGE_H_MUS = tuple(map(MultiIndex.parse, ("1:2,2:2", "1:3,2:1,4:1", "2:3,3:1")))


def check_divisor_average(
    qs: Sequence[int] = (2, 3),
    dmax: int = 4,
    large_qs: Sequence[int] = (2, 3, 4),
    powers: Sequence[tuple[int, int, int]] = ((4, 2, 3), (12, 5, 4), (20, 8, 6)),
) -> CheckResult:
    """The divisibility-symbol expansion of binom(X, mu), averaged over every
    monic f of degree d, equals ensemble_formula's mean; and past the reach of
    any enumeration it equals the closed form at f = (t+1)^a * t^c * g^b,
    g the first irreducible quadratic, for each (a, b, c) of powers."""
    bad = []
    n = 0
    for q in qs:
        ctx = _field(q)
        for d in range(1, dmax + 1):
            monics = list(enumerate_monic(d, ctx))
            for mu in multi_indices_up_to(d):
                if not mu.norm:
                    continue
                P = CharPoly.binom(mu)
                symbolic = sum(chi_symbolic(f, P) for f in monics)
                closed, count = ensemble_formula(d, ctx, P)
                n += 1
                if (symbolic, len(monics)) != (closed, count):
                    bad.append((q, d, str(mu), symbolic, closed))
    order = 1
    for q in large_qs:
        ctx = _field(q)
        g = next(_irreducible_tuples(2, ctx))
        for a, b, c in powers:
            fc = (1,)
            for p, e in (((1, 1), a), ((0, 1), c), (g, b)):
                for _ in range(e):
                    fc = _mul(ctx, fc, p)
            f = Poly(ctx, fc)
            spec = block_spec(f)
            order = max(order, spec.order_h())
            for mu in _LARGE_H_MUS:
                P = CharPoly.binom(mu)
                formula, symbolic = chi_formula(spec, P), chi_symbolic(f, P)
                n += 1
                if formula != symbolic:
                    bad.append((q, str(f), str(mu), formula, symbolic))
    detail = (
        f"{n} symbol expansions agree with ensemble means for q in {tuple(qs)}, "
        f"d <= {dmax}, and with closed forms for q in {tuple(large_qs)}, "
        f"|H| < 10^{len(str(order))}"
    )
    return _verdict("divisor-average", bad, detail)


def check_known_values(
    qs: Sequence[int] = (2, 3, 4, 5),
    squarefree_scales: Sequence[tuple[int, int]] = ((2, 5), (3, 4)),
) -> CheckResult:
    """Hand-computable anchors: the double root t^2 has mean 2-cycle count 1/2
    and mean fixed-point count 1 over every field, by the closed form and by
    the symbol expansion, and on square-free f the statistics are integers
    counting factor selections."""
    bad = []
    n = 0
    x1, x2 = CharPoly.parse("X1"), CharPoly.parse("X2")
    for q in qs:
        ctx = _field(q)
        f = Poly(ctx, (0, 0, 1))
        spec = block_spec(f)
        values = (
            (chi_formula(spec, x2), Fraction(1, 2)),
            (chi_formula(spec, x1), _F1),
            (chi_symbolic(f, x2), Fraction(1, 2)),
            (chi_symbolic(f, x1), _F1),
        )
        for got, want in values:
            n += 1
            if got != want:
                bad.append((q, "t^2", got, want))
    for q, dmax in squarefree_scales:
        ctx = _field(q)
        for d in range(1, dmax + 1):
            for f in enumerate_monic(d, ctx):
                fac = factor(f)
                if not fac.is_squarefree:
                    continue
                by_degree: dict[int, int] = {}
                for p, _ in fac.factors:
                    by_degree[p.degree] = by_degree.get(p.degree, 0) + 1
                spec = fac.spec
                for mu in multi_indices_up_to(d):
                    want = 1
                    for k, m in mu.items():
                        want *= math.comb(by_degree.get(k, 0), m)
                    got = chi_formula(spec, CharPoly.binom(mu))
                    n += 1
                    if got != want:
                        bad.append((q, str(f), str(mu), got, want))
    return _verdict("known-values", bad, f"{n} frozen values reproduced")


def check_stabilization(qs: Sequence[int] = (2, 3), dmax: int = 6) -> CheckResult:
    """The degree-d ensemble mean of binom(X, mu) is the same rational for
    every d from |mu| up to dmax, by ensemble_formula and by the oracle's
    factored polynomials."""
    bad = []
    n = 0
    means: dict = {}  # spec -> its coset means, for this call only
    for q in qs:
        ctx = _field(q)
        tallies = {d: _tally_means(ctx, d, means) for d in range(1, dmax + 1)}
        for mu in multi_indices_up_to(dmax):
            if mu.norm == 0:
                continue
            degrees = range(mu.norm, dmax + 1)
            vals = [_route_mean(ctx, d, mu) for d in degrees]
            vals += [tallies[d][mu] for d in degrees]
            n += 1
            if len(set(vals)) != 1:
                bad.append((q, str(mu), vals))
    detail = f"{n} statistics constant in degree for q in {tuple(qs)}, d <= {dmax}"
    return _verdict("stabilization", bad, detail, "non-constant: ")


# name -> (check, the keyword arguments of its quick scale); a full-scale run
# calls the check with its defaults
_CHECKS = {
    "necklace-count": (check_necklace, {"qs": (2, 3), "kmax": 5}),
    "equal-expectation": (check_equal_expectations, {"dmax": 4}),
    "chi-routes": (check_chi_routes, {"scales": ((2, 3), (3, 2))}),
    "coset-statistics": (check_coset_statistics, {"nmax": 5}),
    "sym-expectation": (check_sym_expectation, {"rmax": 5}),
    "projection-measure": (check_projection_measure, {"nmax": 5}),
    "generating-series": (check_generating_series, {"qs": (2, 3), "degrees": (6, 12)}),
    "divisor-average": (check_divisor_average, {"dmax": 3, "powers": ((12, 5, 4),)}),
    "known-values": (check_known_values, {"squarefree_scales": ((2, 4), (3, 3))}),
    "stabilization": (check_stabilization, {"dmax": 4}),
}

CHECK_NAMES = tuple(_CHECKS)


def run_all(quick: bool = False, names: Sequence[str] = CHECK_NAMES) -> list[CheckResult]:
    out = []
    for name in names:
        if name not in _CHECKS:
            raise ValueError(f"unknown check {name!r}; choose from {CHECK_NAMES}")
        check, quick_kwargs = _CHECKS[name]
        out.append(check(**quick_kwargs) if quick else check())
    return out
