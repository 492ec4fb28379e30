"""Cross-validation battery pairing each closed form with a brute-force route.

Every check here compares two or three independently implemented ways of
computing the same quantity and demands exact equality of rationals.  The
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

from .charpoly import (
    CharPoly,
    binom_eval,
    g_series_identity_check,
    sn_expectation_closed,
)
from .finite_field import FieldCtx, make_field, prime_power
from .frobenius_stats import (
    block_spec,
    chi_formula,
    chi_oracle,
    chi_symbolic,
    factored_types,
    factorization_types,
    xk_of_f,
)
from .polynomial import (
    Poly,
    _divmod,
    count_irreducibles,
    divisors,
    enumerate_monic,
    factor,
    necklace_check,
    necklace_count,
)
from .symmetric import (
    CosetSpec,
    MultiIndex,
    block_multisets,
    cycle_lengths,
    cycle_type,
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

_F0 = Fraction(0)
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
    """Block structure of every monic degree-d polynomial, factored once and
    tallied."""
    return factored_types(d, ctx)


def _checked_tallies(q: int, dmax: int, bad: list) -> dict[int, Counter]:
    """The factored tally of each degree 1..dmax over F_q; a tally that
    differs from factorization_types goes to bad."""
    ctx = _field(q)
    tallies = {}
    for d in range(1, dmax + 1):
        tallies[d] = _ensemble_specs(ctx, d)
        if tallies[d] != factorization_types(d, q):
            bad.append((q, d, "factorization type counts"))
    return tallies


def _tally_means(tally: Counter, d: int, population: int) -> dict[MultiIndex, Fraction]:
    """The ensemble mean of binom(X, mu) for every mu of norm <= d, from one
    coset_means call per spec of the degree-d tally."""
    mus = list(multi_indices_up_to(d))
    total = dict.fromkeys(mus, Fraction(0))
    for spec, c in tally.items():
        for mu, mean in coset_means(spec, mus).items():
            total[mu] += c * mean
    return {mu: value / population for mu, value in total.items()}


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
        count_irreducibles(kmax, ctx)  # the top degree first: one sieve a halving
        for k in range(1, kmax + 1):
            res = necklace_check(k, ctx)
            n += 1
            if not res.equal:
                bad.append((q, k, res.lhs, res.rhs))
            sieved = count_irreducibles(k, ctx)
            if sieved != necklace_count(k, q):
                bad.append((q, k, "N_k", sieved, necklace_count(k, q)))
    detail = f"{n} count identities hold for q in {tuple(qs)}, k <= {kmax}"
    return _verdict("necklace-count", bad, detail, "failed at ", None)


def check_equal_expectations(qs: Sequence[int] = (2, 3), dmax: int = 6) -> CheckResult:
    """Mean of binom(X, mu) over monic degree-d polynomials equals the S_d
    mean, and also the S_d mean rescaled by necklace factors (each forced to 1
    by the count identity, but computed from the sieve, not assumed).  The
    ensemble side tallies the block specs of the factored polynomials, and
    the tally must equal the factorization type counts."""
    bad = []
    n = 0
    for q in qs:
        ctx = _field(q)
        for d, tally in _checked_tallies(q, dmax, bad).items():
            for mu, ens in _tally_means(tally, d, q ** d).items():
                sym = sn_expectation_closed(mu, d)
                prod_form = sym
                for k, m in mu.items():
                    necklace = Fraction(
                        sum(dd * count_irreducibles(dd, ctx) for dd in divisors(k)),
                        q ** k,
                    )
                    prod_form *= necklace ** m
                n += 1
                if not ens == sym == prod_form:
                    bad.append((q, d, str(mu), ens, sym, prod_form))
    detail = f"{n} means agree across ensemble, symmetric-group, and product routes"
    return _verdict("equal-expectation", bad, detail)


def check_chi_routes(
    scales: Sequence[tuple[int, int]] = ((2, 5), (3, 4))
) -> CheckResult:
    """Coset statistics of each f: factored closed form == symbolic expansion
    == direct coset average, for every monic f and every mu up to its degree.
    Each f is factored once, for the block spec that the factored form and
    the coset average share; the symbolic expansion never factors."""
    bad = []
    n = 0
    for q, dmax in scales:
        ctx = _field(q)
        for d in range(1, dmax + 1):
            for f in enumerate_monic(d, ctx):
                spec = block_spec(f)
                for mu in multi_indices_up_to(d):
                    P = CharPoly.binom(mu)
                    a = chi_formula(spec, P)
                    b = chi_symbolic(f, P)
                    c = chi_oracle(spec, P)
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
        hist = Counter(map(cycle_type, enumerate_sn(r)))
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
            predicted = Counter(
                d * ell for (d, _), m in zip(blocks, ms) for ell in cycle_lengths(m)
            )
            ct = Counter(cycle_lengths(images))
            if ct != predicted:
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
    dmax: int = 3, rmax: int = 6, t_cap: int = 6
) -> CheckResult:
    """Averaged cycle-index series equals the truncated exponential, and
    collapsing the nilpotents reproduces the closed S_r means."""
    bad = [
        (d, r)
        for d in range(1, dmax + 1)
        for r in range(1, rmax + 1)
        if not g_series_identity_check(d, r, t_cap)
    ]
    detail = f"identity holds for d <= {dmax}, r <= {rmax}, weight cap {t_cap}"
    return _verdict("generating-series", bad, detail, "failed at ", None)


def _expectation_epsilon(g: Poly, n: int) -> Fraction:
    """Closed-form mean of the divisibility symbol of a monic g over monic
    degree-n polynomials."""
    return Fraction(1, g.ctx.q ** g.degree) if g.degree <= n else _F0


def _expectation_epsilon_oracle(g: Poly, n: int) -> Fraction:
    """Same mean by enumerating all q^n monic polynomials of degree n."""
    ctx, gc = g.ctx, g.coeffs
    hits = sum(1 for f in enumerate_monic(n, ctx) if not _divmod(ctx, f.coeffs, gc)[1])
    return Fraction(hits, g.ctx.q ** n)


def check_divisor_average(qs: Sequence[int] = (2, 3), nmax: int = 4) -> CheckResult:
    """Mean of the divisibility symbol of g over monic degree-n polynomials:
    1/q^deg(g) when deg(g) <= n, else 0, versus direct enumeration."""
    bad = []
    n = 0
    for q in qs:
        ctx = _field(q)
        for deg_f in range(0, nmax + 1):
            for deg_g in range(0, deg_f + 2):
                for g in enumerate_monic(deg_g, ctx):
                    closed = _expectation_epsilon(g, deg_f)
                    brute = _expectation_epsilon_oracle(g, deg_f)
                    n += 1
                    if closed != brute:
                        bad.append((q, str(g), deg_f, closed, brute))
    detail = f"{n} symbol means agree for q in {tuple(qs)}, n <= {nmax}"
    return _verdict("divisor-average", bad, detail)


def check_known_values(
    qs: Sequence[int] = (2, 3, 4, 5),
    squarefree_scales: Sequence[tuple[int, int]] = ((2, 5), (3, 4)),
) -> CheckResult:
    """Hand-computable anchors: the double root t^2 has mean 2-cycle count 1/2
    and mean fixed-point count 1 over every field, and on square-free f the
    statistics are integers counting factor selections."""
    bad = []
    n = 0
    mu1 = MultiIndex.from_dict({1: 1})
    mu2 = MultiIndex.from_dict({2: 1})
    for q in qs:
        ctx = _field(q)
        f = Poly(ctx, (0, 0, 1))
        spec = block_spec(f)
        values = (
            (chi_formula(spec, CharPoly.binom(mu2)), Fraction(1, 2)),
            (chi_formula(spec, CharPoly.binom(mu1)), _F1),
            (xk_of_f(f, 2), Fraction(1, 2)),
            (xk_of_f(f, 1), _F1),
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
    every d from |mu| up to dmax, from factored tallies that must equal the
    factorization type counts."""
    bad = []
    n = 0
    for q in qs:
        means = {
            d: _tally_means(tally, d, q ** d)
            for d, tally in _checked_tallies(q, dmax, bad).items()
        }
        for mu in multi_indices_up_to(dmax):
            if mu.norm == 0:
                continue
            vals = [means[d][mu] for d in range(mu.norm, dmax + 1)]
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
    "generating-series": (check_generating_series, {"dmax": 2, "rmax": 4, "t_cap": 4}),
    "divisor-average": (check_divisor_average, {"nmax": 3}),
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
