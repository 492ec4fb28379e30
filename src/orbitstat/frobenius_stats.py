"""Cycle statistics attached to polynomial factorizations.

A monic f over F_q with factorization prod p_i^{r_i} determines blocks
(d_i, r_i) with d_i = deg p_i, hence a coset spec (block_spec): the cycle
statistics of f are the averages over that coset.  The spec is only the
decomposition type of f, which the square-free and distinct-degree steps of
factoring already give, so block_spec stops there and splits no factor out
of its degree class.  Three independent routes
compute the value of a whole CharPoly P at f, one function each, named after
the CLI's --method:

* chi_formula(spec, P) evaluates the closed form, a product over the blocks
  of the spec for each term of P (the fast path, which never needs
  irreducibles beyond the factors of f);
* chi_symbolic(f, P) expands the product of divisibility-symbol sums over
  the irreducibles of degree dividing k, jointly across every k of each
  term's mu, in the quotient by the symbols that vanish at f, and reads off
  its value at f; it finds those symbols with the sieve and division, never
  factor;
* chi_oracle(spec, P) enumerates the coset and averages directly.

Ensemble sums accumulate the closed form over all monic f of a given degree,
optionally filtered by a bound m on the multiplicity of every factor.
ensemble_formula takes the Euler product over the irreducibles, with the
necklace counts N_k as exponents: for all f it is the equal-expectation
closed form q^d / z_mu per term, and under a bound a series in u truncated
at u^d, whose work grows polynomially in d.  At a bound m = d, which
binds no f, the series is the closed form, and verify compares the two
there.  ensemble_sum reads the block spec of every f and is kept as its
oracle.  The symbolic route and the series each count their steps in one
errors.Budget, against --cap-terms and --cap-enum.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Optional

from .charpoly import CharPoly, _mul_truncated, binom_eval, sn_expectation_closed
from .errors import Budget, CapExceeded, past_print_limit, print_limit, read_int, refusal
from .errors import unprintable
from .polynomial import (
    Poly,
    _degree_classes,
    _divmod,
    _irreducible_tuples,
    _mul,
    _plan_sieve,
    divisors,
    enumerate_monic,
    format_poly,
    necklace_count,
)
from .symmetric import DEFAULT_GROUP_CAP, CosetSpec, MultiIndex, centralizer_order
from .young_stats import (
    _block_factor,
    _block_reach,
    coset_histogram,
    expected_binom_on_coset,
)

DEFAULT_ENUM_CAP = 10 ** 6
DEFAULT_TERM_CAP = 10 ** 6

_F0 = Fraction(0)


def _check_monic(f: Poly) -> None:
    if f.is_zero or not f.is_monic:
        raise ValueError(
            f"cycle statistics need a monic nonzero polynomial, not {format_poly(f)!r}"
        )


def block_spec(f: Poly) -> CosetSpec:
    """The coset spec of a monic f, one block (deg p, r) per factor p^r,
    read off the degree classes of the square-free and distinct-degree
    steps: a class of product degree n in degree k is n/k blocks (k, r).
    No factor is split out, so it costs the steps that factor runs before
    its equal-degree splitting."""
    _check_monic(f)
    return CosetSpec(tuple(
        (k, r)
        for prod, k, r in _degree_classes(f.ctx, f.coeffs)
        for _ in range((len(prod) - 1) // k)
    ))


def chi_formula(spec: CosetSpec, P: CharPoly) -> Fraction:
    """Mean of P over the coset of spec by the closed form: one product of
    block factors per term of P."""
    return sum((c * expected_binom_on_coset(spec, mu) for mu, c in P.terms.items()), _F0)


def chi_oracle(spec: CosetSpec, P: CharPoly, cap: int = DEFAULT_GROUP_CAP) -> Fraction:
    """Mean of P over the coset of spec, by enumerating all of H: each term
    binom(X, mu) is summed over the enumerated histogram in integers, the
    terms are added over the least common denominator of their
    coefficients, and the total is divided once by it and |H|."""
    hist = coset_histogram(spec, cap).items()
    den = math.lcm(*(c.denominator for c in P.terms.values()))
    total = sum(
        c.numerator * (den // c.denominator) * sum(n * binom_eval(mu, ct) for ct, n in hist)
        for mu, c in P.terms.items()
    )
    return Fraction(total, den * spec.order_h())


def chi_symbolic(f: Poly, P: CharPoly, term_cap: int = DEFAULT_TERM_CAP) -> Fraction:
    """Value of P at a monic f by the divisibility-symbol expansion; it never
    factors f.  Each term binom(X, mu) of P is prod_k S_k^(m_k) / (k^(m_k) m_k!)
    at f, with S_k = sum over d | k and irreducible p of degree d of
    d * eps_{p^(k/d)}.

    Evaluation at f sends eps_g to 0 unless g divides f, and then no multiple
    g*h divides f either: the symbols that do not divide f span an ideal that
    evaluation kills, so the expansion runs in the quotient by it, exactly.
    Every key of the product has degree |mu|, so nothing survives a |mu|
    beyond deg f; S_k keeps only the p^(k/d) that divide f, and each product
    keeps only the keys that divide f.  Every key left divides f, so the
    value at f is the sum of the coefficients.  A key eps_g is stored as its
    cofactor f/g: eps_h times it survives exactly when h divides the
    cofactor, and the quotient is the cofactor of the product.

    The S_k are found once per call, for every k that some term needs, and
    shared by the terms.  term_cap bounds the whole statistic: the candidate
    symbols of those S_k tested against f, plus the term pairs of every
    product, checked before each step starts.  The candidates are the sieve's
    irreducibles, counted by the necklace formula before any is sieved.
    """
    _check_monic(f)
    ctx, fc = f.ctx, f.coeffs
    ks = sorted({k for mu in P.terms for k, _ in mu.items()})
    spend = Budget(
        "the symbolic route", "candidate symbols tested against f plus term pairs multiplied",
        term_cap, "--cap-terms, or for coset statistics use the factored route",
    ).spend
    # the N_k > q^k / (10k) candidates of the largest k alone may have more
    # digits than Python prints (by default) and the cap: decided by
    # k*log10(q), before divisors(k), O(k) steps, or q^k is computed
    if ks and ks[-1] * math.log10(ctx.q) - math.log10(10 * ks[-1]) > print_limit():
        if term_cap < 10 ** print_limit():
            spend(None)
    spend(sum(necklace_count(d, ctx.q) for k in ks for d in divisors(k)))
    # the irreducibles of each degree that divide f, each tested once, as
    # coefficient tuples, from the sieve passes the planner runs
    degrees = sorted({d for k in ks for d in divisors(k)})
    _plan_sieve(degrees, ctx)
    dividing = {
        d: [p for p in _irreducible_tuples(d, ctx) if not _divmod(ctx, fc, p)[1]]
        for d in degrees
    }
    symbols: dict[int, list[tuple[tuple, int]]] = {}
    for k in ks:
        s_k = symbols[k] = []
        for d in divisors(k):
            for p in dividing[d]:
                g = p
                for _ in range(k // d - 1):
                    g = _mul(ctx, g, p)
                if d == k or not _divmod(ctx, fc, g)[1]:
                    s_k.append((g, d))
    total = _F0
    for mu, coef in P.terms.items():
        terms = {fc: 1}  # cofactor f/g -> integer coefficient of eps_g
        for k, m in mu.items():
            for _ in range(m):
                if not terms:  # no key left for a further factor to keep
                    break
                spend(len(terms) * len(symbols[k]))
                out: dict[tuple, int] = {}
                for c, x in terms.items():
                    for h, y in symbols[k]:
                        quot, rem = _divmod(ctx, c, h)
                        if not rem:
                            out[quot] = out.get(quot, 0) + x * y
                terms = out
        if terms:
            total += coef * Fraction(sum(terms.values()), centralizer_order(mu))
    return total


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

# A filter is the bound m on the multiplicity of every irreducible factor of
# f: None for all, 1 for squarefree, m for maxmult=m.

def parse_predicate(text: Optional[str]) -> Optional[int]:
    """Map "all"/None, "squarefree", "maxmult=m" to the multiplicity bound
    of the filter: None, 1 and m."""
    if text is None or text == "all":
        return None
    if text == "squarefree":
        return 1
    if text.startswith("maxmult="):
        try:
            m = read_int(text[8:], text, "--filter")
        except CapExceeded:
            raise
        except ValueError:
            m = 0
        if m >= 1:
            return m
    raise ValueError(
        f"bad --filter {text!r}: expected all, squarefree, or maxmult=m "
        "with an integer m >= 1"
    )


def factored_types(d: int, ctx, maxmult: Optional[int] = None) -> Counter:
    """Block spec of every monic f of degree d whose factors have
    multiplicity at most maxmult (any, for None), tallied by reading each
    f's block spec."""
    tally: Counter = Counter()
    for f in enumerate_monic(d, ctx):
        spec = block_spec(f)
        if maxmult is None or spec.max_multiplicity <= maxmult:
            tally[spec] += 1
    return tally


def ensemble_sum(
    d: int,
    ctx,
    P: CharPoly,
    maxmult: Optional[int] = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> tuple[Fraction, int]:
    """(sum of chi over surviving monic f of degree d, surviving count), by
    the block spec of every f: the oracle for ensemble_formula."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    # q^d >= 2^d > cap once d passes the bit length of cap, so q^d is only
    # built when it has at most about 16 times as many bits as cap
    if d > cap.bit_length() or ctx.q ** d > cap:
        raise refusal(f"ensemble over {ctx.q}^{d} polynomials", cap, "--cap-enum")
    tally = factored_types(d, ctx, maxmult)
    total = sum((n_f * chi_formula(spec, P) for spec, n_f in tally.items()), _F0)
    return total, sum(tally.values())


def _filter_counts(d: int, q: int, m: int) -> list[int]:
    """The number of monic f of each degree n <= d whose factors have
    multiplicity at most m: the u^n coefficients of
    prod_k (sum_{r <= m} u^(kr))^(N_k) = (1 - q u^(m+1)) / (1 - q u),
    that is q^n, less q^(n-m) once n > m."""
    powers = [1]
    for _ in range(d):
        powers.append(powers[-1] * q)
    return [powers[n] - (powers[n - m] if n > m else 0) for n in range(d + 1)]


def _euler_factor(k: int, d: int, m: int, mu: MultiIndex, spend) -> dict:
    """G_k = (F_k - A_k) / A_k truncated at u^d, scaled by z_mu, on exponent
    tuples (u, a): F_k = sum_{r <= m} u^(kr) B_{k,r}(z) is the Euler factor
    of one irreducible of degree k, and A_k = sum_{r <= m} u^(kr) its value
    at z = 0, so G_k has no term free of z.  Dividing by A_k multiplies
    each z-coefficient, a series in v = u^k, by (1 - v) / (1 - v^(m+1))."""
    reach = _block_reach(k, mu)
    top = d // k  # the largest power of v within u^d
    spend((top + 1) * len(_block_factor(k, min(m, reach, top), mu)))
    series: dict[tuple[int, ...], list[int]] = {}  # a -> coefficients of v^0..v^top
    for r in range(1, min(m, top) + 1):
        for a, c in _block_factor(k, min(r, reach), mu).items():
            if any(a):
                series.setdefault(a, [0] * (top + 1))[r] = c
    out = {}
    for a, h in series.items():
        g = [h[0]] + [h[r] - h[r - 1] for r in range(1, top + 1)]
        for r in range(m + 1, top + 1):
            g[r] += g[r - m - 1]
        for r, c in enumerate(g):
            if c:
                out[(k * r,) + a] = c
    return out


def _series_mean_sum(
    d: int, q: int, mu: MultiIndex, counts: list[int], m: int, spend
) -> Fraction:
    """Sum of the coset mean of binom(X, mu) over the monic f of degree d
    whose factors have multiplicity at most m: the u^d z^mu coefficient of
    the Euler product prod_k F_k^(N_k) = prod_k A_k^(N_k) * prod_k (1 + G_k)^(N_k).

    The first product is the series of counts.  G_k is 0 in the box unless k
    divides a part of mu, and each of its terms holds at least one cycle
    counted at a multiple of k, so (1 + G_k)^(N_k) = sum_j C(N_k, j) G_k^j
    stops at j = J_k, the sum of those m_k, however large d is.  The G_k are
    integers scaled by D = z_mu, so each sum is scaled by D^(J_k), and the
    product is divided by D to the sum of the J_k at the end.  The last sum
    and the counts are not multiplied in: only their pairs with the product
    so far that land on u^d z^mu are read."""
    top = (d,) + tuple(e for _, e in mu.items())
    one = (0,) * len(top)
    scale = centralizer_order(mu)
    factors = []
    shift = 0
    for k in range(1, d + 1):
        if not _block_reach(k, mu):
            continue
        g = _euler_factor(k, d, m, mu, spend)
        if not g:
            continue
        powers = [{one: 1}, g]
        while len(powers) <= min(d // k, sum(e for j, e in mu.items() if j % k == 0)):
            spend(len(powers[-1]) * len(g))
            power = _mul_truncated(powers[-1], g, top)
            if not power:
                break
            powers.append(power)
        J = len(powers) - 1
        n_k = necklace_count(k, q)
        factor_k: dict[tuple[int, ...], int] = {}
        for j, power in enumerate(powers):
            w = math.comb(n_k, j) * scale ** (J - j)
            for a, c in power.items():
                factor_k[a] = factor_k.get(a, 0) + w * c
        factors.append(factor_k)
        shift += J
    *factors, last = factors or [{one: 1}]
    acc = factors[0] if factors else {one: 1}
    for factor_k in factors[1:]:
        spend(len(acc) * len(factor_k))
        acc = _mul_truncated(acc, factor_k, top)
    by_z: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for b, y in last.items():
        by_z.setdefault(b[1:], []).append((b[0], y))
    pairs = [
        (a[0], x, by_z.get(tuple(map(int.__sub__, top[1:], a[1:])), ()))
        for a, x in acc.items()
    ]
    spend(sum(len(row) for _, _, row in pairs))
    total = sum(
        x * y * counts[d - u - v] for u, x, row in pairs for v, y in row if u + v <= d
    )
    return Fraction(total, scale ** shift)


def _series_sum(d: int, q: int, P: CharPoly, m: int, cap: int) -> tuple[Fraction, int]:
    """ensemble_formula for the multiplicity bound m, by the Euler product
    truncated at u^d; cap bounds the coefficients built plus the coefficient pairs
    multiplied, over the whole statistic, checked before each step."""
    counts = _filter_counts(d, q, m)
    spend = Budget(
        "the ensemble series", "coefficients built plus coefficient pairs multiplied",
        cap, "--cap-enum",
    ).spend
    total = sum(
        (c * _series_mean_sum(d, q, mu, counts, m, spend)
         for mu, c in P.terms.items() if mu.norm <= d),
        _F0,
    )
    return total, counts[d]


def ensemble_formula(
    d: int,
    ctx,
    P: CharPoly,
    maxmult: Optional[int] = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> tuple[Fraction, int]:
    """ensemble_sum by the Euler product over the irreducibles, with no
    polynomial or factorization type enumerated.

    The coset mean of binom(X, mu) at f is the z^mu coefficient of the
    product of the block factors B_{k,r}(z) of f, one per factor p^r of
    degree k, so summing u^(deg f) times it over the f that pass the filter
    gives prod_k F_k^(N_k), with F_k = sum over the allowed r of
    u^(kr) B_{k,r}(z).  With no bound that applies at degree d (all, or
    maxmult=m with m >= d) this is 1/(1 - qu) * exp(sum_k z_k (qu)^k / k):
    each mean is the S_d mean 1/z_mu for |mu| <= d, and the sum is q^d
    times it.  Otherwise the product is truncated at u^d and z^mu.  A count
    q^d too long to print (by log10(q^d) a digit past the limit, so that it
    is not computed; with no limit, none) is refused before any work.
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    if maxmult is not None and maxmult < 1:
        raise ValueError("multiplicity bound must be >= 1")
    q = ctx.q
    if past_print_limit(d * math.log10(q), lambda: q ** d):
        raise unprintable(
            f"the ensemble of degree {d} over F_{q} has q^d = {q}^{d} polynomials, a count of"
        )
    if maxmult is None or maxmult >= d:
        count = q ** d
        return sum(
            (c * count * sn_expectation_closed(mu, d) for mu, c in P.terms.items()), _F0
        ), count
    return _series_sum(d, q, P, maxmult, cap)
