"""Cycle statistics on block-cycling cosets tau*H, closed form and oracle.

The closed forms live in the truncated ring Q[eps_1..eps_n]/(eps_i^(r_i+1)),
one nilpotent variable per block (d_i, r_i): the k-cycle content of the coset
is encoded by sum over blocks with d_i | k of d_i * eps_i^(k/d_i), and
flattening every surviving eps monomial to 1 turns products of those sums
into exact coset averages.  Truncation is what makes statistics that ask for
more cycles than the coset can carry vanish automatically.  The brute-force
companion enumerates tau*h directly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .charpoly import NilSeries, binom_eval
from .symmetric import (
    DEFAULT_GROUP_CAP,
    CosetSpec,
    MultiIndex,
    cycle_type,
    enumerate_h_structured,
    structured_to_permutation,
    conjugacy_class_size,
)

_F0 = Fraction(0)
_F1 = Fraction(1)


def _cycle_sum(spec: CosetSpec, k: int, orders: tuple[int, ...]) -> NilSeries:
    """sum over blocks with d_i | k of d_i * eps_i^(k/d_i)."""
    out = NilSeries.constant(orders, 0)
    for i, (d, r) in enumerate(spec.blocks):
        if k % d == 0:
            out = out + NilSeries.eps(orders, i, k // d) * d
    return out


def _phi_product(spec: CosetSpec, mu: MultiIndex) -> Fraction:
    """Flattened value of prod_k (cycle sum for k)^(mu_k)."""
    orders = tuple(r + 1 for _, r in spec.blocks)
    acc = NilSeries.constant(orders, 1)
    for k, m in mu.items():
        acc = acc * _cycle_sum(spec, k, orders) ** m
        if not acc.terms:
            return _F0
    return sum(acc.terms.values(), _F0)


def expected_binom_on_coset(spec: CosetSpec, mu: MultiIndex) -> Fraction:
    """Exact mean of binom(X, mu) over the coset tau*H."""
    pref = _F1
    for k, m in mu.items():
        pref *= Fraction(1, k ** m * math.factorial(m))
    return pref * _phi_product(spec, mu)


def count_cycle_type_in_coset(spec: CosetSpec, mu: MultiIndex) -> int:
    """Number of elements of tau*H with cycle type mu (norm(mu) = N)."""
    n = spec.n
    if mu.norm != n:
        raise ValueError(f"cycle type of norm {mu.norm} on {n} points")
    value = (
        Fraction(spec.order_h() * conjugacy_class_size(mu, n), math.factorial(n))
        * _phi_product(spec, mu)
    )
    if value.denominator != 1 or value < 0:
        raise ArithmeticError(
            f"cycle-type count for {spec} at {mu} is not a natural number: {value}"
        )
    return int(value)


def expected_k_cycles(spec: CosetSpec, k: int) -> Fraction:
    """Mean number of k-cycles on the coset: (1/k) * sum of the d_i with
    d_i | k and d_i * r_i >= k."""
    if k < 1:
        raise ValueError("cycle length must be >= 1")
    total = sum(d for d, r in spec.blocks if k % d == 0 and d * r >= k)
    return Fraction(total, k)


def coset_histogram(spec: CosetSpec, cap: int = DEFAULT_GROUP_CAP) -> dict[MultiIndex, int]:
    """Cycle-type counts of tau*h over all h in H, by direct enumeration."""
    order = spec.order_h()
    if order > cap:
        from .errors import CapExceeded

        raise CapExceeded(f"|H| = {order} exceeds cap {cap}; raise it with --cap-group")
    tau = spec.tau()
    hist: dict[MultiIndex, int] = {}
    for h in enumerate_h_structured(spec, cap):
        ct = cycle_type(tau * structured_to_permutation(spec, h))
        hist[ct] = hist.get(ct, 0) + 1
    return hist


def coset_bruteforce(
    spec: CosetSpec, mu: MultiIndex, cap: int = DEFAULT_GROUP_CAP
) -> tuple[Fraction, dict[MultiIndex, int]]:
    """(mean of binom(X, mu) over tau*H, full cycle-type histogram)."""
    hist = coset_histogram(spec, cap)
    total = sum(cnt * binom_eval(mu, ct) for ct, cnt in hist.items())
    return Fraction(total, spec.order_h()), hist
