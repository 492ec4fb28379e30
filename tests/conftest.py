"""Shared fixtures."""

import pytest

from orbitstat import frobenius_stats, polynomial, young_stats


@pytest.fixture
def sieve_passes(monkeypatch):
    """A fresh irreducible cache, and the list of the degrees of the sieve
    passes run from then on, one entry per flag array allocated."""
    passes = []
    sieve = polynomial._sieve

    def counted(d, ctx):
        passes.append(d)
        return sieve(d, ctx)

    monkeypatch.setattr(polynomial, "_irr_cache", {})
    monkeypatch.setattr(polynomial, "_sieve", counted)
    return passes


@pytest.fixture
def coset_products(monkeypatch):
    """The list of the box tops of the truncated products that the coset
    closed form multiplies from then on, one entry per _mul_truncated call."""
    products = []
    mul = young_stats._mul_truncated

    def counted(f, g, top):
        products.append(top)
        return mul(f, g, top)

    monkeypatch.setattr(young_stats, "_mul_truncated", counted)
    return products


@pytest.fixture
def factor_divisions(monkeypatch):
    """The list of the divisor degrees of the polynomial divisions run from
    then on, one entry per polynomial._divmod call."""
    divisions = []
    divmod_ = polynomial._divmod

    def counted(ctx, a, b):
        divisions.append(len(b) - 1)
        return divmod_(ctx, a, b)

    monkeypatch.setattr(polynomial, "_divmod", counted)
    return divisions


@pytest.fixture
def series_products(monkeypatch):
    """The list of the box tops of the truncated products that the ensemble
    series multiplies from then on, one entry per _mul_truncated call."""
    products = []
    mul = frobenius_stats._mul_truncated

    def counted(f, g, top):
        products.append(top)
        return mul(f, g, top)

    monkeypatch.setattr(frobenius_stats, "_mul_truncated", counted)
    return products
