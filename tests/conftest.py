"""Shared fixtures."""

import pytest

from orbitstat import polynomial


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
