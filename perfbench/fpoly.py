"""Polynomial arithmetic over prime fields, independent of orbitstat.

The `fields` workload builds its `factor` inputs from factors it knows to be
irreducible and checks orbitstat's answers against them with this module
alone, so a wrong factorization cannot vouch for itself.

Polynomials over F_p are coefficient tuples, constant first.  Over F_2 they
are bit masks (bit i is the coefficient of t^i), which keeps the
irreducibility test for the degree-20 candidates cheap.
"""

from __future__ import annotations

import random


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def gf2_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def gf2_mod(a: int, m: int) -> int:
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def gf2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, gf2_mod(a, b)
    return a


def gf2_is_irreducible(f: int) -> bool:
    """Rabin's test: t^(2^n) = t mod f, and gcd(t^(2^(n/l)) - t, f) = 1 for
    every prime l dividing n = deg f."""
    n = f.bit_length() - 1
    if n < 1:
        return False
    frob = [2]  # frob[i] = t^(2^i) mod f
    for _ in range(n):
        frob.append(gf2_mod(gf2_mul(frob[-1], frob[-1]), f))
    if frob[n] != gf2_mod(2, f):
        return False
    return all(gf2_gcd(f, frob[n // ell] ^ 2) == 1 for ell in _prime_factors(n))


def gf2_random_irreducible(rng: random.Random, n: int, avoid=()) -> int:
    """A uniformly drawn monic irreducible of degree n over F_2, not in avoid."""
    while True:
        f = (1 << n) | rng.getrandbits(n)
        if f not in avoid and gf2_is_irreducible(f):
            return f


def gf2_coeffs(f: int) -> tuple[int, ...]:
    return tuple((f >> i) & 1 for i in range(f.bit_length()))


def fp_mul(a, b, p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def fp_product(factors, p: int) -> tuple[int, ...]:
    """Product of (coeffs, multiplicity) pairs."""
    out = (1,)
    for coeffs, mult in factors:
        for _ in range(mult):
            out = fp_mul(out, coeffs, p)
    return out


def list_text(coeffs) -> str:
    """orbitstat's ascending coefficient-list input form."""
    return "[" + ",".join(str(c) for c in coeffs) + "]"


def parse_printed(text: str, p: int) -> tuple[int, ...]:
    """Coefficients of a polynomial as orbitstat prints it over F_p, such as
    '3*t^2+t+65520'."""
    terms: dict[int, int] = {}
    for term in text.split("+"):
        coef, star, var = term.partition("*")
        if not star:
            coef, var = ("", term) if term.startswith("t") else (term, "")
        exp = int(var[2:]) if var.startswith("t^") else 1 if var else 0
        terms[exp] = int(coef) % p if coef else 1
    return tuple(terms.get(i, 0) for i in range(max(terms) + 1))
