"""The shift-and-add table builder: the oracle of finite_field._build_tables.

shift_and_add_tables builds exp, log and zech of an extension field the
plain way: every power of g is one general product of the one before, and
a product is shift-and-add over F_p on the indices themselves (a times each
digit of b, with a*t reduced by the modulus at every shift).  The primitive
element g is the first index in p..q-1 whose powers g^(n/r) for the primes
r | n = q-1 are all != 1.  It shares no code with the x*t walk it checks.
"""

from orbitstat.finite_field import prime_factors


def shift_and_add_tables(ctx) -> tuple:
    """(exp, log, zech) of an extension field, as _build_tables gives them."""
    p, e, q = ctx.p, ctx.e, ctx.q
    n = q - 1
    top = q // p  # weight of the t^(e-1) digit
    low = 0  # index of t^e - modulus, the reduction of t^e
    for c in reversed(ctx.modulus[:-1]):
        low = low * p + (-c) % p

    def scaled_sum(a: int, c: int, b: int) -> int:
        """Index of a + c*b for c in F_p."""
        if not c:
            return a
        if p == 2:
            return a ^ b
        out, w = 0, 1
        while a or b:
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            out += (x + c * y) % p * w
            w *= p
        return out

    def times(a: int, b: int) -> int:
        out = 0
        while True:
            b, c = divmod(b, p)
            out = scaled_sum(out, c, a)
            if not b:
                return out
            hi, a = divmod(a, top)
            a = scaled_sum(a * p, hi, low)  # a*t, with t^e reduced

    def power(a: int, k: int) -> int:
        out = 1
        while k:
            if k & 1:
                out = times(out, a)
            a = times(a, a)
            k >>= 1
        return out

    primes = prime_factors(n)
    g = next(a for a in range(p, q) if all(power(a, n // r) != 1 for r in primes))
    exp = [0] * n
    log = [0] * q
    x = 1
    for k in range(n):
        exp[k] = x
        log[x] = k
        x = times(x, g)
    if p == 2:
        return exp, log, None
    zech = [0] * n
    for k, x in enumerate(exp):
        y = x - x % p + (x + 1) % p  # 1 + x: only the constant digit moves
        zech[k] = log[y] if y else -1
    return exp, log, zech
