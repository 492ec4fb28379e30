"""Field construction, arithmetic axioms, and the spec syntax."""

import pytest
from hypothesis import given, strategies as st

from orbitstat.finite_field import (
    FieldCtx,
    format_field_spec,
    is_prime,
    make_field,
    parse_field_spec,
    prime_power,
)
from orbitstat.polynomial import Poly, _mul

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F8 = make_field(2, 3)
F9 = make_field(3, 2)
SMALL_FIELDS = (F2, F3, F4, F5, F8, F9)


def test_is_prime_small_values():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_prime_power_decomposition():
    assert prime_power(2) == (2, 1)
    assert prime_power(8) == (2, 3)
    assert prime_power(49) == (7, 2)
    assert prime_power(1024) == (2, 10)
    for bad in (1, 6, 12, 100):
        with pytest.raises(ValueError):
            prime_power(bad)


def test_default_moduli_are_the_first_irreducibles():
    # lexicographic order on (c0, ..., c_{e-1}), constant coefficient first
    assert F4.modulus == (1, 1, 1)  # t^2 + t + 1
    assert F8.modulus == (1, 0, 1, 1)  # t^3 + t^2 + 1
    assert F9.modulus == (1, 0, 1)  # t^2 + 1


def test_element_enumeration_order():
    # index = c0 + c1*p + ..., so the constant coordinate moves fastest
    digits = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert [F4.index_of(d) for d in digits] == [0, 1, 2, 3]
    assert [F4.element_text(i) for i in range(4)] == ["0", "1", "[0,1]", "[1,1]"]
    assert F9.index_of((2,)) == F9.index_of((5, 3)) == 2  # short, reduced mod p
    with pytest.raises(ValueError, match="element vector of length 3 in a degree-2"):
        F4.index_of((0, 0, 1))


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        make_field(4)
    with pytest.raises(ValueError):
        make_field(6)
    with pytest.raises(ValueError):
        make_field(2, 17)  # 2^17 > 2^16
    with pytest.raises(ValueError):
        make_field(2, 1, modulus=(1, 1))  # modulus only for extensions
    with pytest.raises(ValueError):
        make_field(2, 2, modulus=(1, 1))  # wrong length
    with pytest.raises(ValueError):
        make_field(2, 2, modulus=(0, 0, 1))  # reducible: t^2
    with pytest.raises(ValueError):
        make_field(2, 2, modulus=(1, 1, 0))  # not monic


def test_alternate_modulus_is_accepted():
    # t^2 + t + 2 is irreducible over F_3
    k = make_field(3, 2, modulus=(2, 1, 1))
    t = k.index_of((0, 1))
    assert k.mul(t, t) == k.index_of((1, 2))  # t^2 = -t - 2 = 2t + 1 over F_3


def test_field_axioms_exhaustively_on_f8():
    add, mul = F8.add, F8.mul
    elems = range(F8.q)
    for a in elems:
        assert add(a, 0) == a and mul(a, 1) == a
        assert F8.sub(a, a) == 0
        if a:
            assert mul(a, F8.inv(a)) == 1
    for a in elems:
        for b in elems:
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
    for a in elems[:4]:
        for b in elems:
            for c in elems:
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@given(st.sampled_from(SMALL_FIELDS), st.data())
def test_fermat_little_theorem(ctx, data):
    a = data.draw(st.integers(1, ctx.q - 1))
    assert ctx.power(a, ctx.q - 1) == 1
    assert ctx.power(a, ctx.q) == a


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_prime_field_matches_integer_arithmetic(x, y):
    p = 13
    k = make_field(p)
    a, b = x % p, y % p
    assert k.add(a, b) == (x + y) % p
    assert k.mul(a, b) == (x * y) % p
    assert k.sub(a, b) == (x - y) % p


def test_power_edge_cases():
    t = F4.index_of((0, 1))
    assert F4.power(t, 0) == 1
    assert F4.power(0, 0) == 1
    with pytest.raises(ZeroDivisionError):
        F4.inv(0)


def test_str_forms():
    assert F5.element_text(3) == "3"
    assert F4.element_text(F4.index_of((1, 1))) == "[1,1]"
    assert F4.element_text(1) == "1"  # the prime field prints as residues


def test_mixed_field_operations_rejected():
    # a Poly is a value with its field: equal coefficients over two fields
    # differ, and it has no arithmetic to mix them in
    one2, one3 = Poly(F2, (1,)), Poly(F3, (1,))
    assert one2 != one3
    with pytest.raises(TypeError):
        one2 + one3


def test_parse_field_spec_forms():
    assert parse_field_spec("q=2") == F2
    assert parse_field_spec("q=2^2") == F4
    assert parse_field_spec("q=4") == F4  # plain prime powers resolve
    assert parse_field_spec("q=3^2;mod=[1,0,1]") == F9
    k = parse_field_spec("q=3^2;mod=[2,1,1]")
    assert k.modulus == (2, 1, 1)
    with pytest.raises(ValueError):
        parse_field_spec("4")
    with pytest.raises(ValueError):
        parse_field_spec("q=6")


@given(st.sampled_from(SMALL_FIELDS))
def test_format_round_trips(ctx):
    assert parse_field_spec(format_field_spec(ctx)) == ctx


def test_equal_parameters_give_interchangeable_contexts():
    """Two independently built fields with the same (p, e, modulus) are equal,
    so polynomials over them interoperate."""
    k1 = make_field(2, 2)
    k2 = make_field(2, 2)
    assert k1 == k2 and isinstance(k1, FieldCtx)
    assert Poly(k1, (2,)) == Poly(k2, (2,)) and hash(Poly(k1, (2,))) == hash(Poly(k2, (2,)))
    assert _mul(k1, (2,), (3,)) == _mul(k2, (2,), (3,)) == (1,)


def test_one_shared_context_per_field():
    assert parse_field_spec("q=4096") is parse_field_spec("q=2^12") is make_field(2, 12)
    assert parse_field_spec("q=4") is make_field(2, 2, modulus=(1, 1, 1))
    assert make_field(3, 2, modulus=(5, 4, 1)) is make_field(3, 2, modulus=(2, 1, 1))
    assert make_field(7) is parse_field_spec("q=7")


def test_a_context_hashes_as_its_parameters():
    """The hash, taken once at construction, is the hash of (p, e, q,
    modulus), so dicts and sets keyed on contexts keep their order."""
    alternate = make_field(3, 2, modulus=(2, 1, 1))
    for ctx in (*SMALL_FIELDS, alternate, make_field(2, 16), make_field(65521)):
        assert hash(ctx) == hash((ctx.p, ctx.e, ctx.q, ctx.modulus))
        assert hash(ctx) == hash(FieldCtx(ctx.p, ctx.e, ctx.q, ctx.modulus))
    assert alternate != F9 and len({F9, alternate, make_field(3, 2)}) == 2


def test_refused_fields_are_refused_every_time():
    for _ in range(2):
        with pytest.raises(ValueError, match="reducible"):
            make_field(2, 2, modulus=(0, 0, 1))
        with pytest.raises(ValueError, match="prime"):
            make_field(6)
