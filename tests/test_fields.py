"""Field arithmetic: axioms on sampled scalars, validation, parsing."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from frobcalc.errors import MalformedInput
from frobcalc.fields import Field, Scalar, is_prime

Q = Field.rationals()
F5 = Field.prime(5)
F9 = Field.extension(3, [1, 0, 1])       # a^2 + 1 over F_3
F8 = Field.extension(2, [1, 1, 0, 1])    # a^3 + a + 1 over F_2


def rationals():
    return st.fractions(min_value=-50, max_value=50, max_denominator=20)


def residues(p):
    return st.integers(min_value=0, max_value=p - 1)


def ext_elems(field):
    return st.tuples(*[residues(field.p) for _ in range(field.degree)])


FIELD_SAMPLES = [
    (Q, rationals()),
    (F5, residues(5)),
    (F9, ext_elems(F9)),
    (F8, ext_elems(F8)),
]


@pytest.mark.parametrize("field,strat", FIELD_SAMPLES,
                         ids=["Q", "F5", "F9", "F8"])
def test_field_axioms(field, strat):
    @given(strat, strat, strat)
    def axioms(a, b, c):
        x, y, z = (Scalar(field, v) for v in (a, b, c))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
        if not x.is_zero():
            assert x * x.inverse() == Scalar(field, field.one())

    axioms()


@pytest.mark.parametrize("field,strat", [(F9, ext_elems(F9)), (F8, ext_elems(F8))],
                         ids=["F9", "F8"])
def test_frobenius_power_is_additive(field, strat):
    p = field.p

    @given(strat, strat)
    def additive(a, b):
        x, y = Scalar(field, a), Scalar(field, b)
        assert (x + y) ** p == x ** p + y ** p

    additive()


def test_extension_inverse_roundtrip():
    for v in F9.elements():
        if F9.is_zero(v):
            continue
        assert F9.mul(v, F9.inv(v)) == F9.one()


def test_primality_guard():
    assert is_prime(2) and is_prime(3) and is_prime(2**31 - 1)
    assert not is_prime(1) and not is_prime(9) and not is_prime(2**20)
    with pytest.raises(MalformedInput):
        Field.prime(6)
    with pytest.raises(MalformedInput):
        Field.prime(2**31 + 11)


def test_min_poly_validation():
    with pytest.raises(MalformedInput):
        Field.extension(3, [2, 0, 1])      # a^2 + 2 = (a-1)(a+1) over F_3
    with pytest.raises(MalformedInput):
        Field.extension(3, [1, 0, 2])      # not monic
    with pytest.raises(MalformedInput):
        Field.extension(3, [1, 1])         # degree 1
    with pytest.raises(MalformedInput):
        Field.extension(5, [1] + [0] * 4 + [1])  # degree 5
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2 over F_2: no roots, yet reducible
    with pytest.raises(MalformedInput):
        Field.extension(2, [1, 0, 1, 0, 1])
    # x^4 + x^3 + 1 is irreducible over F_2
    Field.extension(2, [1, 0, 0, 1, 1])


def test_rational_normal_form():
    s = Scalar(Q, Fraction(4, -6))
    assert s.value.denominator == 3 and s.value.numerator == -2


def test_parse_and_format():
    assert Q.parse("-3/7") == Fraction(-3, 7)
    assert F5.parse("12") == 2
    assert F9.parse("2,1") == (2, 1)
    assert F9.parse(F9.format((2, 1))) == (2, 1)
    with pytest.raises(MalformedInput):
        Q.parse("one")
    with pytest.raises(MalformedInput):
        F5.parse("a")


def test_mixed_field_rejected():
    with pytest.raises(MalformedInput):
        Scalar(Q, Fraction(1)) + Scalar(F5, 1)
    with pytest.raises(MalformedInput):
        F5.coerce(Scalar(Q, Fraction(1)))


def test_scalar_equals_only_scalars_of_its_field():
    # a raw value is never equal to a Scalar, so equal objects hash alike
    assert Scalar(F5, 1) != 6 and Scalar(F5, 1) != 1
    assert Scalar(Q, Fraction(1, 2)) != Fraction(1, 2)
    assert Scalar(F5, 1) != Scalar(Q, 1)
    assert Scalar(F5, 1) == Scalar(F5, 6)
    assert hash(Scalar(F5, 1)) == hash(Scalar(F5, 6))
    assert len({Scalar(F5, 1), Scalar(F5, 6)}) == 1


# --- the raw rational form: an int exactly when the value is integral ------

def canonical_rationals():
    """Raw rationals in every spelling a caller may hand in: ints,
    ``Fraction(n, 1)`` and Fractions built with negative denominators."""
    nums = st.integers(min_value=-60, max_value=60)
    dens = st.integers(min_value=-12, max_value=12).filter(bool)
    return st.one_of(nums, st.builds(Fraction, nums), st.builds(Fraction, nums, dens))


def assert_canonical(values):
    """Each raw rational is an int exactly when it is integral, else a
    Fraction: never a float, a bool or a Fraction with denominator 1."""
    for v in values:
        assert type(v) is (int if Fraction(v).denominator == 1 else Fraction), repr(v)


def test_rational_constants_are_ints():
    from frobcalc.rng import SplitMix64
    for v in (Q.zero(), Q.one(), Q.from_int(-7), Q.coerce(Fraction(6, 3)),
              Q.parse("4/2"), Q.parse("-0"), Q.parse(5), Q.inv(1), Q.inv(Fraction(-1, 1)),
              Q.div(Fraction(3, 2), Fraction(3, 4))):
        assert type(v) is int
    rng, ref = SplitMix64(7), SplitMix64(7)
    for _ in range(50):
        v = Q.random(rng, 3)
        assert type(v) is int and v == ref.small_int(3)
    with pytest.raises(MalformedInput):
        Q.coerce(True)
    with pytest.raises(MalformedInput):
        Q.coerce(0.5)


@given(canonical_rationals(), canonical_rationals(), st.integers(min_value=-4, max_value=4))
def test_rational_ops_keep_the_canonical_form(a, b, n):
    fa, fb = Fraction(a), Fraction(b)
    results = [
        (Q.coerce(a), fa),
        (Q.parse(str(fa)), fa),
        (Q.parse(Q.format(Q.coerce(a))), fa),
        (Q.from_int(fa.numerator), fa.numerator),
        (Q.add(a, b), fa + fb),
        (Q.sub(a, b), fa - fb),
        (Q.mul(a, b), fa * fb),
        (Q.neg(a), -fa),
    ]
    if fb:
        results += [(Q.inv(b), 1 / fb), (Q.div(a, b), fa / fb)]
    if fa or n >= 0:
        results.append((Q.pow_int(a, n), fa ** n))
    assert_canonical(got for got, _ in results)
    for got, want in results:
        assert got == want and hash(got) == hash(want)


@given(canonical_rationals())
def test_rational_scalars_ignore_the_spelling(a):
    x, y = Scalar(Q, a), Scalar(Q, Fraction(a))
    assert x == y and hash(x) == hash(y) and str(x) == str(y) == str(Fraction(a))
    assert_canonical([x.value])
    if not x.is_zero():
        assert_canonical([(x / y).value])


def test_integral_scalar_matches_fraction_spelling():
    x, y = Scalar(Q, 3), Scalar(Q, Fraction(6, 2))
    assert x == y and hash(x) == hash(y)
    assert Q.format(x.value) == Q.format(y.value) == "3"
    assert len({x, y}) == 1
