"""Field arithmetic: axioms on sampled scalars, validation, parsing."""

import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from frobcalc import fields
from frobcalc.errors import InternalInconsistency, MalformedInput
from frobcalc.fields import (Field, _is_irreducible, _poly_divmod, _poly_gcdex,
                             _poly_mul_mod, is_prime)
from frobcalc.linalg import Matrix

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
        x, y, z = (field.coerce(v) for v in (a, b, c))
        add, mul = field.add, field.mul
        assert add(add(x, y), z) == add(x, add(y, z))
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
        assert add(x, y) == add(y, x)
        assert mul(x, y) == mul(y, x)
        if not field.is_zero(x):
            assert mul(x, field.inv(x)) == field.one()

    axioms()


@pytest.mark.parametrize("field,strat", [(F9, ext_elems(F9)), (F8, ext_elems(F8))],
                         ids=["F9", "F8"])
def test_frobenius_power_is_additive(field, strat):
    p = field.p

    @given(strat, strat)
    def additive(a, b):
        x, y = field.coerce(a), field.coerce(b)
        assert field.pow_int(field.add(x, y), p) == \
            field.add(field.pow_int(x, p), field.pow_int(y, p))

    additive()


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


def _exhaustive_irreducible(m, p):
    """Oracle: a monic m of degree 2-4 is reducible iff it has a root or,
    at degree 4, a monic quadratic factor; found by trying them all."""
    if any(sum(c * r ** i for i, c in enumerate(m)) % p == 0 for r in range(p)):
        return False
    return len(m) < 5 or all(_poly_divmod(list(m), [c, b, 1], p)[1]
                             for b in range(p) for c in range(p))


def _monic(p, deg):
    return [list(low) + [1] for low in itertools.product(range(p), repeat=deg)]


def test_gcd_irreducibility_matches_exhaustive_search():
    counts = {}
    for p in (2, 3, 5, 7):
        for deg in (2, 3, 4):
            for m in _monic(p, deg):
                want = _exhaustive_irreducible(m, p)
                assert _is_irreducible(m, p) == want, (p, m)
                counts[p] = counts.get(p, 0) + want
    assert counts == {2: 6, 3: 29, 5: 200, 7: 721}


def test_extension_inverse_roundtrip():
    # every irreducible quadratic and cubic over F_2 and F_3, F_9 among them
    for p in (2, 3):
        for deg in (2, 3):
            for m in _monic(p, deg):
                if not _exhaustive_irreducible(m, p):
                    continue
                F = Field.extension(p, m)
                for a in F.elements():
                    if not F.is_zero(a):
                        assert F.mul(a, F.inv(a)) == F.one(), (m, a)


# a is not a generator of F9 = F3[a]/(a²+1) (a⁴ = 1) nor of F25 = F5[a]/(a²+2)
# (a⁸ = 1), so their tables start from another residue
TABLED = {"F4": (2, [1, 1, 1]), "F8": (2, [1, 1, 0, 1]), "F9": (3, [1, 0, 1]),
          "F16": (2, [1, 1, 0, 0, 1]), "F25": (5, [2, 0, 1]), "F27": (3, [1, 2, 0, 1])}


@pytest.mark.parametrize("label", list(TABLED))
def test_log_tables_match_polynomial_arithmetic(label):
    # every pair, against products mod m and componentwise sums: Field.mul,
    # inv, div and is_zero, and the loops' Zech sums and −a/L steps
    p, m = TABLED[label]
    F = Field.extension(p, m)
    assert F.order() <= fields.TABLE_BOUND
    one, zero = F.one(), F.zero()

    def residue(c):
        return tuple(c) + (0,) * (F.degree - len(c))

    def add(x, y):
        return tuple((a + b) % p for a, b in zip(x, y))

    def mul(x, y):
        return residue(_poly_mul_mod(list(x), list(y), m, p))

    nonzero = [x for x in F.elements() if x != zero]
    assert all(F.is_zero(x) == (x == zero) for x in F.elements())
    inverse = {x: residue(_poly_gcdex(x, m, p)[1]) for x in nonzero}
    for x in F.elements():
        assert F.neg(x) == tuple(-c % p for c in x)
        for y in F.elements():
            assert F.mul(x, y) == mul(x, y)
            d = {0: x} if x != zero else {}
            F.add_entry(d, 0, y)
            assert d == ({0: add(x, y)} if add(x, y) != zero else {})
            d = {0: one}
            F.axpy(d, {0: y} if y != zero else {}, x)
            assert d == ({0: add(one, mul(x, y))} if add(one, mul(x, y)) != zero else {})
    for x in nonzero:
        assert F.inv(x) == inverse[x] and F.mul(x, inverse[x]) == one
        for y in nonzero:
            quotient = mul(x, inverse[y])
            assert F.div(x, y) == quotient
            # one step of elimination: {0: x, 1: 1} − (x/y)·{0: y, 1: 1}
            col = {0: x, 1: one}
            assert F.eliminate(col, None, ({0: y, 1: one}, None), 0) == 1
            rest = add(one, F.neg(quotient))
            assert col == ({1: rest} if rest != zero else {})


def test_log_tables_check_their_powers(monkeypatch):
    # a product that loses everything cannot list the nonzero residues
    fields._log_tables.cache_clear()
    monkeypatch.setattr(fields, "_poly_mul_mod", lambda a, b, m, p: [])
    with pytest.raises(InternalInconsistency):
        Field.extension(3, [1, 0, 1])


def test_min_poly_validation_is_fast_at_the_largest_prime():
    p = 2**31 - 1
    t0 = time.perf_counter()
    for m in ([1, 0, 1], [10, 1, 0, 0, 1]):
        F = Field.extension(p, m)
        a = F.coerce([3, 1])
        assert F.mul(a, F.inv(a)) == F.one()
    with pytest.raises(MalformedInput):
        Field.extension(p, [3, 0, 0, 0, 1])    # x^4 + 3 = (x^2 - c)(x^2 + c), c^2 = -3
    assert time.perf_counter() - t0 < 1.0


def test_min_poly_components_must_be_ints():
    for bad in ([True, 0, True], [1, 0, True], [1.0, 0, 1], ["1", 0, 1]):
        with pytest.raises(MalformedInput):
            Field.extension(3, bad)


NOT_PRIME = "modulus {} is not a prime below 2**31"
DEGREE = "min_poly must have degree in [2, 4]"
COEFFICIENTS = "min_poly coefficients must be ints reduced mod p"
CONSTRUCTION_ERRORS = [
    (("Reals",), "unknown field kind 'Reals'"),
    ((fields.RATIONALS, 5), "rationals take no modulus"),
    ((fields.RATIONALS, None, [1, 0, 1]), "rationals take no modulus"),
    ((fields.PRIME, 5, [1, 0, 1]), "prime field takes no min_poly"),
] + [((kind, p) + extra, NOT_PRIME.format(p))
     for kind, extra in ((fields.PRIME, ()), (fields.EXTENSION, ([1, 0, 1],)))
     for p in (6, 2**31 + 11, True, None)] + [
    ((fields.EXTENSION, 3), DEGREE),
    ((fields.EXTENSION, 3, [1, 1]), DEGREE),
    ((fields.EXTENSION, 5, [1, 0, 0, 0, 0, 1]), DEGREE),
    ((fields.EXTENSION, 3, [1.0, 0, 1]), COEFFICIENTS),
    ((fields.EXTENSION, 3, [4, 0, 1]), COEFFICIENTS),
    ((fields.EXTENSION, 3, [True, 0, 1]), COEFFICIENTS),
    ((fields.EXTENSION, 3, [1, 0, 2]), "min_poly must be monic"),
    ((fields.EXTENSION, 3, [2, 0, 1]), "min_poly is reducible over F_p"),
]


@pytest.mark.parametrize("args,message", CONSTRUCTION_ERRORS)
def test_field_construction_messages(args, message):
    # CLI reports carry these texts under input/schema
    with pytest.raises(MalformedInput) as exc:
        Field(*args)
    assert str(exc.value) == message


def test_parse_sends_non_strings_to_coerce():
    assert Q.parse(3) == 3 and F9.parse([1, 2]) == (1, 2)
    for field in (Q, F5, F9):
        for bad in (True, False, 0.5, None):
            with pytest.raises(MalformedInput):
                field.parse(bad)


def test_rational_normal_form():
    v = Q.coerce(Fraction(4, -6))
    assert v.denominator == 3 and v.numerator == -2


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
    # raw values carry no field: matrices over different fields never mix
    q, f5 = Matrix(Q, [[1]]), Matrix(F5, [[1]])
    for op in (lambda: q + f5, lambda: f5 - q, lambda: q * f5, lambda: f5 * q):
        with pytest.raises(MalformedInput):
            op()
    with pytest.raises(MalformedInput):
        F5.coerce(Fraction(1, 2))


def test_scalar_equals_only_scalars_of_its_field():
    # a raw value is reduced on the way in, so equal residues are one value
    assert F5.coerce(6) == F5.coerce(1) == 1
    assert hash(F5.coerce(6)) == hash(F5.coerce(1))
    assert len({F5.coerce(1), F5.coerce(6)}) == 1
    assert F9.coerce([4, 5]) == F9.coerce((1, 2)) == (1, 2)
    assert Field.prime(5) != Field.rationals() and Field.prime(5) != Field.prime(7)
    assert Field.prime(3) != F9 and F9 == Field.extension(3, [1, 0, 1])


def test_extension_components_must_be_ints():
    # ½ = 2 in F_3: a component is never truncated, rounded or parsed
    for bad in ([Fraction(1, 2), 0], [1.5, 0], ["2", 0], [True, 0], (0, False)):
        with pytest.raises(MalformedInput):
            F9.coerce(bad)
    with pytest.raises(MalformedInput):
        F9.coerce([0, 1, 0])
    assert F9.coerce([-1]) == (2, 0) and F9.coerce(7) == (1, 0)
    for field in (F5, F9, Q):
        for bad in (True, 0.5, "1"):
            with pytest.raises(MalformedInput):
                field.coerce(bad)
    with pytest.raises(MalformedInput):
        F5.coerce((1, 0))


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
    x, y = Q.coerce(a), Q.coerce(Fraction(a))
    assert x == y and hash(x) == hash(y)
    assert Q.format(x) == Q.format(y) == str(Fraction(a))
    assert_canonical([x, y])
    if not Q.is_zero(x):
        assert_canonical([Q.div(x, y)])


def test_integral_scalar_matches_fraction_spelling():
    x, y = Q.coerce(3), Q.coerce(Fraction(6, 2))
    assert x == y and hash(x) == hash(y)
    assert Q.format(x) == Q.format(y) == "3"
    assert len({x, y}) == 1
