"""Form validation, the induced automorphism, and innerness decisions."""

from fractions import Fraction

import pytest

from frobcalc.algebra import inner_automorphism, inverse_of
from frobcalc.errors import MalformedInput
from frobcalc.fields import Field
from frobcalc.frobenius import (is_inner, is_symmetric_algebra, make_frobenius,
                                relate_forms, sigma_fixes_center,
                                unit_in_subspace)
from frobcalc.gallery import (cyclic, exterior, matrix_algebra, qci,
                              s3_group_algebra, trivial_extension)
from frobcalc.linalg import Matrix, sum_product
from frobcalc.rng import SplitMix64

Q = Field.rationals()


def pair_raw(F, a, b):
    """⟨a, b⟩ = a·(G b) for raw coordinate vectors."""
    return sum_product(F.algebra.field, a, F.gram.apply(b))


def test_sigma_qci():
    for q in (2, 3, Fraction(1, 2)):
        item = qci(q)
        F = make_frobenius(item.algebra, item.gram)
        f = item.field
        assert F.sigma(item.x) == item.x.scale(f.inv(f.coerce(q)))
        assert F.sigma(item.y) == item.y.scale(q)
        assert F.sigma(item.algebra.unit_element()) == item.algebra.unit_element()
        assert F.sigma(item.xy) == item.xy


def test_sigma_exterior():
    e2 = exterior(2)
    F2 = make_frobenius(e2.algebra, e2.gram)
    for i in range(2):
        assert F2.sigma(e2.generator(i)) == -e2.generator(i)
    e3 = exterior(3)
    F3 = make_frobenius(e3.algebra, e3.gram)
    assert F3.sigma.is_identity()


def test_sigma_identity_families():
    for item in (cyclic(3), cyclic(5), trivial_extension(matrix_algebra(2).algebra),
                 matrix_algebra(2), s3_group_algebra()):
        F = make_frobenius(item.algebra, item.gram)
        assert F.sigma.is_identity()


def test_symmetric_gram_gives_identity_sigma():
    item = exterior(3)
    assert item.gram == item.gram.transpose()
    F = make_frobenius(item.algebra, item.gram)
    assert F.sigma.matrix == Matrix.identity(Q, item.algebra.dim)


def test_degenerate_gram_rejected():
    item = qci(2)
    with pytest.raises(MalformedInput):
        make_frobenius(item.algebra, Matrix.zero(Q, 4, 4))


def test_nonassociative_gram_rejected_with_witness():
    item = qci(2)
    g = Matrix.identity(Q, 4)   # non-degenerate but not associative here
    with pytest.raises(MalformedInput) as err:
        make_frobenius(item.algebra, g)
    assert "witness triple" in str(err.value)


def test_sigma_fixes_center_all_families():
    for item in (qci(2), exterior(2), exterior(4), cyclic(5),
                 matrix_algebra(3), s3_group_algebra(),
                 trivial_extension(matrix_algebra(2).algebra)):
        F = make_frobenius(item.algebra, item.gram)
        assert sigma_fixes_center(F)


def test_beta_transport():
    # β⁻¹(a·β(b)) = σ⁻¹(a)·b, with (a·λ)(v) = λ(va)
    item = qci(2)
    A = item.algebra
    F = make_frobenius(A, item.gram)
    sinv = F.sigma_inv()
    for i in range(A.dim):
        a = A.basis_element(i)
        for j in range(A.dim):
            b = A.basis_element(j)
            lam = [pair_raw(F, b.raw, A.mul_raw(A._basis_vec(v), a.raw))
                   for v in range(A.dim)]
            assert F.beta_inverse_functional(lam) == sinv(a) * b


def test_relate_forms_roundtrip():
    item = qci(2)
    A = item.algebra
    F = make_frobenius(A, item.gram)
    # gram2 = gram gives t = 1
    t, ok = relate_forms(F, item.gram)
    assert t == A.unit_element() and ok
    # a central unit c: construction inverts itself
    c = A.unit_element().scale(3) + item.xy
    rows = [[pair_raw(F, A._basis_vec(i), A.mul_raw(A._basis_vec(j), c.raw))
             for j in range(A.dim)] for i in range(A.dim)]
    t, ok = relate_forms(F, Matrix(Q, rows, _raw=True))
    assert t == c and ok
    # t = 1 + x changes sigma by conjugation
    u = A.unit_element() + item.x
    rows = [[pair_raw(F, A._basis_vec(i), A.mul_raw(A._basis_vec(j), u.raw))
             for j in range(A.dim)] for i in range(A.dim)]
    t, ok = relate_forms(F, Matrix(Q, rows, _raw=True))
    assert t == u and ok
    with pytest.raises(MalformedInput):
        relate_forms(F, Matrix.zero(Q, 4, 4))


def test_is_inner():
    item = qci(2)
    A = item.algebra
    F = make_frobenius(A, item.gram)
    rng = SplitMix64(5)
    from frobcalc.algebra import LinearMap
    res = is_inner(F, LinearMap.identity(A), rng)
    assert res.verdict == "yes"
    # sigma of a non-symmetric algebra is not inner
    res = is_inner(F, F.sigma, rng)
    assert res.verdict == "no"
    # an actual inner map is recognized, with t·s⁻¹ central
    s = A.unit_element() + item.x
    res = is_inner(F, inner_automorphism(s), rng)
    assert res.verdict == "yes"
    d = res.unit * inverse_of(s)
    assert all(d * A.basis_element(i) == A.basis_element(i) * d
               for i in range(A.dim))


def test_is_symmetric_algebra():
    rng = SplitMix64(5)
    checks = [
        (trivial_extension(matrix_algebra(2).algebra), "yes"),
        (exterior(3), "yes"),
        (exterior(2), "no"),
        (qci(2), "no"),
    ]
    for item, expect in checks:
        F = make_frobenius(item.algebra, item.gram)
        assert is_symmetric_algebra(F, rng).verdict == expect


def test_two_nakayama_maps_differ_by_inner():
    item = qci(3)
    A = item.algebra
    F = make_frobenius(A, item.gram)
    t = A.unit_element() + item.y
    rows = [[pair_raw(F, A._basis_vec(i), A.mul_raw(A._basis_vec(j), t.raw))
             for j in range(A.dim)] for i in range(A.dim)]
    F2 = make_frobenius(A, Matrix(Q, rows, _raw=True))
    diff = F2.sigma.compose(F.sigma_inv())
    assert is_inner(F, diff, SplitMix64(5)).verdict == "yes"


def test_unit_search_finite_field_exhausts():
    c3 = cyclic(3)
    A = c3.algebra
    # the radical contains no unit: exhaustive over F_3
    basis = [A.basis_element(1), A.basis_element(2)]
    res = unit_in_subspace(A, basis, SplitMix64(5))
    assert res.verdict == "no"
    res = unit_in_subspace(A, [A.unit_element(), A.basis_element(1)],
                           SplitMix64(5))
    assert res.verdict == "yes"
    assert unit_in_subspace(A, [], SplitMix64(5)).verdict == "no"


def test_unit_search_samples_a_finite_field_too_large_to_exhaust():
    # exterior(3) over F5: 5⁸ and 5⁷ exceed EXHAUST_LIMIT, so both searches
    # sample; the whole algebra holds units, its radical (degree ≥ 1) none
    from frobcalc.frobenius import EXHAUST_LIMIT
    item = exterior(3, Field.prime(5))
    A = item.algebra
    radical = [A.basis_element(i) for i in range(A.dim) if item.degree(i) > 0]
    assert 5 ** len(radical) > EXHAUST_LIMIT
    res = unit_in_subspace(A, A.basis_elements(), SplitMix64(7))
    assert res.verdict == "yes" and inverse_of(res.unit) is not None
    res = unit_in_subspace(A, radical, SplitMix64(7))
    assert (res.verdict, res.unit) == ("inconclusive", None)
    assert res.detail == "no unit found (inconclusive)"
