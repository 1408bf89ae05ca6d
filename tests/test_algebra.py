"""Structure-constant algebras: products, centers, maps, constructions."""

from fractions import Fraction

import pytest

from frobcalc.algebra import (Algebra, Element, LinearMap, ad, center_basis,
                              commutator_subspace, derivation_witness,
                              direct_product, endomorphism_witness,
                              extend_element, extend_map, extend_scalars,
                              inner_automorphism, inverse_of, left_mult_matrix,
                              product_embed, restrict_element, restrict_gram,
                              restrict_map, restrict_scalars)
from frobcalc.errors import MalformedInput, RoleViolation
from frobcalc.fields import Field
from frobcalc.gallery import exterior, matrix_algebra, qci
from frobcalc.linalg import Matrix
from frobcalc.rng import SplitMix64

Q = Field.rationals()


def is_endomorphism(A, m):
    return endomorphism_witness(A, m) is None


def is_derivation(A, m):
    return derivation_witness(A, m) is None


def dual_numbers():
    return Algebra(Q, 2, ["1", "t"], [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
                   [1, 0])


def test_constructor_rejects_broken_tables():
    # e0 declared the unit but e0*e1 = 0 breaks the unit law
    with pytest.raises(MalformedInput):
        Algebra(Q, 2, ["1", "t"], [(0, 0, 0, 1)], [1, 0])
    # non-associative: e1*e1 = e1 with e1*(e1*e1) != (e1*e1)*e1 forced below
    with pytest.raises(MalformedInput):
        Algebra(Q, 3, ["1", "a", "b"],
                [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1),
                 (0, 2, 2, 1), (2, 0, 2, 1),
                 (1, 1, 2, 1), (1, 2, 0, 1), (2, 1, 1, 1), (2, 2, 2, 1)],
                [1, 0, 0])


def test_multiply_qci_relations():
    g = qci(2)
    x, y, xy = g.x, g.y, g.xy
    assert y * x == xy.scale(2)            # yx = q·xy
    assert x * x == g.algebra.zero_element()
    assert (g.algebra.unit_element() * y) == y
    a = x + y.scale(3)
    assert a * g.algebra.unit_element() == a


def test_multiply_exterior_antisymmetry():
    e = exterior(2)
    x1, x2 = e.generator(0), e.generator(1)
    top = e.monomial((0, 1))
    assert x1 * x2 == top
    assert x2 * x1 == -top


def test_left_mult_matrix():
    g = qci(2)
    A = g.algebra
    assert left_mult_matrix(A.unit_element()) == Matrix.identity(Q, 4)
    m2 = matrix_algebra(2)
    e11 = m2.algebra.basis_element(0)
    l11 = left_mult_matrix(e11).data
    assert sum(l11[i][i] for i in range(4)) == Fraction(2)
    lx = left_mult_matrix(g.x)
    assert lx * lx == Matrix.zero(Q, 4, 4)


def test_inverse_of():
    g = qci(2)
    A = g.algebra
    one = A.unit_element()
    assert inverse_of(one) == one
    assert inverse_of(one + g.x) == one - g.x
    assert inverse_of(g.x) is None


def test_center_basis():
    g = qci(2)
    zs = center_basis(g.algebra)
    assert len(zs) == 2
    span_coords = sorted(tuple(z.raw) for z in zs)
    one = g.algebra.unit_element()
    assert one in [Element(g.algebra, v, _raw=True) for v in span_coords] or \
        any(z == one for z in zs)
    assert any(z == g.xy for z in zs)
    # every returned element commutes with the whole basis
    for z in zs:
        for i in range(4):
            b = g.algebra.basis_element(i)
            assert z * b == b * z
    m2 = matrix_algebra(2)
    assert len(center_basis(m2.algebra)) == 1
    assert len(center_basis(dual_numbers())) == 2  # commutative: everything


def test_commutator_subspace():
    from frobcalc.frobenius import make_frobenius
    g = qci(2)
    plain = commutator_subspace(g.algebra)
    assert len(plain) == 1
    assert plain[0].raw[3] != 0 and all(c == 0 for c in plain[0].raw[:3])
    F = make_frobenius(g.algebra, g.gram)
    twisted = commutator_subspace(g.algebra, F.sigma)
    assert len(twisted) == 2
    # spans x and y
    coords = {tuple(1 if c != 0 else 0 for c in z.raw) for z in twisted}
    assert coords == {(0, 1, 0, 0), (0, 0, 1, 0)}
    assert commutator_subspace(dual_numbers()) == []


def test_is_endomorphism():
    g = qci(2)
    A = g.algebra
    assert is_endomorphism(A, Matrix.identity(Q, 4))
    assert is_endomorphism(A, g.alpha(2, 3, 1, 5).matrix)
    # transposing the multiplication-by-x map is not multiplicative
    m2 = matrix_algebra(2)
    bad = left_mult_matrix(m2.algebra.basis_element(1)).transpose() \
        + Matrix.identity(Q, 4)
    w = endomorphism_witness(m2.algebra, bad)
    assert w is not None


def test_is_derivation():
    g = qci(2)
    A = g.algebra
    assert is_derivation(A, Matrix.zero(Q, 4, 4))
    assert is_derivation(A, g.delta(1, 2, 3, 4).matrix)
    assert not is_derivation(A, Matrix.identity(Q, 4))


def test_ad():
    g = qci(2)
    d = ad(g.y)
    assert d(g.x) == g.xy                     # yx − xy = (q−1)xy, q = 2
    assert ad(g.algebra.unit_element()).matrix == Matrix.zero(Q, 4, 4)
    e = exterior(2)
    assert ad(e.generator(0))(e.generator(1)) == e.monomial((0, 1)).scale(2)
    for i in range(4):
        assert is_derivation(g.algebra, ad(g.algebra.basis_element(i)).matrix)


def test_inner_automorphism():
    g = qci(2)
    A = g.algebra
    assert inner_automorphism(A.unit_element().scale(5)).is_identity()
    u = inner_automorphism(A.unit_element() + g.x)
    assert u(g.y) == g.y - g.xy               # y + (1−q)xy
    assert is_endomorphism(A, u.matrix) and u.is_invertible()
    with pytest.raises(MalformedInput):
        inner_automorphism(g.x)
    rng = SplitMix64(11)
    for _ in range(5):
        cand = Element(A, [Q.random(rng, 2) for _ in range(4)])
        if inverse_of(cand) is None:
            continue
        v = inner_automorphism(cand)
        assert is_endomorphism(A, v.matrix) and v.is_invertible()


def test_direct_product():
    g = qci(2)
    m2 = matrix_algebra(2)
    P = direct_product(g.algebra, m2.algebra)
    assert P.dim == 8
    assert len(center_basis(P)) == 3
    unit = P.unit_element()
    assert unit * unit == unit
    ex = product_embed(P, g.x, 0)
    ey = product_embed(P, m2.algebra.basis_element(1), 4)
    assert (ex * ey).is_zero()
    with pytest.raises(MalformedInput):
        direct_product(g.algebra, matrix_algebra(2, Field.prime(5)).algebra)


def test_role_validation():
    g = qci(2)
    with pytest.raises(RoleViolation):
        LinearMap(g.algebra, Matrix.identity(Q, 4), "derivation")
    with pytest.raises(RoleViolation):
        LinearMap(g.algebra, Matrix.zero(Q, 4, 4), "endomorphism")


def test_extend_scalars():
    F2 = Field.prime(2)
    F4 = Field.extension(2, [1, 1, 1])
    e = exterior(2, F2, require_odd_char=False)
    AK = extend_scalars(e.algebra, F4)
    assert AK.dim == 4 and AK.field == F4
    # structure constants are the same residues, read in the extension
    for (i, j), terms in e.algebra.structure.items():
        lifted = AK.structure[(i, j)]
        assert [(k, F4.from_int(c)) for k, c in terms] == list(lifted)
    u = e.phi(Matrix(F2, [[1, 1], [0, 1]]))
    uK = extend_map(AK, u)
    img = Element(AK, uK.matrix.apply(extend_element(AK, e.generator(0)).raw),
                  _raw=True)
    assert img == extend_element(AK, u(e.generator(0)))
    with pytest.raises(MalformedInput):
        extend_scalars(e.algebra, Field.extension(3, [1, 0, 1]))


def test_restrict_scalars():
    F2 = Field.prime(2)
    F4 = Field.extension(2, [1, 1, 1])
    # F_4 itself as an F_2-algebra: a 2-dimensional field extension
    K_as_algebra = Algebra(F4, 1, ["1"], [(0, 0, 0, 1)], [(1, 0)])
    Ap = restrict_scalars(K_as_algebra, F2)
    assert Ap.dim == 2
    for i in range(2):
        e = Ap.basis_element(i)
        if e != Ap.unit_element():
            assert inverse_of(e) is not None   # a field: nonzero => unit
    # F_4[x]/(x^2) over F_2 has dimension 4
    c2 = Algebra(F4, 2, ["1", "x"],
                 [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)], [(1, 0), (0, 0)])
    Ap2 = restrict_scalars(c2, F2)
    assert Ap2.dim == 4
    # multiplication matches: (x·a)·(x·a) = x^2 a^2 = 0
    xa = restrict_element(Ap2, Element(c2, [(0, 0), (0, 1)], _raw=True))
    assert (xa * xa).is_zero()


@pytest.mark.parametrize("K", [Field.extension(2, [1, 1, 1]),
                               Field.extension(3, [1, 0, 1]),
                               Field.extension(2, [1, 1, 0, 1])],
                         ids=["F4", "F9", "F8"])
def test_restriction_rule(K):
    # every F_{p^k}-scalar c becomes its multiplication block M_c, checked
    # against K.mul directly: forms entrywise, maps on elements, products
    Fp, k = Field.prime(K.p), K.degree
    A = matrix_algebra(2, K).algebra
    Ap = restrict_scalars(A, Fp)
    rng = SplitMix64(11)

    def rand_matrix():
        return Matrix(K, [[K.random(rng) for _ in range(A.dim)]
                          for _ in range(A.dim)])

    def rand_element():
        return Element(A, [K.random(rng) for _ in range(A.dim)])

    powers = [K.one()]
    for _ in range(2 * k - 2):
        powers.append(K.mul(powers[-1], K.coerce([0, 1])))
    gram, eps = rand_matrix(), [(s + 1) % K.p for s in range(k)]
    gp = restrict_gram(Ap, A, gram, eps)
    for i in range(A.dim):
        for j in range(A.dim):
            for s in range(k):
                for t in range(k):
                    val = K.mul(powers[s + t], gram.data[i][j])
                    assert gp.data[i * k + s][j * k + t] == \
                        sum(e * c for e, c in zip(eps, val)) % K.p
    u = LinearMap(A, rand_matrix())
    v = LinearMap(A, rand_matrix())
    assert restrict_map(Ap, A, u.compose(v)).matrix == \
        restrict_map(Ap, A, u).matrix * restrict_map(Ap, A, v).matrix
    assert restrict_element(Ap, A.unit_element()) == Ap.unit_element()
    for _ in range(4):
        x, y = rand_element(), rand_element()
        rx = restrict_element(Ap, x)
        assert restrict_map(Ap, A, u)(rx) == restrict_element(Ap, u(x))
        assert rx * restrict_element(Ap, y) == restrict_element(Ap, x * y)


def test_extend_scalars_cyclic_gram_unchanged():
    from frobcalc.gallery import cyclic
    from frobcalc.algebra import extend_gram
    F9 = Field.extension(3, [1, 0, 1])
    c3 = cyclic(3)
    AK = extend_scalars(c3.algebra, F9)
    gramK = extend_gram(AK, c3.gram)
    for i in range(3):
        for j in range(3):
            assert gramK.data[i][j] == F9.from_int(c3.gram.data[i][j])


def test_inner_automorphism_central_unit_is_identity():
    g = qci(2)
    A = g.algebra
    c = A.unit_element().scale(3) + g.xy        # central unit, not a scalar
    assert inverse_of(c) is not None
    assert inner_automorphism(c).is_identity()


def test_direct_product_split_idempotents():
    Q1 = Algebra(Q, 1, ["1"], [(0, 0, 0, 1)], [1])
    P = direct_product(Q1, Q1)
    assert P.dim == 2
    e1, e2 = P.basis_element(0), P.basis_element(1)
    assert e1 * e1 == e1 and e2 * e2 == e2
    assert (e1 * e2).is_zero() and (e2 * e1).is_zero()
    assert e1 + e2 == P.unit_element()


def test_zero_dimensional_algebra_rejected():
    with pytest.raises(MalformedInput):
        Algebra(Q, 0, [], [], [])


def test_hash_agrees_with_eq_across_builds():
    a, b = qci(2).algebra, qci(2).algebra
    assert a is not b
    assert len({a.basis_element(1), b.basis_element(1)}) == 1
    assert len({LinearMap.identity(a), LinearMap.identity(b)}) == 1


def test_element_powers():
    g = qci(2)
    one = g.algebra.unit_element()
    s = one + g.x
    assert s ** 0 == one
    assert s ** 2 == one + g.x.scale(2)
    assert s ** -1 == one - g.x
    with pytest.raises(ZeroDivisionError):
        g.x ** -1
