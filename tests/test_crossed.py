"""Crossed products: construction, the induced form, the predicted map."""

import pytest

from frobcalc.algebra import LinearMap
from frobcalc.crossed import (GroupAction, TwoCocycle, build_crossed_product,
                              crossed_form, predicted_nakayama)
from frobcalc.errors import MalformedInput
from frobcalc.fields import Field
from frobcalc.frobenius import make_frobenius
from frobcalc.gallery import cyclic, exterior, qci
from frobcalc.groups import cyclic_group
from frobcalc.linalg import Matrix
from frobcalc.rng import SplitMix64

Q = Field.rationals()


def sign_action(ext, G):
    neg = Matrix.identity(Q, ext.n).scale(-1)
    return GroupAction(G, ext.algebra,
                       [LinearMap.identity(ext.algebra), ext.phi(neg)])


def test_action_validation():
    e1 = exterior(1)
    G = cyclic_group(2)
    with pytest.raises(MalformedInput):
        # identity element acting non-trivially
        GroupAction(G, e1.algebra,
                    [e1.phi(Matrix(Q, [[-1]])), e1.phi(Matrix(Q, [[-1]]))])
    with pytest.raises(MalformedInput):
        # not a homomorphism: g² = e must act as identity
        GroupAction(G, e1.algebra,
                    [LinearMap.identity(e1.algebra),
                     e1.phi(Matrix(Q, [[2]]))])


def test_cocycle_validation():
    G = cyclic_group(3)
    TwoCocycle.trivial(G, Q)
    with pytest.raises(MalformedInput):
        TwoCocycle(G, Q, [[1, 1, 1], [1, 1, 1], [1, 1, 0]])
    with pytest.raises(MalformedInput) as err:
        TwoCocycle(G, Q, [[1, 1, 1], [1, 2, 1], [1, 1, 1]])
    assert "witness" in str(err.value)
    # a coboundary always satisfies the law
    TwoCocycle.from_coboundary(G, Q, [1, 2, 5])


def test_trivial_group_returns_copy():
    item = qci(2)
    G = cyclic_group(1)
    act = GroupAction(G, item.algebra, [LinearMap.identity(item.algebra)])
    alpha = TwoCocycle.trivial(G, Q)
    C = build_crossed_product(item.algebra, G, act, alpha)
    assert C.dim == 4
    assert C.structure == {(i, j): t for (i, j), t in item.algebra.structure.items()}
    F = make_frobenius(item.algebra, item.gram)
    gram = crossed_form(F, G, act, alpha)
    assert gram == item.gram
    pred = predicted_nakayama(F, G, act, alpha, C)
    assert pred.matrix == F.sigma.matrix


def test_trivial_group_scaled_cocycle():
    # alpha ≡ 5: the unit absorbs the normalization, the form is rescaled
    item = qci(2)
    G = cyclic_group(1)
    act = GroupAction(G, item.algebra, [LinearMap.identity(item.algebra)])
    alpha = TwoCocycle(G, Q, [[5]])
    C = build_crossed_product(item.algebra, G, act, alpha)
    F = make_frobenius(item.algebra, item.gram)
    gram = crossed_form(F, G, act, alpha)
    assert gram == item.gram.scale(5)
    FC = make_frobenius(C, gram)
    pred = predicted_nakayama(F, G, act, alpha, C)
    assert pred.matrix == FC.sigma.matrix


def test_exterior1_sign_crossing():
    e1 = exterior(1)
    G = cyclic_group(2)
    act = sign_action(e1, G)
    alpha = TwoCocycle.trivial(G, Q)
    C = build_crossed_product(e1.algebra, G, act, alpha)
    assert C.dim == 4
    F = make_frobenius(e1.algebra, e1.gram)
    gram = crossed_form(F, G, act, alpha)
    # ⟨⟨1⋊g, x⋊g⟩⟩ = ⟨1, g(x)⟩ = −1; zero unless the group parts cancel
    assert gram.data[2][3] == Q.from_int(-1)
    assert gram.data[0][1] == Q.from_int(1)
    assert gram.data[0][3] == Q.zero() and gram.data[2][1] == Q.zero()
    FC = make_frobenius(C, gram)
    pred = predicted_nakayama(F, G, act, alpha, C)
    assert pred.matrix == FC.sigma.matrix
    # Σ(1⋊g) = −1⋊g on the nontrivial component
    col = pred.matrix.column(2)
    assert col == [Q.zero(), Q.zero(), Q.from_int(-1), Q.zero()]


@pytest.mark.parametrize("case", ["exterior2", "qci", "cyclic3"])
def test_predicted_equals_direct(case):
    G = cyclic_group(2)
    if case == "exterior2":
        item = exterior(2)
        invol = item.phi(Matrix.identity(Q, 2).scale(-1))
    elif case == "qci":
        item = qci(2)
        invol = item.alpha(-1, -1, 0, 0)
    else:
        item = cyclic(3)
        invol = item.u_f([0, -1, 1])
    A = item.algebra
    f = A.field
    act = GroupAction(G, A, [LinearMap.identity(A), invol])
    F = make_frobenius(A, item.gram)
    for alpha in (TwoCocycle.trivial(G, f),
                  TwoCocycle.from_coboundary(G, f, [f.one(), f.from_int(2)])):
        C = build_crossed_product(A, G, act, alpha)
        gram = crossed_form(F, G, act, alpha)
        FC = make_frobenius(C, gram)
        pred = predicted_nakayama(F, G, act, alpha, C)
        assert pred.matrix == FC.sigma.matrix


def test_orthogonal_action_gives_plain_sigma():
    # the quantum-intersection involution (−1, −1) preserves the form, so
    # the crossed map is just σ on each component
    item = qci(2)
    G = cyclic_group(2)
    invol = item.alpha(-1, -1, 0, 0)
    A = item.algebra
    F = make_frobenius(A, item.gram)
    for i in range(4):
        for j in range(4):
            assert F.pair_raw(invol.matrix.column(i), invol.matrix.column(j)) \
                == item.gram.data[i][j]
    act = GroupAction(G, A, [LinearMap.identity(A), invol])
    alpha = TwoCocycle.trivial(G, Q)
    C = build_crossed_product(A, G, act, alpha)
    pred = predicted_nakayama(F, G, act, alpha, C)
    for g in range(2):
        for i in range(4):
            col = pred.matrix.column(g * 4 + i)
            assert col[g * 4:(g + 1) * 4] == list(F.sigma.matrix.column(i))


@pytest.mark.parametrize("field", [Q, Field.extension(3, [1, 0, 1])],
                         ids=["Q", "F9"])
def test_basis_products_against_the_definition(field):
    # the involution x ↦ −x + xy, y ↦ −y + 2xy is not monomial, so each
    # e_i·g(e_j) is a combination of several products e_i·e_b
    item = qci(2, field)
    A = item.algebra
    n = A.dim
    G = cyclic_group(2)
    act = GroupAction(G, A, [LinearMap.identity(A), item.alpha(-1, -1, 1, 2)])
    rng = SplitMix64(7)
    alpha = TwoCocycle.from_coboundary(
        G, field, [field.random_nonzero(rng) for _ in range(G.order)])
    C = build_crossed_product(A, G, act, alpha)
    for g in range(G.order):
        for h in range(G.order):
            gh = G.mul(g, h)
            for i in range(n):
                for j in range(n):
                    prod = A.basis_element(i) * act(g)(A.basis_element(j))
                    expected = [field.zero()] * (n * G.order)
                    expected[gh * n:(gh + 1) * n] = prod.scale(alpha(g, h)).raw
                    got = C.basis_element(g * n + i) * C.basis_element(h * n + j)
                    assert list(got.raw) == expected
