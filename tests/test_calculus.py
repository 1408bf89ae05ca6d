"""Jacobians and divergences, cross-checked against defining-system solves."""

from fractions import Fraction

import pytest

from frobcalc import verify
from frobcalc.algebra import (Element, LinearMap, ad, center_basis,
                              derivation_witness, endomorphism_witness,
                              inner_automorphism, inverse_of)
from frobcalc.calculus import (bavula_jacobian, coboundary_status,
                               delta_star, divergence, exp_derivation,
                               jacobian, jacobian_cocycle,
                               liouville_polynomial, phi_sequence)
from frobcalc.errors import InternalInconsistency, MalformedInput, RoleViolation
from frobcalc.fields import Field
from frobcalc.frobenius import FrobeniusStructure, make_frobenius
from frobcalc.gallery import (cyclic, dual_numbers, exterior, matrix_algebra, qci,
                              trivial_extension)
from frobcalc.linalg import Matrix, solve_linear
from frobcalc.rng import SplitMix64

Q = Field.rationals()


def jacobian_by_defining_solve(F, u):
    """Independent oracle: solve ⟨j·e_i, e_j⟩ = ⟨u(e_i), u(e_j)⟩ directly."""
    A = F.algebra
    rows, rhs = [], []
    for i in range(A.dim):
        for j in range(A.dim):
            rows.append([F.pair_raw(A.mul_raw(A._basis_vec(k), A._basis_vec(i)),
                                    A._basis_vec(j)) for k in range(A.dim)])
            rhs.append(F.pair_raw(u.matrix.column(i), u.matrix.column(j)))
    sol = solve_linear(Matrix(A.field, rows, _raw=True), rhs)
    assert sol is not None
    return Element(A, sol, _raw=True)


def divergence_by_pair_solve(F, d):
    """Independent oracle from ⟨d(a), b⟩ + ⟨a, d(b)⟩ = ⟨a, b·v⟩."""
    A = F.algebra
    rows, rhs = [], []
    for i in range(A.dim):
        for j in range(A.dim):
            rows.append([F.pair_raw(A._basis_vec(i),
                                    A.mul_raw(A._basis_vec(j), A._basis_vec(k)))
                         for k in range(A.dim)])
            rhs.append(A.field.add(
                F.pair_raw(d.matrix.column(i), A._basis_vec(j)),
                F.pair_raw(A._basis_vec(i), d.matrix.column(j))))
    sol = solve_linear(Matrix(A.field, rows, _raw=True), rhs)
    assert sol is not None
    return Element(A, sol, _raw=True)


def test_jacobian_identity_map():
    item = qci(2)
    F = make_frobenius(item.algebra, item.gram)
    assert jacobian(F, LinearMap.identity(item.algebra)) \
        == item.algebra.unit_element()


def test_jacobian_qci_closed_form_and_oracle():
    item = qci(2)
    F = make_frobenius(item.algebra, item.gram)
    u = item.alpha(2, 3, 0, 0)
    assert jacobian(F, u) == item.algebra.unit_element().scale(6)
    u = item.alpha(1, 1, 1, 0)
    expect = item.algebra.unit_element() + item.y.scale(Fraction(1, 2))
    assert jacobian(F, u) == expect
    assert jacobian_by_defining_solve(F, u) == expect


def test_jacobian_inner():
    item = qci(2)
    A = item.algebra
    F = make_frobenius(A, item.gram)
    s = A.unit_element() + item.x
    u = inner_automorphism(s)
    j = jacobian(F, u)
    # closed form σ⁻¹(s⁻¹)·s and the defining-system solve agree
    assert j == F.sigma_inv()(inverse_of(s)) * s
    assert j == A.unit_element() - item.x           # 1 + (1−q)x at q = 2
    assert j == jacobian_by_defining_solve(F, u)


def test_jacobian_requires_endomorphism_role():
    item = qci(2)
    F = make_frobenius(item.algebra, item.gram)
    with pytest.raises(RoleViolation):
        jacobian(F, item.delta(1, 0, 0, 0))


def test_jacobian_unit_iff_invertible():
    item = qci(2)
    A = item.algebra
    F = make_frobenius(A, item.gram)
    # the projection onto the span of 1 is a non-invertible endomorphism
    z = Q.zero()
    proj = LinearMap(A, Matrix(Q, [[1, 0, 0, 0], [0, 0, 0, 0],
                                   [0, 0, 0, 0], [0, 0, 0, 0]]),
                     "endomorphism")
    j = jacobian(F, proj)
    assert j.is_zero() and inverse_of(j) is None
    u = item.alpha(2, 3, 1, 1)
    assert inverse_of(jacobian(F, u)) is not None


def test_jacobian_cocycle_exterior():
    e = exterior(3)
    F = make_frobenius(e.algebra, e.gram)
    fm = Matrix(Q, [[2, 1, 0], [0, 1, 0], [1, 0, 3]])
    u = e.phi(fm)
    det = e.det_on_generators(fm)
    assert jacobian_cocycle(F, u) == inverse_of(det)
    assert jacobian_cocycle(F, u) == jacobian_by_defining_solve(F, u.inverse())


def test_jacobian_cocycle_needs_invertible():
    item = qci(2)
    A = item.algebra
    F = make_frobenius(A, item.gram)
    proj = LinearMap(A, Matrix(Q, [[1, 0, 0, 0], [0, 0, 0, 0],
                                   [0, 0, 0, 0], [0, 0, 0, 0]]),
                     "endomorphism")
    with pytest.raises(MalformedInput):
        jacobian_cocycle(F, proj)


def test_bavula_jacobian():
    e = exterior(3)
    assert bavula_jacobian(e, LinearMap.identity(e.algebra)) \
        == e.algebra.unit_element()
    fm = Matrix(Q, [[1, 2, 0], [0, 1, 0], [0, 0, 2]])
    assert bavula_jacobian(e, e.phi(fm)) == e.det_on_generators(fm)
    g = e.gamma(0, 5, (0, 1, 2))
    assert bavula_jacobian(e, g) == e.algebra.unit_element() \
        + e.monomial((1, 2)).scale(5)
    # conjugation by 1 + x_1 adds even terms to generator images, so the
    # skew-partial determinant is undefined for it
    with pytest.raises(MalformedInput):
        bavula_jacobian(e, e.iota(e.generator(0)))


def test_delta_star_and_divergence():
    item = qci(2)
    A = item.algebra
    F = make_frobenius(A, item.gram)
    d = item.delta(1, 2, 3, 4)
    star = delta_star(F, d)
    div = divergence(F, d)
    assert star(A.unit_element()) == div
    assert div == item.div_expected(1, 2, 3, 4)
    assert div == divergence_by_pair_solve(F, d)
    # δ*(a) = a·div − d(a) on the whole basis
    for i in range(A.dim):
        a = A.basis_element(i)
        assert star(a) == a * div - d(a)
    # zero map
    zero = LinearMap(A, Matrix.zero(Q, 4, 4), "derivation")
    assert delta_star(F, zero).matrix == Matrix.zero(Q, 4, 4)
    assert divergence(F, zero).is_zero()
    # delta_{1,0,0,0}: divergence 1
    assert divergence(F, item.delta(1, 0, 0, 0)) == A.unit_element()


def test_delta_star_reports_the_failing_twisted_leibniz_law():
    item = qci(2)
    A = item.algebra
    F = make_frobenius(A, item.gram)
    # the true form with the identity in σ's place: δ*(ab) = a·δ*(b) − d(a)·b
    # still holds, δ*(a)·b − a·d^σ(b) does not, since σ ≠ id on qci(2)
    fake = FrobeniusStructure(A, F.gram, LinearMap.identity(A), F._gram_inv)
    with pytest.raises(InternalInconsistency,
                       match="^right twisted Leibniz law failed$"):
        delta_star(fake, item.delta(1, 2, 3, 4))
    # e_0 ↦ e_1, all else 0, tagged a derivation without the check
    data = [[0] * A.dim for _ in range(A.dim)]
    data[1][0] = 1
    bad = LinearMap(A, Matrix(Q, data), "derivation", check=False)
    with pytest.raises(InternalInconsistency,
                       match="^left twisted Leibniz law failed$"):
        delta_star(F, bad)


def test_divergence_inner():
    for item in (qci(3), exterior(2)):
        A = item.algebra
        F = make_frobenius(A, item.gram)
        rng = SplitMix64(9)
        for _ in range(5):
            x = Element(A, [Q.random(rng, 3) for _ in range(A.dim)])
            assert divergence(F, ad(x)) == F.sigma(x) - x


def test_divergence_exterior_formula():
    # div(Σ a_i ∂_i) = Σ ∂_i(a_i) for odd a_i
    e = exterior(3)
    A = e.algebra
    F = make_frobenius(A, e.gram)
    rng = SplitMix64(4)
    for _ in range(6):
        parts = [e.random_odd_element(rng) for _ in range(3)]
        m = Matrix.zero(Q, A.dim, A.dim)
        from frobcalc.algebra import left_mult_matrix
        for a, i in zip(parts, range(3)):
            m = m + left_mult_matrix(a) * e.partial(i).matrix
        d = LinearMap(A, m, "derivation")
        expect = A.zero_element()
        for a, i in zip(parts, range(3)):
            expect = expect + e.partial(i)(a)
        assert divergence(F, d) == expect


def test_phi_sequence_and_liouville():
    item = qci(2)
    A = item.algebra
    F = make_frobenius(A, item.gram)
    zero = LinearMap(A, Matrix.zero(Q, 4, 4), "derivation")
    assert [p for p in phi_sequence(F, zero, 3)] == \
        [A.unit_element()] + [A.zero_element()] * 3
    d = item.delta(0, 0, 1, 0)
    phis = phi_sequence(F, d, 2)
    assert phis[0] == A.unit_element()
    assert phis[1] == item.y == divergence(F, d)
    assert phis[2].is_zero()
    poly = liouville_polynomial(F, d)
    assert poly.coeffs == (A.unit_element(), item.y)
    assert poly.evaluate(0) == A.unit_element()
    # constant for the zero derivation
    assert liouville_polynomial(F, zero).coeffs == (A.unit_element(),)


def test_liouville_preconditions():
    item = qci(2)
    F = make_frobenius(item.algebra, item.gram)
    with pytest.raises(MalformedInput):
        liouville_polynomial(F, item.delta(1, 0, 0, 0))   # not nilpotent
    c3 = cyclic(3)
    F3 = make_frobenius(c3.algebra, c3.gram)
    from frobcalc.verify import derivation_basis
    d3 = derivation_basis(c3.algebra)[0]
    with pytest.raises(MalformedInput):
        liouville_polynomial(F3, d3)                       # characteristic 3
    with pytest.raises(MalformedInput):
        exp_derivation(d3, 1)


def test_exp_derivation():
    item = qci(2)
    A = item.algebra
    F = make_frobenius(A, item.gram)
    d = item.delta(0, 0, 1, 0)
    assert exp_derivation(d, 0).is_identity()
    t = Fraction(3, 7)
    assert exp_derivation(d, t).matrix == item.alpha(1, 1, t, 0).matrix
    # one-parameter group law
    a, b = Fraction(1, 2), Fraction(5, 3)
    assert exp_derivation(d, a).compose(exp_derivation(d, b)).matrix \
        == exp_derivation(d, a + b).matrix


def test_liouville_flow_jacobian():
    item = qci(2)
    F = make_frobenius(item.algebra, item.gram)
    sinv = F.sigma_inv()
    d = item.delta(0, 0, 2, -1)
    poly = liouville_polynomial(F, d)
    for t in (0, 1, 2, Fraction(1, 2)):
        assert jacobian(F, exp_derivation(d, t)) == sinv(poly.evaluate(t))
    assert poly.coefficient(1) == divergence(F, d)


def test_interpolated_derivative_at_zero_of_a_cubic():
    # p(t) = a + b·t + c·t² + e·t³ sampled at 0, 1, 2, 1/2: p'(0) = b exactly
    A = qci(2).algebra
    a, b, c, e = (Element(A, v) for v in ([1, 2, 0, -1], [0, Fraction(3, 4), 5, 1],
                                          [7, 0, -2, 0], [1, 1, 1, Fraction(1, 3)]))
    samples = [(t, a + b.scale(t) + c.scale(t * t) + e.scale(t ** 3))
               for t in (0, 1, 2, Fraction(1, 2))]
    assert verify._interpolated_derivative_at_zero(A, samples) == b


def test_coboundary_status_three_verdicts():
    item = qci(2)
    A = item.algebra
    F = make_frobenius(A, item.gram)
    rng = SplitMix64(3)
    # constructed coboundary: certain yes with a verified witness
    u = item.alpha(2, 3, 1, 1)
    xi = A.unit_element() + item.x
    val = inverse_of(xi) * u(xi)
    res = coboundary_status(A, [u], [val], None, rng)
    assert res.verdict == "yes"
    # unsatisfiable: zero solution space
    res = coboundary_status(A, [u], [A.unit_element().scale(7)], None, rng)
    assert res.verdict == "no"
    # obstruction functional: inner cocycle on a non-symmetric algebra
    iota = inner_automorphism(xi)
    F_ = make_frobenius(A, item.gram)
    val = jacobian_cocycle(F_, iota)
    res = coboundary_status(A, [iota], [val], [1, 0, 0, 0], rng)
    assert res.verdict == "no"


def test_phi_sequence_binomial_identity_non_nilpotent():
    # Σ_k C(n,k)·⟨d^k(a), d^{n-k}(b)⟩ = ⟨a, b·φ_n⟩ for a derivation whose
    # powers never vanish
    from math import comb
    item = qci(2)
    A = item.algebra
    F = make_frobenius(A, item.gram)
    d = item.delta(1, 2, 3, 4)
    phis = phi_sequence(F, d, 4)
    assert not phis[2].is_zero()
    powers = [LinearMap.identity(A)]
    for _ in range(4):
        powers.append(powers[-1].compose(d))
    for n in range(5):
        for i in range(A.dim):
            for j in range(A.dim):
                a, b = A.basis_element(i), A.basis_element(j)
                acc = Q.zero()
                for k in range(n + 1):
                    acc += comb(n, k) * F.pair_raw(powers[k](a).raw,
                                                   powers[n - k](b).raw)
                assert acc == F.pair_raw(a.raw, (b * phis[n]).raw)


def _dense_sum(field, rows, cols, terms):
    acc = Matrix.zero(field, rows, cols)
    for c, m in terms:
        acc = acc + m.scale(c)
    return acc


def test_samplers_match_dense_sums():
    # the samplers draw their coefficients in basis order from the one rng;
    # rebuilt as dense sums from an identically seeded SplitMix64 they must
    # give the same maps and leave the generator in the same state
    F5 = Field.prime(5)
    for A in (qci(2).algebra, exterior(3).algebra, exterior(3, F5).algebra,
              trivial_extension(matrix_algebra(2).algebra).algebra):
        f = A.field
        rng, ref = SplitMix64(7), SplitMix64(7)
        for _ in range(3):
            d = verify.random_derivation(A, rng)
            expected = _dense_sum(f, A.dim, A.dim,
                                  [(f.random(ref, 2), D.matrix)
                                   for D in verify.derivation_basis(A)])
            assert d.matrix == expected
            assert derivation_witness(A, d.matrix) is None
        assert rng.next_u64() == ref.next_u64()
    for B in (dual_numbers(Q), matrix_algebra(2, Q).algebra):
        item = trivial_extension(B)
        sample = verify.automorphism_sampler("triv", item)
        rng, ref = SplitMix64(11), SplitMix64(11)
        f = B.field
        for _ in range(3):
            u = sample(rng)
            zs = center_basis(B)
            for _ in range(64):
                z = B.zero_element()
                for zb in zs:
                    z = z + zb.scale(f.random(ref, 2))
                if inverse_of(z) is not None:
                    break
            else:
                z = B.unit_element()
            expected = item.u_z(z)
            ders = item.derivation_space_to_dual()
            if ders:
                m = _dense_sum(f, B.dim, B.dim,
                               [(f.random(ref, 2), dm) for dm in ders])
                expected = expected.compose(item.u_delta(m))
            expected = expected.compose(item.lift(inner_automorphism(
                verify._random_unit(B, ref))))
            assert u.matrix == expected.matrix
            assert endomorphism_witness(item.algebra, u.matrix) is None
        assert rng.next_u64() == ref.next_u64()
