"""Jacobians of endomorphisms, divergences of derivations, and the
exponential/Liouville machinery that ties the two together.

Conventions:

* ``jacobian(F, u)`` is the unique j with ⟨u(a), u(b)⟩ = ⟨j·a, b⟩.
* ``jacobian_cocycle`` is u ↦ jacobian(F, u⁻¹), the twisted variant that
  is a non-abelian 1-cocycle on the automorphism group.
* ``divergence(F, d)`` is the unique v with ⟨d(a), 1⟩ = ⟨a, v⟩.

Every operation recomputes its defining identity after the closed-form
evaluation and raises :class:`InternalInconsistency` on disagreement, so a
left/right or transpose convention bug cannot produce silent garbage.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial

from .algebra import (Element, LinearMap, ROLE_DERIVATION, ROLE_ENDOMORPHISM,
                      inverse_of, left_mult_matrix, right_mult_matrix)
from .errors import InternalInconsistency, MalformedInput, RoleViolation
from .frobenius import FrobeniusStructure, UnitSearch, unit_in_subspace
from .linalg import Matrix, kernel_basis, sparse_combination, sum_product


def _require_role(m: LinearMap, role):
    if m.role != role:
        raise RoleViolation(f"expected a map with role {role!r}, got {m.role!r}")


def jacobian(F: FrobeniusStructure, u: LinearMap) -> Element:
    """The element j with ⟨u(a), u(b)⟩ = ⟨j·a, b⟩ for all a, b.

    Computed as β⁻¹(uᵀ(β(1))) and re-verified through the defining
    identity in matrix form (UᵀGU = L_jᵀG).
    """
    _require_role(u, ROLE_ENDOMORPHISM)
    A = F.algebra
    # β(1) is the functional ⟨1, ·⟩ = Gᵀ·1, and uᵀ of it is Uᵀ·Gᵀ·1
    lam = u.matrix.transpose().apply(F.gram.transpose().apply(list(A.unit)))
    j = F.beta_inverse_functional(lam)
    lhs = u.matrix.transpose() * F.gram * u.matrix
    rhs = left_mult_matrix(j).transpose() * F.gram
    if lhs != rhs:
        raise InternalInconsistency(
            "closed-form Jacobian disagrees with its defining identity")
    return j


def jacobian_cocycle(F: FrobeniusStructure, u: LinearMap) -> Element:
    """u ↦ jacobian(F, u⁻¹); only defined for invertible endomorphisms."""
    _require_role(u, ROLE_ENDOMORPHISM)
    if not u.is_invertible():
        raise MalformedInput("twisted Jacobian needs an invertible map")
    j = jacobian(F, u.inverse())
    jac_u = jacobian(F, u)
    jinv = inverse_of(jac_u)
    if jinv is None or u(jinv) != j:
        raise InternalInconsistency(
            "twisted Jacobian disagrees with u(jacobian(u)⁻¹)")
    return j


def bavula_jacobian(ext, u: LinearMap) -> Element:
    """Determinant of the skew-partial matrix (∂u(x_i)/∂x_j) on an
    exterior-algebra carrier; defined for generator-odd automorphisms only.
    """
    n = ext.n
    if n > 6:
        raise MalformedInput("skew-partial determinant supported for n <= 6")
    if not ext.is_odd_preserving(u):
        raise MalformedInput("map does not send generators into the odd part")
    partials = [ext.partial(j) for j in range(n)]
    entries = [[partials[j](u(ext.generator(i))) for j in range(n)]
               for i in range(n)]
    A = ext.algebra
    terms = []
    for perm in permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n)
                  if perm[a] > perm[b])
        term = A.unit_element()
        for r in range(n):
            term = term * entries[r][perm[r]]
        terms.append((-1 if inv % 2 else 1, term))
    return A.combination(terms)


def delta_star(F: FrobeniusStructure, d: LinearMap) -> LinearMap:
    """The adjoint: ⟨d(a), b⟩ = ⟨a, δ*(b)⟩; computed as G⁻¹DᵀG."""
    _require_role(d, ROLE_DERIVATION)
    A, f = F.algebra, F.algebra.field
    star = LinearMap(A, F._gram_inv * d.matrix.transpose() * F.gram)
    # twisted Leibniz laws δ*(ab) = a·δ*(b) − d(a)·b = δ*(a)·b − a·d^σ(b) on
    # the nonzero products e_i·e_j, d^σ = σ∘d∘σ⁻¹; the first failing pair
    # (i, j) names the law, the left one first
    stars, images, sigma = (dict(enumerate(m.matrix.sparse_columns()))
                            for m in (star, d, F.sigma))
    twisted = [sparse_combination(f, sigma, sparse_combination(f, images, c))
               for c in F.sigma_inv().matrix.sparse_columns()]
    minus_one = f.neg(f.one())
    for i in range(A.dim):
        row = A.left_products(i)
        d_left, star_left = (A.mult_columns(x[i], True) for x in (images, stars))
        for j in range(A.dim):
            lhs = sparse_combination(f, stars, row.get(j, {}))
            left = sparse_combination(f, row, stars[j])
            f.axpy(left, d_left.get(j, {}), minus_one)
            right = dict(star_left.get(j, {}))
            f.axpy(right, sparse_combination(f, row, twisted[j]), minus_one)
            if lhs != left or lhs != right:
                law = "left" if lhs != left else "right"
                raise InternalInconsistency(f"{law} twisted Leibniz law failed")
    return star


def divergence(F: FrobeniusStructure, d: LinearMap) -> Element:
    """The unique v with ⟨d(a), 1⟩ = ⟨a, v⟩, re-verified in matrix form."""
    _require_role(d, ROLE_DERIVATION)
    A = F.algebra
    # lam_k = ⟨d(e_k), 1⟩, i.e. lam = Dᵀ·G·1, and ⟨e_k, v⟩ = lam_k, i.e. G·v = lam
    lam = d.matrix.transpose().apply(F.gram.apply(list(A.unit)))
    v = Element(A, F._gram_inv.apply(lam), _raw=True)
    lhs = d.matrix.transpose() * F.gram + F.gram * d.matrix
    rhs = F.gram * right_mult_matrix(v)
    if lhs != rhs:
        raise InternalInconsistency(
            "divergence disagrees with the symmetric-sum identity")
    return v


def sigma_twist(F: FrobeniusStructure, d: LinearMap) -> LinearMap:
    """d^σ = σ ∘ d ∘ σ⁻¹, keeping the derivation role."""
    m = F.sigma.matrix * d.matrix * F.sigma_inv().matrix
    return LinearMap(F.algebra, m, d.role, check=False)


def phi_sequence(F: FrobeniusStructure, d: LinearMap, kmax: int):
    """φ_0 = 1, φ_{k+1} = φ_k·div − d(φ_k)."""
    _require_role(d, ROLE_DERIVATION)
    div = divergence(F, d)
    out = [F.algebra.unit_element()]
    for _ in range(kmax):
        out.append(out[-1] * div - d(out[-1]))
    return out


class AlgebraPolynomial:
    """Polynomial in one variable with coefficients in an algebra."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        while coeffs and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        self.algebra = algebra
        self.coeffs = tuple(coeffs)

    def coefficient(self, k) -> Element:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.algebra.zero_element()

    def evaluate(self, t) -> Element:
        f = self.algebra.field
        t = f.coerce(t)
        return self.algebra.combination(
            (f.pow_int(t, k), c) for k, c in enumerate(self.coeffs))

    def derivative(self) -> "AlgebraPolynomial":
        f = self.algebra.field
        return AlgebraPolynomial(
            self.algebra,
            [c.scale(f.from_int(k)) for k, c in enumerate(self.coeffs)][1:])

    def __eq__(self, other):
        return (isinstance(other, AlgebraPolynomial)
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"AlgebraPolynomial({[str(c) for c in self.coeffs]})"


def _nilpotent_powers(d: LinearMap):
    """[d⁰, …, d^{n−1}] for n = dim A, once dⁿ = 0 is checked on the same
    chain of products."""
    f, n = d.algebra.field, d.algebra.dim
    powers = [Matrix.identity(f, n), d.matrix]
    while len(powers) <= n:
        powers.append(powers[-1] * d.matrix)
    if powers.pop() != Matrix.zero(f, n, n):
        raise MalformedInput("derivation is not nilpotent")
    return powers


def liouville_polynomial(F: FrobeniusStructure, d: LinearMap) -> AlgebraPolynomial:
    """Φ = Σ φ_k t^k / k! for a nilpotent derivation in characteristic 0.

    Satisfies Φ' + d(Φ) = Φ·div termwise with Φ(0) = 1.
    """
    _require_role(d, ROLE_DERIVATION)
    A = F.algebra
    if A.field.characteristic != 0:
        raise MalformedInput("Liouville polynomial needs characteristic zero")
    _nilpotent_powers(d)
    phis = phi_sequence(F, d, A.dim)
    f = A.field
    coeffs = [phi.scale(f.inv(f.from_int(factorial(k)))) for k, phi in enumerate(phis)]
    poly = AlgebraPolynomial(A, coeffs)
    div = divergence(F, d)
    deriv = poly.derivative()
    for k in range(len(poly.coeffs) + 1):
        lhs = deriv.coefficient(k) + d(poly.coefficient(k))
        if lhs != poly.coefficient(k) * div:
            raise InternalInconsistency("Liouville recurrence failed termwise")
    if poly.coefficient(0) != A.unit_element():
        raise InternalInconsistency("Liouville polynomial must start at 1")
    return poly


def exp_derivation(d: LinearMap, t) -> LinearMap:
    """Σ t^k/k!·d^k for nilpotent d over a characteristic-zero field."""
    _require_role(d, ROLE_DERIVATION)
    A = d.algebra
    if A.field.characteristic != 0:
        raise MalformedInput("exponential needs characteristic zero")
    powers = _nilpotent_powers(d)
    f = A.field
    t = f.coerce(t)
    acc = Matrix.combination(
        f, A.dim, A.dim, ((f.div(f.pow_int(t, k), f.from_int(factorial(k))), dk)
                          for k, dk in enumerate(powers)))
    out = LinearMap(A, acc, ROLE_ENDOMORPHISM)
    if not out.is_invertible():
        raise InternalInconsistency("exponential of a nilpotent map must invert")
    return out


def commutator_orbit_readings(F: FrobeniusStructure, u: LinearMap):
    """Evaluate [σ⁻¹, u⁻¹] on the Jacobian of u under both candidate laws.

    Returns which of ``image == jac`` (fixed point) and ``image == jac⁻¹``
    holds; reported as data, not asserted.
    """
    jac = jacobian(F, u)
    uinv = u.inverse()
    sinv = F.sigma_inv()
    comm = sinv.compose(uinv).compose(F.sigma).compose(u)
    image = comm(jac)
    jinv = inverse_of(jac)
    return {
        "fixed_point": image == jac,
        "inverse": jinv is not None and image == jinv,
    }


def conjugation_identity_holds(F: FrobeniusStructure, u: LinearMap) -> bool:
    """(u⁻¹ ∘ σ ∘ u)(a) = σ(jac·a·jac⁻¹) on all basis elements.

    This is the form the defining identity actually yields (conjugating σ
    by u antivariantly); it is equivalent to u σ u⁻¹ = σ ∘ ι_{jac(u⁻¹)}.
    """
    jac = jacobian(F, u)
    jinv = inverse_of(jac)
    if jinv is None:
        return False
    lhs = u.inverse().compose(F.sigma).compose(u)
    A = F.algebra
    for i in range(A.dim):
        a = A.basis_element(i)
        if lhs(a) != F.sigma(jac * a * jinv):
            return False
    return True


def coboundary_status(A, gens, values, unit_functional, rng) -> UnitSearch:
    """Is the cocycle u_i ↦ j_i a coboundary ξ ↦ ξ⁻¹·u_i(ξ) on these generators?

    The condition is linear in ξ: u_i(ξ) = ξ·j_i.  Verdicts: "yes" with an
    explicit unit ξ; "no" when the solution space is zero, is exhausted, or
    is annihilated by a supplied unit-obstruction functional (a functional
    that is nonzero on every unit, e.g. the constant term on an exterior
    algebra); otherwise "inconclusive".
    """
    f = A.field
    ker = kernel_basis(Matrix.block(
        f, [[u.matrix - right_mult_matrix(j)] for u, j in zip(gens, values)]))
    basis = [Element(A, v, _raw=True) for v in ker]
    if not basis:
        return UnitSearch("no", detail="solution space is zero")
    if unit_functional is not None:
        lam = [f.coerce(c) for c in unit_functional]
        if not f.nonzeros([sum_product(f, lam, b.raw) for b in basis]):
            return UnitSearch(
                "no", detail="solution space killed by the unit obstruction")
    result = unit_in_subspace(A, basis, rng)
    if result.verdict == "yes":
        xi = result.unit
        xinv = inverse_of(xi)
        for u, j in zip(gens, values):
            if xinv * u(xi) != j:
                raise InternalInconsistency("found ξ fails the coboundary law")
    return result
