"""Bilinear-form validation, the automorphism it induces, and innerness tests.

A :class:`FrobeniusStructure` owns a validated non-degenerate associative
Gram matrix together with the induced automorphism ``sigma`` (the unique
map with ⟨a, b⟩ = ⟨b, σ(a)⟩) and the pairing-to-dual isomorphism beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebra import (Algebra, Element, LinearMap, ROLE_ENDOMORPHISM,
                      center_basis, endomorphism_witness, inner_automorphism,
                      intertwiner_basis, inverse_of, right_mult_matrix)
from .errors import InternalInconsistency, MalformedInput
from .linalg import Matrix, invert, sparse_combination


class FrobeniusStructure:
    __slots__ = ("algebra", "gram", "sigma", "_gram_inv")

    def __init__(self, algebra, gram, sigma, gram_inv):
        self.algebra = algebra
        self.gram = gram
        self.sigma = sigma
        self._gram_inv = gram_inv

    # pairing and beta ---------------------------------------------------------
    def beta_inverse_functional(self, lam):
        """The element j with ⟨j, e_k⟩ = lam_k for a raw functional vector:
        Gᵀ·j = lam, so j = (G⁻¹)ᵀ·lam."""
        return Element(self.algebra, self._gram_inv.transpose().apply(lam),
                       _raw=True)

    def sigma_inv(self) -> LinearMap:
        """σ⁻¹, σ's own inverse: eliminated on first use, then kept by σ."""
        if not self.sigma.is_invertible():
            raise InternalInconsistency("induced automorphism is singular")
        return self.sigma.inverse()

    def __repr__(self):
        return f"FrobeniusStructure({self.algebra!r})"


def make_frobenius(A: Algebra, gram: Matrix) -> FrobeniusStructure:
    """Validate the form and compute the induced automorphism.

    Raises :class:`MalformedInput` with a witness triple when the form is
    degenerate or fails ⟨ab, c⟩ = ⟨a, bc⟩ on some basis triple.
    """
    if not isinstance(gram, Matrix):
        gram = Matrix(A.field, gram)
    if gram.field != A.field or gram.rows != A.dim or gram.cols != A.dim:
        raise MalformedInput("gram must be dim x dim over the algebra's field")
    ginv = invert(gram)
    if ginv is None:
        raise MalformedInput("bilinear form is degenerate")

    # ⟨e_i e_j, e_k⟩ = ⟨e_i, e_j e_k⟩ is entry (i, k) of R_{e_j}ᵀG = G·L_{e_j};
    # the witness is the first failing triple (i, j, k)
    f = A.field
    grows = dict(enumerate(gram.sparse_rows()))
    gcols = dict(enumerate(gram.sparse_columns()))
    bad = [(i, j, k) for j in range(A.dim)
           for (i, k) in _form_mismatches(f, grows, gcols, A.right_products(j),
                                          A.left_products(j))]
    if bad:
        i, j, k = min(bad)
        raise MalformedInput(
            f"form is not associative: witness triple ({i},{j},{k})")

    # sigma solves G·S = Gᵀ, i.e. ⟨e_i, e_j⟩ = ⟨e_j, σ(e_i)⟩ column by column
    gt = gram.transpose()
    sigma_mat = ginv * gt
    w = endomorphism_witness(A, sigma_mat)
    if w is not None:
        raise InternalInconsistency(
            f"induced map is not an algebra endomorphism (at {w}); "
            "the form passed associativity, so this indicates a bug")
    F = FrobeniusStructure(A, gram,
                           LinearMap(A, sigma_mat, ROLE_ENDOMORPHISM, check=False),
                           ginv)
    # defining property: row i of G, ⟨e_i, −⟩ = ⟨−, σ(e_i)⟩, is G·σ(e_i)
    images = sigma_mat.sparse_columns()
    if any(sparse_combination(f, gcols, images[i]) != grows[i]
           for i in range(A.dim)):
        raise InternalInconsistency("defining property of sigma failed")
    # the bimodule law ⟨e_i, e_j·σ(e_k)⟩ = ⟨e_k e_i, e_j⟩ as G·R_{σ(e_k)} =
    # L_{e_k}ᵀ·G, entry (i, j) for the triple (i, j, k)
    bad = [(i, j, k) for k in range(A.dim)
           for (i, j) in _form_mismatches(f, grows, gcols, A.left_products(k),
                                          A.mult_columns(images[k], False))]
    if bad:
        i, j, k = min(bad)
        raise InternalInconsistency(f"bimodule law failed at ({i},{j},{k})")
    # the validated form of σ and G⁻¹'s rows: H_p(A, A_σ) is read off the
    # cocycles by them
    A._cache[("nakayama-form", sigma_mat)] = gram, ginv.sparse_rows()
    return F


def _form_mismatches(f, grows, gcols, xs, ys):
    """The positions (i, k) where ⟨x_i, e_k⟩ ≠ ⟨e_i, y_k⟩, for sparse vectors
    ``xs = {i: x_i}`` and ``ys = {k: y_k}`` (a missing one is zero): entry
    (i, k) of Xᵀ·G against G·Y, from the sparse rows and columns of G."""
    lhs = {i: sparse_combination(f, grows, x) for i, x in xs.items()}
    rhs = {}
    for k, y in ys.items():
        for i, v in sparse_combination(f, gcols, y).items():
            rhs.setdefault(i, {})[k] = v
    out = []
    for i in lhs.keys() | rhs.keys():
        a, b = lhs.get(i, {}), rhs.get(i, {})
        if a != b:
            out.extend((i, k) for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    return out


def shared_frobenius(A: Algebra, gram: Matrix) -> FrobeniusStructure:
    """``make_frobenius(A, gram)``, validated once per (algebra, form) and
    kept in A's cache, so every caller holding the same form shares it."""
    key = ("frobenius", gram)
    F = A._cache.get(key)
    if F is None:
        F = A._cache[key] = make_frobenius(A, gram)
    return F


def relate_forms(F: FrobeniusStructure, gram2: Matrix):
    """Unit t with ⟨a,b⟩' = ⟨a,bt⟩, plus the conjugation check on sigma.

    ⟨e_i, e_j·t⟩ is entry (i, j) of G·R_t, so t relates the forms exactly
    when G′ = G·R_t, and then t = R_t·1 = G⁻¹·(G′·1), unique; G·R_t = G′ is
    checked exactly.  Returns ``(t, ok)`` where ok records σ' == ι_t ∘ σ.
    gram2 is validated through :func:`shared_frobenius`, so a degenerate or
    non-associative input raises.
    """
    A = F.algebra
    F2 = shared_frobenius(A, gram2)
    t = Element(A, F._gram_inv.apply(gram2.apply(A.unit)), _raw=True)
    if F.gram * right_mult_matrix(t) != gram2:
        raise InternalInconsistency("no relating element for two valid forms")
    if inverse_of(t) is None:
        raise InternalInconsistency("relating element is not a unit")
    conj = inner_automorphism(t).compose(F.sigma)
    return t, conj.matrix == F2.sigma.matrix


@dataclass
class UnitSearch:
    """Outcome of looking for a unit inside a subspace.

    verdict is "yes" (unit found), "no" (provably none: empty subspace or
    exhaustive search), or "inconclusive" (sampling failed to find one).
    """
    verdict: str
    unit: Element | None = None
    detail: str = ""


EXHAUST_LIMIT = 4096
SAMPLE_LIMIT = 256
RATIONAL_SAMPLES = 64
GRID_LIMIT = 4096


def _first_unit(A, basis, coefficient_rows):
    """The first nonzero unit Σ cᵢ·bᵢ over the coefficient rows, in order,
    as a "yes" UnitSearch; None when no row gives one."""
    for coeffs in coefficient_rows:
        cand = A.combination(zip(coeffs, basis))
        if not cand.is_zero() and inverse_of(cand) is not None:
            return UnitSearch("yes", cand)
    return None


def _grid_decide(A, basis):
    """Exact unit decision over Q via polynomial identity testing.

    det(L_{Σ λ_i b_i}) is a polynomial of degree ≤ dim in each λ_i, so it
    vanishes identically iff it vanishes on the grid {0..dim}^m.  Over an
    infinite field "identically zero" is equivalent to "no unit in the
    subspace".  Returns a UnitSearch, or None when the grid is too large.
    """
    m = len(basis)
    if (A.dim + 1) ** m > GRID_LIMIT:
        return None
    return (_first_unit(A, basis, product(range(A.dim + 1), repeat=m))
            or UnitSearch("no", detail="unit polynomial vanishes on a deciding grid"))


def unit_in_subspace(A: Algebra, basis, rng) -> UnitSearch:
    """Search a linear subspace (given by basis Elements) for a unit.

    Returns a definite verdict whenever one is computable (empty space,
    exhaustible finite space, or a rational grid small enough for exact
    polynomial identity testing); otherwise falls back to seeded sampling
    and reports "inconclusive" on failure.
    """
    f = A.field
    if not basis:
        return UnitSearch("no", detail="empty subspace")
    if f.order() is None:
        found = (_first_unit(A, basis, [[f.one()] * len(basis)])
                 or _first_unit(A, basis, ([f.random(rng, 3) for _ in basis]
                                           for _ in range(RATIONAL_SAMPLES)))
                 or _grid_decide(A, basis))
        return found or UnitSearch("inconclusive",
                                   detail="no unit found (inconclusive)")
    if f.order() ** len(basis) <= EXHAUST_LIMIT:
        return (_first_unit(A, basis, product(f.elements(), repeat=len(basis)))
                or UnitSearch("no", detail="subspace exhausted"))
    return (_first_unit(A, basis, ([f.random(rng) for _ in basis]
                                   for _ in range(SAMPLE_LIMIT)))
            or UnitSearch("inconclusive", detail="no unit found (inconclusive)"))


def is_inner(F: FrobeniusStructure, u: LinearMap, rng) -> UnitSearch:
    """Find t with u = ι_t, i.e. u(e_i)·t = t·e_i for all i."""
    A = F.algebra
    if u.role != ROLE_ENDOMORPHISM:
        raise MalformedInput("innerness test expects an endomorphism")
    if not u.is_invertible():
        raise MalformedInput("innerness test expects an invertible endomorphism")
    basis = intertwiner_basis(A, u)
    result = unit_in_subspace(A, basis, rng)
    if result.verdict == "yes":
        check = inner_automorphism(result.unit)
        if check.matrix != u.matrix:
            raise InternalInconsistency("found unit does not conjugate to u")
    return result


def is_symmetric_algebra(F: FrobeniusStructure, rng) -> UnitSearch:
    """The algebra admits a symmetric form iff sigma is inner."""
    if F.gram == F.gram.transpose():
        return UnitSearch("yes", F.algebra.unit_element(),
                          detail="form already symmetric")
    return is_inner(F, F.sigma, rng)


def sigma_fixes_center(F: FrobeniusStructure) -> bool:
    return all(F.sigma(z) == z for z in center_basis(F.algebra))
