"""The center, commutator and intertwiner systems against dense stacked blocks.

``center_basis``, ``commutator_subspace`` and ``intertwiner_basis`` (the
kernel ``is_inner`` searches for a unit) build their columns sparse from
the nonzero products.  The references below stack the dense blocks
L_{u(e_i)} − R_{e_i} and L_{e_i} − R_{τ(e_i)} with ``Matrix.block`` and
read the canonical kernel and the independent columns off them; the two
must agree vector for vector, in order.
"""

import tracemalloc

import pytest

from frobcalc.algebra import (Algebra, Element, LinearMap, center_basis,
                              center_dimension, commutator_subspace, inner_automorphism,
                              intertwiner_basis, inverse_of, left_mult_matrix,
                              right_mult_matrix)
from frobcalc.fields import Field
from frobcalc.frobenius import make_frobenius
from frobcalc.gallery import (exterior, matrix_algebra, qci, s3_group_algebra,
                              trivial_extension)
from frobcalc.linalg import Matrix, echelon, kernel_basis
from frobcalc.rng import SplitMix64

FIELDS = {"Q": Field.rationals(), "F5": Field.prime(5),
          "F9": Field.extension(3, [1, 0, 1])}
FAMILIES = {
    "qci": lambda f: qci(2, f),
    "exterior3": lambda f: exterior(3, f),
    "exterior4": lambda f: exterior(4, f),
    "matrix2": lambda f: matrix_algebra(2, f),
    "trivM2": lambda f: trivial_extension(matrix_algebra(2, f).algebra),
}
CASES = [(label, family) for label in sorted(FIELDS) for family in sorted(FAMILIES)]


def _dense_intertwiners(A, u):
    blocks = [[left_mult_matrix(Element(A, u.column(i), _raw=True))
               - right_mult_matrix(A.basis_element(i))] for i in range(A.dim)]
    return [Element(A, v, _raw=True)
            for v in kernel_basis(Matrix.block(A.field, blocks))]


def _dense_commutators(A, tau):
    f = A.field
    cols = []
    for i, ei in enumerate(A.basis_elements()):
        ti = Element(A, tau.column(i), _raw=True)
        diff = left_mult_matrix(ei) - right_mult_matrix(ti)
        cols.extend(v for v in (diff.column(j) for j in range(A.dim))
                    if any(not f.is_zero(c) for c in v))
    if not cols:
        return []
    pivots = echelon(f, (f.nonzeros(v) for v in cols), tails=False)[1]
    return [Element(A, cols[j], _raw=True) for j in pivots]


def _maps(A, F):
    """Identity, σ, σ⁻¹, an inner automorphism and a map that is no
    endomorphism: the systems are linear algebra and take any map."""
    f = A.field
    rng = SplitMix64(11)
    t = A.unit_element() + A.combination((f.random(rng, 2), e)
                                         for e in A.basis_elements())
    while inverse_of(t) is None:
        t = t + A.basis_element(0)
    general = Matrix(f, [[f.random(rng, 2) for _ in range(A.dim)] for _ in range(A.dim)],
                     _raw=True)
    return {"identity": LinearMap.identity(A), "sigma": F.sigma,
            "sigma_inv": F.sigma_inv(), "inner": inner_automorphism(t),
            "general": LinearMap(A, general)}


@pytest.mark.parametrize("label,family", CASES)
def test_sparse_systems_match_dense_stacked_blocks(label, family):
    item = FAMILIES[family](FIELDS[label])
    A = item.algebra
    F = make_frobenius(A, item.gram)
    ident = Matrix.identity(A.field, A.dim)
    assert center_basis(A) == _dense_intertwiners(A, ident)
    assert commutator_subspace(A) == _dense_commutators(A, ident)
    assert commutator_subspace(A, F.sigma) == _dense_commutators(A, F.sigma.matrix)
    for name, u in _maps(A, F).items():
        assert intertwiner_basis(A, u) == _dense_intertwiners(A, u.matrix), name



@pytest.mark.parametrize("label,family", CASES)
def test_center_dimension_counts_the_center_basis(label, family):
    A = FAMILIES[family](FIELDS[label]).algebra
    assert center_dimension(A) == len(center_basis(A))


GALLERY_CENTERS = {"matrix3": (lambda: matrix_algebra(3), 1),
                   "exterior4": (lambda: exterior(4), 8),
                   "qci2": (lambda: qci(2), 2),
                   "S3": (s3_group_algebra, 3)}


@pytest.mark.parametrize("name", list(GALLERY_CENTERS))
def test_center_dimension_of_gallery_algebras(name):
    build, dim = GALLERY_CENTERS[name]
    A = build().algebra
    assert center_dimension(A) == len(center_basis(A)) == dim


def test_center_dimension_holds_no_dense_basis():
    # k^3000, diagonal: the count streams 3000 one-entry columns into a
    # rank-only echelon, where a dense basis and a dense identity would
    # take 3000² entries each (about 139 MiB traced)
    n = 3000
    A = Algebra(Field.rationals(), n, [f"e{i}" for i in range(n)],
                [(i, i, i, 1) for i in range(n)], [1] * n)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        dim = center_dimension(A)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert dim == n
    assert peak < 8 * 2**20
