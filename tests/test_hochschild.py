"""Bar complexes: differentials, dimensions, actions, certificates."""

import hashlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from frobcalc import hochschild as hh
from frobcalc.algebra import (Algebra, Element, LinearMap, ad, center_basis,
                              commutator_subspace, inner_automorphism,
                              right_mult_matrix)
from frobcalc.errors import BudgetExceeded, InternalInconsistency, MalformedInput
from frobcalc.fields import Field
from frobcalc.frobenius import FrobeniusStructure, make_frobenius
from frobcalc.gallery import (cyclic, dual_numbers, exterior,
                              ground_field_algebra, matrix_algebra, qci,
                              s3_group_algebra, trivial_extension)
from frobcalc.linalg import (Matrix, SparseEchelon, dense_vector, echelon, invert,
                             solve_linear, sparse_combination, sparse_kernel_basis)
from test_algebra import is_derivation
from test_fields import assert_canonical
from test_kernels import (RefEchelon, assert_integral_pivots, normalized,
                          ref_add_entry, typed)

Q = Field.rationals()


def test_coboundary_degree_zero_kernel_is_center():
    A = qci(2).algebra
    d0 = hh._coboundary_columns(A, 0)
    assert len(d0) == 4 and max(k for col in d0 for k in col) < 16
    ker = sparse_kernel_basis(Q, d0)
    centers = center_basis(A)
    assert len(ker) == len(centers) == 2
    # same span
    for v in ker:
        z = Element(A, v, _raw=True)
        assert all(z * A.basis_element(i) == A.basis_element(i) * z
                   for i in range(A.dim))


def test_degree_one_cocycles_are_derivations():
    A = qci(2).algebra
    basis = hh.cocycle_basis(A, 1)
    assert len(basis) == 4
    for c in basis:
        assert is_derivation(A, c.as_linear_map().matrix)
    # and the coboundaries there are the inner derivations
    rep = hh.hh_dimension(A, 1)
    assert rep.dim == 2 and rep.dim_boundaries == 2


def test_complex_squares_to_zero():
    for item in (qci(2), exterior(2), cyclic(3)):
        F = make_frobenius(item.algebra, item.gram)
        assert hh.verify_complex(item.algebra, 2, sigma=F.sigma)
    # as a product of dense matrices as well, low degrees
    A = qci(2).algebra
    d = []
    for p in (0, 1, 2):
        d.append(Matrix.from_columns(Q, [dense_vector(Q, c, A.dim ** (p + 2))
                                         for c in hh._coboundary_columns(A, p)]))
    for p in (0, 1):
        assert d[p + 1] * d[p] == Matrix.zero(Q, d[p + 1].rows, d[p].cols)


# sha256 of repr([list(col.items()) for col in d^p's columns]) on the
# shuffled builds below: keys, values, value types and key order
COBOUNDARY_LAYOUT = {
    ("qci(2)", 0): "8bebb0ae922bf6fd688769a33aac440f08096ed68005a5825ab324d358aefea2",
    ("qci(2)", 1): "47cc2a2a3f7c4e095a43f99c1ba8341b436b67341ba8fe4f1a80c5dc7b2612f1",
    ("qci(2)", 2): "7e3fe968e1797da4862c19d85a829cf67ec942410df1be330b456e7397d18232",
    ("S3", 0): "aa59797cb28cb5c8712d00dfaeaee57e1946e22bc0fdf54738d38e7088d9afe9",
    ("S3", 1): "a16ed48934cfd520f5a7e2ad1d4070af3f19f62917bacd1c47bf6285061bb298",
    ("S3", 2): "4edce6320d7eef4b2ba416570ab9785b183a12f34274bc64da77588223cc0d48",
}


def test_coboundary_columns_keep_their_layout():
    # structure lists in a shuffled order make the tensor's insertion order
    # differ from its sorted order; the middle faces follow the former
    for name, A in (("qci(2)", qci(2).algebra), ("S3", s3_group_algebra().algebra)):
        triples = [(i, j, k, c) for (i, j), terms in A.structure.items()
                   for k, c in terms]
        random.Random(7).shuffle(triples)
        B = Algebra(A.field, A.dim, A.basis_names, triples, list(A.unit))
        assert list(B.structure) != sorted(B.structure)
        for p in range(3):
            cols = [list(c.items()) for c in hh._coboundary_columns(B, p)]
            digest = hashlib.sha256(repr(cols).encode()).hexdigest()
            assert digest == COBOUNDARY_LAYOUT[name, p], (name, p)


def _corrupt(col, field=Q):
    """A copy of a sparse column, or of a face-table list of (offset,
    value) terms, with its first value doubled in ``field``."""
    items = list(col.items()) if isinstance(col, dict) else list(col)
    (k, v), rest = items[0], items[1:]
    items = [(k, field.add(v, v))] + rest
    return dict(items) if isinstance(col, dict) else items


def test_a_corrupted_differential_fails_verify_complex():
    # one doubled coefficient in b₂'s cached face table (untwisted or
    # twisted: the middle face's term 1·x = x) or in one column of the
    # cached d¹ must be seen, on fresh copies of qci(2)
    for twisted in (False, True):
        item = qci(2)
        A = item.algebra
        F = make_frobenius(A, item.gram)
        twist = F.sigma.matrix if twisted else None
        w, first, ((hi, lo, table),), last = hh._boundary_faces(A, 2, twist)
        table = list(table)
        table[1] = _corrupt(table[1])
        A._cache[("faces", 2, twist)] = (w, first, [(hi, lo, table)], last)
        assert not hh.verify_complex(A, 1, sigma=F.sigma)
    item = qci(2)
    A = item.algebra
    F = make_frobenius(A, item.gram)
    cols = list(hh._coboundary_columns(A, 1))
    cols[1] = _corrupt(cols[1])
    A._cache[("cob", 1)] = cols
    assert not hh.verify_complex(A, 1, sigma=F.sigma)


def test_hh_dimensions_qci():
    A = qci(2).algebra
    assert hh.hh_dimension(A, 0).dim == 2
    assert hh.hh_dimension(A, 1).dim == 2
    m2 = matrix_algebra(2).algebra
    assert hh.hh_dimension(m2, 0).dim == 1
    # central simple algebra: higher cohomology vanishes
    assert hh.hh_dimension(m2, 1).dim == 0


def test_budget_guard():
    A = qci(2).algebra
    with pytest.raises(BudgetExceeded):
        hh.cocycle_basis(A, 2, budget=16)
    with pytest.raises(BudgetExceeded):
        hh.hh_dimension(A, 3, budget=256)
    # homology at degree p builds b_{p+1} on n^{p+2} columns and is charged
    # like hh_dimension at p, so both sides of a duality row stop together
    e2 = exterior(2)
    F = make_frobenius(e2.algebra, e2.gram)
    for call in (lambda: hh.hh_dimension(e2.algebra, 1, budget=16),
                 lambda: hh.homology_dimension(e2.algebra, 1, hh.TWISTED,
                                               F.sigma, budget=16),
                 lambda: hh.sigma_action_on_homology(F, 1, hh.TWISTED,
                                                     budget=16)):
        with pytest.raises(BudgetExceeded):
            call()
    # degree 0 needs n² = 16 coordinates and fits
    assert hh.homology_dimension(e2.algebra, 0, hh.TWISTED, F.sigma,
                                 budget=16).dim == hh.hh_dimension(
                                     e2.algebra, 0, budget=16).dim
    assert hh.sigma_action_on_homology(F, 0, hh.TWISTED, budget=16).is_identity()


def test_verify_complex_charges_the_differential_it_builds():
    # k^17: d³ has 17⁵ = 1 419 857 coordinates, over the default 2²⁰, and
    # is refused before any of its columns is built
    n = 17
    A = Algebra(Q, n, [f"e{i}" for i in range(n)],
                [(i, i, i, 1) for i in range(n)], [1] * n)
    assert hh.verify_complex(A, 1)
    with pytest.raises(BudgetExceeded, match="^degree 3 needs 1419857 "):
        hh.verify_complex(A, 2)


def test_cochain_action():
    item = qci(2)
    A = item.algebra
    F = make_frobenius(A, item.gram)
    d = item.delta(0, 0, 1, 0)
    f1 = hh.Cochain.from_flat(A, 1, sum(d.matrix.data, []))
    # identity leaves the cochain alone
    same = hh.cochain_action(LinearMap.identity(A), f1)
    assert same == f1
    # degree 0: the action is just the map on center elements
    zs = center_basis(A)
    for z in zs:
        c0 = hh.Cochain.from_flat(A, 0, z.raw)
        acted = hh.cochain_action(F.sigma, c0)
        assert tuple(acted.flatten()) == F.sigma(z).raw
    # sigma-twist of the derivation sends x to q·xy
    fs = hh.cochain_action(F.sigma, f1).as_linear_map()
    assert fs(A.basis_element(1)) == item.xy.scale(2)
    assert fs(A.basis_element(2)).is_zero()


def _assert_action_by_definition(item, F, f):
    """cochain_action(u, f) is a ↦ u(f(u⁻¹a₁ ⊗ ... ⊗ u⁻¹a_p)) for σ and for
    the non-monomial alpha(2, 1, 1, 2), which mixes x and y into xy; f is
    evaluated on each tensor of basis vectors that u⁻¹ puts in the slots.
    In the dense row-major vector of a cochain, its value at the i-th basis
    tensor (in ``itertools.product`` order) is the slice [i::n^p]."""
    for u in (F.sigma, item.alpha(2, 1, 1, 2)):
        assert_acts_by_definition(u, f)


def assert_acts_by_definition(u, f):
    """One map's side of :func:`_assert_action_by_definition`."""
    A = f.algebra
    fld, n, p = A.field, A.dim, f.degree
    flat = f.flatten()
    cols = [u.inverse()(A.basis_element(t)).raw for t in range(n)]
    g = hh.cochain_action(u, f).flatten()
    tensors = list(itertools.product(range(n), repeat=p))
    for i, J in enumerate(tensors):
        value = A.zero_element()
        for k_idx, K in enumerate(tensors):
            c = fld.one()
            for j, k in zip(J, K):
                c = fld.mul(c, cols[j][k])
            if not fld.is_zero(c):
                value = value + Element(A, flat[k_idx::n ** p], _raw=True).scale(c)
        assert Element(A, g[i::n ** p], _raw=True) == u(value), (u, J)


def test_cochain_action_matches_definition_in_degree_two():
    for label in ("qci(2)/Q", "qci(a)/F9"):
        item = GALLERY[label]()
        A = item.algebra
        fld = A.field
        n = A.dim
        F = make_frobenius(A, item.gram)
        flat = [fld.from_int(i % 5 - 2) for i in range(n ** 3)]
        f = hh.Cochain.from_flat(A, 2, flat)
        assert f.flatten() == flat
        fs = hh.cochain_action(F.sigma, f)
        _assert_action_by_definition(item, F, f)
        # no operation stores a zero
        assert (f - f).data == {}
        for c in (fs, fs - f, hh.apply_coboundary(A, f)):
            assert c.data and not any(fld.is_zero(v) for v in c.data.values())


def test_cochain_action_matches_definition_in_degree_three():
    # degree 3 is the degree the main-theorem certificates act in
    for label in ("qci(2)/Q", "qci(a)/F9"):
        item = GALLERY[label]()
        A = item.algebra
        fld = A.field
        F = make_frobenius(A, item.gram)
        f = hh.Cochain.from_flat(A, 3, [fld.from_int((7 * i) % 11 - 5) if i % 3 else
                                        fld.zero() for i in range(A.dim ** 4)])
        _assert_action_by_definition(item, F, f)


def test_triviality_certificate_degree_one():
    item = qci(2)
    A = item.algebra
    F = make_frobenius(A, item.gram)
    d = item.delta(0, 0, 1, 0)
    f1 = hh.Cochain.from_flat(A, 1, sum(d.matrix.data, []))
    g = hh.triviality_certificate(F, f1)
    assert g is not None and g.degree == 0
    # re-check the certificate identity by hand: dg = f^σ − f
    fs = hh.cochain_action(F.sigma, f1).as_linear_map()
    gel = Element(A, g.flatten(), _raw=True)
    for i in range(A.dim):
        a = A.basis_element(i)
        assert a * gel - gel * a == fs(a) - d(a)
    # a cocycle fixed by the action certifies with g = 0
    c3 = cyclic(3)
    F3 = make_frobenius(c3.algebra, c3.gram)
    for f in hh.cocycle_basis(c3.algebra, 1):
        g = hh.triviality_certificate(F3, f)
        assert g is not None and g.is_zero()


def test_certificate_rejects_non_cocycles():
    item = qci(2)
    A = item.algebra
    F = make_frobenius(A, item.gram)
    # the identity map is not a derivation, hence not a 1-cocycle, and
    # neither is a third of it, whose denominators the test clears first
    for scale in (1, Fraction(1, 3)):
        bad = hh.Cochain.from_flat(A, 1, sum(Matrix.identity(Q, A.dim).scale(scale).data, []))
        with pytest.raises(MalformedInput, match="not a cocycle"):
            hh.triviality_certificate(F, bad)


def test_boundary_h0_dimensions():
    A = qci(2).algebra
    item = qci(2)
    F = make_frobenius(A, item.gram)
    assert hh.homology_dimension(A, 0).dim == 3            # A / [A,A]
    assert hh.homology_dimension(A, 0, hh.TWISTED, F.sigma).dim == 2
    # twisted boundary space equals the twisted commutator subspace
    rep = hh.homology_dimension(A, 0, hh.TWISTED, F.sigma)
    tw = commutator_subspace(A, F.sigma)
    assert rep.dim_boundaries == len(tw) == 2


def test_hh1_dual_numbers():
    B = dual_numbers()
    rep = hh.homology_dimension(B, 1)
    assert rep.dim_cycles == 4          # commutative: every chain is a cycle
    assert rep.dim_boundaries == 3      # spanned by 1⊗1, t⊗1, t⊗t
    assert rep.dim == 1
    # boundary space: exactly the span of 1⊗1, t⊗1, t⊗t (flat 0, 2, 3),
    # which does not hold 1⊗t
    ech = echelon(Q, hh._stream_boundary(B, 2, None))[0]
    assert ech.rank == 3
    assert all(ech.solve({i: 1}) is not None for i in (0, 2, 3))
    assert ech.solve({1: 1}) is None


def test_sigma_action_on_homology():
    item = qci(2)
    F = make_frobenius(item.algebra, item.gram)
    plain = hh.sigma_action_on_homology(F, 0, hh.UNTWISTED)
    assert not plain.is_identity()
    # the class of x is scaled by 1/q
    diag = [plain.data[i][i] for i in range(plain.rows)]
    assert Fraction(1, 2) in diag and Fraction(2) in diag
    twisted = hh.sigma_action_on_homology(F, 0, hh.TWISTED)
    assert twisted.is_identity()
    # with sigma = id everything is fixed
    c3 = cyclic(3)
    F3 = make_frobenius(c3.algebra, c3.gram)
    assert hh.sigma_action_on_homology(F3, 1, hh.UNTWISTED).is_identity()


def test_representatives_are_counted_once():
    # HH^2 of exterior(3): 73 cocycles, 49 coboundaries
    for field in (Q, Field.prime(5)):
        rep = hh.hh_dimension(exterior(3, field).algebra, 2)
        assert (rep.dim_cycles, rep.dim_boundaries, rep.dim) == (73, 49, 24)
        assert len(rep.representatives) == 24
    te = trivial_extension(matrix_algebra(2).algebra)
    F = make_frobenius(te.algebra, te.gram)
    h1 = hh.homology_dimension(te.algebra, 1, hh.TWISTED, F.sigma)
    assert len(h1.representatives) == h1.dim
    assert hh.sigma_action_on_homology(F, 1, hh.TWISTED).is_identity()


F9 = Field.extension(3, [1, 0, 1])
GALLERY = {
    "qci(2)/Q": lambda: qci(2),
    "qci(a)/F9": lambda: qci(F9.parse("0,1"), F9),
    "trivM2/Q": lambda: trivial_extension(matrix_algebra(2).algebra),
    "exterior(3)/F5": lambda: exterior(3, Field.prime(5)),
}


def _fresh(label):
    """(algebra, Frobenius structure) built anew, so every cache is cold."""
    item = GALLERY[label]()
    return item.algebra, make_frobenius(item.algebra, item.gram)


def _reference_sigma_action(A, F, p, coeffs):
    """The σ-action on H_p solved densely: coordinates of σ^{⊗p+1}(rep)
    against [representatives | all boundary columns]."""
    f, n = A.field, A.dim
    reps = [dense_vector(f, v, n ** (p + 1))
            for v in hh.homology_dimension(A, p, coeffs, F.sigma).representatives]
    twist = None if coeffs == hh.UNTWISTED else F.sigma.matrix
    M = Matrix.from_columns(f, reps + [dense_vector(f, c, n ** (p + 1))
                                       for c in hh._stream_boundary(A, p + 1, twist)])
    s = F.sigma.matrix.data
    idx = list(itertools.product(range(n), repeat=p + 1))
    cols = []
    for v in reps:
        image = [f.zero()] * len(idx)
        for a, I in enumerate(idx):
            for b, K in enumerate(idx):
                if not f.is_zero(v[b]):
                    c = v[b]
                    for i, k in zip(I, K):
                        c = f.mul(c, s[i][k])
                    image[a] = f.add(image[a], c)
        cols.append(solve_linear(M, image)[:len(reps)])
    return Matrix.from_columns(f, cols) if cols else Matrix(f, [])


@pytest.mark.parametrize("label", list(GALLERY))
def test_sigma_action_reuses_the_homology_echelon(label):
    for coeffs in (hh.UNTWISTED, hh.TWISTED):
        for p in range(3):
            _, F_cold = _fresh(label)
            cold = hh.sigma_action_on_homology(F_cold, p, coeffs)
            if coeffs == hh.TWISTED:
                assert cold.is_identity()
            if p < 2:
                assert cold == _reference_sigma_action(*_fresh(label), p, coeffs)
            A, F = _fresh(label)
            rep = hh.homology_dimension(A, p, coeffs, F.sigma)
            assert hh.sigma_action_on_homology(F, p, coeffs) == cold
            assert cold.rows == rep.dim
            # the report owns its lists: mutating them changes no later call
            kept = [dict(v) for v in rep.representatives]
            for v in rep.representatives:
                v.clear()
            rep.representatives.clear()
            again = hh.homology_dimension(A, p, coeffs, F.sigma)
            assert again.representatives == kept
            assert hh.sigma_action_on_homology(F, p, coeffs) == cold


def test_sigma_action_with_a_non_monomial_sigma():
    # the form G·R_{1+x} on qci(2) has a σ with images of two terms, so the
    # mode products take their general path on every digit
    item = qci(2)
    A = item.algebra
    t = A.unit_element() + item.x
    F = make_frobenius(A, item.gram * right_mult_matrix(t))
    columns = F.sigma.matrix.sparse_columns()
    assert any(len(col) > 1 for col in columns)
    for coeffs in (hh.UNTWISTED, hh.TWISTED):
        for p in range(2):
            got = hh.sigma_action_on_homology(F, p, coeffs)
            assert got == _reference_sigma_action(A, F, p, coeffs)
            if coeffs == hh.TWISTED:
                assert got.is_identity()


def test_duality_dims():
    item = qci(2)
    F = make_frobenius(item.algebra, item.gram)
    table = hh.duality_dims(F, 2)
    assert [row["cohomology"] for row in table] == [2, 2, 1]
    assert all(row["match"] for row in table)
    e2 = exterior(2)
    F2 = make_frobenius(e2.algebra, e2.gram)
    assert all(row["match"] for row in hh.duality_dims(F2, 2))


def test_connes_image():
    B = dual_numbers()
    # ker(CB) is spanned by the class of 1: CB(1) = 2·(1⊗1) is a boundary,
    # while 1⊗t + t⊗1 is not
    res = hh.connes_image_test(B, [0, 1])
    assert res.in_image
    assert len(res.kernel_basis) == 1
    assert res.kernel_basis[0] == B.unit_element() or \
        res.kernel_basis[0].raw[1] == 0
    assert res.automorphism is not None
    res_bad = hh.connes_image_test(B, [1, 0])
    assert not res_bad.in_image and res_bad.automorphism is None
    res_zero = hh.connes_image_test(B, [0, 0])
    assert res_zero.in_image
    # supplied unit part is realized
    t = B.element([3, 1])
    res_t = hh.connes_image_test(B, [0, 5], t=t)
    from frobcalc.gallery import trivial_extension
    te = trivial_extension(B)
    assert res_t.jacobian == te.embed(t) + te.embed_dual([0, 5])
    # precondition: must vanish on commutators
    m2 = matrix_algebra(2).algebra
    with pytest.raises(MalformedInput):
        hh.connes_image_test(m2, [0, 1, 0, 0])
    # on a separable algebra only the zero functional is admissible
    ok = hh.connes_image_test(m2, [0, 0, 0, 0])
    assert ok.in_image
    trace_like = hh.connes_image_test(m2, [1, 0, 0, 1])
    assert not trace_like.in_image


def _insertion_connes_kernel(B):
    """ker(HH₀ → HH₁) by insertion: after b₂'s columns (no tails), each
    1⊗e_i + e_i⊗1 with tail {i: 1} reduces to zero exactly when it is a
    boundary modulo the earlier ones, and its tail is then the canonical
    kernel vector for free column i."""
    fld, n = B.field, B.dim
    ech, _ = hh._echelonize(fld, hh._stream_boundary(B, 2, None))
    kvecs = []
    for i in range(n):
        vec = {}
        for m, um in fld.nonzeros(B.unit).items():
            fld.add_entry(vec, m * n + i, um)
            fld.add_entry(vec, i * n + m, um)
        out = ech.insert(vec, {i: fld.one()})
        if out is not None:
            kvecs.append(dense_vector(fld, out, n))
    return kvecs


@pytest.mark.parametrize("build", [ground_field_algebra, dual_numbers,
                                   lambda: matrix_algebra(2).algebra,
                                   lambda: qci(2).algebra],
                         ids=["k", "dual numbers", "M2", "qci(2)"])
def test_connes_kernel_reads_the_cached_h1(monkeypatch, build):
    # the kernel of e_i ↦ the H_1 coordinates of 1⊗e_i + e_i⊗1 is the
    # insertion kernel, value types included; b₂ is eliminated once per
    # base, not on every call
    B = build()
    expected = _insertion_connes_kernel(B)
    eliminated = []
    echelonize = hh._echelonize
    monkeypatch.setattr(hh, "_echelonize",
                        lambda *args, **kw: eliminated.append(args) or echelonize(*args, **kw))
    for _ in range(2):
        res = hh.connes_image_test(B, [0] * B.dim)
        assert res.in_image
        assert [typed(dict(enumerate(e.raw))) for e in res.kernel_basis] == \
            [typed(dict(enumerate(v))) for v in expected]
        assert len(eliminated) == 2  # b₁ with tails and b₂ for its rank


@pytest.mark.parametrize("label", list(GALLERY))
def test_without_a_pairing_only_the_representatives_are_inserted(monkeypatch, label):
    # a canonical cycle whose free column is a pivot row of the boundaries
    # is a boundary plus earlier cycles: hh_dimension and untwisted H_p
    # skip it, so exactly dim H_p cycles are inserted, and each joins
    inside, joined = [], []
    insert, representatives = SparseEchelon.insert, hh._representatives

    def counting(self, col, tail):
        out = insert(self, col, tail)
        if inside:
            joined.append(out is None)
        return out

    def counted(*args, **kwargs):
        inside.append(True)
        try:
            return representatives(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(SparseEchelon, "insert", counting)
    monkeypatch.setattr(hh, "_representatives", counted)
    A = GALLERY[label]().algebra
    skipped = 0
    for p in range(3):
        for call in (hh.hh_dimension, hh.homology_dimension):
            joined.clear()
            rep = call(A, p)
            assert joined == [True] * rep.dim
            skipped += rep.dim_cycles - rep.dim
    assert skipped > 0


def test_twisted_h0_representatives():
    item = qci(2)
    A = item.algebra
    F = make_frobenius(A, item.gram)
    rep = hh.homology_dimension(A, 0, hh.TWISTED, F.sigma)
    got = [Element(A, dense_vector(A.field, v, A.dim), _raw=True)
           for v in rep.representatives]
    assert got == [A.unit_element(), A.basis_element(3)]


def test_degree_one_coboundaries_are_inner_derivations():
    item = qci(2)
    A = item.algebra
    d0 = hh._coboundary_columns(A, 0)
    # image of d0 = the maps a ↦ ag − ga, i.e. minus the inner derivations;
    # cochain flattening is row-major on (value coordinate, argument); the
    # spans agree when each set and their union have one rank
    flat_inner = []
    for i in range(A.dim):
        m = ad(A.basis_element(i)).matrix
        flat_inner.append(Q.nonzeros([m.data[k][j] for k in range(A.dim)
                                      for j in range(A.dim)]))

    def rank(cols):
        return echelon(Q, cols, tails=False)[0].rank

    assert rank(d0) == rank(flat_inner) == rank(d0 + flat_inner) == 2


def test_twisted_trivial_extension_full_machinery():
    # the twisted dual bimodule gives a non-symmetric carrier whose
    # induced map is diag(tau, tau^{-T}); the whole cohomology machinery
    # must work there too
    from frobcalc.gallery import trivial_extension
    from frobcalc.frobenius import is_symmetric_algebra
    from frobcalc.linalg import invert
    from frobcalc.rng import SplitMix64
    B = dual_numbers()
    tau = LinearMap(B, Matrix(Q, [[1, 0], [0, 2]]), "endomorphism")
    item = trivial_extension(B, tau)
    F = make_frobenius(item.algebra, item.gram)
    n = B.dim
    for i in range(n):
        col = F.sigma.matrix.column(i)
        assert col[:n] == list(tau.matrix.column(i))
        assert all(v == 0 for v in col[n:])
    tinv = invert(tau.matrix).transpose()
    for i in range(n):
        col = F.sigma.matrix.column(n + i)
        assert col[n:] == list(tinv.column(i))
        assert all(v == 0 for v in col[:n])
    assert is_symmetric_algebra(F, SplitMix64(42)).verdict == "no"
    assert all(r["match"] for r in hh.duality_dims(F, 2))
    for p in (1, 2):
        for f in hh.cocycle_basis(item.algebra, p):
            assert hh.triviality_certificate(F, f) is not None
    assert hh.sigma_action_on_homology(F, 0, hh.TWISTED).is_identity()
    assert not hh.sigma_action_on_homology(F, 0, hh.UNTWISTED).is_identity()


def test_rational_cocycles_and_homology_keep_the_canonical_form():
    half = qci(Fraction(1, 2))
    for A, p in ((half.algebra, 1), (half.algebra, 2), (exterior(3).algebra, 2)):
        assert_canonical(v for f in hh.cocycle_basis(A, p) for v in f.data.values())
    F = make_frobenius(half.algebra, half.gram)
    for p in (0, 1, 2):
        rep = hh.homology_dimension(half.algebra, p, hh.TWISTED, F.sigma)
        assert rep.dim > 0
        assert_canonical(v for kv in rep.representatives for v in kv.values())
    action = hh.sigma_action_on_homology(F, 0, hh.UNTWISTED)
    assert_canonical(v for row in action.data for v in row)
    assert Fraction(1, 2) in (v for row in action.data for v in row)


def _homology_state(field):
    """exterior(3) over ``field`` at p = 2, twisted: the kernel of b₂, the
    report, the cached homology state and the Frobenius structure."""
    item = exterior(3, field)
    A, F = item.algebra, make_frobenius(item.algebra, item.gram)
    twist = F.sigma.matrix
    _, kernel = hh._echelonize(field, hh._stream_boundary(A, 2, twist), tails=True)
    rep = hh.homology_dimension(A, 2, hh.TWISTED, F.sigma)
    return kernel, rep, hh._homology(A, 2, twist), F


def _ref_echelon(field, columns, tails=True):
    """A normalizing per-scalar echelon (``RefEchelon``) fed ``columns`` in
    order, with identity tails or none: the echelon and its kernel tails."""
    ref, kernel = RefEchelon(field), []
    for j, col in enumerate(columns):
        out = ref.insert(col, {j: field.one()} if tails else None)
        if out is not None and tails:
            kernel.append(out)
    return ref, kernel


def _ref_representatives(ref, cycles, vector=lambda kv: kv):
    """The cycles that join ``ref``, the i-th to join with tail {i: 1}, as
    ``_representatives`` inserts them."""
    reps = []
    for kv in cycles:
        if ref.insert(vector(kv), {len(reps): 1}) is None:
            reps.append(kv)
    return reps


def test_rational_representatives_enter_the_echelon_integral():
    # exterior(3)/Q at p = 2: 54 cycle entries and one representative are
    # not integral; the twist has a validated form, so each cycle's pairing
    # vector v against the cocycles enters the echelon, which clears v's
    # denominators and keeps ints only
    kernel, rep, state, F = _homology_state(Q)
    A, ech = F.algebra, state.echelon
    assert state.pairing is not None
    assert sum(type(v) is Fraction for kv in kernel for v in kv.values()) == 54
    assert sum(any(type(v) is Fraction for v in kv.values())
               for kv in rep.representatives) == 1
    # the representatives are the kernel vectors themselves, unscaled
    assert all(kv in kernel for kv in rep.representatives)

    def pairing(kv):
        return sparse_combination(Q, state.pairing, kv)

    assert sum(any(type(v) is Fraction for v in pairing(kv).values())
               for kv in kernel) == 18
    for i, kv in enumerate(rep.representatives):
        assert state.coordinates(kv) == {i: 1}
    assert hh.sigma_action_on_homology(F, 2, hh.TWISTED).is_identity()
    # the same kernel, representatives, pivot rows and coordinates, key
    # order and value types included, as a normalizing echelon on
    # Fractions fed the same vectors; each pivot is the reference's times
    # its lead
    ref_kernel = _ref_echelon(Q, hh._stream_boundary(A, 2, F.sigma.matrix))[1]
    assert list(map(typed, kernel)) == list(map(typed, ref_kernel))
    ref = RefEchelon(Q)
    ref_reps = _ref_representatives(ref, kernel, pairing)
    assert list(map(typed, rep.representatives)) == list(map(typed, ref_reps))
    assert list(ech.pivots) == list(ref.pivots)
    for r, pivot in ech.pivots.items():
        assert tuple(map(typed, normalized(Q, pivot))) == \
            tuple(map(typed, ref.pivots[r]))
    assert_integral_pivots(ech)
    for kv in kernel:
        assert typed(state.coordinates(kv)) == typed(ref.solve(pairing(kv)))
    # HH² on the same algebra: the cocycles of d² against the echelon of d¹
    hh_rep = hh.hh_dimension(A, 2)
    ref_b = _ref_echelon(Q, hh._coboundary_columns(A, 1), tails=False)[0]
    dim_bound = len(ref_b.pivots)
    cocycles = _ref_echelon(Q, hh._coboundary_columns(A, 2))[1]
    ref_reps = _ref_representatives(ref_b, cocycles)
    assert (hh_rep.dim_cycles, hh_rep.dim_boundaries, hh_rep.dim) == \
        (len(cocycles), dim_bound, len(ref_reps)) == (73, 49, 24)
    assert [typed(c.data) for c in hh_rep.representatives] == \
        list(map(typed, ref_reps))


def test_rational_pivots_hold_ints_of_content_one():
    # S₃/Q d² (integral structure constants) and qci(1/2)/Q d³ (fractional
    # ones): every pivot column and tail holds ints of content 1, and the
    # canonical kernel is the normalizing echelon's, value types included
    for A, p in ((s3_group_algebra().algebra, 2), (qci(Fraction(1, 2)).algebra, 3)):
        cols = hh._coboundary_columns(A, p)
        ech, kernel = hh._echelonize(Q, cols, tails=True)
        assert_integral_pivots(ech)
        ref, ref_kernel = _ref_echelon(Q, cols)
        assert list(ech.pivots) == list(ref.pivots)
        assert list(map(typed, kernel)) == list(map(typed, ref_kernel))
    assert any(type(v) is Fraction for col in cols for v in col.values())
    assert any(type(v) is Fraction for kv in kernel for v in kv.values())


@pytest.mark.parametrize("build, p, fill", [
    # pivoting on the least row instead leaves 167 520 and 145 269
    (lambda: s3_group_algebra(Field.prime(5)), 3, 57_869),
    (lambda: exterior(4), 2, 108_480),
], ids=["S3-F5-d3", "exterior4-Q-d2"])
def test_last_row_pivots_pin_the_fill(build, p, fill):
    # the elimination is deterministic, so its fill is an exact count: the
    # nonzeros of every pivot column and tail of d^p with identity tails
    A = build().algebra
    ech = echelon(A.field, hh._coboundary_columns(A, p), tails=True)[0]
    assert sum(len(col) + len(tail) for col, tail in ech.pivots.values()) == fill


CACHE_TAGS = {"cob", "cocycles", "faces", "hom", "nakayama-form"}


def test_rank_only_boundaries_are_streamed_not_kept():
    # b_p's columns are streamed from its face table and never cached: H_p
    # and the b∘b = 0 check leave only d^p's columns, the cocycles, the
    # face tables and the homology states behind, and the 65 536 columns of
    # b₃ on exterior(4) do not outlive the call
    small = exterior(3, Field.prime(5))
    F = make_frobenius(small.algebra, small.gram)
    for p in range(3):
        for coeffs in (hh.UNTWISTED, hh.TWISTED):
            hh.homology_dimension(small.algebra, p, coeffs, F.sigma)
    assert hh.verify_complex(small.algebra, 2, sigma=F.sigma)
    assert {key[0] for key in small.algebra._cache} == CACHE_TAGS
    item = exterior(4, Field.prime(5))
    A, F = item.algebra, make_frobenius(item.algebra, item.gram)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = hh.homology_dimension(A, 2, hh.TWISTED, F.sigma)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert (rep.dim_boundaries, rep.dim) == (3800, 80)
    assert {key[0] for key in A._cache} == CACHE_TAGS
    assert held < 10 * 2**20


def _twisted_trivial_m2():
    """The trivial extension of M₂ twisted by ι_{1+E₁₂}: σ is not monomial."""
    B = matrix_algebra(2).algebra
    return trivial_extension(B, inner_automorphism(B.unit_element()
                                                   + B.basis_element(1)))


def _exact(cols):
    """Sparse dicts as comparable items, value types included: over Q an
    integral value must be an int."""
    return [sorted((k, type(v), v) for k, v in col.items()) for col in cols]


class _BarFormulas:
    """The columns of the bar differentials of A, as {flat index: value}
    dicts, from their defining formulas with ``Element`` products."""

    def __init__(self, A):
        self.f, self.n = A.field, A.dim
        self.e = [A.basis_element(i) for i in range(A.dim)]
        self.prod = [[(a * b).raw for b in self.e] for a in self.e]

    def _put(self, col, sign, x, place):
        # the terms ±x_t at place(t) of one face
        f = self.f
        for t, v in enumerate(x):
            if not f.is_zero(v):
                key = sum(d * self.n ** i for i, d in enumerate(reversed(place(t))))
                col[key] = f.add(col.get(key, f.zero()), v if sign > 0 else f.neg(v))

    def _nonzero(self, col):
        return {k: v for k, v in col.items() if not self.f.is_zero(v)}

    def boundary(self, p, sigma):
        """b(m ⊗ a₁ ⊗ … ⊗ a_p) = m·σ(a₁) ⊗ a₂ ⊗ … + Σ_i (−1)^i m ⊗ … ⊗ a_i a_{i+1}
        ⊗ … + (−1)^p a_p·m ⊗ a₁ ⊗ … ⊗ a_{p−1}, σ the identity untwisted."""
        e, prod, put = self.e, self.prod, self._put
        cols = []
        for m in range(self.n):
            for J in itertools.product(range(self.n), repeat=p):
                col = {}
                put(col, 1, (e[m] * sigma(e[J[0]])).raw, lambda t: (t, *J[1:]))
                for i in range(1, p):
                    put(col, (-1) ** i, prod[J[i - 1]][J[i]],
                        lambda t: (m, *J[:i - 1], t, *J[i + 1:]))
                put(col, (-1) ** p, prod[J[p - 1]][m], lambda t: (t, *J[:p - 1]))
                cols.append(self._nonzero(col))
        return cols

    def coboundary(self, p):
        """(d f)(a₀, …, a_p) = a₀·f(a₁, …) + Σ_i (−1)^i f(…, a_{i−1} a_i, …)
        + (−1)^{p+1} f(…, a_{p−1})·a_p on every basis tuple T, for each basis
        cochain f: e_J ↦ e_k (zero on the other basis tensors), column k·n^p + J."""
        n, prod, put = self.n, self.prod, self._put
        cols = {}

        def col(k, J):
            return cols.setdefault((k, *J), {})

        for T in itertools.product(range(n), repeat=p + 1):
            for k in range(n):
                put(col(k, T[1:]), 1, prod[T[0]][k], lambda t: (t, *T))
                for i in range(1, p + 1):
                    for t, v in enumerate(prod[T[i - 1]][T[i]]):
                        put(col(k, (*T[:i - 1], t, *T[i + 1:])), (-1) ** i, [v],
                            lambda _: (k, *T))
                put(col(k, T[:p]), (-1) ** (p + 1), prod[k][T[p]], lambda t: (t, *T))
        return [self._nonzero(cols.get(key, {}))
                for key in itertools.product(range(n), repeat=p + 1)]


def test_twisted_boundary_against_the_definition():
    # b(e_m ⊗ e_a) = e_m·σ(e_a) − e_a·e_m on the trivial extension of M₂
    # twisted by ι_{1+E₁₂}, whose σ is not monomial
    item = _twisted_trivial_m2()
    A = item.algebra
    n = A.dim
    sigma = make_frobenius(A, item.gram).sigma
    assert any(len(col) > 1 for col in sigma.matrix.sparse_columns())
    b1 = list(hh._stream_boundary(A, 1, sigma.matrix))
    for m in range(n):
        for a in range(n):
            em, ea = A.basis_element(m), A.basis_element(a)
            assert b1[m * n + a] == A.field.nonzeros((em * sigma(ea) - ea * em).raw)
    # every column of b_p for p ≤ 3, twisted and not, and of d^p for p ≤ 2,
    # as the face tables give them, here and on qci(2)
    for item in (item, qci(2)):
        A = item.algebra
        sigma = make_frobenius(A, item.gram).sigma
        assert not sigma.is_identity()
        bar = _BarFormulas(A)
        for p in range(1, 4):
            for twist, right in ((sigma.matrix, sigma), (None, LinearMap.identity(A))):
                assert _exact(hh._stream_boundary(A, p, twist)) == \
                    _exact(bar.boundary(p, right))
        for p in range(3):
            assert _exact(hh._coboundary_columns(A, p)) == _exact(bar.coboundary(p))


def test_boundary_matrix_matches_products():
    # b_p for p ≤ 2 on qci(2) twisted by alpha(2, 1, 1, 2), which mixes x
    # and y into xy, and on trivM2, whose σ is the identity, twisted by σ
    # and not
    q2, tm2 = qci(2), trivial_extension(matrix_algebra(2).algebra)
    alpha = q2.alpha(2, 1, 1, 2)
    sigma = make_frobenius(tm2.algebra, tm2.gram).sigma
    assert sigma.is_identity()
    for A, twist, right in ((q2.algebra, alpha.matrix, alpha),
                            (tm2.algebra, sigma.matrix, sigma),
                            (tm2.algebra, None, LinearMap.identity(tm2.algebra))):
        bar = _BarFormulas(A)
        for p in (1, 2):
            assert _exact(hh._stream_boundary(A, p, twist)) == _exact(bar.boundary(p, right))


# the verification gallery's carriers, built fresh, with exterior(4) over 𝔽₅,
# qci(a) over 𝔽₉ and a trivial extension whose σ is not monomial
DUALITY_CARRIERS = {
    "exterior(1)/Q": lambda: exterior(1),
    "exterior(2)/Q": lambda: exterior(2),
    "exterior(3)/Q": lambda: exterior(3),
    "exterior(4)/Q": lambda: exterior(4),
    "exterior(4)/F5": lambda: exterior(4, Field.prime(5)),
    "qci(2)/Q": lambda: qci(2),
    "qci(3)/Q": lambda: qci(3),
    "qci(1/2)/Q": lambda: qci(Fraction(1, 2)),
    "qci(a)/F9": GALLERY["qci(a)/F9"],
    "trivQ": lambda: trivial_extension(ground_field_algebra()),
    "trivDual": lambda: trivial_extension(dual_numbers()),
    "trivM2": lambda: trivial_extension(matrix_algebra(2).algebra),
    "cyclic(3)": lambda: cyclic(3),
    "cyclic(5)": lambda: cyclic(5),
    "matrix(2)/Q": lambda: matrix_algebra(2),
    "matrix(3)/Q": lambda: matrix_algebra(3),
    "S3/Q": lambda: s3_group_algebra(),
    "trivM2 twisted by 1+E12": _twisted_trivial_m2,
}


def _twisted_homology(item, dual):
    """Twisted H_p for p ≤ 2 on a fresh copy of ``item``: per degree the
    report, its representatives' items in key order with their value
    types, and the σ-action.  Without ``dual`` the form record is dropped,
    so the boundaries of b_{p+1} are eliminated."""
    A = item.algebra
    F = make_frobenius(A, item.gram)
    if not dual:
        del A._cache[("nakayama-form", F.sigma.matrix)]
    out = []
    for p in range(3):
        rep = hh.homology_dimension(A, p, hh.TWISTED, F.sigma)
        assert (hh._homology(A, p, F.sigma.matrix).pairing is not None) == dual
        out.append((rep, [typed(kv) for kv in rep.representatives],
                    hh.sigma_action_on_homology(F, p, hh.TWISTED)))
    return out


@pytest.mark.parametrize("label", list(DUALITY_CARRIERS))
def test_dual_route_matches_elimination(label):
    build = DUALITY_CARRIERS[label]
    dual = _twisted_homology(build(), True)
    assert dual == _twisted_homology(build(), False)
    assert all(action.is_identity() for _, _, action in dual)


def test_a_form_of_another_sigma_fails_the_duality_check():
    # G·R_t with t = 1 + x, not central in qci(2), is a valid form whose
    # Nakayama map ι_t∘σ differs from σ; recorded for σ, it must be caught
    for p in range(3):
        item = qci(2)
        A = item.algebra
        F = make_frobenius(A, item.gram)
        wrong = item.gram * right_mult_matrix(A.unit_element() + item.x)
        assert make_frobenius(A, wrong).sigma.matrix != F.sigma.matrix
        A._cache[("nakayama-form", F.sigma.matrix)] = wrong, invert(wrong).sparse_rows()
        for call in (lambda: hh.homology_dimension(A, p, hh.TWISTED, F.sigma),
                     lambda: hh.sigma_action_on_homology(F, p, hh.TWISTED)):
            with pytest.raises(InternalInconsistency,
                               match="chain-level duality failed"):
                call()
        assert ("hom", p, F.sigma.matrix) not in A._cache


def test_a_boundary_twisted_by_the_inverse_fails_the_duality_check():
    # b_{p+1}'s face table built for σ⁻¹ ≠ σ (σ = diag(1, 2, 1/2, 1) on
    # qci(2)) and cached as σ's is the complex of A_{σ⁻¹}, which σ's form
    # does not dualize
    for p in range(3):
        item = qci(2)
        A = item.algebra
        F = make_frobenius(A, item.gram)
        inverse = F.sigma_inv().matrix
        assert inverse != F.sigma.matrix
        A._cache[("faces", p + 1, F.sigma.matrix)] = hh._boundary_faces(A, p + 1, inverse)
        for call in (lambda: hh.homology_dimension(A, p, hh.TWISTED, F.sigma),
                     lambda: hh.sigma_action_on_homology(F, p, hh.TWISTED)):
            with pytest.raises(InternalInconsistency,
                               match="chain-level duality failed"):
                call()
        assert ("hom", p, F.sigma.matrix) not in A._cache


def _corrupt_face(A, p, twist, where):
    """Double one coefficient of b_p's cached face table: the first term of
    the last middle face or of the last face."""
    w, first, mids, last = hh._boundary_faces(A, p, twist)
    if where == "middle face":
        hi, lo, table = mids[-1]
        table = list(table)
        d = next(d for d, terms in enumerate(table) if terms)
        table[d] = _corrupt(table[d], A.field)
        mids = mids[:-1] + [(hi, lo, table)]
    else:
        last = [list(tables) for tables in last]
        m, a = next((m, a) for m, tables in enumerate(last)
                    for a, terms in enumerate(tables) if terms)
        last[m][a] = _corrupt(last[m][a], A.field)
    A._cache[("faces", p, twist)] = (w, first, mids, last)


# a carrier whose form is monomial and two whose forms are not, one of
# them dense over 𝔽₅; each form is folded into b_{p+1}'s face table
MONOMIAL_FORM = {"qci(2)": (lambda: qci(2), True),
                 "trivM2 twisted by 1+E12": (_twisted_trivial_m2, False),
                 "cyclic(5)/F5": (lambda: cyclic(5), False)}


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("where", ["middle face", "last face", "coboundary column"])
@pytest.mark.parametrize("label", list(MONOMIAL_FORM))
def test_a_corrupted_face_or_column_fails_the_duality_check(label, where, p):
    # one doubled coefficient in b_{p+1}'s cached face table or in one column
    # of the cached d^p must be seen, whether the form is monomial or not
    build, monomial = MONOMIAL_FORM[label]
    item = build()
    A = item.algebra
    F = make_frobenius(A, item.gram)
    twist = F.sigma.matrix
    gram, _ = A._cache[("nakayama-form", twist)]
    assert hh._slot_map(gram.sparse_rows())[0] == monomial
    if where == "coboundary column":
        cols = list(hh._coboundary_columns(A, p))
        i = next(i for i, col in enumerate(cols) if col)
        cols[i] = _corrupt(cols[i], A.field)
        A._cache[("cob", p)] = cols
    else:
        _corrupt_face(A, p + 1, twist, where)
    with pytest.raises(InternalInconsistency, match="chain-level duality failed"):
        hh.homology_dimension(A, p, hh.TWISTED, F.sigma)
    assert ("hom", p, twist) not in A._cache


def _count_mode_products(monkeypatch):
    """The data of every ``_mode_product`` call from now on."""
    read = []
    mode_product = hh._mode_product
    monkeypatch.setattr(hh, "_mode_product",
                        lambda fld, data, *args: read.append(data)
                        or mode_product(fld, data, *args))
    return read


def test_a_monomial_form_checks_duality_without_mode_products(monkeypatch):
    # exterior(3)'s form is monomial: the check compares d^p's columns as
    # they are, and the cocycles' pairing vectors are one monomial_mode
    # pass each, so no mode product is taken at all
    item = exterior(3)
    A = item.algebra
    F = make_frobenius(A, item.gram)
    gram, _ = A._cache[("nakayama-form", F.sigma.matrix)]
    assert hh._slot_map(gram.sparse_rows())[0]
    read = _count_mode_products(monkeypatch)
    for p in range(3):
        hh.homology_dimension(A, p, hh.TWISTED, F.sigma)
        assert hh._homology(A, p, F.sigma.matrix).pairing is not None
        assert not read


@pytest.mark.parametrize("label", ["trivM2 twisted by 1+E12", "cyclic(5)/F5"])
def test_a_form_that_is_not_monomial_checks_duality_without_mode_products(
        monkeypatch, label):
    # a form that is not monomial is folded into b_{p+1}'s face table too:
    # the only mode products are the ones that turn the cocycles into
    # pairing vectors, and none reads a column of d^p
    build, monomial = MONOMIAL_FORM[label]
    assert not monomial
    item = build()
    A = item.algebra
    F = make_frobenius(A, item.gram)
    read = _count_mode_products(monkeypatch)
    for p in range(3):
        read.clear()
        hh.homology_dimension(A, p, hh.TWISTED, F.sigma)
        assert hh._homology(A, p, F.sigma.matrix).pairing is not None
        cols = {id(col) for col in hh._coboundary_columns(A, p)}
        assert not any(id(data) in cols for data in read)
        assert [id(data) for data in read] == [id(z) for z in hh._cocycles(A, p)]


@pytest.mark.parametrize("dual", [True, False])
def test_a_sigma_image_that_is_not_a_cycle_is_refused(monkeypatch, dual):
    # on the dual route a chain's pairing vector is in the span of the
    # cycles' ones exactly when it is a cycle: here the images are taken
    # under the linear map x ↦ 1 + x (fixing the other basis vectors), which
    # is not an algebra map, and leave the cycles of qci(2) at p = 1
    item = qci(2)
    A = item.algebra
    F = make_frobenius(A, item.gram)
    if not dual:
        del A._cache[("nakayama-form", F.sigma.matrix)]
    hh.homology_dimension(A, 1, hh.TWISTED, F.sigma)
    assert (hh._homology(A, 1, F.sigma.matrix).pairing is not None) == dual
    skew = Matrix.identity(Q, 4).data
    skew[0][1] = 1
    slot = hh._slot_map(Matrix(Q, skew).sparse_columns())
    # σ keeps its slot maps from their first use on: patched before it, so
    # that the skewed slot is the one kept and read
    assert F.sigma._action is None
    monkeypatch.setattr(hh, "_slot_map", lambda images: slot)
    with pytest.raises(InternalInconsistency, match="failed to re-express"):
        hh.sigma_action_on_homology(F, 1, hh.TWISTED)
    assert F.sigma._action[1] is slot


# one carrier per kind of face table: a commutative one, a group algebra
# over 𝔽₅ (σ = id), an exterior algebra and a σ that is not monomial
FACE_TABLE_CARRIERS = {
    "qci(2)/Q": lambda: qci(2),
    "S3/F5": lambda: s3_group_algebra(Field.prime(5)),
    "exterior(3)/Q": lambda: exterior(3),
    "trivM2 twisted by 1+E12": _twisted_trivial_m2,
}


@pytest.mark.parametrize("label", list(FACE_TABLE_CARRIERS))
def test_boundary_rows_are_the_streamed_columns_transposed(label):
    # the duality check reads b_p by rows off the face table that streams
    # its columns, n rows (m, K) per K: through identity rows, both readings
    # must give the same entries; through the recorded form, monomial or
    # not, the rows are d^{p−1}'s columns
    item = FACE_TABLE_CARRIERS[label]()
    A = item.algebra
    n = A.dim
    F = make_frobenius(A, item.gram)
    gram, ginv = A._cache[("nakayama-form", F.sigma.matrix)]
    identity = Matrix.identity(A.field, n).sparse_rows()
    for p in range(1, 4):
        w = n ** (p - 1)
        for twist in (None, F.sigma.matrix):
            transposed = [{} for _ in range(n * w)]
            for c, col in enumerate(hh._stream_boundary(A, p, twist)):
                for r, v in col.items():
                    transposed[r][c] = v
            rows = [None] * (n * w)
            for K, block in enumerate(hh._boundary_rows(A, p, twist, identity, identity)):
                assert len(block) == n
                for m, row in enumerate(block):
                    rows[m * w + K] = row
            assert _exact(rows) == _exact(transposed)
        rows = [None] * (n * w)
        for K, block in enumerate(hh._boundary_rows(A, p, F.sigma.matrix,
                                                    gram.sparse_rows(), ginv)):
            for k, row in enumerate(block):
                rows[k * w + K] = row
        assert _exact(rows) == _exact(hh._coboundary_columns(A, p - 1))


SIGMA_NOT_IDENTITY = ["exterior(2)/Q", "exterior(4)/Q", "exterior(4)/F5", "qci(2)/Q",
                      "qci(3)/Q", "qci(1/2)/Q", "qci(a)/F9", "trivM2 twisted by 1+E12"]


@pytest.mark.parametrize("label", SIGMA_NOT_IDENTITY)
def test_main_theorem_holds_exactly_when_sigma_fixes_twisted_homology(label):
    # by the chain-level duality the main theorem in degree p (σ acts
    # trivially on HH^p) and σ acting trivially on H_p(A, A_σ) are one
    # statement; in degree 0, where there are no coboundaries, it says σ
    # fixes every cocycle
    item = DUALITY_CARRIERS[label]()
    F = make_frobenius(item.algebra, item.gram)
    assert not F.sigma.is_identity()
    for p in range(3):
        if p == 0:
            holds = all(hh.cochain_action(F.sigma, f) == f
                        for f in hh.cocycle_basis(F.algebra, 0))
        else:
            holds = not hh.main_theorem(F, p)[1]
        assert holds == hh.sigma_action_on_homology(F, p, hh.TWISTED).is_identity()


def test_duality_intertwines_the_cochain_action():
    # Φ_p(f)[m·n^p + J] = ⟨f(e_J), e_m⟩ and ⟨σa, σb⟩ = ⟨a, b⟩ give
    # Φ_p∘σ* = ((σ⁻¹)^{⊗(p+1)})ᵀ∘Φ_p, σ* the cochain action
    # f ↦ σ∘f∘(σ⁻¹)^{⊗p}; checked entry by entry on the basis cochains
    item = qci(2)
    A, G = item.algebra, item.gram.data
    F = make_frobenius(A, item.gram)
    assert not F.sigma.is_identity()
    n, inv = A.dim, F.sigma_inv().matrix.data

    def phi(f, p):
        return [sum(G[k][m] * f.data.get(k * n ** p + J, 0) for k in range(n))
                for m in range(n) for J in range(n ** p)]

    for p in range(3):
        tensors = list(itertools.product(range(n), repeat=p + 1))
        # entry (m′J′, mJ) of (σ⁻¹)^{⊗(p+1)}
        power = [[math.prod(inv[s][t] for s, t in zip(S, T)) for T in tensors]
                 for S in tensors]
        for idx in range(n ** (p + 1)):
            f = hh.Cochain(A, p, {idx: 1})
            lhs = phi(hh.cochain_action(F.sigma, f), p)
            image = phi(f, p)
            rhs = [sum(power[r][c] * image[r] for r in range(len(tensors)))
                   for c in range(len(tensors))]
            assert lhs == rhs



def test_main_theorem_refutes_a_map_that_is_not_the_nakayama_automorphism():
    # the swap of the generators of exterior(2) is an automorphism but not
    # σ (the sign on odd degree): put in σ's place by hand, f^φ − f is no
    # coboundary for the listed basis cocycles, and their certificates are
    # None, the refutation the main theorem reports; the true σ solves all
    from frobcalc.frobenius import FrobeniusStructure
    item = exterior(2)
    A = item.algebra
    F = make_frobenius(A, item.gram)
    fake = FrobeniusStructure(A, F.gram, item.phi([[0, 1], [1, 0]]), F._gram_inv)
    assert hh.main_theorem(fake, 1) == (6, [0, 1, 2, 5])
    assert hh.main_theorem(fake, 2) == (16, [0, 1, 5, 6, 9, 10])
    basis = hh.cocycle_basis(A, 1)
    assert [hh.triviality_certificate(fake, f) is None for f in basis] == [
        True, True, True, False, False, True]
    assert hh.main_theorem(F, 1) == (6, [])
    assert hh.main_theorem(F, 2) == (16, [])


# ---------------------------------------------------------------------------
# one-pass actions and certificates on L·f

# exterior(3) over each field, with three nonzero scalars a, b, c for the maps
ACTION_FIELDS = {
    "Q": (Q, [2, Fraction(1, 3), -1]),
    "F5": (Field.prime(5), [2, 3, 4]),
    "F9": (F9, [(0, 1), (1, 1), 2]),
    "F2^31-1[a]": (Field.extension(2**31 - 1, [1, 0, 1]), [(0, 1), (2, 5), 3]),
}


def _per_digit(fld, data, n, slots):
    """``data`` with slots[i], images t ↦ {s: c}, on the digit of weight
    n^i of each key: one per-scalar mode product per digit."""
    for i, images in enumerate(slots):
        w, out = n ** i, {}
        for k, v in data.items():
            t = k // w % n
            for s, c in images[t].items():
                ref_add_entry(fld, out, k + (s - t) * w, fld.mul(c, v))
        data = out
    return data


@pytest.mark.parametrize("label", list(ACTION_FIELDS))
def test_one_pass_action_equals_per_digit_mode_products(label):
    # φ of a diagonal, of a scaled permutation and of a non-monomial matrix
    # on V: the first two act in one pass, the last by mode products.  The
    # cochain action (u⁻¹'s rows on the input digits, u's columns on the
    # output digit) and the homology one (u's columns on every digit) must
    # give the per-digit products, key order and value types included, on
    # the first call and on the second, which reads the kept table
    fld, scalars = ACTION_FIELDS[label]
    item = exterior(3, fld)
    A = item.algebra
    n, p = A.dim, 2
    a, b, c = (fld.coerce(x) for x in scalars)
    z = fld.zero()
    maps = {
        "diagonal": item.phi([[a, z, z], [z, b, z], [z, z, c]]),
        "permutation": item.phi([[z, z, c], [a, z, z], [z, b, z]]),
        "non-monomial": item.phi([[a, b, z], [z, b, z], [z, z, c]]),
    }
    rng = random.Random(label)
    f = hh.Cochain(A, p, {k: rng.choice([fld.one(), a, b, c])
                          for k in range(n ** (p + 1)) if rng.random() < 0.4})
    for kind, u in maps.items():
        cols, rows = u.matrix.sparse_columns(), u.inverse().matrix.sparse_rows()
        for _ in range(2):
            got = hh.cochain_action(u, f).data
            assert typed(got) == typed(_per_digit(fld, f.data, n, [rows] * p + [cols]))
            slot = hh._action_slots(u)[1]
            assert slot[0] == (kind != "non-monomial")
            got = hh._tensor_action(fld, f.data, n, p, slot, slot)
            assert typed(got) == typed(_per_digit(fld, f.data, n, [cols] * (p + 1)))


def test_rational_certificate_with_mixed_denominators():
    # f = Σ c_i·z_i over the basis cocycles of qci(2) at p = 2, the c_i of
    # denominators 1, 2, 3 and 5: the certificate is solved for L·f and
    # divided by L once; d(g) = f^σ − f is checked on f itself
    item = qci(2)
    A = item.algebra
    F = make_frobenius(A, item.gram)
    coeffs = [1, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5)]
    acc = {}
    for i, cocycle in enumerate(hh.cocycle_basis(A, 2)):
        Q.axpy(acc, cocycle.data, coeffs[i % 4])
    f = hh.Cochain(A, 2, acc)
    assert len({v.denominator for v in f.data.values() if type(v) is Fraction}) > 1
    g = hh.triviality_certificate(F, f)
    assert hh.apply_coboundary(A, g) == hh.cochain_action(F.sigma, f) - f
    assert any(type(v) is Fraction for v in g.data.values())
    assert_canonical(g.data.values())


def _frobenius(item):
    return make_frobenius(item.algebra, item.gram)


def _swapped_exterior2():
    """exterior(2) with the swap of its generators in σ's place (see the
    refutation test above): half the certificates below are None."""
    item = exterior(2)
    F = _frobenius(item)
    return FrobeniusStructure(item.algebra, F.gram, item.phi([[0, 1], [1, 0]]), F._gram_inv)


# (Frobenius structure, degree): certificates of a sample of the basis
# cocycles (sparse) and of four combinations of all of them (dense; over Q
# with denominators 2, 3 and 6)
CERTIFIED = {
    "exterior(4)/Q": (lambda: _frobenius(exterior(4)), 2),
    "exterior(4)/F5": (lambda: _frobenius(exterior(4, Field.prime(5))), 2),
    "qci(2)/Q": (lambda: _frobenius(qci(2)), 3),
    "trivM2 twisted by 1+E12": (lambda: _frobenius(_twisted_trivial_m2()), 2),
    "exterior(2)/Q, generators swapped": (_swapped_exterior2, 2),
}
# sha256 of repr([None or list(g.data.items()) per certificate]): keys,
# values, value types and key order, recorded while every certificate
# still acted on f itself in p + 1 passes and every solve took max over
# its right-hand side at each step
CERTIFICATE_DIGESTS = {
    "exterior(4)/Q": "7cc76f04a9fdceb96a1f57f8a2b72c0b1ea85ab2f11db724d8435f303a338e8a",
    "exterior(4)/F5": "2bdd8fd6100ee4e209eedfcab27d0ead31aa39903ed9489bad1ef1a6706ddfbb",
    "qci(2)/Q": "02b378d37d0121ce01f8464be00b3ba58a964c4fa9cb4887b89f893a4e29feeb",
    "trivM2 twisted by 1+E12": "e9068a7e4d47463af16cdccfde5a83a104685d5c597893dc8e0100def5ded421",
    "exterior(2)/Q, generators swapped":
        "f112e7023da25844b306df4d0c304b8278f1ec8ef90669749a8cecd90b28b574",
}


def _certificate_inputs(A, p):
    basis = hh.cocycle_basis(A, p)
    fld = A.field
    coeffs = [1, -1, 2, 3]
    if fld.characteristic == 0:
        coeffs += [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6)]
    rng = random.Random(f"certificates/{p}")
    combos = []
    for _ in range(4):
        acc = {}
        for f in basis:
            fld.axpy(acc, f.data, fld.coerce(rng.choice(coeffs)))
        combos.append(hh.Cochain(A, p, acc))
    return basis[::max(1, len(basis) // 24)] + combos


@pytest.mark.parametrize("label", list(CERTIFIED))
def test_certificates_keep_their_digest(label):
    build, p = CERTIFIED[label]
    F = build()
    out = []
    for f in _certificate_inputs(F.algebra, p):
        g = hh.triviality_certificate(F, f)
        out.append(None if g is None else list(g.data.items()))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == CERTIFICATE_DIGESTS[label]
