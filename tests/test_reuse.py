"""Structures shared across the verification suites: built once, reused
without changing a single report."""

from types import SimpleNamespace

import pytest

from frobcalc import algebra, frobenius, gallery, hochschild as hh, verify
from frobcalc.algebra import right_mult_matrix
from frobcalc.calculus import jacobian_cocycle
from frobcalc.errors import MalformedInput
from frobcalc.fields import Field
from frobcalc.frobenius import make_frobenius
from frobcalc.gallery import dual_numbers, exterior, qci, trivial_extension
from frobcalc.linalg import Matrix, invert
from frobcalc.rng import SplitMix64
from test_serialize_cli import augmentation_map


def test_gallery_items_are_built_once():
    first, second = verify.gallery_items(), verify.gallery_items()
    assert isinstance(first, tuple) and len(first) == 15
    assert [name for name, _ in first] == [name for name, _ in second]
    assert all(a is b for (_, a), (_, b) in zip(first, second))
    for name, item in first:
        assert verify.carrier(name) is item


def test_frobenius_of_is_built_once_per_form():
    for _, item in verify.gallery_items():
        assert verify.frobenius_of(item) is verify.frobenius_of(item)
    # another form on the same algebra gets a structure of its own
    item = verify.carrier("qci2")
    F = verify.frobenius_of(item)
    t = item.algebra.unit_element() + item.x
    other = SimpleNamespace(algebra=item.algebra,
                            gram=F.gram * right_mult_matrix(t))
    F2 = verify.frobenius_of(other)
    assert F2 is not F and F2.gram == other.gram
    assert F2.sigma != F.sigma
    assert verify.frobenius_of(other) is F2
    assert verify.frobenius_of(item) is F


def test_connes_image_test_builds_the_trivial_extension_once(monkeypatch):
    built = []

    def counting(B, *args, **kwargs):
        built.append(B)
        return trivial_extension(B, *args, **kwargs)

    monkeypatch.setattr(gallery, "trivial_extension", counting)
    B = dual_numbers()
    for tau in ([0, 1], [1, 0], [0, 3]):
        first = hh.connes_image_test(B, tau)
        second = hh.connes_image_test(B, tau)
        assert first == second
    assert first.in_image and first.automorphism is not None
    assert len(built) == 1


def test_derivation_space_is_solved_once_per_base():
    B = dual_numbers()
    first = trivial_extension(B).derivation_space_to_dual()
    assert trivial_extension(B).derivation_space_to_dual() is first
    fresh = trivial_extension(dual_numbers()).derivation_space_to_dual()
    assert fresh is not first and fresh == first


def test_warm_structures_give_the_cold_reports(monkeypatch):
    monkeypatch.setattr(verify, "TRIVIAL_EXTENSION_SAMPLES", 3)
    monkeypatch.setattr(verify, "DIVERGENCE_PAIRS", 2)
    verify.gallery_items.cache_clear()
    cold = [c.as_doc() for c in verify.suite_trivial_extension(rng=SplitMix64(5))]
    warm = [c.as_doc() for c in verify.suite_trivial_extension(rng=SplitMix64(5))]
    assert cold == warm
    # freshly built carriers against the shared, already warm ones
    fresh = [("qci2", qci(2)), ("exterior3", exterior(3)),
             ("trivDual", trivial_extension(dual_numbers()))]
    shared = [(name, verify.carrier(name)) for name, _ in fresh]
    runs = []
    for items in (fresh, shared, shared):
        monkeypatch.setattr(verify, "gallery_items", lambda items=items: items)
        runs.append([c.as_doc() for c in verify.suite_divergence(rng=SplitMix64(6))])
    assert runs[0] == runs[1] == runs[2]
    assert all(c["status"] == "pass" for c in runs[0])


def test_each_map_is_inverted_once(monkeypatch):
    inverted = []

    def counting(m):
        inverted.append(m)
        return invert(m)

    monkeypatch.setattr(algebra, "invert", counting)
    monkeypatch.setattr(frobenius, "invert", counting)
    F5, F9 = Field.prime(5), Field.extension(3, [1, 0, 1])
    cases = [(qci(2), lambda item: item.alpha(2, 1, 1, 2)),
             (exterior(3, F5), lambda item: item.phi(
                 Matrix(F5, [[1, 1, 0], [0, 2, 0], [3, 0, 1]]))),
             (qci(F9.parse("0,1"), F9), lambda item: item.alpha(2, 1, 1, 2))]
    for item, automorphism in cases:
        del inverted[:]
        F = make_frobenius(item.algebra, item.gram)
        assert inverted == [F.gram]
        first, second = F.sigma_inv(), F.sigma_inv()
        assert inverted == [F.gram, F.sigma.matrix] and first is second
        assert first.matrix == invert(F.sigma.matrix)
        u = automorphism(item)
        del inverted[:]
        jacobian_cocycle(F, u)
        assert inverted == [u.matrix]
    # a singular map keeps its failed elimination too
    augmentation = augmentation_map()
    del inverted[:]
    assert not augmentation.is_invertible() and not augmentation.is_invertible()
    assert len(inverted) == 1
    with pytest.raises(MalformedInput):
        augmentation.inverse()
    assert len(inverted) == 1


def test_each_map_derives_its_action_once(monkeypatch):
    # the identity test and the slot maps of σ's columns and σ⁻¹'s rows are
    # kept on σ: 50 certificates derive them once, and the σ-action on
    # homology reads σ's columns from there
    derived = []

    def counting(images):
        derived.append(images)
        return slot_map(images)

    slot_map = hh._slot_map
    monkeypatch.setattr(hh, "_slot_map", counting)
    item = qci(2)
    A = item.algebra
    basis = hh.cocycle_basis(A, 3)
    assert len(basis) == 51

    def certify(F):
        for f in basis[:50]:
            assert hh.triviality_certificate(F, f) is not None

    def act_on_homology(F):
        for p in range(3):
            hh.sigma_action_on_homology(F, p, hh.UNTWISTED)
            assert hh.sigma_action_on_homology(F, p, hh.TWISTED).is_identity()

    for first, second in ((certify, act_on_homology), (act_on_homology, certify)):
        A._cache.clear()
        F = make_frobenius(A, item.gram)
        # the homology of each degree, built first: its duality check reads
        # the form's rows through _slot_map too
        for p in range(3):
            for coeffs in (hh.UNTWISTED, hh.TWISTED):
                hh.homology_dimension(A, p, coeffs, F.sigma)
        del derived[:]
        first(F)
        if first is act_on_homology:
            # σ's columns alone: the action on homology inverts nothing
            assert derived == [F.sigma.matrix.sparse_columns()]
            assert F.sigma._inverse is None
        second(F)
        assert derived == [F.sigma.matrix.sparse_columns(),
                           F.sigma_inv().matrix.sparse_rows()]

    # the identity keeps a flag and its columns, and still returns a copy
    one = algebra.LinearMap.identity(A)
    f = basis[0]
    for _ in range(2):
        same = hh.cochain_action(one, f)
        assert same == f and same.data is not f.data
        same.data.clear()
        assert f.data
    assert len(derived) == 3 and one._action[::2] == (True, None)
    assert one._inverse is None

    # a singular endomorphism raises on every call and keeps nothing
    augmentation = augmentation_map()
    g = hh.Cochain(augmentation.algebra, 1, {0: 1})
    for _ in range(2):
        with pytest.raises(MalformedInput, match="not invertible"):
            hh.cochain_action(augmentation, g)
        assert augmentation._action is None


def test_kept_action_matches_the_definition():
    # two actions by one map, in the degrees certificates act in, against
    # the dense definition a ↦ u(f(u⁻¹a₁ ⊗ … ⊗ u⁻¹a_p))
    from test_hochschild import assert_acts_by_definition

    item = qci(2)
    A = item.algebra
    F = make_frobenius(A, item.gram)
    fld = A.field
    for u in (F.sigma, item.alpha(2, 1, 1, 2)):
        for p in (2, 3):
            f = hh.Cochain.from_flat(A, p, [fld.from_int((7 * i) % 11 - 5) if i % 3
                                            else fld.zero() for i in range(A.dim ** (p + 1))])
            for _ in range(2):
                assert_acts_by_definition(u, f)
        assert u._action is not None
