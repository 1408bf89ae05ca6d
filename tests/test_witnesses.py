"""Witnesses of the role, table and form checks against brute-force loops.

Each check reads only the nonzero structure constants; its witness must
still be the first failing basis pair or triple in (i, j[, k]) order.
The references below walk those pairs and triples one by one with
``mul_raw`` on basis vectors.  Every example starts from valid data (an
endomorphism, a derivation, a structure table, a Frobenius form) and
changes one entry.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from frobcalc.algebra import (Algebra, Element, ad, derivation_witness,
                              endomorphism_witness, inner_automorphism,
                              inverse_of)
from frobcalc.errors import MalformedInput
from frobcalc.fields import Field
from frobcalc.frobenius import make_frobenius
from frobcalc.gallery import (exterior, matrix_algebra, qci, s3_group_algebra,
                              trivial_extension)
from frobcalc.linalg import Matrix, invert

FIELDS = {"Q": Field.rationals(), "F5": Field.prime(5),
          "F9": Field.extension(3, [1, 0, 1])}
FAMILIES = {
    "qci": lambda f: qci(2, f),
    "exterior3": lambda f: exterior(3, f),
    "matrix2": lambda f: matrix_algebra(2, f),
    "trivM2": lambda f: trivial_extension(matrix_algebra(2, f).algebra),
    # mostly zero products: pairs with e_i e_j = 0 still have triples to check
    "exterior4": lambda f: exterior(4, f),
    # a full table: every product is nonzero
    "groupS3": lambda f: _group_s3(f),
}
_ITEMS = {}


def _group_s3(f):
    """S₃ with the form ⟨g, h⟩ = [gh = 1]; its trace form is 6 times that,
    which is degenerate in characteristic 3."""
    A = s3_group_algebra(f).algebra
    one = A.unit.index(f.one())
    gram = Matrix(f, [[f.one() if A.structure[i, j][0][0] == one else f.zero()
                       for j in range(A.dim)] for i in range(A.dim)], _raw=True)
    return SimpleNamespace(algebra=A, gram=gram)


def _item(label, family):
    key = (label, family)
    if key not in _ITEMS:
        item = FAMILIES[family](FIELDS[label])
        _ITEMS[key] = (item, make_frobenius(item.algebra, item.gram))
    return _ITEMS[key]


def _scalar(f, k):
    """A field value from a small integer; 1..4 give nonzero values in every field."""
    if f.degree > 1:
        return f.coerce((k % 3, k // 3 % 3))
    return f.from_int(k)


def _bumped(f, data, r, c, k):
    """Rows of ``data`` with entry (r, c) moved by the nonzero scalar k."""
    rows = [list(row) for row in data]
    rows[r][c] = f.add(rows[r][c], _scalar(f, k))
    return rows


# --- brute-force references --------------------------------------------------

def _e(A, i):
    return A._basis_vec(i)


def _ref_endomorphism(A, m):
    if m.apply(list(A.unit)) != list(A.unit):
        return "unit"
    for i in range(A.dim):
        for j in range(A.dim):
            if m.apply(A.mul_raw(_e(A, i), _e(A, j))) \
                    != A.mul_raw(m.column(i), m.column(j)):
                return (i, j)
    return None


def _ref_derivation(A, m):
    f = A.field
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = m.apply(A.mul_raw(_e(A, i), _e(A, j)))
            t1 = A.mul_raw(m.column(i), _e(A, j))
            t2 = A.mul_raw(_e(A, i), m.column(j))
            if lhs != [f.add(x, y) for x, y in zip(t1, t2)]:
                return (i, j)
    return None


def _ref_table(B):
    n = B.dim
    for i in range(n):
        e = _e(B, i)
        if B.mul_raw(list(B.unit), e) != e or B.mul_raw(e, list(B.unit)) != e:
            return f"unit law fails on basis element {i}"
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = B.mul_raw(B.mul_raw(_e(B, i), _e(B, j)), _e(B, k))
                right = B.mul_raw(_e(B, i), B.mul_raw(_e(B, j), _e(B, k)))
                if left != right:
                    return f"associativity fails on basis triple ({i},{j},{k})"
    return None


def _ref_form(A, gram):
    f = A.field
    if invert(gram) is None:
        return "bilinear form is degenerate"

    def pair(a, b):
        acc = f.zero()
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                acc = f.add(acc, f.mul(ai, f.mul(gram.data[i][j], bj)))
        return acc

    n = A.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if pair(A.mul_raw(_e(A, i), _e(A, j)), _e(A, k)) \
                        != pair(_e(A, i), A.mul_raw(_e(A, j), _e(A, k))):
                    return f"form is not associative: witness triple ({i},{j},{k})"
    return None


# --- properties ------------------------------------------------------------------

families = st.sampled_from(sorted(FAMILIES))
entry = st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(1, 4))
coeffs = st.lists(st.integers(-2, 2), min_size=8, max_size=8)


def _element(A, cs):
    """An element from the drawn coefficients, repeated to fill A.dim."""
    f = A.field
    return Element(A, [_scalar(f, cs[i % len(cs)] % 9) for i in range(A.dim)],
                   _raw=True)


@pytest.mark.parametrize("label", sorted(FIELDS))
def test_endomorphism_witness_matches_brute_force(label):
    @settings(max_examples=25, deadline=None)
    @given(families, coeffs, st.sampled_from(["inner", "sigma"]), entry)
    def props(family, cs, kind, bump):
        item, F = _item(label, family)
        A = item.algebra
        u = F.sigma.matrix
        if kind == "inner":
            t = A.unit_element() + _element(A, cs)
            if inverse_of(t) is not None:
                u = inner_automorphism(t).matrix
        assert endomorphism_witness(A, u) is None
        r, c, k = bump
        bad = Matrix(A.field, _bumped(A.field, u.data, r % A.dim, c % A.dim, k),
                     _raw=True)
        assert endomorphism_witness(A, bad) == _ref_endomorphism(A, bad)

    props()


@pytest.mark.parametrize("label", sorted(FIELDS))
def test_derivation_witness_matches_brute_force(label):
    @settings(max_examples=25, deadline=None)
    @given(families, coeffs, entry)
    def props(family, cs, bump):
        item, _ = _item(label, family)
        A = item.algebra
        d = ad(_element(A, cs)).matrix
        assert derivation_witness(A, d) is None
        r, c, k = bump
        bad = Matrix(A.field, _bumped(A.field, d.data, r % A.dim, c % A.dim, k),
                     _raw=True)
        assert derivation_witness(A, bad) == _ref_derivation(A, bad)

    props()


@pytest.mark.parametrize("label", sorted(FIELDS))
def test_table_check_message_matches_brute_force(label):
    @settings(max_examples=25, deadline=None)
    @given(families, st.integers(0, 10 ** 6), entry, st.booleans())
    def props(family, pick, bump, fresh):
        item, _ = _item(label, family)
        A = item.algebra
        f = A.field
        n = A.dim
        triples = [[i, j, k, c] for (i, j), terms in sorted(A.structure.items())
                   for (k, c) in terms]
        r, c, k = bump
        if fresh:
            # a new term e_i e_j ∋ k·e_m at a seeded position
            triples.append([r % n, c % n, pick % n, _scalar(f, k)])
        else:
            cell = triples[pick % len(triples)]
            cell[3] = f.add(cell[3], _scalar(f, k))
        unchecked = Algebra(f, n, A.basis_names, triples, A.unit, check=False)
        expected = _ref_table(unchecked)
        if expected is None:
            Algebra(f, n, A.basis_names, triples, A.unit)
        else:
            with pytest.raises(MalformedInput) as err:
                Algebra(f, n, A.basis_names, triples, A.unit)
            assert str(err.value) == expected

    props()


@pytest.mark.parametrize("label", sorted(FIELDS))
def test_form_witness_matches_brute_force(label):
    @settings(max_examples=25, deadline=None)
    @given(families, entry)
    def props(family, bump):
        item, _ = _item(label, family)
        A = item.algebra
        r, c, k = bump
        gram = Matrix(A.field,
                      _bumped(A.field, item.gram.data, r % A.dim, c % A.dim, k),
                      _raw=True)
        expected = _ref_form(A, gram)
        if expected is None:
            make_frobenius(A, gram)
        else:
            with pytest.raises(MalformedInput) as err:
                make_frobenius(A, gram)
            assert str(err.value) == expected

    props()
