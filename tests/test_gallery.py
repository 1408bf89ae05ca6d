"""Gallery builders: Gram matrices against independent oracles, invariants."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frobcalc import hochschild as hh
from frobcalc.algebra import Algebra, LinearMap
from frobcalc.errors import MalformedInput
from frobcalc.fields import Field
from frobcalc.gallery import (cyclic, dual_numbers, exterior,
                              ground_field_algebra, group_algebra,
                              matrix_algebra, qci, s3_group_algebra,
                              trace_form_gram, trivial_extension)
from frobcalc.groups import GroupData, cyclic_group, symmetric_group_3
from frobcalc.linalg import Matrix, invert, sparse_kernel_basis
from test_algebra import is_endomorphism
from test_linalg import ENTRY, FIELDS

Q = Field.rationals()


# --- independent wedge-product oracle for the exterior Gram -----------------

def wedge_sign(S, T):
    """Sign of merging two disjoint sorted index tuples, by inversions."""
    if set(S) & set(T):
        return 0
    inv = sum(1 for s in S for t in T if s > t)
    return -1 if inv % 2 else 1


def wedge_integral(n, S, T):
    """∫ x_S ∧ x_T : the top-form coefficient, computed from scratch."""
    if set(S) | set(T) != set(range(n)) or (set(S) & set(T)):
        return 0
    return wedge_sign(S, T)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exterior_gram_matches_wedge_integral(n):
    item = exterior(n)
    for i, S in enumerate(item.subsets):
        for j, T in enumerate(item.subsets):
            assert item.gram.data[i][j] == Fraction(wedge_integral(n, S, T))


def test_exterior_gram_n2_table():
    item = exterior(2)
    g = item.gram
    idx = item.index
    one, x1, x2, x12 = idx[()], idx[(0,)], idx[(1,)], idx[(0, 1)]
    assert g.data[x1][x2] == 1 and g.data[x2][x1] == -1
    assert g.data[one][x12] == 1 and g.data[x12][one] == 1
    assert g.data[x1][x1] == 0 and g.data[one][one] == 0


def test_exterior_rejects_char_2():
    with pytest.raises(MalformedInput):
        exterior(2, Field.prime(2))
    # the raw constructor stays available for scalar-extension work
    raw = exterior(2, Field.prime(2), require_odd_char=False)
    assert raw.algebra.dim == 4


def test_qci_gram_from_top_coefficient():
    # oracle: multiply basis monomials and read the xy-coefficient
    for q in (2, 3, Fraction(1, 2)):
        item = qci(q)
        A = item.algebra
        for i in range(4):
            for j in range(4):
                prod = A.mul_raw(A._basis_vec(i), A._basis_vec(j))
                assert item.gram.data[i][j] == prod[3]


def test_qci_rejects_zero_q():
    with pytest.raises(MalformedInput):
        qci(0)


def test_cyclic_gram_alternating():
    item = cyclic(3)
    f = item.field
    for i in range(3):
        for j in range(3):
            expect = f.from_int((-1) ** (i + j)) if i + j < 3 else f.zero()
            assert item.gram.data[i][j] == expect
    with pytest.raises(MalformedInput):
        cyclic(3, Field.prime(5))


def test_gallery_algebras_revalidate():
    items = [exterior(3), qci(2), cyclic(5), matrix_algebra(3),
             s3_group_algebra(),
             trivial_extension(matrix_algebra(2).algebra)]
    for item in items:
        A = item.algebra
        # reconstruct with checks on: associativity and unit law re-run
        triples = [(i, j, k, c) for (i, j), terms in A.structure.items()
                   for (k, c) in terms]
        Algebra(A.field, A.dim, A.basis_names, triples, list(A.unit))
        assert invert(item.gram) is not None


def test_matrix_algebra_trace_form():
    m2 = matrix_algebra(2)
    # <E_ij, E_kl> = 2·[j=k][i=l]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    got = m2.gram.data[i * 2 + j][k * 2 + l]
                    assert got == (Fraction(2) if j == k and i == l else 0)


def test_group_algebra_trace_form():
    s3 = s3_group_algebra()
    G = symmetric_group_3()
    for g in range(6):
        for h in range(6):
            expect = Fraction(6) if G.mul(g, h) == G.identity else Fraction(0)
            assert s3.gram.data[g][h] == expect


def test_group_data_validation():
    with pytest.raises(MalformedInput):
        GroupData([[0, 1], [1, 1]])          # 1 has no inverse row
    with pytest.raises(MalformedInput):
        GroupData([[1, 0], [0, 0]])          # no identity
    G = cyclic_group(4)
    assert G.identity == 0 and G.inverse[1] == 3


def test_trivial_extension_structure():
    B = matrix_algebra(2).algebra
    item = trivial_extension(B)
    A = item.algebra
    assert A.dim == 8
    # dual part squares to zero
    for i in range(4, 8):
        for j in range(4, 8):
            assert (i, j) not in A.structure
    # the form is symmetric
    assert item.gram == item.gram.transpose()
    # block maps: u_z for a central unit, u_delta for a derivation to the dual
    z = B.unit_element().scale(3)
    u = item.u_z(z)
    assert is_endomorphism(A, u.matrix)
    for dmat in item.derivation_space_to_dual():
        ud = item.u_delta(dmat)
        assert is_endomorphism(A, ud.matrix)


DERIVATION_BASES = {
    "k": ground_field_algebra,
    "k[t]/(t^2)": dual_numbers,
    "M2": lambda f: matrix_algebra(2, f).algebra,
    "qci(2)": lambda f: qci(2, f).algebra,
}


@pytest.mark.parametrize("field", [Q, Field.prime(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("base", list(DERIVATION_BASES))
def test_derivations_to_dual_are_the_canonical_coboundary_kernel(base, field):
    # a map B → DB, zero elsewhere, is a derivation of T = B ⊕ DB exactly
    # when it is one into the bimodule DB; D[k][i] is the coordinate
    # (n + k)·2n + i of d¹ on T, and the unknowns are ordered k·n + i
    B = DERIVATION_BASES[base](field)
    n = B.dim
    T = trivial_extension(B)
    d1 = hh._coboundary_columns(T.algebra, 1)
    sub = [d1[(n + k) * 2 * n + i] for k in range(n) for i in range(n)]
    expected = [Matrix(field, [[v[k * n + i] for i in range(n)] for k in range(n)],
                       _raw=True) for v in sparse_kernel_basis(field, sub)]
    assert list(T.derivation_space_to_dual()) == expected


def _leibniz_derivations(B):
    """Der(B, DB) from its own Leibniz system, the reference for the read
    off d¹: with (b·λ)(v) = λ(vb) and (λ·b)(v) = λ(bv), the law
    δ(e_i e_j) = e_i δ(e_j) + δ(e_i) e_j is, per dual coordinate m,
        Σ_s c^{ij}_s D[m][s]
          = Σ_k coeff_k(e_m e_i) D[k][j] + Σ_k coeff_k(e_j e_m) D[k][i],
    equation (i, j, m) at row (i·n + j)·n + m, unknown D[k][a] at k·n + a."""
    f, n = B.field, B.dim
    into = [[] for _ in range(n)]  # into[t]: the (i, j, c) with e_i e_j ∋ c·e_t
    for (i, j), terms in B.structure.items():
        for t, c in terms:
            into[t].append((i, j, c))
    cols = []
    for k in range(n):
        for a in range(n):
            col = {}
            for i, j, c in into[a]:
                f.add_entry(col, (i * n + j) * n + k, c)
            for m, i, c in into[k]:
                f.add_entry(col, (i * n + a) * n + m, f.neg(c))
            for j, m, c in into[k]:
                f.add_entry(col, (a * n + j) * n + m, f.neg(c))
            cols.append(col)
    return [Matrix(f, [[v[k * n + i] for i in range(n)] for k in range(n)], _raw=True)
            for v in sparse_kernel_basis(f, cols)]


F9 = Field.extension(3, [1, 0, 1])
LEIBNIZ_BASES = {
    "k/Q": lambda: ground_field_algebra(),
    "k[t]/(t^2)/Q": lambda: dual_numbers(),
    "M2/Q": lambda: matrix_algebra(2).algebra,
    "qci(2)/Q": lambda: qci(2).algebra,
    "exterior(2)/Q": lambda: exterior(2).algebra,
    "exterior(3)/Q": lambda: exterior(3).algebra,
    "S3/Q": lambda: s3_group_algebra().algebra,
    "k[t]/(t^2)/F5": lambda: dual_numbers(Field.prime(5)),
    "M2/F3": lambda: matrix_algebra(2, Field.prime(3)).algebra,
    "qci(a)/F9": lambda: qci(F9.parse("0,1"), F9).algebra,
    "cyclic(3)/F3": lambda: cyclic(3, Field.prime(3)).algebra,
    "qci(4)/F7": lambda: qci(4, Field.prime(7)).algebra,
    "M2/F9": lambda: matrix_algebra(2, F9).algebra,
}


@pytest.mark.parametrize("base", list(LEIBNIZ_BASES))
def test_derivations_to_dual_solve_the_leibniz_system(base):
    # the kernel read off d¹ of B ⊕ DB is the one the Leibniz equations
    # give, vector for vector and value types included; a twisted extension
    # reads it off the untwisted one, which B keeps
    expected = _leibniz_derivations(LEIBNIZ_BASES[base]())
    B = LEIBNIZ_BASES[base]()
    got = trivial_extension(B).derivation_space_to_dual()
    assert list(got) == expected
    assert [[type(x) for row in m.data for x in row] for m in got] == \
        [[type(x) for row in m.data for x in row] for m in expected]
    B = LEIBNIZ_BASES[base]()
    twisted = trivial_extension(B, LinearMap.identity(B))
    assert list(twisted.derivation_space_to_dual()) == expected
    assert "trivial-extension" in B._cache


def test_twisted_trivial_extension():
    from frobcalc.algebra import inner_automorphism
    from frobcalc.frobenius import make_frobenius
    B = matrix_algebra(2).algebra
    s = B.element([1, 1, 0, 1])
    tau = inner_automorphism(s)
    item = trivial_extension(B, tau)
    F = make_frobenius(item.algebra, item.gram)
    # the induced map restricted to B is the twisting automorphism
    for j in range(4):
        col = F.sigma.matrix.column(j)
        assert col[:4] == list(tau.matrix.column(j))
        assert all(c == 0 for c in col[4:])


def test_exterior_builders_are_automorphisms():
    item = exterior(3)
    A = item.algebra
    u = item.phi(Matrix(Q, [[1, 2, 0], [0, 1, 0], [3, 0, 1]]))
    assert is_endomorphism(A, u.matrix)
    g = item.gamma(0, Fraction(5, 2), (0, 1, 2))
    assert is_endomorphism(A, g.matrix)
    assert item.is_odd_preserving(u) and item.is_odd_preserving(g)
    with pytest.raises(MalformedInput):
        item.phi(Matrix(Q, [[1, 1, 0], [1, 1, 0], [0, 0, 1]]))
    with pytest.raises(MalformedInput):
        item.gamma(0, 1, (0, 1))


@pytest.mark.parametrize("label", list(FIELDS))
def test_det_on_generators_matches_the_permutation_expansion(label):
    # Leibniz's sum over all n! permutations, on n × n matrices for n = 1–4,
    # singular ones and ones whose first pivot is zero included
    field = FIELDS[label]
    items = {n: exterior(n, field) for n in range(1, 5)}

    def check(rows):
        n = len(rows)
        m = Matrix(field, rows)
        expected = field.zero()
        for perm in itertools.permutations(range(n)):
            sign = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
            term = field.from_int(-1 if sign % 2 else 1)
            for r in range(n):
                term = field.mul(term, m.data[r][perm[r]])
            expected = field.add(expected, term)
        item = items[n]
        got = item.det_on_generators(m)
        want = item.algebra.scalar_element(expected)
        assert got == want
        assert [type(x) for x in got.raw] == [type(x) for x in want.raw]
        assert item.det_on_generators(rows) == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.data())
    def props(n, data):
        check(data.draw(st.lists(st.lists(ENTRY[label], min_size=n, max_size=n),
                                 min_size=n, max_size=n)))

    props()
    # over F5 the first matrix is singular; the others have a zero first pivot
    check([[2, 1, 1, 0], [0, 3, 1, 1], [1, 0, 2, 4], [1, 1, 0, 3]])
    check([[0, 3, 2], [2, 0, 1], [4, 3, 0]])
    check([[0, 1], [1, 0]])
    check([[1, 2], [2, 4]])
    check([[0]])
    with pytest.raises(MalformedInput):
        items[2].det_on_generators([[1, 0, 0], [0, 1, 0]])


def test_det_on_generators_rejects_a_matrix_of_another_size():
    # the top coefficient is det f only for f on the n generators
    with pytest.raises(MalformedInput):
        exterior(3).det_on_generators([[1, 0], [0, 1]])


def test_exterior_partials_are_skew_derivations():
    item = exterior(3)
    A = item.algebra
    for i in range(3):
        p = item.partial(i)
        for j in range(3):
            expect = A.unit_element() if i == j else A.zero_element()
            assert p(item.generator(j)) == expect
        # skew Leibniz on homogeneous pairs
        for si, S in enumerate(item.subsets):
            sgn = -1 if len(S) % 2 else 1
            for tj, T in enumerate(item.subsets):
                a, b = A.basis_element(si), A.basis_element(tj)
                lhs = p(a * b)
                rhs = p(a) * b + (a * p(b)).scale(sgn)
                assert lhs == rhs


def test_cyclic_uf_group_law():
    item = cyclic(5)
    u = item.u_f([0, 2, 1, 0, 3])
    v = item.u_f([0, 1, 1, 1, 1])
    assert is_endomorphism(item.algebra, u.matrix)
    # (u_f ∘ u_g)(x) = g-polynomial evaluated at f, i.e. u_f applied to g
    h = u(item.algebra.element([0, 1, 1, 1, 1]))
    assert u.compose(v).matrix == item.u_f(list(h.raw)).matrix
    with pytest.raises(MalformedInput):
        item.u_f([1, 1, 0, 0, 0])
    with pytest.raises(MalformedInput):
        item.u_f([0, 0, 1, 0, 0])


def test_trace_form_degenerate_for_modular_group_algebra():
    # F_3 C_3 has identically-zero trace form; the builder must refuse it
    F3 = Field.prime(3)
    with pytest.raises(MalformedInput):
        make = group_algebra(cyclic_group(3), F3)
        from frobcalc.frobenius import make_frobenius
        make_frobenius(make.algebra, make.gram)
