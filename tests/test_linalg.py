"""Dense kernels: worked examples plus randomized structure properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frobcalc.errors import MalformedInput
from frobcalc.fields import Field
from frobcalc.linalg import (Matrix, SparseEchelon, echelon,
                             independent_columns, invert, kernel_basis,
                             linear_combination, solve_linear)
from test_fields import assert_canonical
from test_kernels import normalized, typed

Q = Field.rationals()
F5 = Field.prime(5)
F9 = Field.extension(3, [1, 0, 1])


# The RREF is never formed: it is fixed by its pivot columns and its
# canonical kernel, which ``echelon`` returns.

def test_rref_proportional_rows():
    # RREF [[1, 2], [0, 0]]: pivot column 0, and row 0 is 2 at the free
    # column 1, whose kernel vector is (−2, 1)
    _, pivots, kernel = echelon(Q, Matrix(Q, [[1, 2], [2, 4]]).sparse_columns())
    assert pivots == [0] and kernel == {1: {0: -2, 1: 1}}


def test_rref_identity():
    _, pivots, kernel = echelon(Q, Matrix.identity(Q, 3).sparse_columns())
    assert pivots == [0, 1, 2] and kernel == {}


def test_rref_qci_gram_rank():
    # permutation-like Gram of the 4-dimensional quantum intersection, q = 2
    g = Matrix(Q, [[0, 0, 0, 1], [0, 0, 1, 0], [0, 2, 0, 0], [1, 0, 0, 0]])
    assert echelon(Q, g.sparse_columns(), tails=False)[0].rank == 4
    assert invert(g) is not None


def test_kernel_examples():
    assert len(kernel_basis(Matrix.zero(Q, 2, 2))) == 2
    assert kernel_basis(Matrix.identity(Q, 3)) == []
    (v,) = kernel_basis(Matrix(Q, [[1, 2], [2, 4]]))
    # proportional to (2, -1)
    assert v[0] * Fraction(-1) == v[1] * Fraction(2)


def test_solve_examples():
    I2 = Matrix.identity(Q, 2)
    assert solve_linear(I2, [3, 5]) == [Fraction(3), Fraction(5)]
    # free variable zeroed
    assert solve_linear(Matrix(Q, [[1, 1]]), [3]) == [Fraction(3), Fraction(0)]
    # inconsistent singular system
    assert solve_linear(Matrix(Q, [[1, 1], [1, 1]]), [0, 1]) is None
    with pytest.raises(MalformedInput):
        solve_linear(I2, [1, 2, 3])


def test_invert_examples():
    assert invert(Matrix.identity(Q, 3)) == Matrix.identity(Q, 3)
    swap = Matrix(Q, [[0, 1], [1, 0]])
    assert invert(swap) == swap
    assert invert(Matrix(Q, [[1, 2], [2, 4]])) is None
    with pytest.raises(MalformedInput):
        invert(Matrix(Q, [[1, 2]]))


def test_mixed_field_entries_rejected():
    # a raw value carries no field, so the matrices' fields are compared
    q, f5 = Matrix.identity(Q, 2), Matrix.identity(F5, 2)
    with pytest.raises(MalformedInput):
        Matrix.combination(Q, 2, 2, [(1, q), (1, f5)])
    with pytest.raises(MalformedInput):
        Matrix.block(Q, [[q, None], [None, f5]])
    with pytest.raises(MalformedInput):
        Matrix.block(F5, [[q]])
    with pytest.raises(MalformedInput):
        Matrix(F5, [[Fraction(1, 2)]])


def _matrices(field, entry_strategy):
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda r: st.integers(min_value=1, max_value=4).flatmap(
            lambda c: st.lists(
                st.lists(entry_strategy, min_size=c, max_size=c),
                min_size=r, max_size=r)))


ENTRY = {
    "Q": st.fractions(min_value=-9, max_value=9, max_denominator=4),
    "F5": st.integers(min_value=0, max_value=4),
    "F9": st.tuples(st.integers(min_value=0, max_value=2),
                    st.integers(min_value=0, max_value=2)),
}
FIELDS = {"Q": Q, "F5": F5, "F9": F9}


@pytest.mark.parametrize("label", ["Q", "F5", "F9"])
def test_rref_properties(label):
    field = FIELDS[label]

    @settings(max_examples=40, deadline=None)
    @given(_matrices(field, ENTRY[label]))
    def props(rows):
        m = Matrix(field, rows)
        cols = m.sparse_columns()
        _, pivots, kernel = echelon(field, cols)
        rank = len(pivots)
        # pivot columns strictly increasing, the same ones without tails and
        # as independent_columns picks them; row rank is column rank
        assert all(a < b for a, b in zip(pivots, pivots[1:]))
        assert echelon(field, cols, tails=False)[1] == pivots
        assert independent_columns(field, cols) == [cols[j] for j in pivots]
        assert echelon(field, m.transpose().sparse_columns(), tails=False)[0].rank == rank
        # RREF row r is nonzero at a free column only right of its pivot:
        # a free column's kernel vector lives on itself and earlier pivots
        for fc, kv in kernel.items():
            assert all(c == fc or (c in pivots and c < fc) for c in kv)
        # kernel vectors are killed, count is the nullity, and each one is
        # 1 at its free column and 0 at every other free column
        ker = kernel_basis(m)
        assert len(ker) == m.cols - rank
        zero = [field.zero()] * m.rows
        free = [c for c in range(m.cols) if c not in pivots]
        for fc, v in zip(free, ker):
            assert m.apply(v) == zero
            assert [v[c] for c in free] == [field.one() if c == fc else field.zero()
                                            for c in free]
        if m.rows == m.cols:
            inv = invert(m)
            if inv is not None:
                assert inv * m == Matrix.identity(field, m.rows)
                assert m * inv == Matrix.identity(field, m.rows)
            else:
                assert rank < m.rows

    props()


@pytest.mark.parametrize("label", ["Q", "F5"])
def test_solve_satisfies_system(label):
    field = FIELDS[label]

    @settings(max_examples=40, deadline=None)
    @given(_matrices(field, ENTRY[label]),
           st.lists(ENTRY[label], min_size=1, max_size=4))
    def props(rows, b):
        m = Matrix(field, rows)
        b = (b * m.rows)[:m.rows]
        x = solve_linear(m, b)
        if x is not None:
            assert m.apply(x) == [field.coerce(v) for v in b]

    props()


@pytest.mark.parametrize("label", ["Q", "F5", "F9"])
def test_rank_only_insert_matches_tracked(label):
    # inserting without tails (tail=None) must pick the same pivots as
    # inserting with identity tails: tails never steer the reduction
    field = FIELDS[label]
    column = st.dictionaries(st.integers(min_value=0, max_value=5), ENTRY[label],
                             max_size=4)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(column, min_size=1, max_size=8))
    def props(raw_cols):
        cols = [{r: field.coerce(v) for r, v in c.items()
                 if not field.is_zero(field.coerce(v))} for c in raw_cols]
        plain, tracked = SparseEchelon(field), SparseEchelon(field)
        for j, col in enumerate(cols):
            joined = plain.insert(col, None) is None
            assert joined == (tracked.insert(col, {j: field.one()}) is None)
        assert plain.rank == tracked.rank
        assert list(plain.pivots) == list(tracked.pivots)
        # a pivot is kept up to a scalar (over Q, the content of column and
        # tail together): divided by its lead, the columns agree
        for r, (col, tail) in plain.pivots.items():
            assert tail == {}
            assert typed(normalized(field, (col, {}))[0]) == \
                typed(normalized(field, tracked.pivots[r])[0])

    props()


@pytest.mark.parametrize("label", ["Q", "F5", "F9"])
def test_linear_combination_matches_fold(label):
    # Σ cᵢ·Mᵢ over nonzeros equals the dense fold acc + Mᵢ.scale(cᵢ), with
    # zero coefficients, zero matrices, cancelling terms and no terms at all
    field = FIELDS[label]
    matrix = st.lists(st.lists(ENTRY[label], min_size=3, max_size=3),
                      min_size=2, max_size=2)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(ENTRY[label], matrix), max_size=5), st.booleans())
    def props(raw_terms, cancel):
        terms = [(field.coerce(c), Matrix(field, rows)) for c, rows in raw_terms]
        if cancel and terms:
            c, m = terms[0]
            terms.append((field.neg(c), m))
        fold = Matrix.zero(field, 2, 3)
        for c, m in terms:
            fold = fold + m.scale(c)
        assert Matrix.combination(field, 2, 3, terms) == fold
        flat = linear_combination(
            field, [(c, [v for row in m.data for v in row]) for c, m in terms], 6)
        assert flat == [v for row in fold.data for v in row]

    props()


@pytest.mark.parametrize("label", ["Q", "F5", "F9"])
def test_block_matches_entrywise_assembly(label):
    # grids of mixed heights and widths with None blocks equal placing every
    # entry by hand; a block of another field or of the wrong size raises
    field = FIELDS[label]
    other = Q if field != Q else F5

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def props(data):
        heights = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        widths = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        nr, nc = len(heights), len(widths)
        ref = [[field.zero()] * sum(widths) for _ in range(sum(heights))]
        grid = []
        for r, h in enumerate(heights):
            row = []
            for c, w in enumerate(widths):
                # a block on each of two diagonals sizes every row and column
                if r != c % nr and c != r % nc and data.draw(st.booleans()):
                    row.append(None)
                    continue
                blk = Matrix(field, data.draw(st.lists(
                    st.lists(ENTRY[label], min_size=w, max_size=w),
                    min_size=h, max_size=h)))
                for i in range(h):
                    for j in range(w):
                        ref[sum(heights[:r]) + i][sum(widths[:c]) + j] = blk.data[i][j]
                row.append(blk)
            grid.append(row)
        assert Matrix.block(field, grid) == Matrix(field, ref, _raw=True)
        foreign = [list(r) for r in grid]
        foreign[0][0] = Matrix.zero(other, heights[0], widths[0])
        with pytest.raises(MalformedInput):
            Matrix.block(field, foreign)
        too_wide = [Matrix.zero(field, 1, widths[0] + 1)] + [None] * (nc - 1)
        with pytest.raises(MalformedInput):
            Matrix.block(field, grid + [too_wide])

    props()


def test_block_edge_grids():
    empty = Matrix.block(Q, [])
    assert (empty.rows, empty.cols) == (0, 0) and empty == Matrix(Q, [])
    I2 = Matrix.identity(Q, 2)
    with pytest.raises(MalformedInput):     # a block row with nothing to size it
        Matrix.block(Q, [[I2, None], [None, None]])
    with pytest.raises(MalformedInput):     # ragged grid
        Matrix.block(Q, [[I2, None], [I2]])


# --- ℚ elimination against a textbook Fraction Gauss–Jordan -----------------

def _gauss_jordan(rows, ncols):
    """Reduced row echelon form on plain Fractions, with row swaps and
    pivots divided out: ``(rows, pivot columns)``."""
    a = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        hit = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if hit is None:
            continue
        a[r], a[hit] = a[hit], a[r]
        a[r] = [v / a[r][c] for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def _reference(rows, ncols, b):
    """(pivots, kernel basis, solution or None, inverse or None)."""
    R, pivots = _gauss_jordan(rows, ncols)
    kernel = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        kernel.append(v)
    aug, apiv = _gauss_jordan([r + [x] for r, x in zip(rows, b)], ncols + 1)
    x = None
    if ncols not in apiv:
        x = [Fraction(0)] * ncols
        for r, pc in enumerate(apiv):
            x[pc] = aug[r][ncols]
    inv = None
    n = len(rows)
    if n == ncols:
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        full, fpiv = _gauss_jordan([r + e for r, e in zip(rows, eye)], n)
        if fpiv[:n] == list(range(n)):
            inv = [r[n:] for r in full]
    return tuple(pivots), kernel, x, inv


def _check_against_reference(m, rows, b):
    # the RREF is fixed by its pivot columns and its canonical kernel
    pivots, kernel, x, inv = _reference(rows, m.cols, b)
    assert tuple(echelon(Q, m.sparse_columns())[1]) == pivots
    got_ker = kernel_basis(m)
    assert got_ker == kernel
    got_x = solve_linear(m, b)
    assert got_x == x
    got_inv = invert(m) if m.rows == m.cols else None
    assert (got_inv.data if got_inv is not None else None) == inv
    assert_canonical(v for vec in got_ker for v in vec)
    assert_canonical(got_x or [])
    assert_canonical(v for row in (got_inv.data if got_inv else []) for v in row)


NON_UNIT = st.one_of(st.integers(min_value=-9, max_value=9),
                     st.fractions(min_value=-9, max_value=9, max_denominator=4))


def test_elimination_worked_example_with_non_unit_pivots():
    rows = [[2, 4, 1], [3, 1, 5], [1, 1, 1]]
    m = Matrix(Q, rows)
    _check_against_reference(m, rows, [1, 2, 3])
    assert invert(m).data[0][:2] == [-2, Fraction(-3, 2)]
    singular = [[2, 4, 6], [3, 6, 9]]
    _check_against_reference(Matrix(Q, singular), singular, [2, 3])
    _check_against_reference(Matrix(Q, singular), singular, [2, 4])


@settings(max_examples=60, deadline=None)
@given(_matrices(Q, NON_UNIT), st.lists(NON_UNIT, min_size=4, max_size=4),
       st.booleans())
def test_rational_elimination_matches_fraction_gauss_jordan(rows, b, square):
    if square:
        n = min(len(rows), len(rows[0]))
        rows = [r[:n] for r in rows[:n]]
    b = b[:len(rows)]
    _check_against_reference(Matrix(Q, rows), rows, b)
    # the same matrix spelled with Fraction(k, 1) entries, handed in raw
    spelled = Matrix(Q, [[Fraction(v) for v in r] for r in rows], _raw=True)
    _check_against_reference(spelled, rows, [Fraction(v) for v in b])
