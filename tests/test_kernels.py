"""The fused sparse loops of each field kind against per-scalar references.

``Field.nonzeros``/``axpy``/``add_entry``/``matmul``/``monomial_mode`` run on plain ``+ *``
over Q and F_p and on log tables over a small F_p[a]/(m);
``SparseEchelon`` reduces through ``Field.eliminate``, keeps its
pivots unnormalized and, over Q, holds ints only.  The references below
are the same loops written with one ``Field`` method call per scalar, and
an echelon that normalizes every pivot to 1: results, key order and the
canonical Q form must come out the same, and the echelon's pivots must
be the reference's once divided by their leads.  The column mat-vec
behind d^p·f, ``column_combination``, is checked against one ``axpy``
per column by value and type; its keys may come in another order, since
it drops cancelled entries at the end and not as they cancel.
``Element`` and ``Matrix`` sums, differences, negations and scalings, which are
``linear_combination``, ``Matrix.apply`` and ``sum_product``, which are
``matmul``, and element products are checked against entrywise ``Field``
loops in the same way; over Q, F_p and F_9 they must make no
``Field.is_zero``, ``add`` or ``mul`` call at all, and ``Matrix.apply``
must read only the columns where its vector is nonzero.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from frobcalc.algebra import Algebra
from frobcalc.errors import MalformedInput
from frobcalc.fields import Field
from frobcalc.linalg import Matrix, SparseEchelon, linear_combination, sum_product
from test_fields import assert_canonical

BIG = 2**31 - 1
FIELDS = {
    "Q": Field.rationals(),
    "F5": Field.prime(5),
    "F2^31-1": Field.prime(BIG),
    "F9": Field.extension(3, [1, 0, 1]),
}
ENTRY = {
    "Q": st.one_of(st.integers(min_value=-4, max_value=4),
                   st.fractions(min_value=-4, max_value=4, max_denominator=3)),
    "F5": st.integers(min_value=0, max_value=4),
    "F2^31-1": st.one_of(st.integers(min_value=0, max_value=3),
                         st.integers(min_value=BIG - 3, max_value=BIG - 1),
                         st.integers(min_value=0, max_value=BIG - 1)),
    "F9": st.tuples(st.integers(min_value=0, max_value=2),
                    st.integers(min_value=0, max_value=2)),
}
LABELS = list(FIELDS)
# F_{(2^31-1)^2} = F_{2^31-1}[a]/(a^2+1), too large for log tables: its
# loops call the Field methods per scalar
UNTABLED = Field.extension(BIG, [1, 0, 1])
ENTRY["F2^31-1[a]"] = st.tuples(ENTRY["F2^31-1"], ENTRY["F2^31-1"])


def sparse(f, raw):
    """A sparse dict of canonical raw values, zeros dropped."""
    out = {}
    for k, v in raw.items():
        v = f.coerce(v)
        if not f.is_zero(v):
            out[k] = v
    return out


def columns(label, max_size=8):
    return st.lists(st.dictionaries(st.integers(min_value=0, max_value=6),
                                    ENTRY[label], max_size=4),
                    min_size=1, max_size=max_size)


def check_form(f, values):
    values = list(values)
    assert not any(f.is_zero(v) for v in values)
    if f == FIELDS["Q"]:
        assert_canonical(values)


def is_one(f, a):
    return a == f.one()


def typed(d):
    """A sparse dict's items in key order, each with its value's type."""
    return [(k, v, type(v)) for k, v in d.items()]


def normalized(f, pivot):
    """(col/lead, tail/lead) of a pivot (col, tail), lead its entry at its
    last row: the pivot a normalizing echelon keeps."""
    col, tail = pivot
    il = f.inv(col[max(col)])
    return ({k: f.mul(il, v) for k, v in col.items()},
            {k: f.mul(il, v) for k, v in tail.items()})


def assert_integral_pivots(ech):
    """Over Q: every pivot column and tail holds ints only, and column ∪
    tail has content 1."""
    for col, tail in ech.pivots.values():
        values = [*col.values(), *tail.values()]
        assert all(type(v) is int for v in values)
        assert gcd(*values) == 1


# --- per-scalar references -------------------------------------------------

def ref_axpy(f, dst, src, c):
    for k, v in src.items():
        cur = dst.get(k)
        nv = f.mul(c, v) if cur is None else f.add(cur, f.mul(c, v))
        if f.is_zero(nv):
            dst.pop(k, None)
        else:
            dst[k] = nv


def ref_add_entry(f, d, key, val):
    cur = d.get(key)
    s = val if cur is None else f.add(cur, val)
    if f.is_zero(s):
        d.pop(key, None)
    else:
        d[key] = s


def ref_nonzeros(f, vec):
    return {i: v for i, v in enumerate(vec) if not f.is_zero(v)}


def ref_matmul(f, a, b, width):
    out = []
    for ri in a:
        orow = [f.zero()] * width
        for x, rk in zip(ri, b):
            if f.is_zero(x):
                continue
            for j, y in enumerate(rk):
                if not f.is_zero(y):
                    orow[j] = f.add(orow[j], f.mul(x, y))
        out.append(orow)
    return out


class RefEchelon:
    """The column echelon with per-scalar reduction and no denominator
    clearing.  ``lead`` picks each pivot row from a column's rows: ``max``,
    the last row, as ``SparseEchelon`` does, or any other rule, which must
    give the same pivot columns, kernel and solutions."""

    def __init__(self, f, lead=max):
        self.f = f
        self.lead = lead
        self.pivots = {}

    def _reduce(self, col, tail):
        f = self.f
        while col:
            r = self.lead(col)
            hit = self.pivots.get(r)
            if hit is None:
                return r
            c = f.neg(col[r])
            ref_axpy(f, col, hit[0], c)
            if tail is not None:
                ref_axpy(f, tail, hit[1], c)
        return None

    def insert(self, col, tail):
        f = self.f
        col, tail = dict(col), dict(tail) if tail is not None else None
        r = self._reduce(col, tail)
        if r is None:
            return tail if tail is not None else {}
        if not is_one(f, col[r]):
            ip = f.inv(col[r])
            col = {k: f.mul(ip, v) for k, v in col.items()}
            if tail is not None:
                tail = {k: f.mul(ip, v) for k, v in tail.items()}
        self.pivots[r] = (col, tail if tail is not None else {})
        return None

    def solve(self, rhs):
        col, tail = dict(rhs), {}
        if self._reduce(col, tail) is not None:
            return None
        return {k: self.f.neg(v) for k, v in tail.items()}


# --- the fused loops ---------------------------------------------------------

@pytest.mark.parametrize("label", LABELS)
def test_axpy_and_add_entry_match_per_scalar_ops(label):
    f = FIELDS[label]

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.integers(min_value=0, max_value=9), ENTRY[label]),
           st.dictionaries(st.integers(min_value=0, max_value=9), ENTRY[label]),
           ENTRY[label], st.sets(st.integers(min_value=0, max_value=9)))
    def props(raw_dst, raw_src, raw_c, cancel):
        dst, src, c = sparse(f, raw_dst), sparse(f, raw_src), f.coerce(raw_c)
        # entries of dst equal to −c·src cancel and must be dropped
        for k in cancel & src.keys():
            dst[k] = f.neg(f.mul(c, src[k]))
        fused, ref = dict(dst), dict(dst)
        f.axpy(fused, src, c)
        ref_axpy(f, ref, src, c)
        assert list(fused.items()) == list(ref.items())
        check_form(f, fused.values())
        if not f.is_zero(c):
            assert not cancel & src.keys() & fused.keys()
        for k, v in src.items():
            for val in (v, f.neg(v)):  # the second add cancels the first
                f.add_entry(fused, k, val)
                ref_add_entry(f, ref, k, val)
                assert list(fused.items()) == list(ref.items())
        check_form(f, fused.values())

    props()


@pytest.mark.parametrize("label", LABELS + ["F2^31-1[a]"])
def test_monomial_mode_matches_per_scalar_ops(label):
    # keys are flat three-digit indices base 3; the map on digit i sends t
    # to perm[i][t] scaled by scale[i][t] ≠ 0.  With the identity's table
    # below it, it acts on the digit of weight w alone; with a table of the
    # two low digits' maps (9 entries) it acts on the top digit, and all
    # three maps apply in one pass
    f = FIELDS.get(label, UNTABLED)
    nonzero = ENTRY[label].filter(lambda v: not f.is_zero(f.coerce(v)))
    triple = st.lists(nonzero, min_size=3, max_size=3)

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.integers(min_value=0, max_value=26), ENTRY[label]),
           st.sampled_from([0, 1, 2]),
           st.lists(st.permutations(range(3)), min_size=3, max_size=3),
           st.lists(triple, min_size=3, max_size=3))
    def props(raw, digit, perms, scales):
        vec = sparse(f, raw)
        maps = [[(perm[t] - t, f.coerce(c)) for t, c in enumerate(scale)]
                for perm, scale in zip(perms, scales)]

        def ref(digits):
            out = {}
            for k, v in vec.items():
                key = k
                for i in digits:
                    d, c = maps[i][k // 3 ** i % 3]
                    key, v = key + d * 3 ** i, f.mul(c, v)
                out[key] = v
            return out

        w = 3 ** digit
        fused = f.monomial_mode(vec, w, maps[digit], [(0, f.one())] * w)
        assert typed(fused) == typed(ref([digit]))
        check_form(f, fused.values())
        low = [(d0 + 3 * d1, f.mul(c0, c1)) for d1, c1 in maps[1] for d0, c0 in maps[0]]
        fused = f.monomial_mode(vec, 9, maps[2], low)
        assert typed(fused) == typed(ref([0, 1, 2]))
        check_form(f, fused.values())

    props()


@pytest.mark.parametrize("label", LABELS + ["F2^31-1[a]"])
def test_matrix_product_matches_per_scalar_ops(label):
    # right factors with zero rows and with one column, the second also as
    # Matrix.apply; nonzeros, sparse rows and sparse columns against the
    # per-scalar is_zero scan
    f = FIELDS.get(label, UNTABLED)
    dims = st.integers(min_value=1, max_value=4)

    @settings(max_examples=60, deadline=None)
    @given(dims, dims, dims, st.sets(st.integers(min_value=0, max_value=3)), st.data())
    def props(r, k, c, zero_rows, data):
        def rows(n, m):
            return data.draw(st.lists(st.lists(ENTRY[label], min_size=m, max_size=m),
                                      min_size=n, max_size=n))
        b_rows = rows(k, c)
        for i in zero_rows & set(range(k)):
            b_rows[i] = [f.zero()] * c
        a, b = Matrix(f, rows(r, k)), Matrix(f, b_rows)
        col = Matrix(f, [[row[0]] for row in b.data])
        prods = [a * b, a * col]
        for prod, right in zip(prods, (b, col)):
            assert (prod.rows, prod.cols) == (r, right.cols)
            assert prod.data == ref_matmul(f, a.data, right.data, right.cols)
            if f == FIELDS["Q"]:
                assert_canonical(v for row in prod.data for v in row)
        assert a.apply(col.column(0)) == prods[1].column(0)
        for m in (a, b, *prods):
            for row in m.data:
                assert typed(f.nonzeros(row)) == typed(ref_nonzeros(f, row))
            assert m.sparse_rows() == [ref_nonzeros(f, row) for row in m.data]
            assert [typed(d) for d in m.sparse_columns()] == [
                typed(ref_nonzeros(f, m.column(j))) for j in range(m.cols)]

    props()


def test_rational_product_of_fractions_is_an_int():
    Q = FIELDS["Q"]
    half = Fraction(1, 2)
    prod = Matrix(Q, [[half, half], [half, -half]]) * Matrix(Q, [[1, 3], [1, 1]])
    assert prod.data == [[1, 2], [0, 1]]
    assert_canonical(v for row in prod.data for v in row)


@pytest.mark.parametrize("label", LABELS)
def test_echelon_insert_and_solve_match_per_scalar_ops(label):
    f = FIELDS[label]
    one = f.one()

    @settings(max_examples=60, deadline=None)
    @given(columns(label), st.lists(ENTRY[label], max_size=8),
           st.dictionaries(st.integers(min_value=0, max_value=6), ENTRY[label],
                           max_size=4))
    def props(raw_cols, coeffs, raw_rhs):
        cols = [sparse(f, c) for c in raw_cols]
        ech, ref = SparseEchelon(f), RefEchelon(f)
        free = []
        for j, col in enumerate(cols):
            out, ref_out = ech.insert(col, {j: one}), ref.insert(col, {j: one})
            assert (out is None) == (ref_out is None)
            if out is not None:
                assert typed(out) == typed(ref_out)
                free.append(j)
                # the canonical kernel tail: 1 at its free column, 0 at
                # every earlier free one
                assert is_one(f, out[j])
                assert not set(free[:-1]) & out.keys()
                check_form(f, out.values())
        # the same pivot rows, in order; each pivot is the reference's
        # times its lead
        assert list(ech.pivots) == list(ref.pivots)
        for r, pivot in ech.pivots.items():
            col, tail = normalized(f, pivot)
            assert typed(col) == typed(ref.pivots[r][0])
            assert typed(tail) == typed(ref.pivots[r][1])
            check_form(f, pivot[0].values())
            check_form(f, pivot[1].values())
        if f == FIELDS["Q"]:
            assert_integral_pivots(ech)
        # a column combination (in the span) and a free right-hand side
        combo = {}
        for c, col in zip(coeffs, cols):
            ref_axpy(f, combo, col, f.coerce(c))
        for rhs in (combo, sparse(f, raw_rhs)):
            x = ech.solve(rhs)
            y = ref.solve(rhs)
            assert (x is None) == (y is None)
            if x is None:
                assert rhs is not combo
                continue
            assert typed(x) == typed(y)
            check_form(f, x.values())
            back = {}
            for j, v in x.items():
                ref_axpy(f, back, cols[j], v)
            assert back == rhs

    props()


@pytest.mark.parametrize("label", LABELS)
def test_pivot_row_order_is_free(label):
    # a column joins exactly when it is not in the span of the ones before
    # it, and kernel vectors and solutions are unique in the pivot columns,
    # so the first-row and the last-row rule give the same answers; only
    # the pivot rows and the elimination history differ
    f = FIELDS[label]
    one = f.one()

    @settings(max_examples=60, deadline=None)
    @given(columns(label), st.lists(ENTRY[label], max_size=8),
           st.dictionaries(st.integers(min_value=0, max_value=6), ENTRY[label],
                           max_size=4))
    def props(raw_cols, coeffs, raw_rhs):
        cols = [sparse(f, c) for c in raw_cols]
        first, last = RefEchelon(f, lead=min), RefEchelon(f, lead=max)
        for j, col in enumerate(cols):
            # None when column j joins, else its kernel vector
            assert first.insert(col, {j: one}) == last.insert(col, {j: one})
        combo = {}
        for c, col in zip(coeffs, cols):
            ref_axpy(f, combo, col, f.coerce(c))
        for rhs in (combo, sparse(f, raw_rhs)):
            assert first.solve(rhs) == last.solve(rhs)

    props()


def per_step_solve(ech, rhs):
    """``SparseEchelon.solve`` with every step at the last row of what is
    left, found by ``max`` over the whole vector: the loop a sparse
    right-hand side keeps, and the one the walk of a dense one replaces."""
    f = ech.field
    col, scale = f.clear_denominators(rhs)
    col, tail, scale = dict(col), {}, scale or 1
    while col:
        r = max(col)
        hit = ech.pivots.get(r)
        if hit is None:
            return None
        scale *= f.eliminate(col, tail, hit, r)
    if scale == 1:
        return {k: f.neg(v) for k, v in tail.items()}
    return f.unscale(tail, -scale)


@pytest.mark.parametrize("label", ["Q", "F5", "F9"])
def test_solve_walk_matches_the_per_step_loop(label):
    # a staircase of 20–27 columns, column j led at row 4j + 2 with one
    # optional entry at an even row below, so the rank is at least 20 and
    # rows ≡ 0 mod 4 may be reached without a pivot; odd rows are never
    # reached.  The right-hand sides: a column (sparse, solvable), an odd
    # row (sparse, never solvable), a combination of every column (dense,
    # solvable), it with an odd row added (dense, never solvable) and with
    # any row.  Each must give the per-step loop's answer, values and
    # types, by the same Field.eliminate calls, before and after more
    # columns join.
    f = {"Q": Field.rationals, "F5": lambda: Field.prime(5),
         "F9": lambda: Field.extension(3, [1, 0, 1])}[label]()
    eliminate, steps = f.eliminate, []

    def recording(col, tail, pivot, r):
        steps.append(r)
        return eliminate(col, tail, pivot, r)

    f.eliminate = recording  # this instance only: the shared fields stay as they are
    nonzero = ENTRY[label].filter(lambda v: not f.is_zero(f.coerce(v)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=20, max_value=27), st.data())
    def props(size, data):
        cols = []
        for j in range(size):
            col = {4 * j + 2: f.coerce(data.draw(nonzero))}
            below = data.draw(st.one_of(st.none(), st.integers(min_value=0, max_value=2 * j)))
            if below is not None:
                col[2 * below] = f.coerce(data.draw(nonzero))
            cols.append(col)
        extra = [sparse(f, c) for c in data.draw(st.lists(
            st.dictionaries(st.integers(min_value=0, max_value=2 * size).map(lambda r: 2 * r),
                            ENTRY[label], max_size=4), max_size=6))]
        ech = SparseEchelon(f)
        one = f.one()
        for j, col in enumerate(cols):
            assert ech.insert(col, {j: one}) is None

        def combination(columns):
            acc = {}
            for col in columns:
                ref_axpy(f, acc, col, f.coerce(data.draw(nonzero)))
            return acc

        def check(rhs, dense, solvable=None):
            assert (8 * len(rhs) >= ech.rank) == dense
            del steps[:]
            expected = per_step_solve(ech, rhs)
            ref_steps = steps[:]
            del steps[:]
            got = ech.solve(rhs)
            assert steps == ref_steps
            assert (got is None) == (expected is None)
            if solvable is not None:
                assert (got is not None) == solvable
            if got is not None:
                assert typed(got) == typed(expected)
                check_form(f, got.values())

        j = data.draw(st.integers(min_value=0, max_value=size - 1))
        odd = 2 * data.draw(st.integers(min_value=0, max_value=2 * size)) + 1
        check(cols[j], False, True)
        check({odd: one}, False, False)
        combo = combination(cols)
        assume(8 * len(combo) >= ech.rank)
        check(combo, True, True)
        middle = dict(combo)
        middle[odd] = one
        check(middle, True, False)
        anywhere = dict(combo)
        ref_add_entry(f, anywhere, data.draw(st.integers(min_value=0, max_value=4 * size)), one)
        if 8 * len(anywhere) >= ech.rank:
            check(anywhere, True)
        # more columns join: the walk is listed again for the new state
        for j, col in enumerate(extra, size):
            ech.insert(col, {j: one})
        combo = combination(cols + extra)
        if 8 * len(combo) >= ech.rank:
            check(combo, True, True)

    props()


def test_rational_solve_clears_denominators_exactly():
    Q = FIELDS["Q"]
    third = Fraction(1, 3)
    ech = SparseEchelon(Q)
    for j, col in enumerate(({0: 2, 1: 1}, {1: 3}, {0: 1, 2: third})):
        assert ech.insert(col, {j: 1}) is None
    x = ech.solve({0: Fraction(1, 2), 1: Fraction(5, 6), 2: 1})
    assert x == {0: Fraction(-5, 4), 1: Fraction(25, 36), 2: 3}
    assert_canonical(x.values())
    assert type(x[2]) is int


LINEAR = {
    "Q": FIELDS["Q"],
    "F5": FIELDS["F5"],
    "F9": FIELDS["F9"],
    "F2^31-1[a]": Field.extension(BIG, [1, 0, 1]),
}
# outside values, which every operation coerces: unreduced ints, and residue
# lists shorter than the degree
LINEAR_ENTRY = {
    "Q": ENTRY["Q"],
    "F5": st.integers(min_value=-12, max_value=12),
    "F9": st.lists(st.integers(min_value=-4, max_value=4), max_size=2),
    "F2^31-1[a]": st.lists(st.one_of(ENTRY["F2^31-1"],
                                     st.integers(min_value=-2 * BIG, max_value=2 * BIG)),
                           max_size=2),
}


def diagonal_algebra(f, n):
    """k^n: n orthogonal idempotents summing to the unit."""
    return Algebra(f, n, [f"e{i}" for i in range(n)],
                   [(i, i, i, 1) for i in range(n)], [1] * n)


def truncated_algebra(f, n):
    """k[x]/(x^n), basis 1, x, …, x^(n−1)."""
    return Algebra(f, n, [f"x{i}" for i in range(n)],
                   [(i, j, i + j, 1) for i in range(n) for j in range(n - i)],
                   [1] + [0] * (n - 1))


def ref_mul_raw(A, a, b):
    """a·b summed over the structure constants, one Field call per scalar."""
    f = A.field
    out = [f.zero()] * A.dim
    for (i, j), terms in A.structure.items():
        for k, c in terms:
            out[k] = f.add(out[k], f.mul(f.mul(a[i], b[j]), c))
    return out


def typed_rows(rows):
    """Each value with its type: over Q an integral value must be an int,
    as the per-scalar references give it."""
    return [[(v, type(v)) for v in r] for r in rows]


@pytest.mark.parametrize("label", list(LINEAR))
def test_linear_ops_match_per_scalar_ops(label):
    f = LINEAR[label]
    dims = st.integers(min_value=1, max_value=4)

    @settings(max_examples=60, deadline=None)
    @given(dims, dims, LINEAR_ENTRY[label], st.data())
    def props(r, c, s, data):
        def entries(n):
            return data.draw(st.lists(LINEAR_ENTRY[label], min_size=n, max_size=n))
        a = Matrix(f, [entries(c) for _ in range(r)])
        b = Matrix(f, [entries(c) for _ in range(r)])
        vec, raw_s = entries(c), f.coerce(s)
        pairs = [list(zip(ra, rb)) for ra, rb in zip(a.data, b.data)]
        for got, want in (
                (a + b, [[f.add(x, y) for x, y in row] for row in pairs]),
                (a - b, [[f.sub(x, y) for x, y in row] for row in pairs]),
                (-a, [[f.neg(x) for x in row] for row in a.data]),
                (a.scale(s), [[f.mul(raw_s, x) for x in row] for row in a.data])):
            assert (got.rows, got.cols) == (r, c)
            assert typed_rows(got.data) == typed_rows(want)
        raw_vec = [f.coerce(v) for v in vec]
        want = []
        for row in a.data:
            acc = f.zero()
            for x, v in zip(row, raw_vec):
                acc = f.add(acc, f.mul(x, v))
            want.append(acc)
        assert typed_rows([a.apply(vec)]) == typed_rows([want])
        # all-zero coefficients, and a zero scale
        zero = [f.zero()] * c
        assert typed_rows([linear_combination(f, [(0, row) for row in a.data], c)]) == \
            typed_rows([zero])
        assert typed_rows(a.scale(0).data) == typed_rows([zero] * r)
        for row in a.data:
            dot = f.zero()
            for x, v in zip(row, raw_vec):
                dot = f.add(dot, f.mul(x, v))
            assert typed_rows([[sum_product(f, row, raw_vec)]]) == typed_rows([[dot]])

        T = truncated_algebra(f, c)
        x, y = T.element(vec), T.element(entries(c))
        assert typed_rows([(x * y).raw]) == typed_rows([ref_mul_raw(T, x.raw, y.raw)])
        assert x.is_zero() == all(f.is_zero(u) for u in x.raw)

        A = diagonal_algebra(f, c)
        x, y = A.element(vec), A.element(entries(c))
        xy = list(zip(x.raw, y.raw))
        for got, want in (
                (x + y, [f.add(u, v) for u, v in xy]),
                (x - y, [f.sub(u, v) for u, v in xy]),
                (-x, [f.neg(u) for u in x.raw]),
                (x.scale(s), [f.mul(raw_s, u) for u in x.raw]),
                (s * x, [f.mul(raw_s, u) for u in x.raw]),
                (A.scalar_element(s), [f.mul(raw_s, u) for u in A.unit])):
            assert got.algebra is A
            assert typed_rows([got.raw]) == typed_rows([want])

    props()


@pytest.mark.parametrize("label", list(LINEAR))
def test_column_combination_matches_the_axpy_loop(label):
    # d^p·f and b_p·c (Field.column_combination) sum raw values and make
    # them canonical once over Q and F_p; one axpy per column, and the
    # per-scalar loop, must give the same values and raw types.  Columns
    # that cancel leave no zero behind, and over Q Fraction sums that come
    # out integral come back as ints
    f = LINEAR[label]
    indices = st.integers(min_value=0, max_value=9)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.dictionaries(indices, ENTRY[label], max_size=5),
                    min_size=1, max_size=6), st.data())
    def props(raw_cols, data):
        cols = [sparse(f, c) for c in raw_cols]
        x = sparse(f, data.draw(st.dictionaries(
            st.integers(min_value=0, max_value=len(cols) - 1), ENTRY[label])))
        # a column that cancels x_j·cols[j], taken once
        j = data.draw(st.integers(min_value=0, max_value=len(cols) - 1))
        if j in x:
            cols.append({k: f.neg(f.mul(x[j], v)) for k, v in cols[j].items()})
            x[len(cols) - 1] = f.one()
        if f == FIELDS["Q"]:
            # 3·(1/2) + 1/2 = 2 at key 10, 3·(1/3) − 1 = 0 at key 11
            cols += [{10: Fraction(1, 2), 11: Fraction(1, 3)}, {10: Fraction(1, 2), 11: -1}]
            x.update({len(cols) - 2: 3, len(cols) - 1: 1})
        fused = f.column_combination(cols, x)
        by_axpy, per_scalar = {}, {}
        for i, c in x.items():
            f.axpy(by_axpy, cols[i], c)
            ref_axpy(f, per_scalar, cols[i], c)
        assert {k: (v, type(v)) for k, v in fused.items()} == \
            {k: (v, type(v)) for k, v in by_axpy.items()} == \
            {k: (v, type(v)) for k, v in per_scalar.items()}
        check_form(f, fused.values())
        if f == FIELDS["Q"]:
            assert type(fused[10]) is int and 11 not in fused

    props()


def test_linear_ops_reject_mismatched_operands():
    Q, F5 = LINEAR["Q"], LINEAR["F5"]
    m = Matrix(Q, [[1, 2], [3, 4]])
    for bad, message in ((Matrix(F5, [[1, 2], [3, 4]]), "mixed-field entries"),
                         (Matrix(Q, [[1, 2, 3], [4, 5, 6]]), "shape mismatch"),
                         (Matrix(F5, [[1]]), "mixed-field entries")):
        for op in (m.__add__, m.__sub__):
            with pytest.raises(MalformedInput, match=f"^{message}$"):
                op(bad)
    with pytest.raises(MalformedInput, match="^vector length differs from column count$"):
        m.apply([1, 2, 3])
    with pytest.raises(MalformedInput):
        m.scale(0.5)
    A, B = diagonal_algebra(Q, 2), diagonal_algebra(Q, 3)
    x = A.element([1, 2])
    for op, bad in ([(op, bad) for op in (x.__add__, x.__sub__, x.__mul__)
                     for bad in (B.element([1, 2, 3]), diagonal_algebra(F5, 2).element([1, 2]))]
                    + [(x.__add__, 1), (x.__sub__, 1)]):
        with pytest.raises(MalformedInput, match="^elements from different algebras$"):
            op(bad)
    with pytest.raises(MalformedInput):
        x.scale("2")


@pytest.mark.parametrize("label", ["Q", "F5", "F9"])
def test_dense_helpers_make_no_per_scalar_calls(label, monkeypatch):
    # Field.is_zero, add and mul counted by wrapping the class methods, as
    # the benchmark tracer does
    f = FIELDS[label]
    data = [[f.from_int(i * j + i - j) for j in range(5)] for i in range(5)]
    data[2] = [f.zero()] * 5
    m = Matrix(f, data, _raw=True)
    vec = [f.from_int(v) for v in (0, 3, 0, -1, 0)]
    A = truncated_algebra(f, 5)
    x, y = A.element(vec), A.element(data[4])
    calls = {}
    for name in ("is_zero", "add", "mul"):
        def counted(self, *args, _orig=getattr(Field, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _orig(self, *args)
        monkeypatch.setattr(Field, name, counted)
    m * m, m + m, m - m, -m, m.scale(3), m.apply(vec)
    m.sparse_rows(), m.sparse_columns()
    linear_combination(f, [(2, vec), (0, data[1]), (1, data[3])], 5)
    sum_product(f, vec, data[4])
    x * y, x + y, x - y, -x, x.scale(2), x.is_zero(), str(x)
    f.nonzeros(vec)
    assert calls == {}


class CountingRow(list):
    """A matrix row that counts the entries read from it."""
    reads = 0

    def __getitem__(self, i):
        got = super().__getitem__(i)
        CountingRow.reads += len(got) if isinstance(i, slice) else 1
        return got

    def __iter__(self):
        for v in super().__iter__():
            CountingRow.reads += 1
            yield v


@pytest.mark.parametrize("label", ["Q", "F5", "F9"])
def test_apply_reads_only_the_columns_vec_needs(label):
    f = FIELDS[label]
    n = 256
    m = Matrix(f, [CountingRow(f.from_int(i + j + 1) for j in range(n)) for i in range(n)],
               _raw=True)
    for k in (0, 1, 3, n):
        vec = [f.zero()] * n
        for j in range(k):
            vec[j * 7 % n] = f.one()
        CountingRow.reads = 0
        out = m.apply(vec)
        assert CountingRow.reads <= n * k + n, (k, CountingRow.reads)
        assert out == [sum_product(f, list(row), vec) for row in m.data]
