"""Exact matrices, sparse vectors and the one elimination kernel.

Everything here is plain exact arithmetic delegated to a :class:`Field`.
The inner loops -- the zero scan of a vector, dst += c·src and
d[key] += v on sparse dicts and the dense product -- are the field's
fused loops (``Field.nonzeros``/``axpy``/``add_entry``/``matmul``, picked
once per field kind), so none of them calls ``Field.is_zero``, ``add``
or ``mul`` per scalar over Q, F_p or a tabled F_p[a]/(m).  Every dense product is the field's
``matmul``, which reads each row of its left factor only where its right
factor has a nonzero row: ``Matrix.__mul__``; ``Matrix.apply``, with a
one-column right factor, so it costs rows·nnz(vec); :func:`sum_product`,
a row by a column; and :func:`linear_combination`, the row of
coefficients by the stacked vectors, which forms every matrix (and
algebra element) sum, difference, negation and scaling.
All rank, kernel and solve work, dense or sparse, goes through one
driver, :func:`echelon`, which inserts sparse columns in order into a
:class:`SparseEchelon`, a column echelon held in dictionaries; a column
joins it exactly when it is not in the span of the columns before it.
``kernel_basis``, ``solve_linear``, ``invert``,
``sparse_kernel_basis``, ``independent_columns`` and the Hochschild
differentials read their answers off that echelon, so pivots, kernel
bases and solutions are the canonical ones of the reduced row echelon
form (which is never formed) and reports are deterministic.  Each pivot
sits at the last row of its reduced column: which columns join, and so
the kernel and every solution, do not depend on the row a pivot takes,
and the last row leaves about half the fill of the first on the bar
differentials.  Pivots are kept unnormalized and reduce by exact
quotients, over Q on ints only.
Matrices are immutable by convention: no public method mutates ``data``.
"""

from __future__ import annotations

from itertools import chain

from .errors import MalformedInput


class Matrix:
    """Dense matrix over a single field; ``data`` holds raw field values.

    ``+``, ``-``, negation and ``scale`` are one :meth:`combination` each,
    ``*`` and ``apply`` the field's ``matmul``."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, data, *, _raw=False):
        self.field = field
        if _raw:
            self.data = data
        else:
            self.data = [[field.coerce(v) for v in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(r) != self.cols for r in self.data):
            raise MalformedInput("ragged rows")

    # construction ----------------------------------------------------------
    @staticmethod
    def zero(field, rows, cols):
        z = field.zero()
        return Matrix(field, [[z] * cols for _ in range(rows)], _raw=True)

    @staticmethod
    def identity(field, n):
        z, o = field.zero(), field.one()
        data = [[z] * n for _ in range(n)]
        for i in range(n):
            data[i][i] = o
        return Matrix(field, data, _raw=True)

    @staticmethod
    def combination(field, rows, cols, terms):
        """Σ cᵢ·Mᵢ over the (cᵢ, Mᵢ) in ``terms``, every Mᵢ rows × cols."""
        def flat():
            for c, m in terms:
                if m.field != field:
                    raise MalformedInput("mixed-field entries")
                if (m.rows, m.cols) != (rows, cols):
                    raise MalformedInput("shape mismatch")
                yield c, list(chain.from_iterable(m.data))
        v = linear_combination(field, flat(), rows * cols)
        return Matrix(field, [v[i * cols:(i + 1) * cols] for i in range(rows)],
                      _raw=True)

    @staticmethod
    def block(field, blocks):
        """The matrix assembled from a grid of blocks, ``None`` a zero block:
        the one block-matrix assembly.  Block row r is as tall, and block
        column c as wide, as the blocks in it, so every block row and
        column needs at least one block; the empty grid is the 0×0 matrix.
        """
        grid = [list(r) for r in blocks]
        if any(len(r) != len(grid[0]) for r in grid):
            raise MalformedInput("ragged block grid")

        def size(line, attr):
            sizes = {getattr(b, attr) for b in line if b is not None}
            if len(sizes) != 1:
                raise MalformedInput("block sizes do not fit the grid")
            return sizes.pop()

        for b in chain.from_iterable(grid):
            if b is not None and b.field != field:
                raise MalformedInput("mixed-field entries")
        widths = [size(c, "cols") for c in zip(*grid)]
        z = field.zero()
        data = []
        for r in grid:
            for i in range(size(r, "rows")):
                data.append(list(chain.from_iterable(
                    [z] * w if b is None else b.data[i]
                    for b, w in zip(r, widths))))
        return Matrix(field, data, _raw=True)

    @staticmethod
    def from_columns(field, columns):
        return Matrix(field, [[field.coerce(v) for v in row] for row in zip(*columns)],
                      _raw=True)

    # access ------------------------------------------------------------------
    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def sparse_rows(self):
        """The rows as sparse dicts {column: value}."""
        return [self.field.nonzeros(r) for r in self.data]

    def sparse_columns(self):
        """The columns as sparse dicts {row: value}."""
        return [self.field.nonzeros(c) for c in zip(*self.data)]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.data == other.data)

    def __hash__(self):
        return hash((self.field, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.format(v) for v in row)
                         for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    # arithmetic ----------------------------------------------------------------
    def __add__(self, other):
        return Matrix.combination(self.field, self.rows, self.cols,
                                  [(1, self), (1, other)])

    def __sub__(self, other):
        return Matrix.combination(self.field, self.rows, self.cols,
                                  [(1, self), (-1, other)])

    def __neg__(self):
        return Matrix.combination(self.field, self.rows, self.cols, [(-1, self)])

    def scale(self, c):
        return Matrix.combination(self.field, self.rows, self.cols, [(c, self)])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise MalformedInput("mixed-field product")
        if self.cols != other.rows:
            raise MalformedInput("inner dimensions differ")
        return Matrix(self.field, self.field.matmul(self.data, other.data, other.cols),
                      _raw=True)

    def apply(self, vec):
        """Matrix-vector product on a raw-value vector: ``matmul`` with a
        one-column right factor, which reads only the columns where vec
        is nonzero."""
        if len(vec) != self.cols:
            raise MalformedInput("vector length differs from column count")
        f = self.field
        return [r[0] for r in f.matmul(self.data, [[f.coerce(v)] for v in vec], 1)]

    def transpose(self):
        return Matrix(self.field, [list(c) for c in zip(*self.data)], _raw=True)

    def is_identity(self):
        return self == Matrix.identity(self.field, self.rows) if self.rows == self.cols else False


class SparseEchelon:
    """Column echelon over a field with combination tracking.

    Inserted columns are reduced against existing pivots (pivot = greatest
    row index, kept as found): an entry a at a pivot with lead L is removed
    by the multiple −a/L of it (``Field.eliminate``).  Over Q all of it is
    on ints: a column enters with denominators cleared, is scaled by
    |L/gcd(a, L)| where L ∤ a, and joins divided by the content of column
    and tail (tails enter as ints).  Each pivot keeps a tail, the
    combination of inserted columns it equals, so a column that reduces
    to zero yields a kernel vector and ``solve`` a solution, either one
    divided by the scale its column picked up.  A tail of None is not
    tracked: the pivot keeps an empty tail, so it still serves rank
    questions and reduces later columns, and a ``solve`` reads only the
    tails that were tracked.

    Each step of a reduction takes the last row of what is left.  A solve
    whose right-hand side has nnz nonzeros with 8·nnz ≥ rank does not look
    for it: it walks, in descending order, the rows that the pivot columns
    reach, listed once per echelon state (:meth:`_rows`), and eliminates
    where the right-hand side is nonzero.  The eliminations are the same,
    in the same order, and so is the solution.
    """

    def __init__(self, field):
        self.field = field
        self.pivots = {}  # row -> (column dict, tail dict)
        self._walk = None  # see _rows

    def _reduce(self, col, tail, scale):
        """Reduce col, and tail alongside, in place, each step at its last
        row; returns the last row of what is left (None if nothing is) and
        ``scale`` times their scaling."""
        step, pivots = self.field.eliminate, self.pivots
        while col:
            r = max(col)
            hit = pivots.get(r)
            if hit is None:
                return r, scale
            scale *= step(col, tail, hit, r)
        return None, scale

    def _rows(self):
        """(a flag per row up to the last pivot row, set where some pivot
        column reaches it; those rows in descending order): an
        elimination writes only there, at or below its pivot row, so a row
        outside is never cleared.  Rows are ints ≥ 0, as every caller's."""
        if self._walk is None:
            walk = sorted(set(chain.from_iterable(c for c, _ in self.pivots.values())),
                          reverse=True)
            reach = bytearray(walk[0] + 1 if walk else 0)
            for r in walk:
                reach[r] = 1
            self._walk = reach, walk
        return self._walk

    def _sweep(self, col, tail, scale):
        """:meth:`_reduce` by one walk down the rows the pivots reach: at a
        row where col is nonzero the step at the last row would be taken
        there, unless that row has no pivot or col has a row above it
        outside the reach; either is where the reduction stops."""
        step, pivots = self.field.eliminate, self.pivots
        reach, walk = self._rows()
        size = len(reach)
        outside = max((k for k in col if k >= size or not reach[k]), default=-1)
        for r in walk:
            if r in col:
                hit = pivots.get(r)
                if hit is None or r < outside:
                    return max(r, outside), scale
                scale *= step(col, tail, hit, r)
        return (outside if col else None), scale

    def insert(self, col, tail):
        """Returns None if the column joined the echelon, else its tail
        (a kernel combination when the tail tracked the identity)."""
        f = self.field
        col, lcm = f.clear_denominators(col)
        col, scale = (dict(col), 1) if lcm is None else (col, lcm)
        if tail is not None:
            tail = dict(tail) if lcm is None else {k: v * lcm for k, v in tail.items()}
        r, scale = self._reduce(col, tail, scale)
        if r is None:
            if tail is None:
                return {}
            return tail if scale == 1 else f.unscale(tail, scale)
        self.pivots[r] = f.primitive(col, tail if tail is not None else {})
        self._walk = None
        return None

    @property
    def rank(self):
        return len(self.pivots)

    def solve(self, rhs_dict):
        """x with (echelon columns as M) · x = rhs, or None: the reduction
        of scale·rhs leaves M·tail = −scale·rhs, so x = −tail/scale."""
        f = self.field
        col, scale = f.clear_denominators(rhs_dict)
        col, tail = dict(col), {}
        reduce = self._sweep if 8 * len(col) >= len(self.pivots) else self._reduce
        r, scale = reduce(col, tail, scale or 1)
        if r is not None:
            return None
        if scale == 1:
            return {idx: f.neg(v) for idx, v in tail.items()}
        return f.unscale(tail, -scale)


def linear_combination(f, terms, length):
    """Σ cᵢ·vᵢ over the (cᵢ, vᵢ) in ``terms``, each vᵢ a raw vector of
    ``length`` entries: one ``matmul`` of the coefficient row by the
    stacked vᵢ.  Coefficients are drawn from ``terms`` in order; each vᵢ
    is scanned once for its nonzeros, and only those meet a nonzero cᵢ."""
    coeffs, vectors = [], []
    for c, v in terms:
        coeffs.append(f.coerce(c))
        vectors.append(v)
    return f.matmul([coeffs], vectors, length)[0]


def sum_product(f, a, b):
    """Σ a_i·b_i over two raw vectors of one length: ``matmul`` of the row
    a by the column b."""
    return f.matmul([a], [[y] for y in b], 1)[0][0]


def sparse_combination(f, columns, x):
    """Σ_k x_k·columns[k] for a sparse vector x and ``{k: sparse dict}``
    columns, a missing column being zero, as a sparse dict.  Its calls are
    many and tiny (role checks, forms), so it stays on ``axpy``: there the
    fused ``Field.column_combination``'s final pass costs more than it saves."""
    acc = {}
    for k, c in x.items():
        col = columns.get(k)
        if col:
            f.axpy(acc, col, c)
    return acc


def dense_vector(f, d, length):
    out = [f.zero()] * length
    for i, v in d.items():
        out[i] = v
    return out


def echelon(f, columns, tails=True):
    """Insert sparse columns in order, from any iterable: a generator is
    consumed column by column, so a rank-only echelon never holds them.

    Returns the echelon, the pivot columns (those that joined: exactly the
    RREF pivot columns) and ``{free column: kernel tail}``.  With ``tails``
    each column enters with its identity tail, so the echelon can
    ``solve`` and a free column's tail is 1 there and 0 at every other
    free column, i.e. the canonical kernel vector read off the RREF.
    Without, the kernel is empty and the echelon answers rank questions
    and takes further insertions only.
    """
    ech = SparseEchelon(f)
    pivots, kernel = [], {}
    one = f.one()
    for j, col in enumerate(columns):
        out = ech.insert(col, {j: one} if tails else None)
        if out is None:
            pivots.append(j)
        elif tails:
            kernel[j] = out
    return ech, pivots, kernel


def kernel_basis(m: Matrix):
    """Basis of the right kernel, as raw-value column vectors.

    The basis is the canonical one read off the RREF: one vector per free
    column, with a 1 in the free coordinate and 0 at the other free ones.
    """
    return sparse_kernel_basis(m.field, m.sparse_columns())


def sparse_kernel_basis(f, columns):
    """:func:`kernel_basis` of the matrix whose columns are the sparse dicts
    ``columns``, without forming it."""
    _, _, kernel = echelon(f, columns)
    return [dense_vector(f, kv, len(columns)) for kv in kernel.values()]


def solve_linear(m: Matrix, b):
    """One solution of ``m x = b`` with free variables set to 0, or None."""
    if len(b) != m.rows:
        raise MalformedInput("right-hand side length differs from row count")
    f = m.field
    ech = echelon(f, m.sparse_columns())[0]
    x = ech.solve(f.nonzeros([f.coerce(v) for v in b]))
    return None if x is None else dense_vector(f, x, m.cols)


def invert(m: Matrix):
    """Inverse matrix, or None when the rank is deficient."""
    if m.rows != m.cols:
        raise MalformedInput("inverse of a non-square matrix")
    f = m.field
    n = m.rows
    ech = echelon(f, m.sparse_columns())[0]
    if ech.rank < n:
        return None
    cols = [dense_vector(f, ech.solve({i: f.one()}), n) for i in range(n)]
    return Matrix(f, cols, _raw=True).transpose()


def independent_columns(f, columns):
    """The sparse columns that are not in the span of the ones before
    them, i.e. at the RREF pivot positions."""
    columns = list(columns)
    return [columns[j] for j in echelon(f, columns, tails=False)[1]]
