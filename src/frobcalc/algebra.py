"""Structure-constant algebras, their elements, and linear maps on them.

An :class:`Algebra` stores a sparse multiplication tensor: ``structure``
maps a basis pair ``(i, j)`` to the nonzero components of ``e_i * e_j``.
Associativity and the unit law are checked on construction for every
basis triple, so everything downstream may assume them.  The checks, the
role checks on maps and the center and commutator systems read only the
nonzero products: the tensor is also indexed by row (e_i·e_j by j) and
by column (e_i·e_j by i), and a product of sparse vectors is a run of the
field's fused ``axpy`` over those indexes.
"""

from __future__ import annotations

from .errors import MalformedInput, RoleViolation
from .linalg import (Matrix, dense_vector, echelon, independent_columns,
                     invert, linear_combination, solve_linear, sparse_combination,
                     sparse_kernel_basis, sum_product)

ROLE_GENERAL = "general"
ROLE_ENDOMORPHISM = "endomorphism"
ROLE_DERIVATION = "derivation"


class Algebra:
    """Finite-dimensional unital associative algebra in a fixed basis."""

    __slots__ = ("field", "dim", "basis_names", "structure", "unit",
                 "_rows", "_cols", "_cache")

    def __init__(self, field, dim, basis_names, structure, unit, *, check=True):
        """``structure`` is an iterable of ``(i, j, k, c)`` with e_i e_j ∋ c·e_k."""
        self.field = field
        self.dim = dim
        self.basis_names = tuple(basis_names)
        if len(self.basis_names) != dim or dim <= 0:
            raise MalformedInput("need one basis name per dimension, dim >= 1")
        table = {}
        for (i, j, k, c) in structure:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise MalformedInput(f"structure index ({i},{j},{k}) out of range")
            field.add_entry(table.setdefault((i, j), {}), k, field.coerce(c))
        self.structure = {ij: tuple(sorted(cell.items()))
                          for ij, cell in table.items() if cell}
        # _rows[i][j] and _cols[j][i] are both e_i·e_j as a sparse dict
        self._rows, self._cols = {}, {}
        for (i, j), terms in self.structure.items():
            prod = dict(terms)
            self._rows.setdefault(i, {})[j] = prod
            self._cols.setdefault(j, {})[i] = prod
        self.unit = tuple(field.coerce(c) for c in unit)
        if len(self.unit) != dim:
            raise MalformedInput("unit vector has wrong length")
        self._cache = {}
        if check:
            self._check_unit()
            self._check_associativity()

    # --- construction-time checks -------------------------------------------
    def _check_unit(self):
        # 1·e_j = e_j·1 = e_j; the witness is the first basis element either misses
        u = self.field.nonzeros(self.unit)
        lefts, rights = self.mult_columns(u, True), self.mult_columns(u, False)
        one = self.field.one()
        for j in range(self.dim):
            if lefts.get(j, {}) != {j: one} or rights.get(j, {}) != {j: one}:
                raise MalformedInput(f"unit law fails on basis element {j}")

    def _check_associativity(self):
        """(e_i e_j) e_k = e_i (e_j e_k) on every basis triple; the witness is
        the first failing triple in (i, j, k) order.

        Only triples with a nonzero product can fail.  When e_i e_j = 0 the
        triple fails exactly when e_i·(e_j e_k) ≠ 0, which needs e_j e_k ≠ 0:
        those are read off R_{e_j e_k} for each nonzero product.  The triples
        with e_i e_j ≠ 0 are then walked in order, k over the columns where
        L_{e_i e_j} or e_j·(−) is nonzero, up to the first failure.
        """
        first = min(((i, j, k) for (j, k) in self.structure
                     for i in self.mult_columns(self._rows[j][k], False)
                     if j not in self._rows.get(i, ())), default=None)
        for i, j in sorted(self.structure):
            if first is not None and (i, j) > first[:2]:
                break
            k = self._first_failing_k(i, j)
            if k is not None:
                first = (i, j, k)
                break
        if first is not None:
            raise MalformedInput(
                "associativity fails on basis triple ({},{},{})".format(*first))

    def _first_failing_k(self, i, j):
        """The least k with (e_i e_j)·e_k ≠ e_i·(e_j e_k), for e_i e_j ≠ 0."""
        row_i, row_j = self._rows[i], self._rows.get(j, {})
        lhs = self.mult_columns(row_i[j], True)
        return next((k for k in sorted(lhs.keys() | row_j.keys())
                     if lhs.get(k, {}) != sparse_combination(
                         self.field, row_i, row_j.get(k, {}))), None)

    # --- raw product helpers ---------------------------------------------------
    def left_products(self, i):
        """The nonzero products e_i·e_j as ``{j: sparse dict}``."""
        return self._rows.get(i, {})

    def right_products(self, j):
        """The nonzero products e_i·e_j as ``{i: sparse dict}``."""
        return self._cols.get(j, {})

    def mult_columns(self, x, left):
        """The nonzero columns of L_x (left) or R_x as ``{b: sparse dict}``
        for a sparse vector x: column b is x·e_b or e_b·x."""
        f = self.field
        index = self._rows if left else self._cols
        cols = {}
        for a, xa in x.items():
            for b, t in index.get(a, {}).items():
                f.axpy(cols.setdefault(b, {}), t, xa)
        return {b: c for b, c in cols.items() if c}

    def mul_raw(self, a, b):
        """Product of two raw coefficient vectors: Σ aᵢ·(e_i·b) over the
        aᵢ ≠ 0, each e_i·b read off the nonzero products e_i·e_j."""
        f = self.field
        bs, acc = f.nonzeros(b), {}
        for i, ai in f.nonzeros(a).items():
            f.axpy(acc, sparse_combination(f, self.left_products(i), bs), ai)
        return dense_vector(f, acc, self.dim)

    def _basis_vec(self, i):
        v = [self.field.zero()] * self.dim
        v[i] = self.field.one()
        return v

    # --- element construction ---------------------------------------------------
    def element(self, coeffs):
        return Element(self, coeffs)

    def zero_element(self):
        return Element(self, [self.field.zero()] * self.dim, _raw=True)

    def basis_element(self, i):
        return Element(self, self._basis_vec(i), _raw=True)

    def unit_element(self):
        return Element(self, list(self.unit), _raw=True)

    def scalar_element(self, c):
        return self.unit_element().scale(c)

    def basis_elements(self):
        return [self.basis_element(i) for i in range(self.dim)]

    def combination(self, terms):
        """Σ cᵢ·xᵢ over the (cᵢ, xᵢ) in ``terms``, xᵢ elements of this algebra."""
        def raws():
            for c, x in terms:
                if not isinstance(x, Element) or x.algebra != self:
                    raise MalformedInput("elements from different algebras")
                yield c, x.raw
        return Element(self, linear_combination(self.field, raws(), self.dim),
                       _raw=True)

    def __eq__(self, other):
        if other is self:
            return True
        return (isinstance(other, Algebra) and self.field == other.field
                and self.dim == other.dim and self.basis_names == other.basis_names
                and self.structure == other.structure and self.unit == other.unit)

    def __hash__(self):
        return hash((self.field, self.dim, self.basis_names))

    def __repr__(self):
        return f"Algebra(dim={self.dim}, field={self.field!r})"


class Element:
    """An algebra element as a coefficient vector over the algebra's basis.

    ``+``, ``-``, negation and ``scale`` are one :meth:`Algebra.combination`
    each; ``*`` by an element is :meth:`Algebra.mul_raw`."""

    __slots__ = ("algebra", "_coeffs")

    def __init__(self, algebra, coeffs, *, _raw=False):
        self.algebra = algebra
        if _raw:
            self._coeffs = tuple(coeffs)
        else:
            f = algebra.field
            self._coeffs = tuple(f.coerce(c) for c in coeffs)
        if len(self._coeffs) != algebra.dim:
            raise MalformedInput("coefficient vector has wrong length")

    @property
    def raw(self):
        return self._coeffs

    def _check_mate(self, other):
        if not isinstance(other, Element) or other.algebra != self.algebra:
            raise MalformedInput("elements from different algebras")

    def __add__(self, other):
        return self.algebra.combination([(1, self), (1, other)])

    def __sub__(self, other):
        return self.algebra.combination([(1, self), (-1, other)])

    def __neg__(self):
        return self.algebra.combination([(-1, self)])

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_mate(other)
            return Element(self.algebra,
                           self.algebra.mul_raw(self._coeffs, other._coeffs),
                           _raw=True)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        return self.algebra.combination([(c, self)])

    def __pow__(self, n):
        if n < 0:
            inv = inverse_of(self)
            if inv is None:
                raise ZeroDivisionError("negative power of a non-unit")
            return inv ** (-n)
        out = self.algebra.unit_element()
        for _ in range(n):
            out = out * self
        return out

    def is_zero(self):
        return not self.algebra.field.nonzeros(self._coeffs)

    def __eq__(self, other):
        return (isinstance(other, Element) and other.algebra == self.algebra
                and other._coeffs == self._coeffs)

    def __hash__(self):
        return hash((self.algebra, self._coeffs))

    def __str__(self):
        f = self.algebra.field
        parts = []
        for i, c in f.nonzeros(self._coeffs).items():
            name, cs = self.algebra.basis_names[i], f.format(c)
            if "," in cs:
                cs = f"({cs})"
            parts.append(name if cs == "1" else f"{cs}*{name}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<{self}>"


class LinearMap:
    """A linear endo-map of the underlying space, with a declared role.

    The matrix columns are the images of the basis vectors.  Role claims
    are verified on construction: ``endomorphism`` must preserve products
    and the unit, ``derivation`` must satisfy the Leibniz law.  The inverse
    is eliminated once, on first use, and kept (False when singular); it
    does not point back at its map.  ``_action`` keeps what the map needs
    to act on cochains, filled on first use by
    ``hochschild._action_slots``: whether it is the identity, and the slot
    maps of its columns and of its inverse's rows.
    """

    __slots__ = ("algebra", "matrix", "role", "_inverse", "_action")

    def __init__(self, algebra, matrix, role=ROLE_GENERAL, *, check=True):
        self.algebra = algebra
        if not isinstance(matrix, Matrix):
            matrix = Matrix(algebra.field, matrix)
        if matrix.field != algebra.field:
            raise MalformedInput("matrix field differs from algebra field")
        if matrix.rows != algebra.dim or matrix.cols != algebra.dim:
            raise MalformedInput("map matrix must be dim x dim")
        self.matrix = matrix
        self.role = role
        self._inverse = self._action = None
        if check:
            if role == ROLE_ENDOMORPHISM:
                w = endomorphism_witness(algebra, matrix)
                if w is not None:
                    raise RoleViolation(f"not an algebra endomorphism: fails at {w}")
            elif role == ROLE_DERIVATION:
                w = derivation_witness(algebra, matrix)
                if w is not None:
                    raise RoleViolation(f"not a derivation: fails at {w}")
            elif role != ROLE_GENERAL:
                raise MalformedInput(f"unknown role {role!r}")

    @staticmethod
    def identity(algebra):
        return LinearMap(algebra, Matrix.identity(algebra.field, algebra.dim),
                         ROLE_ENDOMORPHISM, check=False)

    def __call__(self, el):
        if not isinstance(el, Element) or el.algebra != self.algebra:
            raise MalformedInput("element from a different algebra")
        return Element(self.algebra, self.matrix.apply(el.raw), _raw=True)

    def compose(self, other):
        """self ∘ other."""
        if other.algebra != self.algebra:
            raise MalformedInput("maps on different algebras")
        role = ROLE_GENERAL
        if self.role == other.role == ROLE_ENDOMORPHISM:
            role = ROLE_ENDOMORPHISM
        return LinearMap(self.algebra, self.matrix * other.matrix, role, check=False)

    def inverse(self):
        if not self.is_invertible():
            raise MalformedInput("map is not invertible")
        return self._inverse

    def is_invertible(self):
        if self._inverse is None:
            inv = invert(self.matrix)
            role = ROLE_ENDOMORPHISM if self.role == ROLE_ENDOMORPHISM else ROLE_GENERAL
            self._inverse = inv is not None and LinearMap(self.algebra, inv, role,
                                                          check=False)
        return self._inverse is not False

    def power(self, n):
        if n < 0:
            return self.inverse().power(-n)
        out = LinearMap.identity(self.algebra)
        for _ in range(n):
            out = out.compose(self)
        return out

    def __eq__(self, other):
        return (isinstance(other, LinearMap) and other.algebra == self.algebra
                and other.matrix == self.matrix)

    def __hash__(self):
        return hash((self.algebra, self.matrix))

    def is_identity(self):
        return self.matrix.is_identity()

    def __repr__(self):
        return f"LinearMap(role={self.role}, {self.matrix!r})"


# ---------------------------------------------------------------------------
# spec operations

def _mult_matrix(a: Element, left):
    """L_a (left) or R_a, its columns read off the structure tensor: column
    j of L_a is Σ_i a_i·e_i e_j and column j of R_a is Σ_i a_i·e_j e_i."""
    A = a.algebra
    f = A.field
    data = [[f.zero()] * A.dim for _ in range(A.dim)]
    for j, col in A.mult_columns(f.nonzeros(a.raw), left).items():
        for k, v in col.items():
            data[k][j] = v
    return Matrix(f, data, _raw=True)


def left_mult_matrix(a: Element) -> Matrix:
    """Matrix of b ↦ a·b; column j is a·e_j."""
    return _mult_matrix(a, True)


def right_mult_matrix(a: Element) -> Matrix:
    """Matrix of b ↦ b·a; column j is e_j·a."""
    return _mult_matrix(a, False)


def inverse_of(a: Element):
    """Two-sided inverse, or None if a is not a unit."""
    A = a.algebra
    L = left_mult_matrix(a)
    b = solve_linear(L, list(A.unit))
    if b is None:
        return None
    binv = Element(A, b, _raw=True)
    if (a * binv).raw != A.unit or (binv * a).raw != A.unit:
        return None
    return binv


def _intertwiner_columns(A: Algebra, u: LinearMap | None):
    """The columns, in order, of the stacked blocks L_{u(e_i)} − R_{e_i}, u
    None the identity (sparse rows {a: 1}): block i of column c is
    u(e_i)·e_c − e_c·e_i = Σ_a U[a][i]·e_a e_c − e_c e_i at rows i·dim + r,
    summed from the nonzero products."""
    f = A.field
    n = A.dim
    urows = (u.matrix.sparse_rows() if u is not None
             else [{a: f.one()} for a in range(n)])
    minus_one = f.neg(f.one())
    for c in range(n):
        blocks = {}
        for a, prod in A.right_products(c).items():
            for i, x in urows[a].items():
                f.axpy(blocks.setdefault(i, {}), prod, x)
        for i, prod in A.left_products(c).items():
            f.axpy(blocks.setdefault(i, {}), prod, minus_one)
        yield {i * n + r: v for i, block in blocks.items() for r, v in block.items()}


def intertwiner_basis(A: Algebra, u: LinearMap | None = None):
    """Canonical basis of {t : u(e_i)·t = t·e_i for all i}, u by default the
    identity, whose intertwiners are the center: the kernel of the stacked
    blocks, their columns taken in order as the stacked matrix has them."""
    columns = list(_intertwiner_columns(A, u))
    return [Element(A, v, _raw=True) for v in sparse_kernel_basis(A.field, columns)]


def center_basis(A: Algebra):
    """Canonical basis of {z : z e_i = e_i z for all i} (commutator kernel)."""
    return intertwiner_basis(A)


def center_dimension(A: Algebra) -> int:
    """dim Z(A), without a basis: dim minus the rank of the center's
    columns, streamed into an echelon without tails."""
    return A.dim - echelon(A.field, _intertwiner_columns(A, None), tails=False)[0].rank


def commutator_subspace(A: Algebra, twist: LinearMap | None = None):
    """Basis of span{a·b − b·τ(a)} over basis pairs; τ defaults to identity.

    Untwisted this is the usual commutator subspace [A, A]; with τ the
    induced automorphism it is the degree-0 boundary space of the
    right-twisted bimodule, whose quotient is the twisted H_0.
    """
    if twist is not None:
        if twist.algebra != A:
            raise MalformedInput("twist acts on a different algebra")
        if twist.role != ROLE_ENDOMORPHISM:
            raise RoleViolation("twist must be an endomorphism")
    f = A.field
    images = (twist.matrix if twist is not None
              else Matrix.identity(f, A.dim)).sparse_columns()
    minus_one = f.neg(f.one())

    def columns():
        # column j of L_{e_i} − R_{τ(e_i)} is e_i·e_j − e_j·τ(e_i)
        for i in range(A.dim):
            row, right = A.left_products(i), A.mult_columns(images[i], False)
            for j in sorted(row.keys() | right.keys()):
                v = dict(row.get(j, {}))
                f.axpy(v, right.get(j, {}), minus_one)
                if v:
                    yield v

    return [Element(A, dense_vector(f, v, A.dim), _raw=True)
            for v in independent_columns(f, columns())]


def endomorphism_witness(A: Algebra, m: Matrix):
    """None if m is an algebra endomorphism, else a failing witness.

    Checks U·1 = 1, then U(e_i e_j) = U(e_i)·U(e_j) on every basis pair,
    on the sparse images U(e_i): the right side is column j of L_{U e_i}·U.
    The witness is the first failing pair (i, j).
    """
    if m.rows != A.dim or m.cols != A.dim:
        raise MalformedInput("map matrix must be dim x dim")
    if m.apply(list(A.unit)) != list(A.unit):
        return "unit"
    images = dict(enumerate(m.sparse_columns()))
    for i in range(A.dim):
        row, left = A.left_products(i), A.mult_columns(images[i], True)
        for j in range(A.dim):
            if (sparse_combination(A.field, images, row.get(j, {}))
                    != sparse_combination(A.field, left, images[j])):
                return (i, j)
    return None


def derivation_witness(A: Algebra, m: Matrix):
    """None if m satisfies the Leibniz law on all basis pairs, else (i, j).

    Checks D(e_i e_j) = D(e_i)·e_j + e_i·D(e_j) on every basis pair, on the
    sparse images D(e_i); the witness is the first failing pair.
    """
    if m.rows != A.dim or m.cols != A.dim:
        raise MalformedInput("map matrix must be dim x dim")
    f = A.field
    one = f.one()
    images = dict(enumerate(m.sparse_columns()))
    for i in range(A.dim):
        row, left = A.left_products(i), A.mult_columns(images[i], True)
        for j in range(A.dim):
            rhs = sparse_combination(f, row, images[j])
            f.axpy(rhs, left.get(j, {}), one)
            if sparse_combination(f, images, row.get(j, {})) != rhs:
                return (i, j)
    return None


def ad(x: Element) -> LinearMap:
    """Inner derivation a ↦ xa − ax."""
    A = x.algebra
    return LinearMap(A, left_mult_matrix(x) - right_mult_matrix(x),
                     ROLE_DERIVATION, check=False)


def inner_automorphism(s: Element) -> LinearMap:
    """a ↦ s a s⁻¹; raises on a non-unit."""
    sinv = inverse_of(s)
    if sinv is None:
        raise MalformedInput("inner automorphism needs a unit")
    A = s.algebra
    return LinearMap(A, left_mult_matrix(s) * right_mult_matrix(sinv),
                     ROLE_ENDOMORPHISM, check=False)


def direct_product(A1: Algebra, A2: Algebra) -> Algebra:
    """Block-diagonal product algebra; unit (1, 1)."""
    if A1.field != A2.field:
        raise MalformedInput("factors over different fields")
    n1 = A1.dim
    names = [f"({nm},0)" for nm in A1.basis_names] + \
            [f"(0,{nm})" for nm in A2.basis_names]
    triples = []
    for (i, j), terms in A1.structure.items():
        for (k, c) in terms:
            triples.append((i, j, k, c))
    for (i, j), terms in A2.structure.items():
        for (k, c) in terms:
            triples.append((n1 + i, n1 + j, n1 + k, c))
    unit = list(A1.unit) + list(A2.unit)
    return Algebra(A1.field, n1 + A2.dim, names, triples, unit)


def product_embed(P: Algebra, el: Element, offset: int) -> Element:
    """Embed an element of a factor into the product at the given offset."""
    f = P.field
    v = [f.zero()] * P.dim
    for i, c in enumerate(el.raw):
        v[offset + i] = c
    return Element(P, v, _raw=True)


def block_map(P: Algebra, u1: LinearMap, u2: LinearMap, role=ROLE_GENERAL) -> LinearMap:
    """Blockwise map u1 × u2 on a direct product algebra."""
    if P.dim != u1.algebra.dim + u2.algebra.dim:
        raise MalformedInput("block sizes do not add up to the product dimension")
    return LinearMap(P, Matrix.block(P.field, [[u1.matrix, None], [None, u2.matrix]]),
                     role, check=(role != ROLE_GENERAL))


def extend_scalars(A: Algebra, ext) -> Algebra:
    """Reread a prime-field algebra over an extension of the same p."""
    from .fields import EXTENSION, PRIME
    if A.field.kind != PRIME:
        raise MalformedInput("extend_scalars starts from a prime-field algebra")
    if ext.kind != EXTENSION or ext.p != A.field.p:
        raise MalformedInput("extension must have the same characteristic")
    triples = [(i, j, k, ext.from_int(c))
               for (i, j), terms in A.structure.items() for (k, c) in terms]
    unit = [ext.from_int(c) for c in A.unit]
    return Algebra(ext, A.dim, A.basis_names, triples, unit)


def extend_element(AK: Algebra, el: Element) -> Element:
    return Element(AK, [AK.field.from_int(c) for c in el.raw], _raw=True)


def extend_map(AK: Algebra, u: LinearMap) -> LinearMap:
    return LinearMap(AK, extend_gram(AK, u.matrix), u.role, check=False)


def extend_gram(AK: Algebra, gram: Matrix) -> Matrix:
    data = [[AK.field.from_int(v) for v in row] for row in gram.data]
    return Matrix(AK.field, data, _raw=True)


def _powers(K, count):
    """a⁰, a¹, …, a^{count−1} for the generator a of an extension field."""
    gen = K.coerce([0, 1])
    out = [K.one()]
    for _ in range(count - 1):
        out.append(K.mul(out[-1], gen))
    return out


def _mult_block(Fp, K, c) -> Matrix:
    """M_c over F_p: the matrix of x ↦ c·x on 1, a, …, a^{k−1}; column t is c·a^t."""
    return Matrix.from_columns(Fp, [K.mul(c, x) for x in _powers(K, K.degree)])


def _restrict_matrix(Fp, K, m: Matrix) -> Matrix:
    """The F_p-matrix of an F_{p^k}-matrix: each entry c becomes the block M_c."""
    return Matrix.block(Fp, [[_mult_block(Fp, K, c) for c in row] for row in m.data])


def restrict_scalars(A: Algebra, base_field) -> Algebra:
    """View an F_{p^k}-algebra as an algebra over F_p.

    Basis element (i, s) stands for e_i·a^s with a the extension generator;
    the index order is algebra-major, so e_i·a^s is basis element i·k + s
    and its products are the columns of the restricted L_{a^s·e_i}.
    """
    from .fields import EXTENSION, PRIME
    K = A.field
    if K.kind != EXTENSION:
        raise MalformedInput("restrict_scalars starts from an extension-field algebra")
    if base_field.kind != PRIME or base_field.p != K.p:
        raise MalformedInput("base field must be F_p for the same p")
    k = K.degree
    names = [f"{nm}.a{s}" if s else nm for nm in A.basis_names for s in range(k)]
    lefts = [_restrict_matrix(base_field, K, left_mult_matrix(e.scale(x)))
             for e in A.basis_elements() for x in _powers(K, k)]
    # entry (r, c) of L_b is the coefficient of e_r in e_b·e_c
    triples = [(b, c, r, v) for b, lb in enumerate(lefts)
               for r, row in enumerate(lb.data) for c, v in enumerate(row) if v]
    unit = [comp for c in A.unit for comp in c]
    return Algebra(base_field, A.dim * k, names, triples, unit)


def restrict_element(Ap: Algebra, el: Element) -> Element:
    return Element(Ap, [comp for c in el.raw for comp in c], _raw=True)


def restrict_map(Ap: Algebra, A: Algebra, u: LinearMap) -> LinearMap:
    """An F_{p^k}-linear map, reread as an F_p-linear map on the big basis."""
    return LinearMap(Ap, _restrict_matrix(Ap.field, A.field, u.matrix),
                     u.role, check=False)


def restrict_gram(Ap: Algebra, A: Algebra, gram: Matrix, eps) -> Matrix:
    """Push an F_{p^k}-valued form down along a nonzero functional eps.

    ``eps`` is the coefficient vector of the functional on the power basis
    1, a, ..., a^{k-1}; the induced form is eps(a^{s+t}·⟨e_i, e_j⟩), so
    block (i, j) is W·M_{g_ij} with W[s][r] = eps(a^{s+r}).
    """
    K = A.field
    Fp = Ap.field
    k = K.degree
    eps = [c % K.p for c in eps]
    if len(eps) != k or all(c == 0 for c in eps):
        raise MalformedInput("eps must be a nonzero functional on F_{p^k}")
    powers = _powers(K, 2 * k - 1)
    W = Matrix(Fp, [[sum_product(Fp, eps, powers[s + r]) for r in range(k)]
                    for s in range(k)], _raw=True)
    return Matrix.block(Fp, [[W * _mult_block(Fp, K, g) for g in row]
                             for row in gram.data])
