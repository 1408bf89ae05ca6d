"""Structure-constant algebras, their elements, and linear maps on them.

An :class:`Algebra` stores a sparse multiplication tensor: ``structure``
maps a basis pair ``(i, j)`` to the nonzero components of ``e_i * e_j``.
Associativity and the unit law are checked exhaustively on construction,
so everything downstream may assume them.
"""

from __future__ import annotations

from .errors import MalformedInput, RoleViolation
from .fields import Scalar
from .linalg import (Matrix, column_space_basis, invert, kernel_basis,
                     linear_combination, mismatches, solve_linear, sum_product)

ROLE_GENERAL = "general"
ROLE_ENDOMORPHISM = "endomorphism"
ROLE_DERIVATION = "derivation"


class Algebra:
    """Finite-dimensional unital associative algebra in a fixed basis."""

    __slots__ = ("field", "dim", "basis_names", "structure", "unit",
                 "_pairs_into", "_cache")

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
            raw = field.coerce(c)
            if field.is_zero(raw):
                continue
            cell = table.setdefault((i, j), {})
            cell[k] = field.add(cell.get(k, field.zero()), raw)
        self.structure = {
            ij: tuple(sorted((k, v) for k, v in cell.items() if not field.is_zero(v)))
            for ij, cell in table.items()
        }
        self.structure = {ij: terms for ij, terms in self.structure.items() if terms}
        self.unit = tuple(field.coerce(c) for c in unit)
        if len(self.unit) != dim:
            raise MalformedInput("unit vector has wrong length")
        # reverse lookup: k -> [(i, j, c)] with e_i e_j ∋ c e_k (used by bar complexes)
        self._pairs_into = None
        self._cache = {}
        if check:
            self._check_unit()
            self._check_associativity()

    # --- construction-time checks -------------------------------------------
    def _check_unit(self):
        # L_1 = R_1 = I; the witness is the first basis element either misses
        one = Element(self, self.unit, _raw=True)
        ident = Matrix.identity(self.field, self.dim)
        bad = mismatches(left_mult_matrix(one), ident) \
            + mismatches(right_mult_matrix(one), ident)
        if bad:
            i = min(c for _, c in bad)
            raise MalformedInput(f"unit law fails on basis element {i}")

    def _check_associativity(self):
        one = self.field.one()
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.mul_basis(i, j)
                for k in range(self.dim):
                    left = self._mul_terms(ij, ((k, one),))
                    right = self._mul_terms(((i, one),), self.mul_basis(j, k))
                    if left != right:
                        raise MalformedInput(
                            f"associativity fails on basis triple ({i},{j},{k})")

    # --- raw product helpers ---------------------------------------------------
    def mul_basis(self, i, j):
        """e_i * e_j as a tuple of (k, c) terms."""
        return self.structure.get((i, j), ())

    def _mul_terms(self, left, right):
        """Product of two sparse (index, coefficient) term tuples, as sorted terms."""
        f = self.field
        acc = {}
        for (m, c) in left:
            for (t, d) in right:
                cd = f.mul(c, d)
                for (s, e) in self.mul_basis(m, t):
                    f.add_entry(acc, s, f.mul(cd, e))
        return tuple(sorted(acc.items()))

    def mul_raw(self, a, b):
        """Product of two raw coefficient vectors."""
        f = self.field
        out = [f.zero()] * self.dim
        for i, ai in enumerate(a):
            if f.is_zero(ai):
                continue
            for j, bj in enumerate(b):
                if f.is_zero(bj):
                    continue
                cij = f.mul(ai, bj)
                for (k, c) in self.mul_basis(i, j):
                    out[k] = f.add(out[k], f.mul(cij, c))
        return out

    def _basis_vec(self, i):
        v = [self.field.zero()] * self.dim
        v[i] = self.field.one()
        return v

    def pairs_into(self, k):
        """All (i, j, c) with coefficient c of e_k in e_i e_j nonzero."""
        if self._pairs_into is None:
            rev = {m: [] for m in range(self.dim)}
            for (i, j), terms in self.structure.items():
                for (m, c) in terms:
                    rev[m].append((i, j, c))
            self._pairs_into = {m: tuple(v) for m, v in rev.items()}
        return self._pairs_into[k]

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
        raw = self.field.coerce(c)
        return Element(self, [self.field.mul(raw, u) for u in self.unit], _raw=True)

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
        return (isinstance(other, Algebra) and self.field == other.field
                and self.dim == other.dim and self.basis_names == other.basis_names
                and self.structure == other.structure and self.unit == other.unit)

    def __hash__(self):
        return hash((self.field, self.dim, self.basis_names))

    def __repr__(self):
        return f"Algebra(dim={self.dim}, field={self.field!r})"


class Element:
    """An algebra element as a coefficient vector over the algebra's basis."""

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
    def coeffs(self):
        return tuple(Scalar(self.algebra.field, c) for c in self._coeffs)

    @property
    def raw(self):
        return self._coeffs

    def _check_mate(self, other):
        if not isinstance(other, Element) or other.algebra != self.algebra:
            raise MalformedInput("elements from different algebras")

    def __add__(self, other):
        self._check_mate(other)
        f = self.algebra.field
        return Element(self.algebra,
                       [f.add(a, b) for a, b in zip(self._coeffs, other._coeffs)],
                       _raw=True)

    def __sub__(self, other):
        self._check_mate(other)
        f = self.algebra.field
        return Element(self.algebra,
                       [f.sub(a, b) for a, b in zip(self._coeffs, other._coeffs)],
                       _raw=True)

    def __neg__(self):
        f = self.algebra.field
        return Element(self.algebra, [f.neg(a) for a in self._coeffs], _raw=True)

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
        f = self.algebra.field
        raw = f.coerce(c)
        return Element(self.algebra, [f.mul(raw, a) for a in self._coeffs], _raw=True)

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
        f = self.algebra.field
        return all(f.is_zero(c) for c in self._coeffs)

    def __eq__(self, other):
        return (isinstance(other, Element) and other.algebra == self.algebra
                and other._coeffs == self._coeffs)

    def __hash__(self):
        return hash((self.algebra, self._coeffs))

    def __str__(self):
        f = self.algebra.field
        parts = []
        for name, c in zip(self.algebra.basis_names, self._coeffs):
            if f.is_zero(c):
                continue
            cs = f.format(c)
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
    and the unit, ``derivation`` must satisfy the Leibniz law.
    """

    __slots__ = ("algebra", "matrix", "role")

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
        inv = invert(self.matrix)
        if inv is None:
            raise MalformedInput("map is not invertible")
        role = ROLE_ENDOMORPHISM if self.role == ROLE_ENDOMORPHISM else ROLE_GENERAL
        return LinearMap(self.algebra, inv, role, check=False)

    def is_invertible(self):
        return invert(self.matrix) is not None

    def power(self, n):
        if n < 0:
            return self.inverse().power(-n)
        out = LinearMap.identity(self.algebra)
        for _ in range(n):
            out = out.compose(self)
        return out

    def __add__(self, other):
        return LinearMap(self.algebra, self.matrix + other.matrix, check=False)

    def __sub__(self, other):
        return LinearMap(self.algebra, self.matrix - other.matrix, check=False)

    def scale(self, c):
        return LinearMap(self.algebra, self.matrix.scale(c), check=False)

    def __eq__(self, other):
        return (isinstance(other, LinearMap) and other.algebra == self.algebra
                and other.matrix == self.matrix)

    def __hash__(self):
        return hash((self.algebra, self.matrix))

    def is_identity(self):
        return self.matrix == Matrix.identity(self.algebra.field, self.algebra.dim)

    def __repr__(self):
        return f"LinearMap(role={self.role}, {self.matrix!r})"


# ---------------------------------------------------------------------------
# spec operations

def multiply(a: Element, b: Element) -> Element:
    if a.algebra != b.algebra:
        raise MalformedInput("elements from different algebras")
    return a * b


def _mult_matrix(a: Element, left):
    """L_a (left) or R_a, read off the structure tensor: column j of L_a is
    Σ_i a_i·e_i e_j and column j of R_a is Σ_i a_i·e_j e_i."""
    A = a.algebra
    f = A.field
    n = A.dim
    coeffs = a.raw
    data = [[f.zero()] * n for _ in range(n)]
    for (i, j), terms in A.structure.items():
        x, col = (coeffs[i], j) if left else (coeffs[j], i)
        if f.is_zero(x):
            continue
        for (k, c) in terms:
            data[k][col] = f.add(data[k][col], f.mul(x, c))
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


def center_basis(A: Algebra):
    """Canonical basis of {z : z e_i = e_i z for all i} (commutator kernel)."""
    ker = kernel_basis(Matrix.block(
        A.field, [[left_mult_matrix(e) - right_mult_matrix(e)]
                  for e in A.basis_elements()]))
    return [Element(A, v, _raw=True) for v in ker]


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
    cols = []
    # column j of L_{e_i} − R_{τ(e_i)} is e_i·e_j − e_j·τ(e_i)
    for i, ei in enumerate(A.basis_elements()):
        ti = ei if twist is None else Element(A, twist.matrix.column(i), _raw=True)
        diff = left_mult_matrix(ei) - right_mult_matrix(ti)
        for j in range(A.dim):
            v = diff.column(j)
            if any(not f.is_zero(c) for c in v):
                cols.append(v)
    if not cols:
        return []
    basis = column_space_basis(Matrix.from_columns(f, cols))
    return [Element(A, v, _raw=True) for v in basis]


def endomorphism_witness(A: Algebra, m: Matrix):
    """None if m is an algebra endomorphism, else a failing witness.

    Checks U·1 = 1, then U·L_{e_i} = L_{U e_i}·U for each i: column j of
    either side is U(e_i e_j) and U(e_i)·U(e_j).  The witness is the first
    failing pair (i, j).
    """
    if m.rows != A.dim or m.cols != A.dim:
        raise MalformedInput("map matrix must be dim x dim")
    if m.apply(list(A.unit)) != list(A.unit):
        return "unit"
    for i, ei in enumerate(A.basis_elements()):
        lhs = m * left_mult_matrix(ei)
        rhs = left_mult_matrix(Element(A, m.column(i), _raw=True)) * m
        bad = mismatches(lhs, rhs)
        if bad:
            return (i, min(j for _, j in bad))
    return None


def is_endomorphism(A: Algebra, m: Matrix) -> bool:
    return endomorphism_witness(A, m) is None


def derivation_witness(A: Algebra, m: Matrix):
    """None if m satisfies the Leibniz law on all basis pairs, else (i, j).

    Checks D·L_{e_i} = L_{D e_i} + L_{e_i}·D for each i: column j of either
    side is D(e_i e_j) and D(e_i)·e_j + e_i·D(e_j).
    """
    if m.rows != A.dim or m.cols != A.dim:
        raise MalformedInput("map matrix must be dim x dim")
    for i, ei in enumerate(A.basis_elements()):
        li = left_mult_matrix(ei)
        lhs = m * li
        rhs = left_mult_matrix(Element(A, m.column(i), _raw=True)) + li * m
        bad = mismatches(lhs, rhs)
        if bad:
            return (i, min(j for _, j in bad))
    return None


def is_derivation(A: Algebra, m: Matrix) -> bool:
    return derivation_witness(A, m) is None


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


def product_embed(P: Algebra, A: Algebra, el: Element, offset: int) -> Element:
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


def restrict_element(Ap: Algebra, A: Algebra, el: Element) -> Element:
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
