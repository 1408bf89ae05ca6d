"""Builders for the example families, each bundled with its bilinear form.

Every builder returns a carrier object exposing ``algebra`` and ``gram``
plus whatever named constructors the family supports (quantum-plane
automorphisms, skew partials on exterior algebras, block maps on trivial
extensions, ...).  The carriers are what the verification suites and the
CLI gallery registry consume.
"""

from __future__ import annotations

from itertools import combinations, product

from .algebra import (Algebra, Element, LinearMap, ROLE_DERIVATION,
                      ROLE_ENDOMORPHISM, inner_automorphism, left_mult_matrix)
from .errors import BudgetExceeded, MalformedInput
from .fields import Field
from .groups import GroupData, symmetric_group_3
from .hochschild import _coboundary_columns
from .linalg import (Matrix, invert, linear_combination,
                     sparse_kernel_basis, sum_product)

# ---------------------------------------------------------------------------
# bounded construction


def _charge_construction(name, dim, constants, budget, reads=1):
    """Raise BudgetExceeded, before anything is built, when an algebra's
    structure constants, each read ``reads`` times by the associativity
    check, plus the dim² entries of a dense map or form on it exceed
    ``budget``; None is no budget."""
    if budget is not None and reads * constants + dim * dim > budget:
        times = f" read {reads} times each" if reads > 1 else ""
        raise BudgetExceeded(f"{name} needs {constants} structure constants{times} "
                             f"and dim² = {dim * dim} entries, budget {budget}")


# ---------------------------------------------------------------------------
# generic forms


def trace_form_gram(A: Algebra) -> Matrix:
    """Gram matrix of (a, b) ↦ tr(L_{ab}); degenerate unless strongly separable."""
    f, n = A.field, A.dim
    # tr L_{e_k} = Σ_j [e_j](e_k e_j), then (e_i, e_j) = Σ_k [e_k](e_i e_j)·tr L_{e_k},
    # both over the nonzero products only
    traces = [f.zero()] * n
    for (k, j), terms in A.structure.items():
        for m, c in terms:
            if m == j:
                traces[k] = f.add(traces[k], c)
    data = [[f.zero()] * n for _ in range(n)]
    for (i, j), terms in A.structure.items():
        for k, c in terms:
            data[i][j] = f.add(data[i][j], f.mul(c, traces[k]))
    return Matrix(f, data, _raw=True)


# ---------------------------------------------------------------------------
# exterior algebras


class ExteriorGallery:
    """Exterior algebra on n generators, monomial basis in graded-lex order."""

    def __init__(self, n, field):
        if n < 1:
            raise MalformedInput("need at least one generator")
        self.name = f"exterior({n})"
        self.n = n
        self.field = field
        self.subsets = sorted((tuple(s) for r in range(n + 1)
                               for s in combinations(range(n), r)),
                              key=lambda s: (len(s), s))
        self.index = {s: i for i, s in enumerate(self.subsets)}
        names = ["1"] + ["^".join(f"x{i+1}" for i in s) for s in self.subsets[1:]]
        dim = 1 << n
        triples = []
        for si, S in enumerate(self.subsets):
            for ti, T in enumerate(self.subsets):
                if set(S) & set(T):
                    continue
                sign = self._merge_sign(S, T)
                out = self.index[tuple(sorted(S + T))]
                triples.append((si, ti, out, field.from_int(sign)))
        unit = [field.one()] + [field.zero()] * (dim - 1)
        self.algebra = Algebra(field, dim, names, triples, unit)
        # ⟨x^S, x^T⟩ is nonzero only at T = Sᶜ
        g = [[field.zero()] * dim for _ in range(dim)]
        for si, S in enumerate(self.subsets):
            T = tuple(i for i in range(n) if i not in S)
            g[si][self.index[T]] = field.from_int(self._merge_sign(S, T))
        self.gram = Matrix(field, g, _raw=True)

    @staticmethod
    def _merge_sign(S, T):
        inv = sum(1 for s in S for t in T if s > t)
        return -1 if inv % 2 else 1

    # degree bookkeeping ----------------------------------------------------
    def degree(self, idx):
        return len(self.subsets[idx])

    def odd_indices(self):
        return [i for i in range(len(self.subsets)) if self.degree(i) % 2 == 1]

    def generator(self, i):
        return self.algebra.basis_element(self.index[(i,)])

    def monomial(self, subset):
        return self.algebra.basis_element(self.index[tuple(sorted(subset))])

    def is_odd_element(self, el: Element) -> bool:
        f = self.field
        return all(self.degree(i) % 2 == 1 for i in f.nonzeros(el.raw))

    def is_odd_preserving(self, u: LinearMap) -> bool:
        """u(V) contained in the odd part."""
        return all(self.is_odd_element(u(self.generator(i))) for i in range(self.n))

    # skew partials ----------------------------------------------------------
    def partial(self, i) -> LinearMap:
        """Left skew derivation with ∂(x_j) = δ_ij on generators."""
        f = self.field
        cols = []
        for S in self.subsets:
            v = [f.zero()] * self.algebra.dim
            if i in S:
                pos = S.index(i)
                rest = tuple(x for x in S if x != i)
                v[self.index[rest]] = f.from_int(-1 if pos % 2 else 1)
            cols.append(v)
        return LinearMap(self.algebra, Matrix.from_columns(f, cols))

    # automorphism constructors ---------------------------------------------
    def from_generator_images(self, images) -> LinearMap:
        """Multiplicative extension of x_i ↦ images[i]."""
        f = self.field
        cols = []
        for S in self.subsets:
            el = self.algebra.unit_element()
            for i in S:
                el = el * images[i]
            cols.append(el.raw)
        return LinearMap(self.algebra, Matrix.from_columns(f, cols),
                         ROLE_ENDOMORPHISM)

    def phi(self, fmat) -> LinearMap:
        """Grading-preserving automorphism induced by an invertible map on V."""
        if not isinstance(fmat, Matrix):
            fmat = Matrix(self.field, fmat)
        if fmat.rows != self.n or fmat.cols != self.n:
            raise MalformedInput("phi expects an n x n matrix")
        if invert(fmat) is None:
            raise MalformedInput("phi expects an invertible matrix")
        return self.from_generator_images(self._images(fmat))

    def _images(self, fmat):
        """f(x_j) = Σ_i fmat[i][j]·x_i for each generator x_j."""
        gens = [self.generator(i) for i in range(self.n)]
        return [self.algebra.combination(zip(fmat.column(j), gens))
                for j in range(self.n)]

    def gamma(self, i, lam, alpha) -> LinearMap:
        """x_i ↦ x_i + λ·x^α for a 3-subset α; other generators fixed."""
        alpha = tuple(sorted(alpha))
        if len(alpha) != 3 or len(set(alpha)) != 3:
            raise MalformedInput("alpha must be a 3-element subset")
        images = [self.generator(j) for j in range(self.n)]
        images[i] = images[i] + self.monomial(alpha).scale(lam)
        return self.from_generator_images(images)

    def iota(self, a: Element) -> LinearMap:
        """Inner automorphism by 1 + a for odd a."""
        if not self.is_odd_element(a):
            raise MalformedInput("iota expects an odd element")
        return inner_automorphism(self.algebra.unit_element() + a)

    def det_on_generators(self, fmat) -> "Element":
        """det f as a scalar: f(x_1)···f(x_n) = det(f)·x_1∧…∧x_n, so det f is
        the last coefficient of the product of the generators' images."""
        if not isinstance(fmat, Matrix):
            fmat = Matrix(self.field, fmat)
        if fmat.rows != self.n or fmat.cols != self.n:
            raise MalformedInput("det_on_generators expects an n x n matrix")
        top = self.algebra.unit_element()
        for image in self._images(fmat):
            top = top * image
        return self.algebra.scalar_element(top.raw[-1])

    def jac_gamma_expected(self, i, lam, alpha) -> Element:
        """Closed form for the twisted Jacobian of gamma_{i,λ,α}.

        For i in α the value is 1 − (−1)^pos·λ·(wedge of the two remaining
        generators), pos the position of i in α; it inverts the skew-partial
        determinant 1 + λ·∂_i(x^α).
        """
        alpha = tuple(sorted(alpha))
        one = self.algebra.unit_element()
        if i not in alpha:
            return one
        pos = alpha.index(i)
        rest = tuple(x for x in alpha if x != i)
        coeff = self.field.coerce(lam)
        if pos % 2 == 0:
            coeff = self.field.neg(coeff)
        return one + self.monomial(rest).scale(coeff)

    def random_odd_element(self, rng):
        """Random element of the odd part (small coefficients)."""
        f = self.field
        v = [f.zero()] * self.algebra.dim
        for i in self.odd_indices():
            v[i] = f.random(rng, 2)
        return Element(self.algebra, v, _raw=True)


def exterior(n, field=None, *, require_odd_char=True, budget=None):
    field = field or Field.rationals()
    if require_odd_char and field.characteristic == 2:
        raise MalformedInput("exterior gallery needs characteristic != 2")
    # dim² = 4^n alone exceeds a budget below 2^n: no need to form 3^n
    if budget is not None and n > budget.bit_length():
        raise BudgetExceeded(f"exterior({n}) needs dim² = 4^{n} entries, "
                             f"budget {budget}")
    _charge_construction(f"exterior({n})", 1 << n, 3 ** n, budget)
    return ExteriorGallery(n, field)


# ---------------------------------------------------------------------------
# quantum complete intersection of dimension 4


class QciGallery:
    """k<x,y>/(x², y², yx − q·xy) with the top-coefficient form."""

    def __init__(self, q, field):
        f = field
        q = f.coerce(q)
        if f.is_zero(q):
            raise MalformedInput("q must be nonzero")
        self.name = f"qci({f.format(q)})"
        self.field = f
        self.q = q
        names = ["1", "x", "y", "xy"]
        triples = [(0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 3, 1),
                   (1, 0, 1, 1), (2, 0, 2, 1), (3, 0, 3, 1),
                   (1, 2, 3, 1), (2, 1, 3, q)]
        unit = [1, 0, 0, 0]
        self.algebra = Algebra(f, 4, names, triples, unit)
        z = f.zero()
        one = f.one()
        self.gram = Matrix(f, [
            [z, z, z, one],
            [z, z, one, z],
            [z, q, z, z],
            [one, z, z, z],
        ], _raw=True)

    @property
    def x(self):
        return self.algebra.basis_element(1)

    @property
    def y(self):
        return self.algebra.basis_element(2)

    @property
    def xy(self):
        return self.algebra.basis_element(3)

    def alpha(self, a, b, c, d) -> LinearMap:
        """Automorphism x ↦ ax + c·xy, y ↦ by + d·xy (a, b nonzero)."""
        f = self.field
        a, b, c, d = (f.coerce(v) for v in (a, b, c, d))
        if f.is_zero(a) or f.is_zero(b):
            raise MalformedInput("alpha needs a and b nonzero")
        z = f.zero()
        cols = [[f.one(), z, z, z], [z, a, z, c], [z, z, b, d],
                [z, z, z, f.mul(a, b)]]
        return LinearMap(self.algebra, Matrix.from_columns(f, cols),
                         ROLE_ENDOMORPHISM)

    def delta(self, a, b, c, d) -> LinearMap:
        """Derivation x ↦ ax + c·xy, y ↦ by + d·xy."""
        f = self.field
        a, b, c, d = (f.coerce(v) for v in (a, b, c, d))
        z = f.zero()
        cols = [[z] * 4, [z, a, z, c], [z, z, b, d], [z, z, z, f.add(a, b)]]
        return LinearMap(self.algebra, Matrix.from_columns(f, cols),
                         ROLE_DERIVATION)

    def jac_expected(self, a, b, c, d) -> Element:
        """ab + d·x + q⁻¹c·y."""
        f = self.field
        a, b, c, d = (f.coerce(v) for v in (a, b, c, d))
        return Element(self.algebra,
                       [f.mul(a, b), d, f.div(c, self.q), f.zero()], _raw=True)

    def div_expected(self, a, b, c, d) -> Element:
        """(a + b) + q⁻¹d·x + c·y."""
        f = self.field
        a, b, c, d = (f.coerce(v) for v in (a, b, c, d))
        return Element(self.algebra,
                       [f.add(a, b), f.div(d, self.q), c, f.zero()], _raw=True)


def qci(q, field=None):
    field = field or Field.rationals()
    return QciGallery(q, field)


# ---------------------------------------------------------------------------
# small bases for trivial extensions


def ground_field_algebra(field=None):
    """The ground field k as a one-dimensional algebra."""
    return Algebra(field or Field.rationals(), 1, ["1"], [(0, 0, 0, 1)], [1])


def dual_numbers(field=None):
    """k[t]/(t^2)."""
    return Algebra(field or Field.rationals(), 2, ["1", "t"],
                   [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)], [1, 0])


# ---------------------------------------------------------------------------
# trivial extensions B ⊕ DB (optionally twisted by an automorphism of B)


class TrivialExtensionGallery:
    """B ⊕ DB with dual-part square zero; symmetric when untwisted.

    Basis: the basis of B first, then the dual basis in matching index
    order, so block maps on B ⊕ DB are literal 2x2 block matrices.
    """

    def __init__(self, B: Algebra, tau: LinearMap | None = None):
        self.B = B
        f = B.field
        n = B.dim
        self.field = f
        self.tau = tau
        if tau is not None:
            if tau.algebra != B or tau.role != ROLE_ENDOMORPHISM:
                raise MalformedInput("tau must be an endomorphism of B")
            if not tau.is_invertible():
                raise MalformedInput("tau must be invertible")
        self.name = "trivial-ext" if tau is None else "twisted-trivial-ext"
        names = list(B.basis_names) + [f"{nm}*" for nm in B.basis_names]
        triples = [(i, j, k, c) for (i, j), terms in B.structure.items()
                   for k, c in terms]
        tmat = tau.matrix if tau is not None else Matrix.identity(f, n)
        for i, ti in enumerate(tmat.sparse_columns()):
            # e_i · e_j* = Σ_m [coeff of e_j in e_m·τ(e_i)] e_m*
            triples += [(i, n + j, n + m, c)
                        for m, col in B.mult_columns(ti, False).items()
                        for j, c in col.items()]
            # e_j* · e_i = Σ_m [coeff of e_j in e_i·e_m] e_m*
            triples += [(n + j, i, n + m, c)
                        for m, col in B.left_products(i).items()
                        for j, c in col.items()]
        unit = list(B.unit) + [f.zero()] * n
        self.algebra = Algebra(f, 2 * n, names, triples, unit)
        self.gram = Matrix.block(f, [[None, tmat.transpose()],
                                     [Matrix.identity(f, n), None]])

    # embeddings ---------------------------------------------------------------
    def embed(self, x: Element) -> Element:
        f = self.field
        return Element(self.algebra, list(x.raw) + [f.zero()] * self.B.dim, _raw=True)

    def embed_dual(self, lam) -> Element:
        """lam: functional on B as a coefficient vector on the dual basis."""
        f = self.field
        lam = [f.coerce(c) for c in lam]
        return Element(self.algebra, [f.zero()] * self.B.dim + lam, _raw=True)

    def split(self, el: Element):
        n = self.B.dim
        return (Element(self.B, el.raw[:n], _raw=True), list(el.raw[n:]))

    def from_blocks(self, a, b, c, d) -> LinearMap:
        """Assemble a block map [[a, b], [c, d]], validated as an endomorphism."""
        a, b, c, d = (blk if blk is None or isinstance(blk, Matrix)
                      else Matrix(self.field, blk) for blk in (a, b, c, d))
        return LinearMap(self.algebra, Matrix.block(self.field, [[a, b], [c, d]]),
                         ROLE_ENDOMORPHISM)

    def u_z(self, z: Element) -> LinearMap:
        """diag(id, m_zᵀ) for a central unit z of B."""
        mz = left_mult_matrix(z)
        return self.from_blocks(Matrix.identity(self.field, self.B.dim), None,
                                None, mz.transpose())

    def u_delta(self, delta_mat) -> LinearMap:
        """Unipotent [[id, 0], [δ, id]] for a derivation δ: B → DB."""
        ident = Matrix.identity(self.field, self.B.dim)
        return self.from_blocks(ident, None, delta_mat, ident)

    def lift(self, theta: LinearMap) -> LinearMap:
        """diag(θ, θ^{-T}) for an automorphism θ of B (untwisted case)."""
        return self.from_blocks(theta.matrix, None, None,
                                theta.inverse().matrix.transpose())

    def t_part(self, u: LinearMap) -> Element:
        """The B-component the Jacobian of u must equal, read off block d:
        Σ_m 1_m·(row m of d)."""
        n = self.B.dim
        return Element(self.B, linear_combination(
            self.field, zip(self.B.unit, (r[n:] for r in u.matrix.data[n:])), n),
            _raw=True)

    def tau_part(self, u: LinearMap):
        """τ(x) = c(x)(1) as a dual-basis coefficient vector, read off block c:
        Σ_m 1_m·(row m of c)."""
        n = self.B.dim
        return linear_combination(
            self.field, zip(self.B.unit, (r[:n] for r in u.matrix.data[n:])), n)

    def derivation_space_to_dual(self):
        """Basis of Der(B, DB) as n x n matrices (columns δ(e_i) on dual basis).

        δ is a derivation into the untwisted DB, (b·λ)(v) = λ(vb) and
        (λ·b)(v) = λ(bv), exactly when [[0, 0], [δ, 0]] is a 1-cocycle of
        the untwisted B ⊕ DB (pairs with a DB factor give 0 = 0), so the
        basis is the canonical kernel of that extension's cached d¹ on the
        columns (n + k)·2n + a of the unknowns D[k][a], in that order.  It
        depends on B alone and is kept in B's cache.
        """
        B, f, n = self.B, self.field, self.B.dim
        cached = B._cache.get("derivations-to-dual")
        if cached is None:
            ext = self if self.tau is None else shared_trivial_extension(B)
            cols = _coboundary_columns(ext.algebra, 1)
            kernel = sparse_kernel_basis(f, [cols[(n + k) * 2 * n + a]
                                             for k in range(n) for a in range(n)])
            cached = B._cache["derivations-to-dual"] = tuple(
                Matrix(f, [v[k * n:(k + 1) * n] for k in range(n)], _raw=True)
                for v in kernel)
        return cached


def trivial_extension(B: Algebra, tau: LinearMap | None = None):
    return TrivialExtensionGallery(B, tau)


def shared_trivial_extension(B: Algebra):
    """The untwisted trivial extension of B, built once per B and kept in
    B's cache: the verification gallery and the Connes image test share it."""
    ext = B._cache.get("trivial-extension")
    if ext is None:
        ext = B._cache["trivial-extension"] = trivial_extension(B)
    return ext


# ---------------------------------------------------------------------------
# truncated polynomial algebra k[X]/(X^p) in characteristic p


class CyclicGallery:
    """k[X]/(X^p) over a field of characteristic p, alternating-sign form."""

    def __init__(self, p, field):
        self.name = f"cyclic({p})"
        self.p = p
        self.field = field
        f = field
        names = ["1", "x"] + [f"x{i}" for i in range(2, p)]
        triples = [(i, j, i + j, 1) for i in range(p) for j in range(p - i)]
        unit = [1] + [0] * (p - 1)
        self.algebra = Algebra(f, p, names, triples, unit)
        g = [[f.from_int((-1) ** (i + j)) if i + j < p else f.zero()
              for j in range(p)] for i in range(p)]
        self.gram = Matrix(f, g, _raw=True)

    @property
    def x(self):
        return self.algebra.basis_element(1)

    def valid_f(self, coeffs) -> bool:
        f = self.field
        coeffs = [f.coerce(c) for c in coeffs]
        return (len(coeffs) == self.p and f.is_zero(coeffs[0])
                and not f.is_zero(coeffs[1]))

    def all_valid_f(self):
        """Every radical generator f (f0 = 0, f1 ≠ 0), lazily, in
        lexicographic order of (f1, ..., f_{p−1})."""
        f = self.field
        elems = f.elements()
        nonzero = list(f.nonzeros(elems).values())
        for lead, *rest in product(nonzero, *[elems] * (self.p - 2)):
            yield [f.zero(), lead, *rest]

    def u_f(self, coeffs) -> LinearMap:
        """The automorphism x ↦ f for f in rad \\ rad² (f0 = 0, f1 ≠ 0)."""
        if not self.valid_f(coeffs):
            raise MalformedInput("f must have zero constant term and f1 != 0")
        fel = Element(self.algebra, coeffs)
        cols, power = [], self.algebra.unit_element()
        for _ in range(self.p):
            cols.append(power.raw)
            power = power * fel
        return LinearMap(self.algebra, Matrix.from_columns(self.field, cols),
                         ROLE_ENDOMORPHISM)

    def mu(self, el: Element):
        """Σ (−1)^i a_i, i.e. the pairing of el against 1 (raw scalar)."""
        f = self.field
        return sum_product(f, [f.from_int((-1) ** i) for i in range(self.p)], el.raw)

    def juf_expected(self, coeffs) -> Element:
        """μ(f^{p−1}) + Σ_{i≥1} (μ(f^{p−1−i}) + μ(f^{p−i}))·x^i."""
        f = self.field
        fel = Element(self.algebra, coeffs)
        powers = [self.algebra.unit_element()]
        for _ in range(self.p):
            powers.append(powers[-1] * fel)
        mus = [self.mu(pw) for pw in powers]
        out = [mus[self.p - 1]]
        for i in range(1, self.p):
            out.append(f.add(mus[self.p - 1 - i], mus[self.p - i]))
        return Element(self.algebra, out, _raw=True)


def cyclic(p, field=None, *, budget=None):
    field = field or Field.prime(p)
    if field.characteristic != p:
        raise MalformedInput("field characteristic must equal p")
    # k[X]/(X^p) checks associativity against up to p columns per product,
    # p³/2 reads in all
    _charge_construction(f"cyclic({p})", p, p * (p + 1) // 2, budget, reads=p)
    return CyclicGallery(p, field)


# ---------------------------------------------------------------------------
# matrix algebras and group algebras with the trace form


class SimpleGallery:
    def __init__(self, name, algebra, gram):
        self.name = name
        self.algebra = algebra
        self.gram = gram
        self.field = algebra.field


def matrix_algebra(m, field=None, *, budget=None):
    field = field or Field.rationals()
    f = field
    n = m * m
    _charge_construction(f"matrix({m})", n, m ** 3, budget)
    names = [f"E{i+1}{j+1}" for i in range(m) for j in range(m)]
    # E_ij·E_jl = E_il, the only nonzero products
    triples = [(i * m + j, j * m + l, i * m + l, 1)
               for i in range(m) for j in range(m) for l in range(m)]
    unit = [0] * n
    for i in range(m):
        unit[i * m + i] = 1
    A = Algebra(f, n, names, triples, unit)
    return SimpleGallery(f"matrix({m})", A, trace_form_gram(A))


def group_algebra(G: GroupData, field=None):
    f = field or Field.rationals()
    m = G.order
    names = [f"g{i}" if i != G.identity else "e" for i in range(m)]
    triples = [(i, j, G.mul(i, j), 1) for i in range(m) for j in range(m)]
    unit = [0] * m
    unit[G.identity] = 1
    A = Algebra(f, m, names, triples, unit)
    return SimpleGallery(f"group({m})", A, trace_form_gram(A))


def s3_group_algebra(field=None):
    item = group_algebra(symmetric_group_3(), field)
    item.name = "groupS3"
    return item
