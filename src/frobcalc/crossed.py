"""Twisted crossed products A ⋊_α G and their induced pairing.

Basis order is group-major: index g·dim(A) + i stands for e_i ⋊ g, which
makes the gh = e pairing blocks of the Gram matrix visible as
anti-diagonal blocks.
"""

from __future__ import annotations

from .algebra import Algebra, LinearMap, ROLE_ENDOMORPHISM, right_mult_matrix
from .calculus import jacobian
from .errors import MalformedInput
from .frobenius import FrobeniusStructure
from .groups import GroupData
from .linalg import Matrix, sparse_combination


class GroupAction:
    """One algebra automorphism per group element; an honest action."""

    __slots__ = ("group", "algebra", "maps")

    def __init__(self, group: GroupData, algebra: Algebra, maps):
        self.group = group
        self.algebra = algebra
        self.maps = list(maps)
        if len(self.maps) != group.order:
            raise MalformedInput("need one map per group element")
        for u in self.maps:
            if u.algebra != algebra or u.role != ROLE_ENDOMORPHISM:
                raise MalformedInput("action maps must be algebra endomorphisms")
            if not u.is_invertible():
                raise MalformedInput("action maps must be invertible")
        if not self.maps[group.identity].is_identity():
            raise MalformedInput("identity element must act as the identity map")
        for g in range(group.order):
            for h in range(group.order):
                if self.maps[g].compose(self.maps[h]).matrix \
                        != self.maps[group.mul(g, h)].matrix:
                    raise MalformedInput(
                        f"action fails to be a homomorphism at ({g},{h})")

    def __call__(self, g) -> LinearMap:
        return self.maps[g]


class TwoCocycle:
    """m x m table of nonzero scalars with the associativity 2-cocycle law."""

    __slots__ = ("group", "field", "table")

    def __init__(self, group: GroupData, field, table):
        self.group = group
        self.field = field
        m = group.order
        if len(table) != m or any(len(r) != m for r in table):
            raise MalformedInput("cocycle table must be order x order")
        self.table = [[field.coerce(v) for v in row] for row in table]
        if any(len(field.nonzeros(row)) != m for row in self.table):
            raise MalformedInput("cocycle values must be nonzero")
        for g in range(m):
            for h in range(m):
                for k in range(m):
                    lhs = field.mul(self.table[h][k],
                                    self.table[g][group.mul(h, k)])
                    rhs = field.mul(self.table[group.mul(g, h)][k],
                                    self.table[g][h])
                    if lhs != rhs:
                        raise MalformedInput(
                            f"2-cocycle law fails at witness ({g},{h},{k})")

    def __call__(self, g, h):
        return self.table[g][h]

    @staticmethod
    def trivial(group: GroupData, field):
        one = field.one()
        return TwoCocycle(group, field,
                          [[one] * group.order for _ in range(group.order)])

    @staticmethod
    def from_coboundary(group: GroupData, field, beta):
        """α(g,h) = β(g)β(h)β(gh)⁻¹ for nonzero scalars β; always a cocycle."""
        beta = [field.coerce(b) for b in beta]
        if len(field.nonzeros(beta)) != len(beta):
            raise MalformedInput("coboundary data must be nonzero")
        m = group.order
        table = [[field.mul(field.mul(beta[g], beta[h]),
                            field.inv(beta[group.mul(g, h)]))
                  for h in range(m)] for g in range(m)]
        return TwoCocycle(group, field, table)


def build_crossed_product(A: Algebra, G: GroupData, action: GroupAction,
                          alpha: TwoCocycle) -> Algebra:
    """(a⋊g)(b⋊h) = α(g,h)·a·g(b) ⋊ gh, unit α(e,e)⁻¹·1⋊e."""
    if action.algebra != A or action.group is not G or alpha.group is not G:
        raise MalformedInput("action and cocycle must match the algebra and group")
    if alpha.field != A.field:
        raise MalformedInput("cocycle values must live in the algebra's field")
    f = A.field
    n = A.dim
    names = [f"{nm}|g{g}" for g in range(G.order) for nm in A.basis_names]
    triples = []
    for g in range(G.order):
        # e_i·g(e_j) = Σ_b U_g[b][j]·e_i·e_b
        ug = action(g).matrix.sparse_columns()
        prods = [[sparse_combination(f, A.left_products(i), col) for col in ug]
                 for i in range(n)]
        for h in range(G.order):
            c_gh, gh = alpha(g, h), G.mul(g, h)
            triples += [(g * n + i, h * n + j, gh * n + k, f.mul(c_gh, v))
                        for i in range(n) for j in range(n)
                        for k, v in prods[i][j].items()]
    e = G.identity
    inv_aee = f.inv(alpha(e, e))
    unit = [f.zero()] * (n * G.order)
    for i, c in enumerate(A.unit):
        unit[e * n + i] = f.mul(inv_aee, c)
    return Algebra(f, n * G.order, names, triples, unit)


def crossed_form(F: FrobeniusStructure, G: GroupData, action: GroupAction,
                 alpha: TwoCocycle) -> Matrix:
    """⟨⟨a⋊g, b⋊h⟩⟩ = α(g,h)·⟨a, g(b)⟩·[gh = e]."""
    # ⟨e_i, g(e_j)⟩ is entry (i, j) of G·U_g; block (g, g⁻¹) is α(g, g⁻¹)·G·U_g
    blocks = [[None] * G.order for _ in range(G.order)]
    for g in range(G.order):
        h = G.inverse[g]
        blocks[g][h] = (F.gram * action(g).matrix).scale(alpha(g, h))
    return Matrix.block(F.algebra.field, blocks)


def predicted_nakayama(F: FrobeniusStructure, G: GroupData, action: GroupAction,
                       alpha: TwoCocycle, crossed: Algebra) -> LinearMap:
    """Σ(a⋊g) = [α(g,g⁻¹)/α(g⁻¹,g)]·(σ(a)·g(σ(jac_g))) ⋊ g.

    jac_g is the Jacobian of the automorphism by which g acts; the group
    element is applied to the sigma-image of that Jacobian (the reading
    confirmed by the mandatory equality with the directly computed map).
    """
    f = F.algebra.field
    # σ(e_i)·tail is column i of R_tail·S; block (g, g) is ratio·R_tail·S
    blocks = [[None] * G.order for _ in range(G.order)]
    for g in range(G.order):
        ratio = f.div(alpha(g, G.inverse[g]), alpha(G.inverse[g], g))
        tail = action(g)(F.sigma(jacobian(F, action(g))))
        blocks[g][g] = (right_mult_matrix(tail) * F.sigma.matrix).scale(ratio)
    return LinearMap(crossed, Matrix.block(f, blocks), ROLE_ENDOMORPHISM)
