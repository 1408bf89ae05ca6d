"""Bar-complex Hochschild cochains and chains.

A degree-p cochain is a :class:`Cochain`, the dictionary of its nonzero
values keyed by the flat coordinate k·n^p + J (J a p-tuple of basis
indices read base n, first index most significant); chains with
coefficients in M are flattened as (m, tuple).  Each differential is
defined once, as tables of face offsets, and read off them column-sparse
(the duality check reads b_{p+1}'s table transposed, with the form folded
in); neither has a dense copy.
d^p's columns are cached, since certificates and the duality check read
them again; b_p is only its face table, and its columns are streamed to
where they are read and never cached.  All rank/kernel/solve work goes
through ``linalg.echelon`` on the same dictionaries.  Each rank question
is asked of one echelon by insertion: cohomology representatives are the
cocycles that still join the echelon of the coboundaries.  Tails (the
combination of inserted columns a pivot stands for) are tracked only
where they are read, for kernel vectors and for solves; echelons used
for their rank alone carry none (b_{p+1} for H_p without a form, d^{p−1}
for HH^p), and only the cycles that join them are inserted.  Over Q an
echelon clears the denominators of each vector it takes and reduces on
integers, and a cocycle is tested as d(L·f) = 0, L·f the cochain with
its denominators cleared; a certificate runs every step on L·f and
divides by L once.  A monomial map acts on a cochain in one pass over
its nonzeros; any other map takes one mode product per digit.

Coefficients for homology are either the tautological bimodule or its
right-twist by the Nakayama map (left action untouched, right action
through sigma).  A Frobenius form makes DA ≅ A_σ as bimodules, so C^•(A, A)
is dual to C_•(A, A_σ) (Cartan–Eilenberg 1956, ch. IX; Van den Bergh
1998): ⟨z, c⟩ = Σ c[m·n^p + J]·⟨z(e_J), e_m⟩ has ⟨dz, c⟩ = ⟨z, bc⟩.  For
the twist of a validated form, H_p(A, A_σ) is read off the cocycles of
d^p: the boundaries are the chains that pair to zero with every cocycle,
and the representatives are the cycles whose pairing vectors still join
the echelon of the earlier ones.  The duality is checked exactly, on
every nonzero of both sides, one way for every form: G and G⁻¹ are folded
into b_{p+1}'s face table read transposed, and the columns it gives are
compared with d^p's cached columns as they are; b_{p+1} is never
eliminated.  Other coefficients eliminate b_{p+1} for its rank.  Either
way H_p is built once per (p, twist) and reused by the σ-action on H_p
and by the Connes image test, which reads H_1's coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra import (Algebra, Element, LinearMap, ROLE_ENDOMORPHISM,
                      left_mult_matrix)
from .errors import BudgetExceeded, InternalInconsistency, MalformedInput
from .frobenius import FrobeniusStructure
from .linalg import (Matrix, SparseEchelon, dense_vector, echelon,
                     linear_combination, sparse_combination,
                     sparse_kernel_basis, sum_product)

DEFAULT_BUDGET = 1 << 20

UNTWISTED = "A"
TWISTED = "A_sigma"


def _check_budget(A, p, budget):
    if A.dim ** (p + 2) > budget:
        raise BudgetExceeded(
            f"degree {p} needs {A.dim ** (p + 2)} coordinates, budget {budget}")


class Cochain:
    """A degree-p cochain A^{⊗p} → A: ``data`` maps the flat coordinate
    k·n^p + J to its raw value and never holds a zero.  Dense input comes
    in, coerced and checked, through :meth:`from_flat`."""

    __slots__ = ("algebra", "degree", "data")

    def __init__(self, algebra, degree, data):
        self.algebra = algebra
        self.degree = degree
        self.data = data

    @staticmethod
    def from_flat(algebra, degree, vec):
        """From the dense row-major vector: coordinate (k, J) at k·n^p + J."""
        f = algebra.field
        if degree < 0 or len(vec) != algebra.dim ** (degree + 1):
            raise MalformedInput("cochain vector length is inconsistent with degree")
        return Cochain(algebra, degree, f.nonzeros([f.coerce(v) for v in vec]))

    def as_linear_map(self, role="general") -> LinearMap:
        if self.degree != 1:
            raise MalformedInput("only degree-1 cochains are linear maps")
        n = self.algebra.dim
        flat = self.flatten()
        rows = [flat[k * n:(k + 1) * n] for k in range(n)]
        return LinearMap(self.algebra, Matrix(self.algebra.field, rows, _raw=True),
                         role)

    def flatten(self):
        """The dense row-major vector: coordinate (k, J) at k·n^p + J."""
        return dense_vector(self.algebra.field, self.data,
                            self.algebra.dim ** (self.degree + 1))

    def __sub__(self, other):
        f = self.algebra.field
        out = dict(self.data)
        f.axpy(out, other.data, f.neg(f.one()))
        return Cochain(self.algebra, self.degree, out)

    def __eq__(self, other):
        return (isinstance(other, Cochain) and other.algebra == self.algebra
                and other.degree == self.degree and other.data == self.data)

    def is_zero(self):
        return not self.data


@dataclass
class HomologyReport:
    degree: int
    dim_cycles: int
    dim_boundaries: int
    dim: int
    representatives: list = dc_field(default_factory=list)


# ---------------------------------------------------------------------------
# sparse columns of the differentials

def _coboundary_columns(A: Algebra, p):
    """Columns of d: C^p → C^{p+1} keyed by flat cochain coordinates (cached).

    Column k·n^p + I (I the index of J) collects, in this order, the terms
    e_i·f(J), then ∓f(…, e_u e_v, …) for each slot of J, then ±f(J)·e_i:
    offset lists shifted by I, by digit of J and by I·n.  The middle faces
    read the reverse index into[t] = [(u, v, c) : e_u·e_v ∋ c·e_t], built
    in one pass over the structure tensor in its insertion order."""
    cached = A._cache.get(("cob", p))
    if cached is not None:
        return cached
    f, n = A.field, A.dim
    add, neg = f.add_entry, f.neg
    npow, ncols_out = n ** p, n ** (p + 1)
    # e_i·e_j ∋ c·e_m is face 0 of k = j at (m, i, J) and the last face of
    # k = i at (m, J, j)
    first, last = [[] for _ in range(n)], [[] for _ in range(n)]
    for (i, j), terms in sorted(A.structure.items()):
        for m, c in terms:
            first[j].append((m * ncols_out + i * npow, c))
            last[i].append((m * ncols_out + j, neg(c) if p % 2 == 0 else c))
    into = [[] for _ in range(n)]
    for (u, v), terms in A.structure.items():
        for t, c in terms:
            into[t].append((u, v, c))
    # face j splits slot j−1 of J into (u, v): the p+1 digits of the output
    # are J[:j−1], u, v, J[j:], i.e. weights hi·n, hi, lo and 1
    mids = [(n ** (p - j + 1), n ** (p - j),
             [[(u * n ** (p - j + 1) + v * n ** (p - j), neg(c) if j % 2 else c)
               for u, v, c in pairs] for pairs in into])
            for j in range(1, p + 1)]
    cols = []
    for k in range(n):
        kbase = k * ncols_out
        for I in range(npow):
            # no two face-0 terms meet
            col = {off + I: c for off, c in first[k]}
            for hi, lo, faces in mids:
                base = kbase + I // hi * hi * n + I % lo
                for off, c in faces[I // lo % n]:
                    add(col, base + off, c)
            for off, c in last[k]:
                add(col, off + I * n, c)
            cols.append(col)
    A._cache[("cob", p)] = cols
    return cols


def _boundary_faces(A: Algebra, p, twist: Matrix | None):
    """The faces of b_p: M⊗A^{⊗p} → M⊗A^{⊗p-1} as offset tables (w, first,
    mids, last), w = n^{p−1}, cached per (p, twist), twist sigma's matrix
    or None.  Column m·n^p + I, I = a·w + tail = head·n + a′, collects face
    0 (m·a, through sigma when twisted), ``first[m][a]`` shifted by tail,
    each middle face (hi, lo, table) ±(…, a_j a_{j+1}, …), table[I // lo %
    n²] shifted by m·w + I // hi·hi/n + I % lo, and the last face ±a′·m,
    ``last[m][a′]`` shifted by head."""
    key = ("faces", p, twist)
    cached = A._cache.get(key)
    if cached is not None:
        return cached
    f, n, w = A.field, A.dim, A.dim ** (p - 1)

    def offsets(terms, weight, sign=0):
        return [(t * weight, f.neg(c) if sign else c) for t, c in terms.items()]

    # e_a·e_b is rows[a][b]; twisted, e_m·σ(e_a) = Σ_b S[b][a]·e_m·e_b
    rows = [A.left_products(a) for a in range(n)]
    S = None if twist is None else twist.sparse_columns()
    first = [[offsets(rows[m].get(a, {}) if S is None else
                      sparse_combination(f, rows[m], S[a]), w)
              for a in range(n)] for m in range(n)]
    # middle face j merges slots j−1 and j of J into t: the p−1 digits of
    # the output are J[:j−1], t, J[j+1:], i.e. weights hi/n, lo and 1
    mids = [(n ** (p - j + 1), n ** (p - j - 1),
             [offsets(rows[d // n].get(d % n, {}), n ** (p - j - 1), j % 2)
              for d in range(n * n)]) for j in range(1, p)]
    last = [[offsets(rows[a].get(m, {}), w, p % 2) for a in range(n)] for m in range(n)]
    return A._cache.setdefault(key, (w, first, mids, last))


def _stream_boundary(A: Algebra, p, twist: Matrix | None):
    """The columns of b_p one at a time from its face table
    (:func:`_boundary_faces`), never cached: each echelon of b_p takes
    them as they come, and :func:`verify_complex` keeps one degree's list
    while it applies it to the next."""
    w, first, mids, last = _boundary_faces(A, p, twist)
    n, add = A.dim, A.field.add_entry
    for m in range(n):
        mbase = m * w
        for I in range(n ** p):
            tail = I % w
            # no two face-0 terms meet
            col = {off + tail: c for off, c in first[m][I // w]}
            for hi, lo, faces in mids:
                base = mbase + I // hi * (hi // n) + I % lo
                for off, c in faces[I // lo % (n * n)]:
                    add(col, base + off, c)
            head = I // n
            for off, c in last[m][I % n]:
                add(col, off + head, c)
            yield col


def _boundary_rows(A: Algebra, p, twist: Matrix | None, grows, ginv):
    """The columns of Φ_p⁻¹∘b_pᵀ∘Φ_{p−1} (Φ as in :func:`_dual_pairing`, G's
    rows ``grows``, G⁻¹'s ``ginv``), which the chain-level duality makes
    d^{p−1}'s, read off b_p's face table transposed and never cached: for
    each K < n^{p−1} in turn, the n columns (k, K) as dicts.  Identity rows
    give b_p's own rows (m, K).  Face 0 and the last face are inverted per
    row block t and the form is folded in at table size: block k sums g·c·h,
    g = G[k][t], (m, off, c) an entry of block t, h = G⁻¹[m][k′], at (k′,
    off), so what G and G⁻¹ cancel goes before any column is built.  The
    middle faces keep their block (G·G⁻¹ = 1), inverted per output digit.
    A column is built as :func:`_coboundary_columns` builds one: offsets
    shifted by K and by K·n and digit lookups, the middle faces' terms
    summed once per K."""
    w, first, mids, last = _boundary_faces(A, p, twist)
    f, n = A.field, A.dim
    add, mul, npow = f.add_entry, f.mul, n * w
    # face 0 takes column (m, a, K) to row (t, K), the last face (m, K, a′):
    # row block t lists (m, a·w) and (m, a′), to be shifted by K and by K·n
    ends = []
    for table, weight in ((first, w), (last, 1)):
        inv = [[] for _ in range(n)]
        for m in range(n):
            for a, terms in enumerate(table[m]):
                for off, c in terms:
                    inv[off // w].append((m, a * weight, c))
        folded = []
        for k in range(n):
            acc = {}
            for t, g in grows[k].items():
                for m, off, c in inv[t]:
                    gc = mul(g, c)
                    for k2, h in ginv[m].items():
                        add(acc, k2 * npow + off, mul(gc, h))
            folded.append(acc.items())
        ends.append(folded)
    firsts, lasts = ends
    # middle face (hi, lo, table) takes column (m, pre, d, suf) to row
    # (m, pre, t, suf), which keeps its block: inverted per output digit t
    faces = []
    for hi, lo, table in mids:
        inv = [[] for _ in range(n)]
        for d, terms in enumerate(table):
            for off, c in terms:
                inv[off // lo].append((d * lo, c))
        faces.append((hi // n, hi, lo, inv))
    for K in range(w):
        # column (k, K) holds these shifted by its block, k·n^p
        middle = {}
        for hn, hi, lo, inv in faces:
            base = K // hn * hi + K % lo
            for off, c in inv[K // lo % n]:
                add(middle, base + off, c)
        head = K * n
        cols = []
        for k in range(n):
            base = k * npow
            col = {base + off: c for off, c in middle.items()}
            for off, c in firsts[k]:
                add(col, off + K, c)
            for off, c in lasts[k]:
                add(col, off + head, c)
            cols.append(col)
        yield cols


# ---------------------------------------------------------------------------
# sparse elimination

def _echelonize(field, cols, *, tails=False):
    # linalg.echelon by the name perfbench/layertrace.py spans (and
    # tests/test_hochschild.py calls)
    ech, _, kernel = echelon(field, cols, tails=tails)
    return ech, list(kernel.values())


def _representatives(ech, kernel, dim_bound, pairing=None):
    """The cycles in ``kernel`` that are independent modulo the boundaries.

    Each cycle is inserted into ``ech``: the echelon of the boundaries, or
    with ``pairing`` (see :func:`_dual_pairing`) an echelon that takes the
    cycle's pairing vector against the cocycles instead, which vanishes
    exactly on the boundaries.  Either way a cycle joins exactly when it
    is outside the span of the boundaries and the earlier cycles, so the
    count is dim(cycles) − ``dim_bound`` whenever the boundaries are
    cycles.  The i-th cycle to join carries the tail {i: 1}, so afterwards
    ``ech.solve`` gives a cycle's coordinates in Z/B against the
    representatives.  Without ``pairing``, a cycle whose last key (its
    free column) is a boundary pivot's row is a boundary plus earlier
    cycles and is skipped.
    """
    dim = len(kernel) - dim_bound
    f = ech.field
    one = f.one()
    reps = []
    for kv in kernel:
        if pairing is None and max(kv) in ech.pivots:
            continue
        vec = kv if pairing is None else sparse_combination(f, pairing, kv)
        if ech.insert(vec, {len(reps): one}) is None:
            reps.append(kv)
    if len(reps) != dim:
        raise InternalInconsistency("representative count differs from dimension")
    return reps


def _slot_map(images):
    """The map t ↦ images[t] (sparse dicts) as the mode products take it:
    (True, [(s − t, c)], {}) when each image is one term c·e_s (a monomial
    map, as every diagonal σ), else (False, images, None).  A monomial
    slot keeps its low-digit tables (:func:`_low_block`) in the dict."""
    if any(len(im) != 1 for im in images):
        return False, images, None
    return True, [(s - t, c) for t, im in enumerate(images) for s, c in im.items()], {}


def _action_slots(u: LinearMap, inverse=True):
    """(is u the identity, the slot map of u's columns, that of u⁻¹'s
    rows), derived on first use and kept on u (``LinearMap._action``), so
    acting by σ on many cochains reads σ's matrices once.  u⁻¹'s rows are
    derived on the first call that asks for them (``inverse``): the
    σ-action on homology reads σ's columns alone and inverts nothing, and
    the identity, whose action never reads them, keeps None.  A singular u
    raises MalformedInput on every call that asks for them and keeps
    nothing."""
    action = u._action
    if action is None:
        action = (u.is_identity(), _slot_map(u.matrix.sparse_columns()), None)
    identity, cols, rows = action
    if inverse and rows is None and not identity:
        action = identity, cols, _slot_map(u.inverse().matrix.sparse_rows())
    u._action = action
    return action


def _mode_product(fld, data, n, w, images):
    """``data`` with the map t ↦ images[t] (sparse dicts) applied to the
    digit of weight w of each flat key, read once: the n-mode product
    (Kolda & Bader 2009, §2.5), for maps that are not monomial (a monomial
    one acts by ``Field.monomial_mode``)."""
    mul, add = fld.mul, fld.add_entry
    out = {}
    for idx, val in data.items():
        t = idx // w % n
        for s, c in images[t].items():
            add(out, idx + (s - t) * w, mul(c, val))
    return out


def _low_block(fld, n, p, slot):
    """The monomial slot map on each of p digits as one table, entry J
    (J < n^p) being (J′ − J, c) when the map takes e_J to c·e_J′, built on
    first use and kept on the slot.  The table of p digits is the top
    digit's map and the kept table of the p − 1 below it, applied to the
    all-ones vector by one ``monomial_mode`` pass, which keeps key order:
    the J-th entry of the result is J's image."""
    kept = slot[2]
    table = kept.get(p)
    if table is None:
        if p == 0:
            table = [(0, fld.one())]
        else:
            w = n ** (p - 1)
            ones = dict.fromkeys(range(n * w), fld.one())
            image = fld.monomial_mode(ones, w, slot[1], _low_block(fld, n, p - 1, slot))
            table = [(K - J, c) for J, (K, c) in enumerate(image.items())]
        kept[p] = table
    return table


def _tensor_action(fld, data, n, p, low, top):
    """``data`` with the slot map ``low`` on each of the p low digits of
    every flat key and ``top`` on its top digit (weight n^p).  Two monomial
    slots act in one ``monomial_mode`` pass over the nonzeros, through the
    top digit's map and the kept table of the low ones (:func:`_low_block`);
    any other pair takes p + 1 mode products."""
    w = n ** p
    if low[0] and top[0]:
        return fld.monomial_mode(data, w, top[1], _low_block(fld, n, p, low))
    for i in range(p):
        data = _mode_product(fld, data, n, n ** i, low[1])
    return _mode_product(fld, data, n, w, top[1])


# ---------------------------------------------------------------------------
# public operations

def _resolve_twist(coeffs, sigma):
    if coeffs == UNTWISTED:
        return None
    if coeffs == TWISTED:
        if sigma is None:
            raise MalformedInput("twisted coefficients need the Nakayama map")
        return sigma.matrix
    raise MalformedInput(f"unknown coefficient choice {coeffs!r}")


def _coboundary_of(A, p, vec, budget):
    """d^p applied to the sparse p-cochain vec, as a sparse dict."""
    _check_budget(A, p, budget)
    return A.field.column_combination(_coboundary_columns(A, p), vec)


def apply_coboundary(A: Algebra, f: Cochain, budget=DEFAULT_BUDGET) -> Cochain:
    return Cochain(A, f.degree + 1, _coboundary_of(A, f.degree, f.data, budget))


def is_cocycle(A: Algebra, f: Cochain, budget=DEFAULT_BUDGET) -> bool:
    # d(L·f) = 0, L·f f with its denominators cleared: the same test, on ints
    vec, _ = A.field.clear_denominators(f.data)
    return not _coboundary_of(A, f.degree, vec, budget)


def cocycle_basis(A: Algebra, p, budget=DEFAULT_BUDGET):
    """Canonical basis of ker(d: C^p → C^{p+1}) as Cochain objects."""
    _check_budget(A, p, budget)
    f = A.field
    cols = _coboundary_columns(A, p)
    _, kernel = _echelonize(f, cols, tails=True)
    return [Cochain(A, p, k) for k in kernel]


def _cocycles(A: Algebra, p):
    """The canonical kernel of d^p as sparse dicts (cached): ``hh_dimension``
    and the dual route of :func:`_homology` read the same one, so callers
    must not mutate it.  ``cocycle_basis`` leaves it unfilled, so an
    algebra kept alive for its certificates does not keep the kernel too."""
    key = ("cocycles", p)
    kernel = A._cache.get(key)
    if kernel is None:
        cols = _coboundary_columns(A, p)
        kernel = A._cache[key] = _echelonize(A.field, cols, tails=True)[1]
    return kernel


def hh_dimension(A: Algebra, p, budget=DEFAULT_BUDGET) -> HomologyReport:
    """dim HH^p with deterministic cocycle representatives."""
    _check_budget(A, p, budget)
    f = A.field
    kernel = _cocycles(A, p)
    bech = SparseEchelon(f)
    if p > 0:
        bcols = _coboundary_columns(A, p - 1)
        bech, _ = _echelonize(f, bcols)
    dim_bound = bech.rank
    reps = _representatives(bech, kernel, dim_bound)
    return HomologyReport(p, len(kernel), dim_bound, len(reps),
                          [Cochain(A, p, dict(kv)) for kv in reps])


@dataclass
class _HomologyState:
    """H_p(A, M) as :func:`_homology` builds it once per (p, twist): the
    dimensions of cycles and boundaries, the representatives, and the
    echelon that gives a cycle its coordinates in Z/B.  On the dual route
    ``pairing`` is :func:`_dual_pairing`'s table and the echelon holds the
    representatives' pairing vectors; on the elimination route it is None
    and the echelon holds the boundaries and the representatives."""

    cycles: int
    boundaries: int
    reps: list
    echelon: SparseEchelon
    pairing: dict | None

    def coordinates(self, chain):
        """A chain's coordinates in Z/B against the representatives, as
        {index: value}, or None when it is not a cycle.  The pairing
        vanishes exactly on the boundaries, which are cycles, so a chain's
        pairing vector lies in the span of the cycles' ones exactly when
        the chain is a cycle."""
        if self.pairing is not None:
            chain = sparse_combination(self.echelon.field, self.pairing, chain)
        return self.echelon.solve(chain)


def _dual_pairing(A: Algebra, p, twist, form):
    """The cocycles z_i of d^p as a pairing with p-chains, {chain index:
    {i: Φ_p(z_i)[index]}}, once the chain-level duality Φ_{p+1}∘d^p =
    b_{p+1}ᵀ∘Φ_p has been checked entry by entry.

    Φ_p(f)[m·n^p + J] = Σ_k G[k][m]·f[k·n^p + J] = ⟨f(e_J), e_m⟩ is Gᵀ on
    the output digit.  ``form`` is a validated form and its inverse's rows,
    (G, G⁻¹ rows), so Φ_p is invertible, and by the identity d^p f = 0
    exactly when Φ_p f vanishes on im b_{p+1}: B_p is the set of chains c
    with ⟨z, c⟩ = Σ Φ_p(z)[i]·c[i] = 0 for every cocycle z.

    The check takes the columns of Φ_{p+1}⁻¹∘b_{p+1}ᵀ∘Φ_p from
    :func:`_boundary_rows`, the form folded into b_{p+1}'s face table, and
    compares each J's n of them with d^p's cached columns (k, J) as they
    are: no product on either side, for any G.  Both sides are read in
    full; a mismatch, as from a form whose Nakayama map is not ``twist``,
    raises before anything is cached.  Φ_p(z) is one ``monomial_mode``
    pass when G is monomial, else a mode product."""
    gram, ginv = form
    f, n, w = A.field, A.dim, A.dim ** p
    grows = gram.sparse_rows()
    dcols = _coboundary_columns(A, p)
    for J, cols in enumerate(_boundary_rows(A, p + 1, twist, grows, ginv)):
        if cols != dcols[J::w]:
            raise InternalInconsistency("chain-level duality failed")
    monomial, images, _ = _slot_map(grows)
    low = [(0, f.one())] * w
    pairing = {}
    for i, z in enumerate(_cocycles(A, p)):
        phi = (f.monomial_mode(z, w, images, low) if monomial
               else _mode_product(f, z, n, w, images))
        for idx, v in phi.items():
            pairing.setdefault(idx, {})[i] = v
    return pairing


def _homology(A: Algebra, p, twist):
    """The :class:`_HomologyState` of H_p(A, M), built once per (p, twist)
    and cached on the algebra; callers must not mutate it.

    The cycles are the canonical kernel of b_p, whose columns are streamed
    into its echelon and not kept.  For the twist of a validated Frobenius
    form (``make_frobenius`` records the form and its inverse's rows under
    σ's matrix) the boundaries, the representatives and the σ-action come
    from the cocycles of d^p by duality (:func:`_dual_pairing`): the form,
    folded into b_{p+1}'s face table, is checked once against d^p's cached
    columns, and b_{p+1} is never eliminated, since dim B_p = n^{p+1} −
    dim Z^p.  Untwisted coefficients and any twist without a form fall
    back to eliminating the streamed b_{p+1} for its rank alone; the two
    routes choose the same representatives and give the same
    coordinates.
    """
    key = ("hom", p, twist)
    state = A._cache.get(key)
    if state is not None:
        return state
    f = A.field
    form = None if twist is None else A._cache.get(("nakayama-form", twist))
    # the duality check runs before b_p is eliminated: run after it, the
    # rows of b_{p+1} went to fresh memory and not to what that
    # elimination freed, and the homology benchmark's peak RSS read +3.5 %
    pairing = None if form is None else _dual_pairing(A, p, twist, form)
    if p == 0:
        kernel = [{i: f.one()} for i in range(A.dim)]
    else:
        _, kernel = _echelonize(f, _stream_boundary(A, p, twist), tails=True)
    if pairing is None:
        ech, _ = _echelonize(f, _stream_boundary(A, p + 1, twist))
        bound = ech.rank
    else:
        bound, ech = A.dim ** (p + 1) - len(_cocycles(A, p)), SparseEchelon(f)
    reps = _representatives(ech, kernel, bound, pairing)
    state = A._cache[key] = _HomologyState(len(kernel), bound, reps, ech, pairing)
    return state


def homology_dimension(A: Algebra, p, coeffs=UNTWISTED,
                       sigma: LinearMap | None = None,
                       budget=DEFAULT_BUDGET) -> HomologyReport:
    """dim H_p(A, M) with chain representatives as sparse dicts
    {flat index m·n^p + J: raw value}, fresh on every call.  The budget is
    charged for b_{p+1}'s n^{p+2} columns, as ``hh_dimension`` charges d^p."""
    _check_budget(A, p, budget)
    twist = _resolve_twist(coeffs, sigma)
    state = _homology(A, p, twist)
    return HomologyReport(p, state.cycles, state.boundaries, len(state.reps),
                          [dict(kv) for kv in state.reps])


def cochain_action(u: LinearMap, f: Cochain) -> Cochain:
    """The twisted cochain a₁⊗...⊗a_p ↦ u(f(u⁻¹a₁ ⊗ ... ⊗ u⁻¹a_p)).

    ``u`` is an invertible endomorphism; its identity test and slot maps
    are the ones u keeps (:func:`_action_slots`), so acting by σ on many
    cochains eliminates σ once and reads its matrices once.  The action
    takes rows of u⁻¹ on the input digits (weights n⁰ … n^{p−1}) and
    columns of u on the output digit (weight n^p): one pass over the
    nonzeros of f when u is monomial, else p + 1 mode products
    (:func:`_tensor_action`)."""
    if u.role != ROLE_ENDOMORPHISM:
        raise MalformedInput("cochain action needs an invertible endomorphism")
    A = f.algebra
    if u.algebra != A:
        raise MalformedInput("map acts on a different algebra")
    fld, n, p = A.field, A.dim, f.degree
    identity, out_slot, in_slot = _action_slots(u)
    if identity:
        return Cochain(A, p, dict(f.data))
    return Cochain(A, p, _tensor_action(fld, f.data, n, p, in_slot, out_slot))


def triviality_certificate(F: FrobeniusStructure, f: Cochain,
                           budget=DEFAULT_BUDGET):
    """g of degree p−1 with f^σ − f = d(g), or None when no solution exists.

    A None return is a refutation event for the caller to surface; it is
    not an exception.  Requires d(f) = 0.

    Over Q every step runs on L·f, f with its denominators cleared once:
    the cocycle test d(L·f) = 0, the action, the difference L·(f^σ − f),
    the solve for g′ and its re-verification d(g′) = L·(f^σ − f).  Each is
    linear, so g = g′/L, divided once at the end, is the certificate of f.
    """
    A = F.algebra
    p = f.degree
    if p < 1:
        raise MalformedInput("certificates start at degree 1")
    fld = A.field
    vec, L = fld.clear_denominators(f.data)
    if _coboundary_of(A, p, vec, budget):
        raise MalformedInput("cochain is not a cocycle")
    Lf = Cochain(A, p, vec)
    rhs = cochain_action(F.sigma, Lf) - Lf
    if rhs.is_zero():
        return Cochain(A, p - 1, {})
    # the echelon of d^{p−1} depends on A alone: kept beside its columns
    key = ("certificate-echelon", p - 1)
    ech = A._cache.get(key)
    if ech is None:
        cols = _coboundary_columns(A, p - 1)
        ech = A._cache[key] = _echelonize(fld, cols, tails=True)[0]
    sol = ech.solve(rhs.data)
    if sol is None:
        return None
    if _coboundary_of(A, p - 1, sol, budget) != rhs.data:
        raise InternalInconsistency("certificate failed re-verification")
    return Cochain(A, p - 1, sol if L is None else fld.unscale(sol, L))


def main_theorem(F: FrobeniusStructure, p, budget=DEFAULT_BUDGET):
    """The main theorem in degree p ≥ 1, checked on the canonical basis of
    the cocycles Z^p: ``(dim Z^p, indices of the basis cocycles f with no
    g such that f^σ − f = d(g))``, the second list empty when it holds."""
    basis = cocycle_basis(F.algebra, p, budget)
    return len(basis), [i for i, f in enumerate(basis)
                        if triviality_certificate(F, f, budget) is None]


def sigma_action_on_homology(F: FrobeniusStructure, p, coeffs=UNTWISTED,
                             budget=DEFAULT_BUDGET) -> Matrix:
    """Matrix of the induced map on H_p in the deterministic basis.

    σ_M ⊗ σ^{⊗p} is applied to each representative by σ's columns on
    every digit, the slot map σ keeps (see :func:`_action_slots`): one
    pass over its nonzeros when σ is monomial, else p + 1 mode products
    (:func:`_tensor_action`).  The image gets its unique coordinates in
    Z/B from the cached homology (see :func:`_homology`)."""
    A = F.algebra
    fld, n = A.field, A.dim
    _check_budget(A, p, budget)
    twist = _resolve_twist(coeffs, F.sigma)
    state = _homology(A, p, twist)
    slot = _action_slots(F.sigma, inverse=False)[1]
    h = len(state.reps)
    data = [[fld.zero()] * h for _ in range(h)]
    for jdx, rep in enumerate(state.reps):
        sol = state.coordinates(_tensor_action(fld, rep, n, p, slot, slot))
        if sol is None:
            raise InternalInconsistency(
                "chain image failed to re-express in the homology basis")
        for idx, v in sol.items():
            data[idx][jdx] = v
    return Matrix(fld, data, _raw=True)


def duality_dims(F: FrobeniusStructure, pmax, budget=DEFAULT_BUDGET):
    """[(p, dim HH^p, dim H_p(A, twisted)), ...] for p ≤ pmax.

    Twisted H_p reads its boundaries off the cocycles of d^p, so both
    sides share dim Z^p; ``match`` still compares two eliminations, the
    rank of b_p (dim H_p = dim Z^p − rank b_p) against the rank of d^{p−1}
    (dim HH^p = dim Z^p − rank d^{p−1})."""
    out = []
    for p in range(pmax + 1):
        hh = hh_dimension(F.algebra, p, budget)
        hp = homology_dimension(F.algebra, p, TWISTED, F.sigma, budget)
        out.append({"degree": p, "cohomology": hh.dim, "twisted_homology": hp.dim,
                    "match": hh.dim == hp.dim})
    return out


def verify_complex(A: Algebra, pmax, sigma: LinearMap | None = None) -> bool:
    """d∘d = 0 and b∘b = 0 (both coefficient choices) up to degree pmax,
    each d^{p+1} charged against ``DEFAULT_BUDGET`` before it is built.

    b's columns are streamed degree by degree and applied to the list of
    the degree below, the only one held."""
    fld = A.field
    for p in range(pmax + 1):
        _check_budget(A, p + 1, DEFAULT_BUDGET)
        cols_p = _coboundary_columns(A, p)
        cols_q = _coboundary_columns(A, p + 1)
        for col in cols_p:
            if fld.column_combination(cols_q, col):
                return False
    for twist in (None,) if sigma is None else (None, sigma.matrix):
        below = list(_stream_boundary(A, 1, twist))
        for p in range(2, pmax + 2):
            cols = []
            for col in _stream_boundary(A, p, twist):
                if fld.column_combination(below, col):
                    return False
                cols.append(col)
            below = cols
    return True


# ---------------------------------------------------------------------------
# Connes boundary at degree 0 → 1 and the image test on trivial extensions

@dataclass
class ConnesImageResult:
    in_image: bool
    kernel_basis: list            # elements of B spanning ker(HH₀ → HH₁)
    automorphism: object = None   # realizing map on the trivial extension
    jacobian: object = None


def connes_image_test(B: Algebra, tau, t=None) -> ConnesImageResult:
    """Decide whether the commutator-vanishing functional tau on B lies in
    the image of the transpose of the degree-0 Connes boundary.

    On success also returns an automorphism of the trivial extension of B
    whose Jacobian is t + tau (t defaults to 1), built from a derivation
    δ: B → DB with δ(x)(1) = tau(x).  The trivial extension and its
    Frobenius structure are the shared ones of B (see
    :func:`gallery.shared_trivial_extension`), which the verification
    gallery uses too.
    """
    from .algebra import commutator_subspace
    from .calculus import jacobian
    from .frobenius import shared_frobenius
    from .gallery import shared_trivial_extension
    from .linalg import solve_linear

    fld = B.field
    n = B.dim
    tau = [fld.coerce(c) for c in tau]
    if len(tau) != n:
        raise MalformedInput("tau must be a functional on B")
    if fld.nonzeros([sum_product(fld, tau, c.raw) for c in commutator_subspace(B)]):
        raise MalformedInput("tau does not vanish on commutators")

    # ker(HH₀ → HH₁): z with 1⊗z + z⊗1 a Hochschild boundary, the kernel
    # of e_i ↦ the coordinates of 1⊗e_i + e_i⊗1 in the cached H_1, which
    # are injective on H_1
    h1 = _homology(B, 1, None)
    coords = []
    for i in range(n):
        vec = {}
        for m, um in fld.nonzeros(B.unit).items():
            fld.add_entry(vec, m * n + i, um)
            fld.add_entry(vec, i * n + m, um)
        x = h1.coordinates(vec)
        if x is None:
            raise InternalInconsistency("1⊗e_i + e_i⊗1 is not a Hochschild cycle")
        coords.append(x)
    kvecs = sparse_kernel_basis(fld, coords)
    kernel_elements = [Element(B, v, _raw=True) for v in kvecs]
    in_image_kernel = not fld.nonzeros([sum_product(fld, tau, v) for v in kvecs])

    # dual route: solve for a derivation δ: B → DB with δ(x)(1) = tau(x)
    ext = shared_trivial_extension(B)
    Fext = shared_frobenius(ext.algebra, ext.gram)
    der_basis = ext.derivation_space_to_dual()
    if der_basis:
        # column b is δ_b(·)(1) = Σ_k 1_k·(row k of δ_b)
        sol = solve_linear(Matrix.from_columns(
            fld, [linear_combination(fld, zip(B.unit, mat_b.data), n)
                  for mat_b in der_basis]), tau)
    else:
        sol = None if fld.nonzeros(tau) else []
    if (sol is not None) != in_image_kernel:
        raise InternalInconsistency(
            "kernel-annihilation and derivation-solve disagree")
    if sol is None:
        return ConnesImageResult(False, kernel_elements)

    delta = Matrix.combination(fld, n, n, zip(sol, der_basis))
    if t is None:
        t = B.unit_element()
    u = ext.from_blocks(Matrix.identity(fld, n), None, delta,
                        left_mult_matrix(t).transpose())
    jac = jacobian(Fext, u)
    expected = ext.embed(t) + ext.embed_dual(tau)
    if jac != expected:
        raise InternalInconsistency("realizing automorphism has wrong Jacobian")
    return ConnesImageResult(True, kernel_elements, u, jac)
