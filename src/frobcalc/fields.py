"""Exact scalar arithmetic over Q, F_p, and simple extensions F_p[a]/(m).

A :class:`Field` instance owns the arithmetic on *raw* values:

* rationals        -> ``int`` when the value is integral, otherwise a
                      ``fractions.Fraction`` in lowest terms (positive
                      denominator -- Fraction guarantees this),
* prime fields     -> ``int`` in ``[0, p)``,
* extension fields -> ``tuple`` of ints of length ``deg(min_poly)``,
                      coefficients of the residue polynomial.

Every rational method returns that form: a raw rational is never a
``Fraction`` with denominator 1, a ``bool`` or a ``float`` (an inverse is
``Fraction(1, a)``, never ``1 / a``).  Since ``3 == Fraction(3)`` and both
hash and print alike, equality, hashing and reports do not see the form;
it keeps integral values -- most of an elimination on +-1 structure
constants -- on plain ``int`` arithmetic.

These raw values are the only scalar form; all arithmetic on them goes
through the field.  :meth:`Field.coerce` is the one entry point for
outside values: an ``int`` over any field, a ``Fraction`` over Q only,
and over F_p[a]/(m) a tuple or list of at most ``deg(m)`` ``int``
components (reduced mod p, zero-padded).  Anything else -- a ``bool``,
a ``float``, a string, a ``Fraction`` elsewhere -- is MalformedInput.

One extended Euclid over F_p, ``_poly_gcdex``, serves F_p[a]/(m) twice:
it inverts residues, and it checks m irreducible by Ben-Or's gcd test,
gcd(x^(p^j) − x, m) = 1 for every j ≤ deg(m)/2.  Both cost a polynomial
in log p, so any prime below 2**31 is fine.

Each field also carries the fused sparse loops of its kind (``nonzeros``,
``axpy``, ``matmul``, ``eliminate`` and the rest; see below), which the
elimination kernel, the dense products and every zero scan of a vector
run instead of one method call per scalar.  F_p[a]/(m) with at most
TABLE_BOUND elements reads Zech-logarithm tables, built in its
constructor (``_log_tables``, memoized per p and m); its loops and ``mul``, ``inv`` and
``is_zero`` read them, while its raw values stay residue tuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd, lcm

from .errors import InternalInconsistency, MalformedInput

RATIONALS = "Rationals"
PRIME = "PrimeField"
EXTENSION = "ExtensionField"

# F_p[a]/(m) with at most this many elements computes on log tables, built
# in O(q): the largest, F_{61^2}, takes about 13 ms and F_9 0.1 ms (Python
# 3.11, shared 2-vCPU Xeon host)
TABLE_BOUND = 2**12


def is_prime(n):
    """Deterministic primality by trial division (intended for n < 2**31)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (dense coefficient lists, lowest degree first)

def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul_mod(a, b, m, p):
    """a*b reduced mod the monic polynomial m, all over F_p."""
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce: m is monic of degree d
    d = len(m) - 1
    while len(prod) > d:
        top = prod.pop()
        if top:
            k = len(prod) - d
            for i in range(d):
                prod[k + i] = (prod[k + i] - top * m[i]) % p
    return _poly_trim(prod)


def _poly_divmod(a, b, p):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = pow(lb, -1, p)
    q = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        k = len(a) - 1 - db
        c = (a[-1] * inv_lb) % p
        q[k] = c
        for i in range(db + 1):
            a[k + i] = (a[k + i] - c * b[i]) % p
        _poly_trim(a)
        if not a:
            break
    return q, a


def _poly_gcdex(a, m, p):
    """Extended Euclid over F_p: (g, s) with g the monic gcd of a and m
    and s·a ≡ g (mod m)."""
    r0, r1 = list(m), _poly_trim(list(a))
    s0, s1 = [], [1]
    while r1:
        q, r = _poly_divmod(r0, r1, p)
        s = s0 + [0] * (len(q) + len(s1) - 1 - len(s0))   # s0 - q*s1
        for i, qi in enumerate(q):
            for j, sj in enumerate(s1):
                s[i + j] = (s[i + j] - qi * sj) % p
        r0, r1 = r1, _poly_trim(r)
        s0, s1 = s1, _poly_trim(s)
    inv_lead = pow(r0[-1], -1, p)
    return [c * inv_lead % p for c in r0], [c * inv_lead % p for c in s0]


def _poly_pow_mod(a, e, m, p):
    """a^e reduced mod the monic m over F_p, by square-and-multiply."""
    r = [1]
    while e:
        if e & 1:
            r = _poly_mul_mod(r, a, m, p)
        a = _poly_mul_mod(a, a, m, p)
        e >>= 1
    return r


def _is_irreducible(m, p):
    """Ben-Or's test: a monic m of degree k is irreducible over F_p iff
    gcd(x^(p^j) − x, m) = 1 for every j ≤ k/2."""
    h = [0, 1]
    for _ in range((len(m) - 1) // 2):
        h = _poly_pow_mod(h, p, m, p)
        diff = h + [0] * (2 - len(h))
        diff[1] = (diff[1] - 1) % p
        if len(_poly_gcdex(diff, m, p)[0]) != 1:
            return False
    return True


def _prime_factors(n):
    """The distinct prime factors of n ≥ 1, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


@lru_cache(maxsize=8)
def _log_tables(p, m):
    """Zech's logarithms of F_p[a]/(m) (Huber 1990): ``(log, exp, zech)``
    for a generator g of the n = q − 1 nonzero residues.

    ``log`` maps each nonzero residue to its exponent in [0, n);
    ``exp[i]`` is g^i and ``zech[i]`` is log(1 + g^i), None where
    1 + g^i = 0.  Both are listed twice, so a sum of two exponents in
    [0, n), or a difference (a negative index wraps), reads them without
    reduction mod n.  The powers of g must list every nonzero residue
    exactly once, or InternalInconsistency is raised.

    A Field is built on every parse, so the tables are kept per (p, m),
    the last eight, and shared read-only by every Field of that p and m."""
    k = len(m) - 1
    n = p ** k - 1
    # g: the first residue of degree ≥ 1, by base-p index, of order n (if
    # none passes, the last one tried fails the check below)
    for i in range(p, n + 1):
        g = _poly_trim([i // p ** j % p for j in range(k)])
        if all(_poly_pow_mod(g, n // r, m, p) != [1] for r in _prime_factors(n)):
            break
    # x ↦ g·x is F_p-linear; column j is g·a^j
    cols = []
    for j in range(k):
        c = _poly_mul_mod(g, [0] * j + [1], m, p)
        cols.append(c + [0] * (k - len(c)))
    x, powers = (1,) + (0,) * (k - 1), []
    for _ in range(n):
        powers.append(x)
        acc = [0] * k
        for xj, col in zip(x, cols):
            if xj:
                for t, c in enumerate(col):
                    acc[t] += xj * c
        x = tuple(v % p for v in acc)
    log = {x: i for i, x in enumerate(powers)}
    if len(log) != n or (0,) * k in log:
        raise InternalInconsistency(
            f"the powers of {g} are not the {n} nonzero residues mod {list(m)} over F{p}")
    zech = [log.get(((x[0] + 1) % p,) + x[1:]) for x in powers]
    return log, tuple(powers) * 2, tuple(zech) * 2


def _canonical(q):
    """The raw rational form of q: its numerator when it is integral."""
    if type(q) is int or q.denominator != 1:
        return q
    return q.numerator


# ---------------------------------------------------------------------------
# fused sparse loops: the inner loops of elimination, one set per field kind
#
# ``nonzeros(vec)``          {i: v} over the nonzero entries of a raw vector
#                            (a sequence), the one zero scan of a vector,
# ``axpy(dst, src, c)``      dst += c·src on sparse dicts,
# ``add_entry(d, key, val)`` d[key] += val on a sparse dict,
# ``matmul(left, right, w)`` the rows of left·right, right of width w,
# ``column_combination(cols, x)`` Σ_j x[j]·cols[j] on sparse dicts, x sparse:
#                            the column mat-vec of a sparse differential,
# ``clear_denominators(v)``  (L·v, L) with L·v in ints, or (v, None) when
#                            v holds ints only or the field is not Q,
# ``monomial_mode(v, w, high, low)`` v with each key k moved to k + d·w + d′
#                            and its value times c·c′, (d, c) = high[t] for
#                            its digit t = k // w % len(high) of weight w, and
#                            (d′, c′) = low[k % w] for the digits below it: a
#                            table of several digits' slot maps at once (the
#                            identity's for high alone), so one pass applies
#                            them all,
# ``eliminate(col, tail, pivot, r)`` col −= (col[r]/L)·pivot, L its lead, and
#                            tail alongside (None: untracked), in place; returns
#                            the scale both took first (Q: |L/gcd| if L ∤ col[r]),
# ``primitive(col, tail)``   Q: both divided by the content of col ∪ tail,
# ``unscale(v, s)``          v/s, v raw (ints or canonical rationals), for the
#                            scales s ≠ 1 that only Q takes.
#
# Sparse dicts never hold a zero: an entry that becomes zero is dropped.
# On Q and F_p a raw zero is falsy, so these run on plain ``+ *`` with the
# canonical form restored inline.  On F_p[a]/(m) with at most TABLE_BOUND
# elements they run on the field's log tables: a residue is nonzero when
# it has a log, a product is a sum of exponents, a sum one Zech lookup,
# −a/L one exp lookup.  Larger F_p[a]/(m) keep the per-scalar loops
# through the Field methods.  ``matmul`` lists right's nonzero rows once
# and reads each row of left only at those, so a matrix–vector product
# costs rows·nnz(vec); Q and F_p accumulate rows densely, and both kinds
# of F_p[a]/(m) share one ``_sparse_matmul`` that accumulates by ``axpy``.
# ``column_combination`` is fused the same way: Q and F_p accumulate the
# raw sums of every column and make them canonical once, at the end (Q:
# an integral Fraction becomes its int, F_p: one reduction mod p; zeros
# dropped), and both kinds of F_p[a]/(m) run one ``axpy`` per column.

def _falsy_nonzeros(vec):
    return dict(compress(enumerate(vec), vec))


def _rational_axpy(dst, src, c):
    get = dst.get
    for k, v in src.items():
        cur = get(k)
        nv = c * v if cur is None else cur + c * v
        if nv:
            if type(nv) is not int and nv.denominator == 1:
                nv = nv.numerator
            dst[k] = nv
        else:
            dst.pop(k, None)


def _rational_add_entry(d, key, val):
    cur = d.get(key)
    s = val if cur is None else cur + val
    if s:
        if type(s) is not int and s.denominator == 1:
            s = s.numerator
        d[key] = s
    else:
        d.pop(key, None)


def _raw_matmul(finish):
    """left·right on raw ``+ *`` (Q and F_p); ``finish`` turns the
    accumulated rows into canonical raw values."""
    def matmul(left, right, width):
        # each nonzero row of right as its (j, b ≠ 0) pairs: any(r) passes
        # over a zero row at once, so the rows of right are sequences
        rows = [(k, list(compress(enumerate(r), r)))
                for k, r in enumerate(right) if any(r)]
        out = []
        for row in left:
            acc = [0] * width
            for k, nz in rows:
                a = row[k]
                if a:
                    for j, b in nz:
                        acc[j] += a * b
            out.append(acc)
        return finish(out)
    return matmul


def _sparse_matmul(nonzeros, axpy, zero):
    """left·right on sparse rows accumulated by ``axpy`` (F_p[a]/(m))."""
    def matmul(left, right, width):
        rows = [(k, nz) for k, nz in enumerate(map(nonzeros, right)) if nz]
        out = []
        for row in left:
            acc = {}
            for t, a in nonzeros([row[k] for k, _ in rows]).items():
                axpy(acc, rows[t][1], a)
            out.append([acc.get(j, zero) for j in range(width)])
        return out
    return matmul


def _raw_column_combination(finish):
    """Σ_j x[j]·cols[j] on raw ``+ *`` (Q and F_p); ``finish`` turns the
    accumulated sums into canonical raw values and drops the zeros."""
    def column_combination(cols, x):
        acc = {}
        get = acc.get
        for j, c in x.items():
            for k, v in cols[j].items():
                acc[k] = get(k, 0) + c * v
        return finish(acc)
    return column_combination


def _axpy_column_combination(axpy):
    """Σ_j x[j]·cols[j] as one ``axpy`` per column (F_p[a]/(m))."""
    def column_combination(cols, x):
        out = {}
        for j, c in x.items():
            axpy(out, cols[j], c)
        return out
    return column_combination


_rational_matmul = _raw_matmul(
    lambda out: [[x if type(x) is int or x.denominator != 1 else x.numerator
                  for x in acc] for acc in out])

_rational_column_combination = _raw_column_combination(
    lambda acc: {k: x if type(x) is int or x.denominator != 1 else x.numerator
                 for k, x in acc.items() if x})


def _rational_monomial_mode(vec, w, high, low):
    m = len(high)
    return {k + d * w + d2: x if type(x) is int or x.denominator != 1 else x.numerator
            for k, v in vec.items() for (d, c), (d2, c2) in [(high[k // w % m], low[k % w])]
            for x in [c * c2 * v]}


def _rational_clear_denominators(vec):
    if all(type(v) is int for v in vec.values()):
        return vec, None
    m = lcm(*[v.denominator for v in vec.values()])
    return {k: v.numerator * (m // v.denominator) for k, v in vec.items()}, m


def _rational_eliminate(col, tail, pivot, r):
    pcol, ptail = pivot
    a, lead = col[r], pcol[r]
    c, rem = divmod(a, lead)
    s = 1
    if rem:
        g = gcd(a, lead)
        s = abs(lead) // g
        col.update({k: v * s for k, v in col.items()})
        if tail is not None:
            tail.update({k: v * s for k, v in tail.items()})
        c = a // g if lead > 0 else -(a // g)
    _rational_axpy(col, pcol, -c)
    if tail is not None:
        _rational_axpy(tail, ptail, -c)
    return s


def _rational_primitive(col, tail):
    g = gcd(*col.values(), *tail.values())
    if g == 1:
        return col, tail
    return {k: v // g for k, v in col.items()}, {k: v // g for k, v in tail.items()}


def _rational_unscale(vec, s):
    return {k: Fraction(v, s) if v % s else v // s for k, v in vec.items()}


def _unscaled(vec):
    return vec, None


def _unscaled_steps(axpy, coefficient):
    """``eliminate``, ``primitive`` and ``unscale`` of a field whose
    elimination never scales; ``coefficient(a, L)`` is −a/L."""
    def eliminate(col, tail, pivot, r):
        pcol, ptail = pivot
        c = coefficient(col[r], pcol[r])
        axpy(col, pcol, c)
        if tail is not None:
            axpy(tail, ptail, c)
        return 1
    return eliminate, lambda col, tail: (col, tail), None


def _prime_loops(p):
    def axpy(dst, src, c):
        get = dst.get
        for k, v in src.items():
            cur = get(k)
            nv = c * v % p if cur is None else (cur + c * v) % p
            if nv:
                dst[k] = nv
            else:
                dst.pop(k, None)

    def add_entry(d, key, val):
        cur = d.get(key)
        s = val if cur is None else (cur + val) % p
        if s:
            d[key] = s
        else:
            d.pop(key, None)

    def monomial_mode(vec, w, high, low):
        m = len(high)
        return {k + d * w + d2: c * c2 * v % p for k, v in vec.items()
                for (d, c), (d2, c2) in [(high[k // w % m], low[k % w])]}

    # ints do not overflow: each sum is reduced once, at the end
    return (_falsy_nonzeros, axpy, add_entry,
            _raw_matmul(lambda out: [[x % p for x in acc] for acc in out]),
            _raw_column_combination(
                lambda acc: {k: r for k, x in acc.items() if (r := x % p)}),
            _unscaled, monomial_mode,
            *_unscaled_steps(axpy, lambda a, lead: -a * pow(lead, -1, p) % p))


def _table_loops(p, log, exp, zech):
    """The loops of F_p[a]/(m) on its tables (see ``_log_tables``)."""
    zero = (0,) * len(exp[0])
    log_minus_one = log[(p - 1,) + zero[1:]]
    units = len(exp) // 2  # q − 1

    def axpy(dst, src, c):
        lc = log.get(c)
        if lc is None:  # c = 0 adds nothing, and drops a zero dst holds at a key of src
            for k in src.keys() & dst.keys():
                if dst[k] not in log:
                    del dst[k]
            return
        get = dst.get
        for k, v in src.items():
            s = lc + log[v]
            cur = get(k)
            if cur is None:
                dst[k] = exp[s]
            else:
                lcur = log[cur]
                z = zech[s - lcur]
                if z is None:
                    del dst[k]
                else:
                    dst[k] = exp[lcur + z]

    def add_entry(d, key, val):
        lv = log.get(val)
        if lv is None:
            return
        cur = d.get(key)
        if cur is None:
            d[key] = val
        else:
            lcur = log[cur]
            z = zech[lv - lcur]
            if z is None:
                del d[key]
            else:
                d[key] = exp[lcur + z]

    def nonzeros(vec):
        return {i: v for i, v in enumerate(vec) if v in log}

    def monomial_mode(vec, w, high, low):
        m = len(high)
        # three exponents sum to s < 3(q − 1): exp, listed twice, reads g^s
        # at s − (q − 1), a negative index wrapping
        return {k + d * w + d2: exp[log[c] + log[c2] + log[v] - units]
                for k, v in vec.items() for (d, c), (d2, c2) in [(high[k // w % m], low[k % w])]}

    return (nonzeros, axpy, add_entry, _sparse_matmul(nonzeros, axpy, zero),
            _axpy_column_combination(axpy), _unscaled, monomial_mode,
            *_unscaled_steps(axpy, lambda a, lead: exp[log[a] - log[lead] + log_minus_one]))


def _generic_loops(f):
    def axpy(dst, src, c):
        for k, v in src.items():
            cur = dst.get(k)
            nv = f.mul(c, v) if cur is None else f.add(cur, f.mul(c, v))
            if f.is_zero(nv):
                dst.pop(k, None)
            else:
                dst[k] = nv

    def add_entry(d, key, val):
        cur = d.get(key)
        s = val if cur is None else f.add(cur, val)
        if f.is_zero(s):
            d.pop(key, None)
        else:
            d[key] = s

    def nonzeros(vec):
        return {i: v for i, v in enumerate(vec) if not f.is_zero(v)}

    def monomial_mode(vec, w, high, low):
        m = len(high)
        return {k + d * w + d2: f.mul(f.mul(c, c2), v)
                for k, v in vec.items() for (d, c), (d2, c2) in [(high[k // w % m], low[k % w])]}

    return (nonzeros, axpy, add_entry, _sparse_matmul(nonzeros, axpy, f.zero()),
            _axpy_column_combination(axpy), _unscaled, monomial_mode,
            *_unscaled_steps(axpy, lambda a, lead: f.neg(f.div(a, lead))))


class Field:
    """Immutable field description plus arithmetic on raw values.

    The fused sparse loops of the field's kind (``axpy`` and the rest, see
    above) are picked once here.
    """

    __slots__ = ("kind", "p", "min_poly", "_deg", "_log", "_exp", "nonzeros",
                 "axpy", "add_entry", "matmul", "column_combination",
                 "clear_denominators", "monomial_mode", "eliminate", "primitive",
                 "unscale")

    def __init__(self, kind, p=None, min_poly=None):
        self.kind = kind
        self.p = p
        self.min_poly = m = tuple(min_poly) if min_poly is not None else None
        self._deg = 1
        self._log = self._exp = None
        if kind == RATIONALS:
            if p is not None or m is not None:
                raise MalformedInput("rationals take no modulus")
            loops = (_falsy_nonzeros, _rational_axpy, _rational_add_entry,
                     _rational_matmul, _rational_column_combination,
                     _rational_clear_denominators,
                     _rational_monomial_mode, _rational_eliminate,
                     _rational_primitive, _rational_unscale)
        elif kind not in (PRIME, EXTENSION):
            raise MalformedInput(f"unknown field kind {kind!r}")
        elif not isinstance(p, int) or p >= 2**31 or not is_prime(p):
            raise MalformedInput(f"modulus {p!r} is not a prime below 2**31")
        elif kind == PRIME:
            if m is not None:
                raise MalformedInput("prime field takes no min_poly")
            loops = _prime_loops(p)
        else:
            if m is None or not (3 <= len(m) <= 5):
                raise MalformedInput("min_poly must have degree in [2, 4]")
            if any(isinstance(c, bool) or not isinstance(c, int) or not (0 <= c < p)
                   for c in m):
                raise MalformedInput("min_poly coefficients must be ints reduced mod p")
            if m[-1] != 1:
                raise MalformedInput("min_poly must be monic")
            if not _is_irreducible(m, p):
                raise MalformedInput("min_poly is reducible over F_p")
            self._deg = len(m) - 1
            if self.order() <= TABLE_BOUND:
                self._log, self._exp, zech = _log_tables(p, m)
                loops = _table_loops(p, self._log, self._exp, zech)
            else:
                loops = _generic_loops(self)
        (self.nonzeros, self.axpy, self.add_entry, self.matmul, self.column_combination,
         self.clear_denominators, self.monomial_mode, self.eliminate, self.primitive,
         self.unscale) = loops

    # constructors ---------------------------------------------------------
    @staticmethod
    def rationals():
        return Field(RATIONALS)

    @staticmethod
    def prime(p):
        return Field(PRIME, p)

    @staticmethod
    def extension(p, min_poly):
        return Field(EXTENSION, p, min_poly)

    # identity -------------------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, Field) and self.kind == other.kind
                and self.p == other.p and self.min_poly == other.min_poly)

    def __hash__(self):
        return hash((self.kind, self.p, self.min_poly))

    def __repr__(self):
        if self.kind == RATIONALS:
            return "Q"
        if self.kind == PRIME:
            return f"F{self.p}"
        return f"F{self.p}[a]/{list(self.min_poly)}"

    @property
    def characteristic(self):
        return 0 if self.kind == RATIONALS else self.p

    @property
    def degree(self):
        return self._deg

    def order(self):
        """Number of elements, or None for the rationals."""
        if self.kind == RATIONALS:
            return None
        return self.p ** self._deg

    # raw arithmetic ---------------------------------------------------------
    def zero(self):
        if self.kind == EXTENSION:
            return (0,) * self._deg
        return 0

    def one(self):
        if self.kind == EXTENSION:
            return (1,) + (0,) * (self._deg - 1)
        return 1

    def from_int(self, n):
        if self.kind == RATIONALS:
            return int(n)
        if self.kind == PRIME:
            return n % self.p
        return (n % self.p,) + (0,) * (self._deg - 1)

    def coerce(self, v):
        """The raw value of an outside value v (rules above)."""
        if isinstance(v, bool):
            raise MalformedInput("bool is not a scalar")
        if isinstance(v, int):
            return self.from_int(v)
        if self.kind == RATIONALS:
            if isinstance(v, Fraction):
                return _canonical(v)
            raise MalformedInput(f"cannot coerce {v!r} into Q")
        if self.kind == EXTENSION and isinstance(v, (tuple, list)):
            if len(v) > self._deg:
                raise MalformedInput("residue longer than extension degree")
            if any(isinstance(x, bool) or not isinstance(x, int) for x in v):
                raise MalformedInput(f"residue components must be ints, got {v!r}")
            c = tuple(x % self.p for x in v)
            return c + (0,) * (self._deg - len(c))
        raise MalformedInput(f"cannot coerce {v!r} into {self!r}")

    def add(self, a, b):
        if self.kind == RATIONALS:
            return _canonical(a + b)
        if self.kind == PRIME:
            return (a + b) % self.p
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        if self.kind == RATIONALS:
            return _canonical(a - b)
        if self.kind == PRIME:
            return (a - b) % self.p
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        if self.kind == RATIONALS:
            return _canonical(-a)
        if self.kind == PRIME:
            return (-a) % self.p
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        if self.kind == RATIONALS:
            return _canonical(a * b)
        if self.kind == PRIME:
            return (a * b) % self.p
        if self._log is not None:
            la, lb = self._log.get(a), self._log.get(b)
            return a if la is None else b if lb is None else self._exp[la + lb]
        c = _poly_mul_mod(list(a), list(b), list(self.min_poly), self.p)
        return tuple(c) + (0,) * (self._deg - len(c))

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.kind == RATIONALS:
            # Fraction(1, a), never 1 / a: on an int that is a float
            return _canonical(Fraction(1, a))
        if self.kind == PRIME:
            return pow(a, -1, self.p)
        if self._log is not None:
            return self._exp[-self._log[a]]
        c = _poly_gcdex(a, self.min_poly, self.p)[1]
        return tuple(c) + (0,) * (self._deg - len(c))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow_int(self, a, n):
        if n < 0:
            return self.pow_int(self.inv(a), -n)
        r, b = self.one(), a
        while n:
            if n & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            n >>= 1
        return r

    def is_zero(self, a):
        if self.kind == EXTENSION:
            if self._log is not None:
                return a not in self._log
            return all(x == 0 for x in a)
        return a == 0

    # sampling / enumeration -------------------------------------------------
    def elements(self):
        """All elements (finite fields only)."""
        if self.kind == PRIME:
            return list(range(self.p))
        if self.kind == EXTENSION:
            out = [()]
            for _ in range(self._deg):
                out = [t + (c,) for t in out for c in range(self.p)]
            return out
        raise MalformedInput("cannot enumerate an infinite field")

    def random(self, rng, bound=4):
        """Small random element; for Q a small integer (possibly zero)."""
        if self.kind == RATIONALS:
            return rng.small_int(bound)
        if self.kind == PRIME:
            return rng.randrange(self.p)
        return tuple(rng.randrange(self.p) for _ in range(self._deg))

    def random_nonzero(self, rng, bound=4):
        while True:
            v = self.random(rng, bound)
            if not self.is_zero(v):
                return v

    # text -------------------------------------------------------------------
    def format(self, a):
        if self.kind == EXTENSION:
            return ",".join(str(c) for c in a)
        return str(a)

    def parse(self, s):
        """Inverse of :meth:`format`; a non-string goes to :meth:`coerce`."""
        if not isinstance(s, str):
            return self.coerce(s)
        s = s.strip()
        if self.kind == RATIONALS:
            try:
                return self.coerce(Fraction(s))
            except (ValueError, ZeroDivisionError) as exc:
                raise MalformedInput(f"bad rational {s!r}") from exc
        if self.kind == PRIME:
            try:
                return int(s, 10) % self.p
            except ValueError as exc:
                raise MalformedInput(f"bad residue {s!r}") from exc
        try:
            coeffs = [int(part, 10) for part in s.split(",")]
        except ValueError as exc:
            raise MalformedInput(f"bad extension residue {s!r}") from exc
        return self.coerce(coeffs)

    def describe(self):
        """JSON-able field description."""
        d = {"kind": self.kind}
        if self.p is not None:
            d["p"] = self.p
        if self.min_poly is not None:
            d["min_poly"] = list(self.min_poly)
        return d

