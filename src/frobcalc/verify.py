"""Check suites: every verifiable identity, bundled for reuse.

Each suite returns a list of :class:`Check` records.  A check carries the
rule tag it exercises (the registry below), a pass/fail/inconclusive
status, and on failure a concrete witness.  The CLI renders these as JSON
reports; the acceptance tests assert on them directly.

All sampling is driven by an explicit SplitMix64 generator, so a fixed
seed reproduces every record byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import hochschild as hh
from .algebra import (Element, LinearMap, ROLE_DERIVATION, ROLE_ENDOMORPHISM,
                      ad, block_map, center_basis, direct_product,
                      extend_element, extend_gram, extend_map, extend_scalars,
                      inner_automorphism, inverse_of, left_mult_matrix,
                      product_embed, restrict_element, restrict_gram,
                      restrict_map, restrict_scalars, right_mult_matrix)
from .calculus import (bavula_jacobian, coboundary_status,
                       commutator_orbit_readings, conjugation_identity_holds,
                       delta_star, divergence, exp_derivation, jacobian,
                       jacobian_cocycle, liouville_polynomial, phi_sequence,
                       sigma_twist)
from .crossed import (GroupAction, TwoCocycle, build_crossed_product,
                      crossed_form, predicted_nakayama)
from .fields import Field
from .frobenius import (is_inner, is_symmetric_algebra, make_frobenius,
                        relate_forms, shared_frobenius, sigma_fixes_center)
from .gallery import (cyclic, dual_numbers, exterior, ground_field_algebra,
                      matrix_algebra, qci, s3_group_algebra,
                      shared_trivial_extension)
from .groups import cyclic_group
from .linalg import Matrix, invert, solve_linear
from .rng import SplitMix64

# Rule registry: every check is tagged with one of these identifiers.
LEMMAS = {
    "change": "two valid forms differ by right multiplication with a unit",
    "sigma:central": "the induced automorphism fixes the center pointwise",
    "main": "the induced automorphism acts trivially on cohomology (certificates)",
    "hh2": "degree-2 cohomology triviality, re-verified separately",
    "twisted": "trivial action on right-twisted homology",
    "ex:four": "untwisted degree-0 homology action is generally nontrivial",
    "partial": "cohomology dimensions match twisted homology dimensions",
    "det": "defining property of the Jacobian of an endomorphism",
    "jac:cocycle": "chain rule jac(uv) = jac(v)·v⁻¹(jac(u))",
    "det:JC": "endomorphism invertible iff its Jacobian is a unit",
    "det:sigma": "Jacobians of powers and shifts by the induced automorphism",
    "det:conj": "conjugation evaluates through the Jacobian",
    "det:commute": "commuting with sigma iff the Jacobian is central",
    "det:deriv": "orbit identity for the Jacobian under the mixed commutator",
    "det:coboundary": "form change rescales Jacobians by a unit coboundary",
    "class:jac": "twisted Jacobian is a non-abelian 1-cocycle",
    "jacjac": "twisted Jacobian inverts the skew-partial determinant",
    "jac:gamma": "closed form for elementary odd automorphisms",
    "jac:inner": "Jacobian of an inner automorphism",
    "jac:quantum": "closed Jacobian formula on the quantum intersection",
    "juf": "closed Jacobian formula on truncated polynomials in char p",
    "jac:strongly-separable": "trace-form Jacobians of automorphisms are 1",
    "jac:cross": "crossed-product pairing is non-degenerate and associative",
    "crs:s": "predicted crossed-product Nakayama map",
    "jac:times": "Jacobians on direct products add blockwise",
    "jac:ext": "Jacobians commute with scalar extension",
    "jac:change": "Jacobians and the Nakayama map survive scalar restriction",
    "div:ids": "characterizing identities of the divergence",
    "div:inner": "divergence of an inner derivation",
    "div:connection": "divergence is a first-order differential operator",
    "div:cocycle": "divergence of a bracket of derivations",
    "div:MC": "divergence solves the Maurer-Cartan equation",
    "div:comm": "twist defect of a derivation is an inner derivation",
    "DIV": "symmetric case: central values, vanishing on inner derivations",
    "div:quantum": "closed divergence formula on the quantum intersection",
    "delta-powers": "recurrence for iterated adjoints of powers",
    "Liouville": "flow Jacobian solves the divergence ODE",
    "li:1": "flow Jacobian equals the ODE solution pointwise",
    "li:2": "derivative of the flow Jacobian at zero",
    "jtv:1": "unit part of a trivial-extension Jacobian",
    "jtv:2": "functional part of a trivial-extension Jacobian",
    "connes-image": "functional parts are exactly the transposed-boundary image",
    "ta:class:1": "restricted cocycle on central units is not a coboundary",
    "plumbing": "structural input validation, not tied to one identity",
}


@dataclass
class Check:
    id: str
    lemma: str
    status: str
    witness: dict | None = None

    def as_doc(self):
        doc = {"id": self.id, "lemma": self.lemma, "status": self.status}
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


class Suite:
    """Accumulates checks; tiny helper so suites stay readable."""

    def __init__(self):
        self.checks = []

    def record(self, cid, lemma, ok, witness=None):
        assert lemma in LEMMAS, f"unregistered rule tag {lemma}"
        self.checks.append(Check(cid, lemma, "pass" if ok else "fail",
                                 witness if witness is not None
                                 else (None if ok else {})))

    def eq(self, cid, lemma, lhs, rhs):
        ok = lhs == rhs
        self.record(cid, lemma, ok,
                    None if ok else {"lhs": str(lhs), "rhs": str(rhs)})


# ---------------------------------------------------------------------------
# gallery registry

@cache
def gallery_items():
    """The standard verification gallery (name, carrier) pairs, built once
    per process: every suite shares these carriers and what they cache."""
    Q = Field.rationals()
    return (
        ("exterior1", exterior(1, Q)),
        ("exterior2", exterior(2, Q)),
        ("exterior3", exterior(3, Q)),
        ("exterior4", exterior(4, Q)),
        ("qci2", qci(2, Q)),
        ("qci3", qci(3, Q)),
        ("qci1/2", qci(Fraction(1, 2), Q)),
        ("trivQ", shared_trivial_extension(ground_field_algebra(Q))),
        ("trivDual", shared_trivial_extension(dual_numbers(Q))),
        ("trivM2", shared_trivial_extension(matrix_algebra(2, Q).algebra)),
        ("cyclic3", cyclic(3)),
        ("cyclic5", cyclic(5)),
        ("matrix2", matrix_algebra(2, Q)),
        ("matrix3", matrix_algebra(3, Q)),
        ("groupS3", s3_group_algebra(Q)),
    )


def carrier(name):
    """The gallery carrier called ``name``."""
    return dict(gallery_items())[name]


def frobenius_of(item):
    """The shared Frobenius structure of a carrier's form."""
    return shared_frobenius(item.algebra, item.gram)


# ---------------------------------------------------------------------------
# samplers

def _random_unit(A, rng):
    f = A.field
    for _ in range(64):
        el = Element(A, [f.random(rng, 2) for _ in range(A.dim)])
        if inverse_of(el) is not None:
            return el
    return A.unit_element()


def _random_central_unit(A, rng):
    f = A.field
    zs = center_basis(A)
    for _ in range(64):
        el = A.combination((f.random(rng, 2), z) for z in zs)
        if inverse_of(el) is not None:
            return el
    return A.unit_element()


def derivation_basis(A):
    basis = A._cache.get("derivation-basis")
    if basis is None:
        basis = [c.as_linear_map(ROLE_DERIVATION)
                 for c in hh.cocycle_basis(A, 1)]
        A._cache["derivation-basis"] = basis
    return basis


def random_derivation(A, rng):
    f = A.field
    m = Matrix.combination(f, A.dim, A.dim, ((f.random(rng, 2), d.matrix)
                                             for d in derivation_basis(A)))
    return LinearMap(A, m, ROLE_DERIVATION, check=False)


def automorphism_sampler(name, item):
    """Generator-set sampler for one gallery family."""
    kind = name.rstrip("0123456789/")

    def sample(rng):
        if kind == "qci":
            f = item.field
            return item.alpha(f.random_nonzero(rng, 3), f.random_nonzero(rng, 3),
                              f.random(rng, 3), f.random(rng, 3))
        if kind == "exterior":
            choices = ["phi", "iota"] + (["gamma"] if item.n >= 3 else [])
            u = None
            for _ in range(rng.randint(1, 2)):
                pick = rng.choice(choices)
                if pick == "phi":
                    mat = _random_invertible(item.field, item.n, rng)
                    v = item.phi(mat)
                elif pick == "gamma":
                    alpha = _random_3subset(rng, item.n)
                    v = item.gamma(rng.randrange(item.n),
                                   item.field.random(rng, 2), alpha)
                else:
                    v = item.iota(item.random_odd_element(rng))
                u = v if u is None else u.compose(v)
            return u
        if kind in ("trivQ", "trivDual", "trivM", "triv"):
            B = item.B
            u = item.u_z(_random_central_unit(B, rng))
            ders = item.derivation_space_to_dual()
            if ders:
                m = Matrix.combination(B.field, B.dim, B.dim,
                                       ((B.field.random(rng, 2), dmat)
                                        for dmat in ders))
                u = u.compose(item.u_delta(m))
            u = u.compose(item.lift(inner_automorphism(_random_unit(B, rng))))
            return u
        if kind == "cyclic":
            f = item.field
            coeffs = [f.zero(), f.random_nonzero(rng)]
            coeffs += [f.random(rng) for _ in range(item.p - 2)]
            return item.u_f(coeffs)
        # matrix algebras, group algebras: inner automorphisms
        return inner_automorphism(_random_unit(item.algebra, rng))

    return sample


def _random_invertible(field, n, rng):
    for _ in range(64):
        m = Matrix(field, [[field.random(rng, 2) for _ in range(n)]
                           for _ in range(n)], _raw=True)
        if invert(m) is not None:
            return m
    return Matrix.identity(field, n)


# ---------------------------------------------------------------------------
# suites, one per acceptance criterion (plus shared extras)

# the sample counts of the Grassmann, 𝔽₅ cyclic, quantum closed-form,
# cocycle-law, strongly separable, trivial-extension and divergence suites
GRASSMANN_SAMPLES = 10
CYCLIC5_SAMPLES = 30
QCI_CLOSED_FORM_SAMPLES = 20
COCYCLE_LAW_PAIRS = 50
SEPARABLE_SAMPLES = 20
TRIVIAL_EXTENSION_SAMPLES = 20
DIVERGENCE_PAIRS = 30


def suite_osima():
    s = Suite()
    for name, item in gallery_items():
        F = frobenius_of(item)
        s.record(f"osima/{name}", "sigma:central", sigma_fixes_center(F),
                 {"algebra": name})
    return s.checks


def suite_qci_closed_forms(rng):
    s = Suite()
    for qlabel in ("2", "3", "1/2"):
        item = carrier(f"qci{qlabel}")
        F = frobenius_of(item)
        f = item.field
        for k in range(QCI_CLOSED_FORM_SAMPLES):
            a, b = f.random_nonzero(rng, 4), f.random_nonzero(rng, 4)
            c, d = f.random(rng, 4), f.random(rng, 4)
            u = item.alpha(a, b, c, d)
            s.eq(f"qci-jac/q={qlabel}/{k}", "jac:quantum",
                 jacobian(F, u), item.jac_expected(a, b, c, d))
            dd = item.delta(a, b, c, d)
            s.eq(f"qci-div/q={qlabel}/{k}", "div:quantum",
                 divergence(F, dd), item.div_expected(a, b, c, d))
    return s.checks


def suite_grassmann(rng):
    s = Suite()
    for n in (2, 3, 4):
        item = carrier(f"exterior{n}")
        F = frobenius_of(item)
        A = item.algebra
        for k in range(GRASSMANN_SAMPLES):
            fm = _random_invertible(item.field, n, rng)
            u = item.phi(fm)
            detval = item.det_on_generators(fm)
            s.eq(f"grassmann-phi/n={n}/{k}", "jacjac",
                 jacobian_cocycle(F, u), inverse_of(detval))
        # skew-partial determinant inverts the twisted Jacobian on odd samples
        for k in range(4):
            u = item.phi(_random_invertible(item.field, n, rng))
            if n >= 3:
                u = u.compose(item.gamma(rng.randrange(n),
                                         item.field.random(rng, 2),
                                         _random_3subset(rng, n)))
            prod = bavula_jacobian(item, u) * jacobian_cocycle(F, u)
            s.eq(f"grassmann-bavula/n={n}/{k}", "jacjac",
                 prod, A.unit_element())
        # inner automorphisms by 1 + (odd)
        for k in range(4):
            a = item.random_odd_element(rng)
            expected = A.unit_element() - a.scale(2) if n % 2 == 0 \
                else A.unit_element()
            s.eq(f"grassmann-iota/n={n}/{k}", "jac:inner",
                 jacobian_cocycle(F, item.iota(a)), expected)
    # the gamma table, exhaustively for n = 4
    item = carrier("exterior4")
    F = frobenius_of(item)
    for lam in (1, -2):
        for i in range(4):
            for alpha in _all_3subsets(4):
                u = item.gamma(i, lam, alpha)
                s.eq(f"grassmann-gamma/i={i}/a={alpha}/l={lam}", "jac:gamma",
                     jacobian_cocycle(F, u),
                     item.jac_gamma_expected(i, lam, alpha))
    return s.checks


def _all_3subsets(n):
    from itertools import combinations
    return list(combinations(range(n), 3))


def _random_3subset(rng, n):
    out = []
    while len(out) < 3:
        c = rng.randrange(n)
        if c not in out:
            out.append(c)
    return tuple(sorted(out))


def suite_cocycle_laws(rng):
    s = Suite()
    items = [(name, carrier(name)) for name in
             ("qci2", "exterior2", "exterior3", "exterior4", "trivDual",
              "cyclic3", "matrix2")]
    for k in range(COCYCLE_LAW_PAIRS):
        name, item = items[k % len(items)]
        F = frobenius_of(item)
        sample = automorphism_sampler(name, item)
        u, v = sample(rng), sample(rng)
        ju, jv = jacobian(F, u), jacobian(F, v)
        s.eq(f"chain-rule/{name}/{k}", "jac:cocycle",
             jacobian(F, u.compose(v)), jv * v.inverse()(ju))
        s.eq(f"cocycle-law/{name}/{k}", "class:jac",
             jacobian_cocycle(F, u.compose(v)),
             jacobian_cocycle(F, u) * u(jacobian_cocycle(F, v)))
        s.record(f"conjugation/{name}/{k}", "det:conj",
                 conjugation_identity_holds(F, u), {"algebra": name})
        inv_ju = inverse_of(ju)
        s.record(f"unit-criterion/{name}/{k}", "det:JC",
                 inv_ju is not None and jacobian(F, u.inverse()) == u(inv_ju),
                 {"algebra": name})
    return s.checks


def suite_jacobian_identities(rng):
    """Power/shift identities, commutation, orbit readings, form change."""
    s = Suite()
    for name in ("qci2", "exterior2"):
        item = carrier(name)
        F = frobenius_of(item)
        A = item.algebra
        one = A.unit_element()
        sample = automorphism_sampler(name, item)
        for n in range(-3, 4):
            s.eq(f"jac-sigma-power/{name}/{n}", "det:sigma",
                 jacobian(F, F.sigma.power(n)), one)
        u = sample(rng)
        s.eq(f"jac-sigma-left/{name}", "det:sigma",
             jacobian(F, F.sigma.compose(u)), jacobian(F, u))
        s.eq(f"jac-sigma-right/{name}", "det:sigma",
             jacobian(F, u.compose(F.sigma)),
             F.sigma_inv()(jacobian(F, u)))
        # commuting with sigma iff the Jacobian is central
        zs = center_basis(A)
        for k in range(6):
            u = sample(rng)
            commutes = F.sigma.compose(u).matrix == u.compose(F.sigma).matrix
            jac = jacobian(F, u)
            central = all((jac * z - z * jac).is_zero() for z in
                          [A.basis_element(i) for i in range(A.dim)])
            s.record(f"commute/{name}/{k}", "det:commute",
                     commutes == central,
                     {"commutes": commutes, "central": central})
        # orbit readings: report which reading holds; the fixed-point one
        # is the one the defining identity yields
        u = sample(rng)
        readings = commutator_orbit_readings(F, u)
        s.record(f"orbit-reading/{name}", "det:deriv", readings["fixed_point"],
                 readings)
    # form change on the quantum intersection: gram'(a,b) = <a, b·t>
    item = carrier("qci2")
    F = frobenius_of(item)
    A = item.algebra
    t = A.unit_element() + item.x
    gram2 = F.gram * right_mult_matrix(t)
    t_found, conj_ok = relate_forms(F, gram2)
    s.eq("form-change/recover-t", "change", t_found, t)
    s.record("form-change/conjugate", "change", conj_ok)
    F2 = shared_frobenius(A, gram2)
    xi = F2.sigma_inv()(t)
    xi_inv = inverse_of(xi)
    sample = automorphism_sampler("qci2", item)
    for k in range(6):
        u = sample(rng)
        s.eq(f"form-change/jacobian/{k}", "det:coboundary",
             jacobian(F2, u), xi_inv * jacobian(F, u) * u.inverse()(xi))
    return s.checks


def main_theorem_degrees(item):
    dim = item.algebra.dim
    if dim > 8:
        return ()
    return (1, 2, 3) if dim <= 4 else (1, 2)


def suite_main_theorem():
    s = Suite()
    for name, item in gallery_items():
        degrees = main_theorem_degrees(item)
        if not degrees:
            continue
        F = frobenius_of(item)
        for p in degrees:
            cocycles, missing = hh.main_theorem(F, p)
            lemma = "hh2" if p == 2 else "main"
            s.record(f"certificates/{name}/p={p}", lemma, not missing,
                     {"algebra": name, "degree": p, "cocycles": cocycles,
                      "unsolved": missing})
            if p == 2:
                s.record(f"certificates-main/{name}/p=2", "main", not missing,
                         {"algebra": name, "degree": p,
                          "cocycles": cocycles, "unsolved": missing})
    return s.checks


def suite_homology():
    s = Suite()
    F = frobenius_of(carrier("qci2"))
    act_plain = hh.sigma_action_on_homology(F, 0, hh.UNTWISTED)
    s.record("homology/untwisted-nontrivial", "ex:four",
             not act_plain.is_identity())
    act_tw = hh.sigma_action_on_homology(F, 0, hh.TWISTED)
    s.record("homology/twisted-trivial-p0", "twisted", act_tw.is_identity())
    act_tw1 = hh.sigma_action_on_homology(F, 1, hh.TWISTED)
    s.record("homology/twisted-trivial-p1", "twisted", act_tw1.is_identity())
    # cyclic3 is the symmetric sanity case: plain and twisted coincide
    for name in ("qci2", "exterior2", "cyclic3"):
        F = frobenius_of(carrier(name))
        table = hh.duality_dims(F, 2)
        s.record(f"duality/{name}", "partial",
                 all(row["match"] for row in table),
                 {"table": table})
    return s.checks


def suite_cyclic(rng):
    s = Suite()
    item3 = carrier("cyclic3")
    F3 = frobenius_of(item3)
    for idx, coeffs in enumerate(item3.all_valid_f()):
        _cyclic_check(s, item3, F3, coeffs, f"cyclic-juf/p=3/{idx}")
    item5 = carrier("cyclic5")
    F5 = frobenius_of(item5)
    f = item5.field
    for k in range(CYCLIC5_SAMPLES):
        coeffs = [f.zero(), f.random_nonzero(rng)] + \
            [f.random(rng) for _ in range(3)]
        _cyclic_check(s, item5, F5, coeffs, f"cyclic-juf/p=5/{k}")
    return s.checks


def _cyclic_check(s, item, F, coeffs, cid):
    u = item.u_f(coeffs)
    jac = jacobian(F, u)
    s.eq(cid, "juf", jac, item.juf_expected(coeffs))
    fld = item.field
    lead = fld.coerce(coeffs[1])
    s.eq(cid + "/constant", "juf", jac.raw[0],
         fld.pow_int(lead, item.p - 1))
    s.eq(cid + "/alternating", "juf", item.mu(jac), fld.one())


def suite_trivial_extension(rng):
    s = Suite()
    for label, name in (("dual-numbers", "trivDual"), ("matrix2", "trivM2")):
        item = carrier(name)
        B = item.B
        F = frobenius_of(item)
        sample = automorphism_sampler("triv", item)
        for k in range(TRIVIAL_EXTENSION_SAMPLES):
            u = sample(rng)
            jac = jacobian(F, u)
            t = item.t_part(u)
            tau = item.tau_part(u)
            s.eq(f"triv-jac/{label}/{k}", "jtv:1",
                 jac, item.embed(t) + item.embed_dual(tau))
            bpart, dualpart = item.split(jac)
            s.eq(f"triv-jac-tau/{label}/{k}", "jtv:2", list(dualpart), tau)
            result = hh.connes_image_test(B, tau)
            s.record(f"triv-connes/{label}/{k}", "connes-image",
                     result.in_image, {"tau": [B.field.format(v) for v in tau]})
    # the counterexample: tau(1) = 1 on Q[t]/(t^2) is not in the image
    item = carrier("trivDual")
    B = item.B
    bad = hh.connes_image_test(B, [1, 0])
    s.record("triv-connes/reject-unit-functional", "connes-image",
             not bad.in_image)
    good = hh.connes_image_test(B, [0, 1])
    s.record("triv-connes/accept-dual-functional", "connes-image",
             good.in_image and good.automorphism is not None)
    zero = hh.connes_image_test(B, [0, 0])
    s.record("triv-connes/zero-functional", "connes-image",
             zero.in_image and zero.jacobian == item.embed(B.unit_element()))
    return s.checks


def suite_divergence(rng):
    s = Suite()
    for name, item in gallery_items():
        A = item.algebra
        F = frobenius_of(item)
        symmetric = F.sigma.is_identity()
        f = A.field
        zs = center_basis(A)
        for k in range(DIVERGENCE_PAIRS):
            d = random_derivation(A, rng)
            e = random_derivation(A, rng)
            x = Element(A, [f.random(rng, 2) for _ in range(A.dim)])
            # each divergence is evaluated (and re-verified) once per sample
            dv_d, dv_e, dv_x = (divergence(F, d), divergence(F, e),
                                divergence(F, ad(x)))
            s.eq(f"div-inner/{name}/{k}", "div:inner", dv_x, F.sigma(x) - x)
            if k == 0:
                # adjoint identity δ*(a) = a·div − δ(a); the adjoint's own
                # twisted Leibniz laws are re-verified inside delta_star
                star = delta_star(F, d)
                s.record(f"div-adjoint/{name}", "div:ids",
                         star.matrix == right_mult_matrix(dv_d) - d.matrix)
            z = A.combination((f.random(rng, 2), zb) for zb in zs)
            zd = LinearMap(A, left_mult_matrix(z) * d.matrix,
                           ROLE_DERIVATION, check=False)
            s.eq(f"div-connection/{name}/{k}", "div:connection",
                 divergence(F, zd), z * dv_d - d(z))
            bracket = LinearMap(A, d.matrix * e.matrix - e.matrix * d.matrix,
                                ROLE_DERIVATION, check=False)
            dv_bracket = divergence(F, bracket)
            expected = d(dv_e) - e(dv_d) + (dv_d * dv_e - dv_e * dv_d)
            s.eq(f"div-bracket/{name}/{k}", "div:cocycle", dv_bracket, expected)
            s.eq(f"div-mc/{name}/{k}", "div:MC",
                 d(dv_e) - e(dv_d) - dv_bracket, dv_e * dv_d - dv_d * dv_e)
            twisted = sigma_twist(F, d)
            s.record(f"div-twist/{name}/{k}", "div:comm",
                     (twisted.matrix - d.matrix) == ad(dv_d).matrix,
                     {"algebra": name})
            if symmetric:
                s.record(f"div-central/{name}/{k}", "DIV",
                         left_mult_matrix(dv_d) == right_mult_matrix(dv_d))
                s.record(f"div-inner-vanish/{name}/{k}", "DIV", dv_x.is_zero())
    return s.checks


def suite_div_nontrivial():
    """Certified infeasibility: no central z has div(δ) = δ(z) for all δ."""
    s = Suite()
    for name in ("exterior3", "trivDual"):
        item = carrier(name)
        A = item.algebra
        F = frobenius_of(item)
        zs = center_basis(A)
        ders = derivation_basis(A)
        rows, rhs = [], []
        for d in ders:
            dv = divergence(F, d)
            for coord in range(A.dim):
                rows.append([d(z).raw[coord] for z in zs])
                rhs.append(dv.raw[coord])
        sol = solve_linear(Matrix(A.field, rows, _raw=True), rhs)
        s.record(f"div-nontrivial/{name}", "DIV", sol is None,
                 {"algebra": name, "derivations": len(ders)})
    return s.checks


def suite_liouville(rng):
    s = Suite()
    item = carrier("qci2")
    F = frobenius_of(item)
    A = item.algebra
    sinv = F.sigma_inv()
    tuples = [(1, 0), (0, 1), (2, -3)] + \
        [(rng.small_int(3), rng.small_int(3)) for _ in range(3)]
    for c, d_ in tuples:
        d = item.delta(0, 0, c, d_)
        phis = phi_sequence(F, d, A.dim)
        s.eq(f"liouville-phi1/c={c},d={d_}", "delta-powers",
             phis[1], divergence(F, d))
        # d² = 0 here, so φ_2 must vanish
        s.record(f"liouville-phik/c={c},d={d_}", "delta-powers",
                 all(p.is_zero() for p in phis[2:]))
        # binomial pairing identity Σ_k C(n,k)·⟨d^k(a), d^{n-k}(b)⟩ = ⟨a, b·φ_n⟩,
        # i.e. Σ_k C(n,k)·(D^k)ᵀ·G·D^{n-k} = G·R_{φ_n}
        from math import comb
        powers = [Matrix.identity(A.field, A.dim)]
        for _ in range(3):
            powers.append(powers[-1] * d.matrix)
        ok = True
        for n in range(4):
            acc = Matrix.combination(
                A.field, A.dim, A.dim,
                ((comb(n, k), powers[k].transpose() * F.gram * powers[n - k])
                 for k in range(n + 1)))
            if acc != F.gram * right_mult_matrix(phis[n]):
                ok = False
        s.record(f"liouville-binomial/c={c},d={d_}", "delta-powers", ok)
        poly = liouville_polynomial(F, d)
        s.record(f"liouville-ode/c={c},d={d_}", "Liouville",
                 poly.coefficient(0) == A.unit_element())
        samples = []
        for t in (0, 1, 2, Fraction(1, 2)):
            E = exp_derivation(d, t)
            jac = jacobian(F, E)
            samples.append((t, jac))
            s.eq(f"liouville-jac/c={c},d={d_}/t={t}", "li:1",
                 jac, sinv(poly.evaluate(t)))
        deriv0 = _interpolated_derivative_at_zero(A, samples)
        s.eq(f"liouville-deriv/c={c},d={d_}", "li:2",
             deriv0, sinv(divergence(F, d)))
        # one-parameter group law
        Ea = exp_derivation(d, Fraction(1, 2))
        Eb = exp_derivation(d, 2)
        s.record(f"liouville-group/c={c},d={d_}", "Liouville",
                 Ea.compose(Eb).matrix == exp_derivation(d, Fraction(5, 2)).matrix)
    return s.checks


def _interpolated_derivative_at_zero(A, samples):
    """Derivative at 0 of the polynomial of degree < len(samples) through
    the samples (t_i, y_i): p'(0) = Σ_i w_i·y_i, the weights solving
    Vᵀw = e₁ for the Vandermonde matrix V[i][k] = t_iᵏ.  Exact, and
    independent of how the samples were produced.
    """
    f = A.field
    ts = [f.coerce(t) for t, _ in samples]
    vt = Matrix(f, [[f.pow_int(t, k) for t in ts] for k in range(len(ts))],
                _raw=True)
    w = solve_linear(vt, [int(k == 1) for k in range(len(ts))])
    return A.combination(zip(w, (y for _, y in samples)))


def suite_crossed(rng):
    s = Suite()
    Q = Field.rationals()
    G = cyclic_group(2)
    e1, e2 = carrier("exterior1"), carrier("exterior2")
    g2, c3 = carrier("qci2"), carrier("cyclic3")
    cases = [("exterior1", e1, e1.phi(Matrix(Q, [[-1]]))),
             ("exterior2", e2, e2.phi(Matrix(Q, [[-1, 0], [0, -1]]))),
             ("qci2", g2, g2.alpha(-1, -1, 0, 0)),
             ("qci2-c", g2, g2.alpha(1, -1, 2, 0)),
             ("cyclic3", c3, c3.u_f([0, -1, 1]))]
    for name, item, invol in cases:
        A = item.algebra
        f = A.field
        F = frobenius_of(item)
        act = GroupAction(G, A, [LinearMap.identity(A), invol])
        beta = [f.one(), f.random_nonzero(rng, 3)]
        for alabel, alpha in (("trivial", TwoCocycle.trivial(G, f)),
                              ("sampled", TwoCocycle.from_coboundary(G, f, beta))):
            C = build_crossed_product(A, G, act, alpha)
            gram = crossed_form(F, G, act, alpha)
            FC = make_frobenius(C, gram)      # validates the form
            s.record(f"crossed-form/{name}/{alabel}", "jac:cross", True,
                     {"dim": C.dim})
            pred = predicted_nakayama(F, G, act, alpha, C)
            s.record(f"crossed-nakayama/{name}/{alabel}", "crs:s",
                     pred.matrix == FC.sigma.matrix, {"algebra": name})
            if alpha(G.identity, G.identity) == f.one():
                ratios_one = all(
                    alpha(g, G.inverse[g]) == alpha(G.inverse[g], g)
                    for g in range(G.order))
                s.record(f"crossed-ratio/{name}/{alabel}", "crs:s", ratios_one)
    return s.checks


def suite_reductions(rng):
    s = Suite()
    Q = Field.rationals()
    # direct products: Jacobians add blockwise
    g2, m2 = carrier("qci2"), carrier("matrix2")
    P = direct_product(g2.algebra, m2.algebra)
    n1 = g2.algebra.dim
    FP = make_frobenius(P, Matrix.block(Q, [[g2.gram, None], [None, m2.gram]]))
    F1 = frobenius_of(g2)
    F2 = frobenius_of(m2)
    for k in range(6):
        u1 = automorphism_sampler("qci2", g2)(rng)
        u2 = inner_automorphism(_random_unit(m2.algebra, rng))
        u = block_map(P, u1, u2, ROLE_ENDOMORPHISM)
        expected = product_embed(P, jacobian(F1, u1), 0) + \
            product_embed(P, jacobian(F2, u2), n1)
        s.eq(f"product-jacobian/{k}", "jac:times", jacobian(FP, u), expected)
    # scalar extension F2 -> F4 on char-2 carriers
    F2f = Field.prime(2)
    F4f = Field.extension(2, [1, 1, 1])
    ext2 = exterior(2, F2f, require_odd_char=False)
    c2 = cyclic(2, F2f)
    for name, item in (("exterior2@F2", ext2), ("cyclic2@F2", c2)):
        A = item.algebra
        F = frobenius_of(item)
        AK = extend_scalars(A, F4f)
        gramK = extend_gram(AK, item.gram)
        FK = make_frobenius(AK, gramK)
        s.record(f"extend-gram/{name}", "jac:ext", True, {"dim": AK.dim})
        for k in range(4):
            if name.startswith("exterior"):
                u = item.phi(_random_invertible(F2f, 2, rng))
            else:
                u = item.u_f([0, 1])
            uK = extend_map(AK, u)
            s.eq(f"extend-jacobian/{name}/{k}", "jac:ext",
                 jacobian(FK, uK), extend_element(AK, jacobian(F, u)))
    # scalar restriction: F4-algebra viewed over F2
    w = F4f.coerce([0, 1])
    qK = qci(w, F4f)
    AK = qK.algebra
    FK = make_frobenius(AK, qK.gram)
    Ap = restrict_scalars(AK, F2f)
    gram_p = restrict_gram(Ap, AK, qK.gram, [1, 0])
    Fp = make_frobenius(Ap, gram_p)
    s.eq("restrict-nakayama/qci@F4", "jac:change",
         Fp.sigma.matrix, restrict_map(Ap, AK, FK.sigma).matrix)
    for k in range(4):
        a = F4f.random_nonzero(rng)
        b = F4f.random_nonzero(rng)
        u = qK.alpha(a, b, F4f.random(rng), F4f.random(rng))
        up = restrict_map(Ap, AK, u)
        s.eq(f"restrict-jacobian/qci@F4/{k}", "jac:change",
             jacobian(Fp, up), restrict_element(Ap, jacobian(FK, u)))
    # a second eps: the form changes but the Nakayama map must not
    gram_p2 = restrict_gram(Ap, AK, qK.gram, [0, 1])
    Fp2 = make_frobenius(Ap, gram_p2)
    s.eq("restrict-nakayama-eps2/qci@F4", "jac:change",
         Fp2.sigma.matrix, restrict_map(Ap, AK, FK.sigma).matrix)
    return s.checks


def suite_strongly_separable(rng):
    s = Suite()
    for name in ("matrix2", "matrix3", "groupS3"):
        item = carrier(name)
        F = frobenius_of(item)
        one = item.algebra.unit_element()
        for k in range(SEPARABLE_SAMPLES):
            u = inner_automorphism(_random_unit(item.algebra, rng))
            s.eq(f"separable-jac/{name}/{k}", "jac:strongly-separable",
                 jacobian(F, u), one)
    return s.checks


def suite_symmetry_and_coboundaries(rng):
    """Symmetry verdicts and the proven-no coboundary obstructions."""
    s = Suite()
    expectations = [("trivDual", True), ("exterior2", False),
                    ("exterior3", True), ("qci2", False)]
    for name, expect in expectations:
        F = frobenius_of(carrier(name))
        verdict = is_symmetric_algebra(F, rng)
        s.record(f"symmetric/{name}", "class:jac",
                 (verdict.verdict == "yes") == expect
                 and verdict.verdict in ("yes", "no"),
                 {"verdict": verdict.verdict, "expected": expect})
    # two Nakayama maps from two valid forms differ by an inner map
    item = carrier("qci2")
    F = frobenius_of(item)
    A = item.algebra
    t = A.unit_element() + item.x
    F2 = shared_frobenius(A, F.gram * right_mult_matrix(t))
    diff = F2.sigma.compose(F.sigma_inv())
    verdict = is_inner(F, diff, rng)
    s.record("form-change/outer-class", "change", verdict.verdict == "yes")
    # Grassmann: the grading-preserving cocycle is not a coboundary
    ext = carrier("exterior2")
    Fx = frobenius_of(ext)
    gens, vals = [], []
    for mat in ([[2, 0], [0, 1]], [[1, 1], [0, 1]], [[0, 1], [1, 0]]):
        u = ext.phi(Matrix(ext.field, mat))
        gens.append(u)
        vals.append(jacobian_cocycle(Fx, u))
    unit_obstruction = [ext.field.one()] + [ext.field.zero()] * (ext.algebra.dim - 1)
    status = coboundary_status(ext.algebra, gens, vals, unit_obstruction, rng)
    s.record("coboundary/grassmann-graded", "class:jac",
             status.verdict == "no", {"verdict": status.verdict})
    # trivial extension: u_z cocycle obstructed by central units
    te = carrier("trivDual")
    Ft = frobenius_of(te)
    z = te.B.unit_element().scale(2)
    u_z = te.u_z(z)
    val = jacobian_cocycle(Ft, u_z)
    unit_obstruction = [te.field.one()] + [te.field.zero()] * (te.algebra.dim - 1)
    status = coboundary_status(te.algebra, [u_z], [val], unit_obstruction, rng)
    s.record("coboundary/trivial-units", "ta:class:1",
             status.verdict == "no", {"verdict": status.verdict})
    s.eq("coboundary/trivial-uz-value", "ta:class:1",
         val, te.embed(inverse_of(z)))
    # on a non-symmetric algebra the inner cocycle is not a coboundary
    iota = inner_automorphism(item.algebra.unit_element() + item.x)
    unit_obstruction = [item.field.one()] + [item.field.zero()] * 3
    status = coboundary_status(item.algebra, [iota],
                               [jacobian_cocycle(F, iota)],
                               unit_obstruction, rng)
    s.record("coboundary/inner-nonsymmetric", "class:jac",
             status.verdict == "no", {"verdict": status.verdict})
    # a constructed coboundary is certified with an explicit unit
    u = item.alpha(2, 3, 1, 1)
    xi = item.algebra.unit_element() + item.x
    val = inverse_of(xi) * u(xi)
    status = coboundary_status(item.algebra, [u], [val], None, rng)
    s.record("coboundary/constructed-yes", "class:jac",
             status.verdict == "yes", {"verdict": status.verdict})
    return s.checks


def suite_complexes():
    """d∘d = 0 and b∘b = 0 on every gallery algebra.

    Small algebras are checked through degree 3; for the larger ones the
    compositions through the degree-2 differentials are checked, which is
    what the default budget admits.
    """
    s = Suite()
    for name, item in gallery_items():
        F = frobenius_of(item)
        pmax = 2 if item.algebra.dim <= 4 else 1
        ok = hh.verify_complex(item.algebra, pmax, F.sigma)
        s.record(f"complex/{name}", "main", ok)
    return s.checks


def run_all(seed=42):
    """Everything: the full verification program, deterministically."""
    rng = SplitMix64(seed)
    checks = []
    checks += suite_osima()
    checks += suite_qci_closed_forms(rng=rng.spawn())
    checks += suite_grassmann(rng=rng.spawn())
    checks += suite_cocycle_laws(rng=rng.spawn())
    checks += suite_jacobian_identities(rng=rng.spawn())
    checks += suite_main_theorem()
    checks += suite_homology()
    checks += suite_cyclic(rng=rng.spawn())
    checks += suite_trivial_extension(rng=rng.spawn())
    checks += suite_divergence(rng=rng.spawn())
    checks += suite_div_nontrivial()
    checks += suite_liouville(rng=rng.spawn())
    checks += suite_crossed(rng=rng.spawn())
    checks += suite_reductions(rng=rng.spawn())
    checks += suite_strongly_separable(rng=rng.spawn())
    checks += suite_symmetry_and_coboundaries(rng=rng.spawn())
    checks += suite_complexes()
    return checks
