"""Command-line interface: file-driven checks and the verification gallery.

Every subcommand emits a single JSON report on stdout:

    {"schema": 1, "tool": {...}, "input_digest": ..., "seed": ...,
     "checks": [{"id", "lemma", "status", "witness"?}, ...],
     "data": {...}, "counts": {...}, "timing_ms": ...}

Exit codes: 0 all checks pass, 1 some check fails, 2 inconclusive results
present (unless --allow-inconclusive), 3 usage error.  Reports are
deterministic for a fixed (input, seed) apart from ``timing_ms``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from itertools import islice

from . import __version__, hochschild as hh, serialize, verify
from .algebra import (LinearMap, ROLE_DERIVATION, ROLE_ENDOMORPHISM,
                      center_dimension, derivation_witness, endomorphism_witness,
                      inverse_of)
from .calculus import (commutator_orbit_readings, divergence, exp_derivation,
                       jacobian, jacobian_cocycle, liouville_polynomial)
from .crossed import build_crossed_product, crossed_form, predicted_nakayama
from .errors import BudgetExceeded, FrobcalcError, MalformedInput
from .fields import Field
from .frobenius import is_symmetric_algebra, make_frobenius, sigma_fixes_center
from .gallery import (cyclic, dual_numbers, exterior, ground_field_algebra,
                      matrix_algebra, qci, s3_group_algebra, trivial_extension)
from .linalg import Matrix
from .rng import SplitMix64
from .verify import Check


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def parse_field_flag(text):
    """Q | F<p> | F<p>[a]/<c0,c1,...,1> (monic min_poly coefficients)."""
    if text in ("Q", "q"):
        return Field.rationals()
    if text.startswith("F"):
        p_part, bracket, poly = text[1:].partition("[a]/")
        try:
            p = int(p_part)
            coeffs = [int(c) for c in poly.split(",")] if bracket else None
        except ValueError as exc:
            raise MalformedInput(f"cannot parse field {text!r}") from exc
        return Field.extension(p, coeffs) if bracket else Field.prime(p)
    raise MalformedInput(f"cannot parse field {text!r}")


def build_report(checks, seed, digest, data):
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for c in checks:
        counts[c.status] += 1
    return {
        "schema": serialize.SCHEMA_VERSION,
        "tool": {"name": "frobcalc", "version": __version__},
        "input_digest": digest,
        "seed": seed,
        "checks": [c.as_doc() for c in checks],
        "data": data,
        "counts": counts,
    }


def _emit(report, t0, stream):
    report["timing_ms"] = int((time.perf_counter() - t0) * 1000)
    json.dump(report, stream, sort_keys=True, indent=1)
    stream.write("\n")
    counts = report["counts"]
    if counts["fail"]:
        return 1
    if counts["inconclusive"]:
        return 2
    return 0


# ---------------------------------------------------------------------------
# file-based subcommands

def _load(args, path):
    """The JSON document at ``path``, recorded in ``args.loaded``: a report
    digests every document its request read, in order, so one cut short
    by the budget still carries the digest of its input."""
    doc = serialize.read_json(path)
    args.loaded.append(doc)
    return doc


def _load_algebra(args, need_gram=False):
    """The algebra of ``--file`` and its form (None when it has none)."""
    algebra, gram = serialize.algebra_from_doc(_load(args, args.file))
    if need_gram and gram is None:
        raise MalformedInput("/gram: this subcommand needs the bilinear form")
    return algebra, gram


def _load_frobenius(args):
    """The Frobenius structure of ``--file``, its form validated."""
    return make_frobenius(*_load_algebra(args, need_gram=True))


def _load_map(args, algebra, checks, expected_role):
    """The map of ``--map`` with its role checked, or None when it fails
    the role (recorded as a failing check with the failing pair)."""
    mdoc = _load(args, args.map)
    if not isinstance(mdoc, dict):
        raise MalformedInput("/: expected a JSON object")
    mat = serialize.matrix_from_doc(algebra.field, mdoc.get("matrix"),
                                    algebra.dim, algebra.dim, "/matrix")
    witness = (endomorphism_witness(algebra, mat)
               if expected_role == ROLE_ENDOMORPHISM
               else derivation_witness(algebra, mat))
    if witness is not None:
        checks.append(Check(f"map/{expected_role}", "det", "fail",
                            {"failing_pair": witness}))
        return None
    checks.append(Check(f"map/{expected_role}", "det", "pass"))
    return LinearMap(algebra, mat, expected_role, check=False)


def cmd_check_algebra(args, checks, data, rng):
    algebra, gram = _load_algebra(args)
    checks.append(Check("algebra/valid", "plumbing", "pass"))
    data["dim"] = algebra.dim
    data["center_dim"] = center_dimension(algebra)
    if gram is not None:
        make_frobenius(algebra, gram)
        checks.append(Check("algebra/form-valid", "change", "pass"))


def cmd_frobenius(args, checks, data, rng):
    F = _load_frobenius(args)
    checks.append(Check("frobenius/valid", "change", "pass"))
    checks.append(Check("frobenius/center-fixed", "sigma:central",
                        "pass" if sigma_fixes_center(F) else "fail"))
    data["sigma"] = serialize.matrix_to_doc(F.sigma.matrix)


def cmd_nakayama(args, checks, data, rng):
    F = _load_frobenius(args)
    data["sigma"] = serialize.matrix_to_doc(F.sigma.matrix)
    data["sigma_is_identity"] = F.sigma.is_identity()
    verdict = is_symmetric_algebra(F, rng)
    checks.append(Check("nakayama/symmetric", "class:jac",
                        "pass" if verdict.verdict in ("yes", "no")
                        else "inconclusive",
                        {"verdict": verdict.verdict,
                         "unit": str(verdict.unit) if verdict.unit else None}))
    data["symmetric"] = verdict.verdict


def cmd_jacobian(args, checks, data, rng):
    F = _load_frobenius(args)
    u = _load_map(args, F.algebra, checks, ROLE_ENDOMORPHISM)
    if u is None:
        return
    jac = jacobian(F, u)
    data["jacobian"] = str(jac)
    data["jacobian_coeffs"] = [F.algebra.field.format(c) for c in jac.raw]
    unit = inverse_of(jac) is not None
    invertible = u.is_invertible()
    checks.append(Check("jacobian/unit-iff-invertible", "det:JC",
                        "pass" if unit == invertible else "fail",
                        {"jacobian_unit": unit, "map_invertible": invertible}))
    data["orbit_readings"] = (commutator_orbit_readings(F, u)
                              if invertible else None)


def cmd_divergence(args, checks, data, rng):
    F = _load_frobenius(args)
    d = _load_map(args, F.algebra, checks, ROLE_DERIVATION)
    if d is None:
        return
    div = divergence(F, d)
    checks.append(Check("divergence/identities", "div:ids", "pass"))
    data["divergence"] = str(div)
    data["divergence_coeffs"] = [F.algebra.field.format(c) for c in div.raw]


def cmd_derivations(args, checks, data, rng):
    algebra, _ = _load_algebra(args)
    basis = hh.cocycle_basis(algebra, 1)
    data["derivation_space_dim"] = len(basis)
    size = len(basis) * algebra.dim ** 2   # the report's entries, charged first
    if size > hh.DEFAULT_BUDGET:
        raise BudgetExceeded(f"{size} derivation entries, budget {hh.DEFAULT_BUDGET}")
    data["derivations"] = [
        serialize.matrix_to_doc(c.as_linear_map(ROLE_DERIVATION).matrix)
        for c in basis]
    checks.append(Check("derivations/computed", "plumbing", "pass"))


def cmd_hochschild(args, checks, data, rng):
    algebra, _ = _load_algebra(args)
    dims = []
    for p in range(args.max_degree + 1):
        rep = hh.hh_dimension(algebra, p, args.budget)
        dims.append({"degree": p, "dim": rep.dim,
                     "cycles": rep.dim_cycles, "boundaries": rep.dim_boundaries})
    data["cohomology"] = dims
    center_dim = center_dimension(algebra)
    checks.append(Check("hochschild/h0-is-center", "sigma:central",
                        "pass" if dims[0]["dim"] == center_dim else "fail",
                        {"h0": dims[0]["dim"], "center": center_dim}))


def cmd_verify_main_theorem(args, checks, data, rng):
    F = _load_frobenius(args)
    for p in range(1, args.max_degree + 1):
        cocycles, unsolved = hh.main_theorem(F, p, args.budget)
        checks.append(Check(f"main-theorem/p={p}",
                            "hh2" if p == 2 else "main",
                            "pass" if not unsolved else "fail",
                            {"cocycles": cocycles, "unsolved": unsolved}))


def cmd_homology(args, checks, data, rng):
    F = _load_frobenius(args)
    table = hh.duality_dims(F, args.max_degree, args.budget)
    data["duality"] = table
    checks.append(Check("homology/duality", "partial",
                        "pass" if all(r["match"] for r in table) else "fail",
                        {"table": table}))
    tw = hh.sigma_action_on_homology(F, 0, hh.TWISTED, args.budget)
    checks.append(Check("homology/twisted-action-trivial", "twisted",
                        "pass" if tw.is_identity() else "fail"))


def cmd_crossed_product(args, checks, data, rng):
    F, group, action, alpha = serialize.crossed_from_doc(_load(args, args.file))
    crossed = build_crossed_product(F.algebra, group, action, alpha)
    gram = crossed_form(F, group, action, alpha)
    FC = make_frobenius(crossed, gram)
    checks.append(Check("crossed/form-valid", "jac:cross", "pass"))
    pred = predicted_nakayama(F, group, action, alpha, crossed)
    ok = pred.matrix == FC.sigma.matrix
    checks.append(Check("crossed/nakayama-formula", "crs:s",
                        "pass" if ok else "fail"))
    data["dim"] = crossed.dim
    data["sigma"] = serialize.matrix_to_doc(FC.sigma.matrix)


def cmd_liouville(args, checks, data, rng):
    F = _load_frobenius(args)
    d = _load_map(args, F.algebra, checks, ROLE_DERIVATION)
    if d is None:
        return
    poly = liouville_polynomial(F, d)
    data["polynomial"] = [str(c) for c in poly.coeffs]
    checks.append(Check("liouville/ode", "Liouville", "pass"))
    sinv = F.sigma_inv()
    ok = True
    for t in (0, 1, 2, Fraction(1, 2)):
        E = exp_derivation(d, t)
        if jacobian(F, E) != sinv(poly.evaluate(t)):
            ok = False
    checks.append(Check("liouville/jacobian-of-flow", "li:1",
                        "pass" if ok else "fail"))
    checks.append(Check("liouville/derivative-at-zero", "li:2",
                        "pass" if poly.coefficient(1) == divergence(F, d)
                        else "fail"))


# ---------------------------------------------------------------------------
# gallery

def gallery_expectations(name, item):
    """Closed-form expectation records for a gallery family."""
    records = []
    F = verify.frobenius_of(item)
    if name == "qci":
        f = item.field
        for (a, b, c, d) in ((1, 1, 1, 0), (2, 3, 1, 5), (1, 2, 0, 1)):
            if f.is_zero(f.from_int(a * b)):
                continue  # alpha needs a, b nonzero: (2, 3) vanishes in F2, F3
            jac = jacobian(F, item.alpha(a, b, c, d))
            records.append({
                "constructor": f"alpha({a},{b},{c},{d})",
                "closed_form": "a*b + d*x + (c/q)*y",
                "value": str(jac),
                "matches": jac == item.jac_expected(a, b, c, d)})
            div = divergence(F, item.delta(a, b, c, d))
            records.append({
                "constructor": f"delta({a},{b},{c},{d})",
                "closed_form": "(a+b) + (d/q)*x + c*y",
                "value": str(div),
                "matches": div == item.div_expected(a, b, c, d)})
    elif name == "exterior":
        fm = Matrix.identity(item.field, item.n).scale(2)
        u = item.phi(fm)
        val = jacobian_cocycle(F, u)
        det = item.det_on_generators(fm)
        records.append({
            "constructor": "phi(2·id)",
            "closed_form": "det(f)^-1",
            "value": str(val),
            "matches": val == inverse_of(det)})
    elif name == "cyclic":
        for coeffs in islice(item.all_valid_f(), 4):
            u = item.u_f(coeffs)
            jac = jacobian(F, u)
            records.append({
                "constructor": f"u_f({[item.field.format(c) for c in coeffs]})",
                "closed_form": "mu(f^(p-1)) + sum_i (mu(f^(p-1-i)) + mu(f^(p-i)))·x^i",
                "value": str(jac),
                "matches": jac == item.juf_expected(coeffs)})
        # image of the Jacobian map, as data (exhaustive for small p)
        if item.p == 3:
            image = sorted({str(jacobian(F, item.u_f(c)))
                            for c in item.all_valid_f()})
            records.append({"constructor": "jacobian-image",
                            "closed_form": None, "value": image,
                            "matches": None})
    return records


def _qci(args, field):
    f = field or Field.rationals()
    return qci(f.parse(args.q), f)


def _trivial(args, field):
    """The trivial extension of ``--base``, over ``--field`` (default Q)."""
    bases = {"rationals": ground_field_algebra, "dual-numbers": dual_numbers,
             "matrix2": lambda Q: matrix_algebra(2, Q).algebra}
    if args.base not in bases:
        raise MalformedInput(f"unknown base {args.base!r}")
    return trivial_extension(bases[args.base](field or Field.rationals()))


# name -> (builder(args, field or None), closed-form lemma, --verify-all suites)
GALLERY = {
    "qci": (_qci, "jac:quantum",
            lambda rng: (verify.suite_qci_closed_forms(rng=rng)
                         + verify.suite_jacobian_identities(rng=rng)
                         + verify.suite_homology()
                         + verify.suite_liouville(rng=rng))),
    "exterior": (lambda args, f: exterior(args.n, f, budget=args.budget),
                 "jacjac", lambda rng: verify.suite_grassmann(rng=rng)),
    "cyclic": (lambda args, f: cyclic(args.p, f, budget=args.budget),
               "juf", lambda rng: verify.suite_cyclic(rng=rng)),
    "trivial": (_trivial, "jtv:1",
                lambda rng: verify.suite_trivial_extension(rng=rng)),
    "matrix": (lambda args, f: matrix_algebra(args.m, f, budget=args.budget),
               "jac:strongly-separable",
               lambda rng: verify.suite_strongly_separable(rng=rng)),
    "group-s3": (lambda args, f: s3_group_algebra(f), "jac:strongly-separable",
                 lambda rng: verify.suite_strongly_separable(rng=rng)),
}


def cmd_gallery(args, checks, data, rng):
    field = parse_field_flag(args.field) if args.field else None
    if args.name not in GALLERY:
        raise MalformedInput(f"unknown gallery name {args.name!r}")
    build, lemma, suites = GALLERY[args.name]
    item = build(args, field)
    F = verify.frobenius_of(item)
    checks.append(Check(f"gallery/{args.name}/form-valid", "change", "pass"))
    checks.append(Check(f"gallery/{args.name}/center-fixed", "sigma:central",
                        "pass" if sigma_fixes_center(F) else "fail"))
    data["dim"] = item.algebra.dim
    data["expectations"] = gallery_expectations(args.name, item)
    bad = [r for r in data["expectations"] if r["matches"] is False]
    checks.append(Check(f"gallery/{args.name}/closed-forms", lemma,
                        "pass" if not bad else "fail",
                        {"mismatches": bad}))
    if args.verify_all:
        # the suites run on the fixed Q carriers of verify.gallery_items
        checks.extend(suites(rng))
        if field is not None and field != Field.rationals():
            data["verify_all_field"] = "Q"
    args.loaded += [serialize.algebra_to_doc(item.algebra, item.gram),
                    {"schema": 1, "gallery": args.name}]


def cmd_verify_all(args, checks, data, rng):
    checks.extend(verify.run_all(args.seed))
    data["lemmas"] = sorted({c.lemma for c in checks})
    args.loaded.append({"schema": 1, "verify": "all"})


# ---------------------------------------------------------------------------

def _at_least(low, what):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"{what} must be at least {low}, got {value}")
        return value
    parse.__name__ = what
    return parse


_degree = _at_least(0, "degree")
_budget = _at_least(1, "budget")
_size = _at_least(1, "size")
_characteristic = _at_least(2, "characteristic")


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process: parsing keeps no state
    in it, every ``parse_args`` fills a fresh namespace."""
    parser = _Parser(prog="frobcalc", description=__doc__.splitlines()[0])
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=42)
    common.add_argument("--allow-inconclusive", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, parents=[common])
        p.set_defaults(handler=fn)
        for flag, opts in kw.items():
            p.add_argument(flag, **opts)
        return p

    file_arg = {"--file": {"required": True}}
    add("check-algebra", cmd_check_algebra, **file_arg)
    add("frobenius", cmd_frobenius, **file_arg)
    add("nakayama", cmd_nakayama, **file_arg)
    add("jacobian", cmd_jacobian, **file_arg, **{"--map": {"required": True}})
    add("divergence", cmd_divergence, **file_arg, **{"--map": {"required": True}})
    add("derivations", cmd_derivations, **file_arg)
    add("hochschild", cmd_hochschild, **file_arg,
        **{"--max-degree": {"type": _degree, "default": 2},
           "--budget": {"type": _budget, "default": hh.DEFAULT_BUDGET}})
    add("verify-main-theorem", cmd_verify_main_theorem, **file_arg,
        **{"--max-degree": {"type": _degree, "default": 2},
           "--budget": {"type": _budget, "default": hh.DEFAULT_BUDGET}})
    add("homology", cmd_homology, **file_arg,
        **{"--max-degree": {"type": _degree, "default": 1},
           "--budget": {"type": _budget, "default": hh.DEFAULT_BUDGET}})
    add("crossed-product", cmd_crossed_product, **file_arg)
    add("liouville", cmd_liouville, **file_arg, **{"--map": {"required": True}})
    g = add("gallery", cmd_gallery,
            **{"--q": {"default": "2"}, "--n": {"type": _size, "default": 2},
               "--p": {"type": _characteristic, "default": 3},
               "--m": {"type": _size, "default": 2},
               "--base": {"default": "dual-numbers"},
               "--field": {"default": None},
               "--verify-all": {"action": "store_true"},
               "--budget": {"type": _budget, "default": hh.DEFAULT_BUDGET}})
    g.add_argument("name")
    add("verify-all", cmd_verify_all)
    return parser


def run(argv, stream=None):
    stream = stream or sys.stdout
    t0 = time.perf_counter()
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    rng = SplitMix64(args.seed)
    checks, data = [], {}
    args.loaded = []
    try:
        args.handler(args, checks, data, rng)
    except BudgetExceeded as exc:
        # out of budget: the checks done so far stand, the rest is unknown;
        # the input read so far is still what they were made on
        checks.append(Check("budget", "plumbing", "inconclusive",
                            {"error": str(exc)}))
    except FrobcalcError as exc:
        check_id = "input/schema" if isinstance(exc, MalformedInput) else "internal"
        report = build_report(
            [Check(check_id, "plumbing", "fail", {"error": str(exc)})],
            args.seed, "", {})
        _emit(report, t0, stream)
        return 1
    digest = serialize.digest(args.loaded) if args.loaded else ""
    report = build_report(checks, args.seed, digest, data)
    code = _emit(report, t0, stream)
    if code == 2 and args.allow_inconclusive:
        return 0
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
