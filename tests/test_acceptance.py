"""Acceptance criteria: one test per criterion, exact equality throughout.

Each test prints a single pass/fail line (visible with ``pytest -s``) and
enforces the criterion's wall-clock bound.  Sampling is seeded, so a rerun
checks byte-identical cases.
"""

import time
from contextlib import contextmanager

from frobcalc import verify
from frobcalc.rng import SplitMix64


@contextmanager
def criterion(num, name, limit_s):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL ({time.time() - t0:.2f}s)")
        raise
    elapsed = time.time() - t0
    verdict = "PASS" if elapsed < limit_s else "FAIL (over time budget)"
    print(f"ACCEPTANCE {num:02d} {name}: {verdict} ({elapsed:.2f}s)")
    assert elapsed < limit_s, f"criterion {num} exceeded {limit_s}s"


def assert_all_pass(checks):
    bad = [c for c in checks if c.status != "pass"]
    assert not bad, f"{len(bad)} failing checks: " + \
        "; ".join(f"{c.id} [{c.lemma}] {c.witness}" for c in bad[:5])
    return checks


def test_c01_osima_center():
    with criterion(1, "center fixed on every gallery structure", 5):
        checks = assert_all_pass(verify.suite_osima())
        names = {c.witness["algebra"] if c.witness else c.id.split("/")[1]
                 for c in checks}
        assert len(checks) == 15   # the full gallery list


def test_c02_qci_closed_forms():
    with criterion(2, "quantum-intersection closed forms", 1):
        checks = assert_all_pass(
            verify.suite_qci_closed_forms(rng=SplitMix64(42)))
        # 20 tuples per q, one Jacobian and one divergence check each
        assert len(checks) == 3 * 20 * 2


def test_c03_grassmann():
    with criterion(3, "exterior-algebra Jacobians", 10):
        checks = assert_all_pass(verify.suite_grassmann(rng=SplitMix64(43)))
        phi_checks = [c for c in checks if c.id.startswith("grassmann-phi")]
        assert len(phi_checks) == 30          # 10 per n in {2, 3, 4}
        gamma_checks = [c for c in checks if c.id.startswith("grassmann-gamma")]
        assert len(gamma_checks) == 2 * 4 * 4  # λ ∈ {1, −2}, all (i, α) at n=4


def test_c04_cocycle_laws():
    with criterion(4, "chain rule, cocycle law, conjugation", 10):
        checks = assert_all_pass(
            verify.suite_cocycle_laws(rng=SplitMix64(44)))
        assert sum(c.id.startswith("chain-rule/") for c in checks) == 50
        assert sum(c.id.startswith("cocycle-law/") for c in checks) == 50
        assert sum(c.id.startswith("conjugation/") for c in checks) == 50


def test_c05_main_theorem_certificates():
    with criterion(5, "triviality certificates at p = 1, 2 (3 small)", 120):
        checks = assert_all_pass(verify.suite_main_theorem())
        covered = {(c.witness or {}).get("algebra") for c in checks
                   if c.id.startswith("certificates/")}
        # every gallery algebra of dimension ≤ 8
        assert covered >= {"exterior1", "exterior2", "exterior3", "qci2",
                           "qci3", "qci1/2", "trivQ", "trivDual", "trivM2",
                           "cyclic3", "cyclic5", "matrix2", "groupS3"}
        for c in checks:
            if c.witness and c.witness.get("degree") in (1, 2, 3):
                assert c.witness["unsolved"] == []


def test_c06_homology():
    with criterion(6, "homology actions and duality dimensions", 30):
        assert_all_pass(verify.suite_homology())


def test_c07_cyclic_closed_form():
    with criterion(7, "truncated-polynomial Jacobians in char p", 5):
        checks = assert_all_pass(verify.suite_cyclic(rng=SplitMix64(45)))
        # exhaustive over the 6 valid f for p = 3 (three records per f),
        # 30 sampled for p = 5
        p3 = [c for c in checks if "/p=3/" in c.id]
        p5 = [c for c in checks if "/p=5/" in c.id]
        assert len(p3) == 6 * 3
        assert len(p5) == 30 * 3


def test_c08_trivial_extension():
    with criterion(8, "trivial-extension Jacobians and the image test", 10):
        checks = assert_all_pass(
            verify.suite_trivial_extension(rng=SplitMix64(46)))
        assert sum(c.id.startswith("triv-jac/") for c in checks) == 40
        assert any(c.id == "triv-connes/reject-unit-functional" for c in checks)


def test_c09_divergence_laws():
    with criterion(9, "divergence laws and infeasibility certificates", 15):
        assert_all_pass(verify.suite_divergence(rng=SplitMix64(47)))
        assert_all_pass(verify.suite_div_nontrivial())


def test_c10_liouville():
    with criterion(10, "flow Jacobians and the divergence ODE", 5):
        assert_all_pass(verify.suite_liouville(rng=SplitMix64(48)))


def test_c11_crossed_products():
    with criterion(11, "crossed-product Nakayama formula", 10):
        checks = assert_all_pass(verify.suite_crossed(rng=SplitMix64(49)))
        names = {c.id.split("/")[1] for c in checks
                 if c.id.startswith("crossed-nakayama")}
        assert {"exterior1", "exterior2", "qci2", "cyclic3"} <= names


def test_c12_reductions():
    with criterion(12, "product, extension, and restriction reductions", 5):
        assert_all_pass(verify.suite_reductions(rng=SplitMix64(50)))


def test_c13_strongly_separable():
    with criterion(13, "trace-form Jacobians are trivial", 5):
        checks = assert_all_pass(
            verify.suite_strongly_separable(rng=SplitMix64(51)))
        assert len(checks) == 3 * 20
