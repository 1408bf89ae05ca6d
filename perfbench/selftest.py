"""Self-test of the benchmark's own output checks.

    python3 perfbench/selftest.py

1. A clean certify pass on qci(2)/ℚ has no failures.
2. The same pass with one certificate corrupted after the op (one
   coordinate shifted by 1) counts exactly that op as failed, so
   fail_ratio = 1/ops and ``ok_ratio`` drops by the same share.
3. hh_dimension on exterior(3)/ℚ at p = 2 is attributed to the known
   representative-count defect (see NOTES.md) while that defect stands,
   and passes every homology check once it is fixed.
4. The defect's error raised by an op it is not known to hit is a failure.
5. A CLI report whose counts differ from the expected ones is a failure.

Exit status 0 when every step behaves as stated.
"""

from __future__ import annotations

import os
import sys

import workloads as wl
from speed import SpeedProbe
from worker import Runner, end_to_end, import_frobcalc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class SmallCertify(wl.Certify):
    PAIRS = [("qci2/Q", "qci2", "Q", 3, 4, 4)]


class SmallHomology(wl.Homology):
    ALGEBRAS = [("exterior3/Q", "exterior3", "Q")]


def one_pass(workload):
    runner = Runner(workload, SpeedProbe())
    runner.untraced(0, 1)
    metrics, _, counts, _ = end_to_end(runner, 0.0)
    return runner.passes[0].ops, counts, metrics


def main():
    fc, _ = import_frobcalc(ROOT)
    results = []

    ops, counts, m = one_pass(SmallCertify(fc, 1))
    results.append(("clean certificates pass", counts[wl.FAIL] == 0 and m["ok_ratio"] == 1))

    bad = SmallCertify(fc, 1)
    bad.corrupt = ("qci2/Q", 2)
    ops, counts, m = one_pass(bad)
    failed = [i for i, op in enumerate(ops) if op["outcome"] == wl.FAIL]
    results.append(("corrupted certificate counted in fail_ratio",
                    failed == [2] and abs((1 - m["ok_ratio"]) - 1 / len(ops)) < 1e-12))

    ops, counts, _ = one_pass(SmallHomology(fc, 1))
    hh2 = [op for op in ops if op["kind"] == "hh_dimension" and op["label"].endswith("p=2")]
    others_ok = all(op["outcome"] == wl.OK for op in ops if op not in hh2)
    results.append(("known defect attributed, other homology ops pass",
                    others_ok and hh2[0]["outcome"] in (wl.KNOWN, wl.OK)))

    rec = {"kind": "hh_dimension", "label": "exterior3/Q p=1", "outcome": None}
    wl.judge_error(rec, fc.errors.InternalInconsistency(wl.KNOWN_DEFECT[1]))
    results.append(("defect error on another op is a failure", rec["outcome"] == wl.FAIL))

    cli = wl.Cli(fc, 1, workdir=None)
    rec = {"kind": "jacobian", "label": "x", "ms": 0.0, "outcome": None}
    cli._check(rec, 0, '{"counts": {"pass": 1, "fail": 0, "inconclusive": 0}}',
               ("jacobian", None))
    results.append(("wrong CLI counts are a failure", rec["outcome"] == wl.FAIL))

    for name, ok in results:
        print(f"selftest: {'PASS' if ok else 'FAIL'}: {name}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
