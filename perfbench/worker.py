"""The workload process: imports frobcalc from the checkout, sets up, runs
passes until the run length is used, checks outputs and, when traced,
collects the per-layer numbers.  Started by ``run.py``, which reads the
JSON object this prints as its last line; peak RSS is this process's own.

A pass is one complete, fixed set of ops on fresh objects.  Passes repeat
until the next one would end after ``--seconds`` (with a minimum count),
so end-to-end times are medians over passes and per-op latencies pool all
passes.  A traced run first measures untraced passes, then two traced
passes whose exact counts must agree.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from types import SimpleNamespace

import workloads as wl
from layertrace import SPANS, Tracer
from speed import SpeedProbe

_now = time.perf_counter_ns
MODULES = ("errors", "fields", "linalg", "algebra", "gallery", "frobenius", "calculus",
           "hochschild", "crossed", "serialize", "cli")
MIN_PASSES = 2          # so every workload pools at least 100 per-op samples
SETUP_SAMPLES = 7       # setup_s is a median over at least this many set-ups


def import_frobcalc(root, probe=None):
    """frobcalc from root/src, and the import time at reference speed."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "frobcalc", "__init__.py")):
        raise SystemExit(f"perfbench: no frobcalc sources under {src}")
    sys.path.insert(0, src)
    probe = probe or SpeedProbe()
    before = probe.measure()
    t0 = _now()
    mods = {name: importlib.import_module(f"frobcalc.{name}") for name in MODULES}
    import_s = probe.scaled(_now() - t0, before) / 1e9
    pkg = sys.modules["frobcalc"]
    if not os.path.realpath(pkg.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"perfbench: frobcalc imported from {pkg.__file__}, not {src}")
    return SimpleNamespace(**mods), import_s


class Runner:
    def __init__(self, workload, probe, tracer=None):
        self.w = workload
        self.probe = probe
        self.tracer = tracer
        self.setup_ns = []          # at reference speed
        self.raw_setup_ns = []
        self.passes = []            # Recorder per pass
        self.traced = []            # (Recorder, tracer summary, spans)

    def fresh(self):
        before = self.probe.measure()
        t0 = _now()
        state = self.w.setup()
        dt = _now() - t0
        self.raw_setup_ns.append(dt)
        self.setup_ns.append(self.probe.scaled(dt, before))
        self.probe.stale()
        return state

    def one_pass(self, tracer=None):
        state = self.fresh()
        op_base = sum(len(r.ops) for r in self.passes) + sum(
            len(r.ops) for r, _, _ in self.traced)
        rec = wl.Recorder(self.probe, tracer, op_base)
        self.w.run_pass(state, rec)
        return rec

    def untraced(self, seconds, min_passes):
        while len(self.setup_ns) < SETUP_SAMPLES - min_passes:
            self.fresh()
        t_start = _now()
        shortest = None
        while True:
            t0 = _now()
            self.passes.append(self.one_pass())
            took = _now() - t0
            shortest = took if shortest is None else min(shortest, took)
            if (len(self.passes) >= min_passes
                    and (_now() - t_start + shortest) / 1e9 > seconds):
                break

    def traced_passes(self, count):
        tr = self.tracer
        tr.install()
        try:
            for _ in range(count):
                tr.reset()
                rec = self.one_pass(tr)
                self.traced.append((rec, tr.summary(), list(tr.spans)))
        finally:
            tr.uninstall()


def outcome_counts(recs):
    out = {wl.OK: 0, wl.INCONCLUSIVE: 0, wl.FAIL: 0, wl.KNOWN: 0}
    for rec in recs:
        for op in rec.ops:
            out[op["outcome"]] += 1
    return out


def timings(runner, key, wall, setup_ns, import_s):
    ms = [op[key] for rec in runner.passes for op in rec.ops]
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    return {"wall_s": statistics.median(wall(r) for r in runner.passes) / 1e9,
            "op_p50_ms": statistics.median(ms),
            "op_p90_ms": deciles[8],
            "setup_s": import_s + statistics.median(setup_ns) / 1e9,
            }, sum(1 for v in ms if v > deciles[8])


def end_to_end(runner, import_s):
    """Metrics at reference speed, the raw clock readings, outcome counts
    and the number of samples beyond p90."""
    metrics, beyond = timings(runner, "ms", lambda r: r.timed_ns,
                              runner.setup_ns, import_s)
    raw, _ = timings(runner, "raw_ms", lambda r: r.raw_ns, runner.raw_setup_ns, 0.0)
    counts = outcome_counts(runner.passes)
    n = sum(counts.values())
    failed = counts[wl.FAIL] + counts[wl.KNOWN]
    metrics.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1 - failed / n,
        "conclusive_ratio": 1 - counts[wl.INCONCLUSIVE] / n,
    })
    return metrics, raw, counts, beyond


def per_layer(summary, ns, overhead):
    calls, self_s = summary["calls"], summary["self_s"]
    counts, tallies = summary["counts"], summary["tallies"]
    m = {}
    for op in ("mul", "add", "sub", "is_zero", "inv"):
        m[f"fields.{op}.calls"] = counts.get(f"fields.{op}", 0)
    for op in ("mul", "add", "is_zero"):
        m[f"fields.{op}.ns"] = ns.get(f"fields.{op}", 0.0)
    for name in ("hochschild.certificate", "linalg.elim", "linalg.matmul",
                 "algebra.role_check", "frobenius.make_frobenius"):
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in dict.fromkeys(name for _, _, name in SPANS):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    m["hochschild.certificate.zero_rhs"] = tallies.get("certificate.zero_rhs", 0)
    dense = tallies.get("cochain.dense_entries", 0)
    nnz = tallies.get("cochain.nnz", 0)
    m["hochschild.cochain.dense_entries"] = dense
    m["hochschild.cochain.nnz"] = nnz
    m["hochschild.cochain.fill"] = nnz / dense if dense else 0.0
    m["hochschild.echelon.insert.calls"] = calls.get("hochschild.echelon.insert", 0)
    m["hochschild.echelon.rank"] = tallies.get("echelon.rank", 0)
    m["hochschild.echelon.pivot_nnz"] = tallies.get("echelon.pivot_nnz", 0)
    m["algebra.mul_raw.calls"] = counts.get("algebra.mul_raw", 0)
    m["frobenius.unit_search.attempts"] = counts.get("frobenius.unit_search.attempts", 0)
    m["frobenius.unit_search.inconclusive"] = tallies.get("unit_search.inconclusive", 0)
    m["calculus.calls"] = sum(v for k, v in calls.items() if k.startswith("calculus."))
    for code in range(4):
        m[f"cli.exit.{code}"] = tallies.get(f"cli.exit.{code}", 0)
    m["trace.overhead"] = overhead
    return m


def exact_part(summary):
    """Everything in a summary that must repeat exactly at one seed."""
    return {"calls": summary["calls"], "counts": summary["counts"],
            "tallies": summary["tallies"]}


def mean_summary(summaries):
    out = dict(summaries[0])
    names = set().union(*(s["self_s"] for s in summaries))
    out["self_s"] = {k: statistics.fmean(s["self_s"].get(k, 0.0) for s in summaries)
                     for k in names}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    probe = SpeedProbe()
    fc, import_s = import_frobcalc(args.root, probe)
    workdir = os.path.join(args.root, "perfbench", "runs", f"inputs-{os.getpid()}")
    w = wl.make(args.workload, fc, args.seed, workdir)
    try:
        if args.trace:
            runner = Runner(w, probe, Tracer("frobcalc"))
            runner.untraced(args.seconds / 3, 1)
            runner.traced_passes(2)
        else:
            runner = Runner(w, probe)
            runner.untraced(args.seconds, MIN_PASSES)
    finally:
        if hasattr(w, "close"):
            w.close()

    metrics, raw, counts, beyond_p90 = end_to_end(runner, import_s)
    problems = [f"{op['kind']} {op['label']}: {op['why']}"
                for rec in runner.passes for op in rec.ops if op["outcome"] == wl.FAIL]
    out = {"metrics": metrics, "raw": raw, "outcomes": counts, "beyond_p90": beyond_p90,
           "passes": len(runner.passes), "import_s": import_s,
           "setup_samples_s": [v / 1e9 for v in runner.setup_ns],
           "pass_wall_s": [r.timed_ns / 1e9 for r in runner.passes],
           "pass_raw_wall_s": [r.raw_ns / 1e9 for r in runner.passes],
           "probe_ms": {"min": min(probe.samples) / 1e6,
                        "median": statistics.median(probe.samples) / 1e6,
                        "max": max(probe.samples) / 1e6, "count": len(probe.samples)},
           "ops": [dict(op, **{"pass": i}) for i, rec in enumerate(runner.passes)
                   for op in rec.ops]}
    if args.trace:
        traced = runner.traced
        exact = [exact_part(s) for _, s, _ in traced]
        if any(e != exact[0] for e in exact[1:]):
            problems.append("traced counts differ between two passes at one seed")
        problems += [f"traced {op['kind']} {op['label']}: {op['why']}"
                     for rec, _, _ in traced for op in rec.ops if op["outcome"] == wl.FAIL]
        # the result hooks are benchmark-side work: out of the traced wall
        wall_traced = statistics.median(
            (r.raw_ns - s["hook_s"] * 1e9) * r.timed_ns / r.raw_ns
            for r, s, _ in traced) / 1e9
        overhead = wall_traced / metrics["wall_s"]
        ns = runner.tracer.calibrate_ns()
        out["per_layer"] = per_layer(mean_summary([s for _, s, _ in traced]), ns, overhead)
        out["traced_wall_s"] = wall_traced
        if args.spans:
            runner.tracer.spans[:] = [sp for _, _, spans in traced for sp in spans]
            runner.tracer.dump_spans(args.spans)
    out["problems"] = problems
    print(json.dumps(out))


if __name__ == "__main__":
    main()
