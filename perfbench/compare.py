"""Compare the benchmark runs of two commits.

    # alternate runs of a parent and a change checkout, same seed per pair
    python3 perfbench/compare.py run PARENT_DIR CHANGE_DIR --workload certify \
        --pairs 10
    # judge the run files already there
    python3 perfbench/compare.py report PARENT_DIR CHANGE_DIR [--workload W]

A DIR is a checkout (its ``perfbench/runs`` is read) or a directory of run
files.  Runs are paired by seed (``run`` uses seeds 1..pairs and the run
length from BENCHMARK.json).  A workload is a ``REGRESSION`` outright when
a change run is incorrect, or when the change fails more ops or exits
non-zero more often than the parent.  For every end-to-end metric the
report gives each side's median and quartiles and a verdict:

* ``GAIN``: at least 10 pairs that alternate which side ran first, the
  change wins at least 9/10 of them (ties count for neither), the medians
  differ by more than the parent's IQR, and no more ops fail than at the
  parent;
* ``REGRESSION``: the change's median is worse than the parent's by more
  than the metric's bound from BENCHMARK.json;
* ``unresolved``: a side's IQR, as a share of its median, exceeds the
  bound, unless every change run beats every parent run;
* ``no regression`` otherwise.

Traced runs of one seed on both sides are listed per layer, counts first.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path):
    runs_dir = os.path.join(path, "perfbench", "runs")
    if os.path.isdir(runs_dir):
        path = runs_dir
    runs = []
    for name in sorted(glob.glob(os.path.join(path, "*.json"))):
        with open(name) as fh:
            doc = json.load(fh)
        if "stamp" in doc and "result" in doc:
            runs.append(doc)
    digests = {r["stamp"]["src_digest"] for r in runs}
    if len(digests) > 1:
        latest = max(runs, key=lambda r: r["stamp"]["started_unix"])["stamp"]["src_digest"]
        print(f"note: {path} holds runs of {len(digests)} source versions; "
              f"using the latest, {latest}", file=sys.stderr)
        runs = [r for r in runs if r["stamp"]["src_digest"] == latest]
    return runs


def pairs_by_seed(parent, change, workload, trace):
    def first_per_seed(runs):
        out = {}
        for r in sorted(runs, key=lambda r: r["stamp"]["started_unix"]):
            s = r["stamp"]
            if s["workload"] == workload and s["trace"] == trace:
                out.setdefault(s["seed"], r)
        return out
    p, c = first_per_seed(parent), first_per_seed(change)
    seeds = sorted(set(p) & set(c),
                   key=lambda s: min(p[s]["stamp"]["started_unix"],
                                     c[s]["stamp"]["started_unix"]))
    return [(p[s], c[s]) for s in seeds]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(pv, cv, better, bound, alternating, more_failures):
    sign = 1 if better == "lower" else -1
    p1, pm, p3 = quartiles(pv)
    c1, cm, c3 = quartiles(cv)
    worse = sign * (cm - pm) / abs(pm) if pm else 0.0
    wins = sum(1 for a, b in zip(pv, cv) if sign * (b - a) < 0)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(sign * (b - a) < 0 for a in pv for b in cv)
    if spread > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "REGRESSION"
    elif (len(pv) >= MIN_PAIRS and alternating and not more_failures
          and wins >= WIN_SHARE * len(pv) and sign * (cm - pm) < 0
          and abs(cm - pm) > p3 - p1):
        verdict = "GAIN"
    else:
        verdict = "no regression"
    return {"parent": (pm, p1, p3), "change": (cm, c1, c3), "worse": worse,
            "wins": wins, "spread": spread, "verdict": verdict}


def report(parent_dir, change_dir, workloads=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    names = workloads or [w["name"] for w in manifest["workloads"]]
    worst = "ok"
    for w in names:
        pairs = pairs_by_seed(parent, change, w, 0)
        if not pairs:
            print(f"\n== {w}: no untraced runs of one seed on both sides")
            continue
        firsts = [p["stamp"]["started_unix"] < c["stamp"]["started_unix"] for p, c in pairs]
        alternating = abs(2 * sum(firsts) - len(firsts)) <= 1
        pf = sum(p["result"]["failed"] for p, _ in pairs)
        cf = sum(c["result"]["failed"] for _, c in pairs)
        incorrect = sum(not c["result"]["correct"] for _, c in pairs)
        loaded = sum(r["stamp"]["loaded"] for pair in pairs for r in pair)
        print(f"\n== {w}: {len(pairs)} pairs, alternating {'yes' if alternating else 'no'}, "
              f"failed ops parent {pf} / change {cf}, runs started under load {loaded}")
        if incorrect or cf > pf:
            print(f"  REGRESSION: {incorrect} incorrect change runs, "
                  f"{max(cf - pf, 0)} more failed ops than the parent")
            worst = "regression"
        print(f"  {'metric':<18} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
              f" {'worse':>8} {'wins':>6}  verdict")
        for spec in manifest["end_to_end"]:
            name = spec["name"]
            pv = [p["result"]["metrics"][name]["value"] for p, _ in pairs]
            cv = [c["result"]["metrics"][name]["value"] for _, c in pairs]
            j = judge(pv, cv, spec["better"], spec["bound"], alternating, cf > pf)
            fmt = "{:.6g} [{:.6g}, {:.6g}]"
            print(f"  {name:<18} {fmt.format(*j['parent']):>34} {fmt.format(*j['change']):>34}"
                  f" {j['worse']:>+8.2%} {j['wins']:>3}/{len(pairs):<2}  {j['verdict']}"
                  f"  (bound {spec['bound']:.0%}, spread {j['spread']:.1%})")
            if j["verdict"] == "REGRESSION":
                worst = "regression"
            elif j["verdict"] == "unresolved" and worst == "ok":
                worst = "unresolved"
        layer_table(parent, change, w, manifest)
    return worst


def layer_table(parent, change, workload, manifest):
    pairs = pairs_by_seed(parent, change, workload, 1)
    if not pairs:
        return
    p, c = pairs[-1]
    print(f"  per layer, traced seed {p['stamp']['seed']} (counts repeat exactly; times do not):")
    for spec in sorted(manifest["per_layer"], key=lambda s: s["unit"] != "count"):
        a = p["result"]["metrics"][spec["name"]]["value"]
        b = c["result"]["metrics"][spec["name"]]["value"]
        if a == b == 0:
            continue
        ratio = f"{b / a:8.3f}x" if a else "     new"
        print(f"    {spec['name']:<40} {a:>14.6g} {b:>14.6g} {ratio} {spec['unit']}")


def alternate(parent_dir, change_dir, workload, pairs, seconds):
    """Run the pairs; returns the non-zero exits of each side."""
    bad = {parent_dir: 0, change_dir: 0}
    for k in range(pairs):
        order = [parent_dir, change_dir] if k % 2 == 0 else [change_dir, parent_dir]
        for d in order:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(k + 1), "--seconds", str(seconds), "--trace", "0"]
            print(f"pair {k + 1}/{pairs}: {d}: {' '.join(cmd[1:])}", file=sys.stderr)
            code = subprocess.run(cmd, cwd=d, stdout=subprocess.DEVNULL).returncode
            bad[d] += code != 0
    return bad[parent_dir], bad[change_dir]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("report")
    r.add_argument("parent")
    r.add_argument("change")
    r.add_argument("--workload", action="append")
    a = sub.add_parser("run")
    a.add_argument("parent")
    a.add_argument("change")
    a.add_argument("--workload", required=True)
    a.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = ap.parse_args(argv)
    if args.cmd == "run":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            seconds = json.load(fh)["run_seconds"]
        bad_parent, bad_change = alternate(os.path.abspath(args.parent),
                                           os.path.abspath(args.change),
                                           args.workload, args.pairs, seconds)
        worst = report(args.parent, args.change, [args.workload])
        if bad_change > bad_parent:
            print(f"\nREGRESSION: {bad_change} change runs exited non-zero, "
                  f"{bad_parent} parent runs")
            worst = "regression"
    else:
        worst = report(args.parent, args.change, args.workload)
    return 1 if worst == "regression" else 0


if __name__ == "__main__":
    sys.exit(main())
