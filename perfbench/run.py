"""frobcalc benchmark entry point.

    python3 perfbench/run.py --workload {certify,homology,cli,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The workload runs in a child process
(``worker.py``) that imports frobcalc from ``src/`` of this checkout; its
peak RSS is the child's own.  With ``--trace 0`` the last stdout line
carries every end-to-end metric named in BENCHMARK.json, with
``--trace 1`` every per-layer metric (plus the tracing overhead).  Lines
before it are a human-readable table.  ``--workload all`` runs every
workload in turn and prints each one's table and result line.  Each run
is also kept as a stamped JSON file under ``perfbench/runs/``, which
``compare.py`` reads.

Exit status is 0 only when every output check passed; a failed check is
reported on stderr, kept in the run file and gives exit status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, "runs")
WORKER_TIMEOUT_S = 170


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def src_digest(root=ROOT):
    """sha256 over the package sources: identifies the code without git."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read() + b"\0")
    return h.hexdigest()[:16]


def git_commit(root=ROOT):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(args):
    nproc = len(os.sched_getaffinity(0))
    load1 = os.getloadavg()[0]
    return {"commit": git_commit(), "src_digest": src_digest(),
            "python": platform.python_version(), "nproc": nproc,
            "cpu_model": cpu_model(), "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace,
            "load1_at_start": load1, "loaded": load1 > nproc,
            "started_unix": time.time(),
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def run_worker(args, run_id):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT]
    if args.trace:
        cmd += ["--spans", os.path.join(RUNS, f"{run_id}.spans.jsonl.gz")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: worker failed with exit status {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def table(out, info, specs):
    o = out["outcomes"]
    n = sum(o.values())
    lines = [f"frobcalc benchmark: workload {info['workload']}, seed {info['seed']}, "
             f"trace {info['trace']}, {out['passes']} passes, {n} ops",
             f"  outcomes: ok {o['ok']}, inconclusive {o['inconclusive']}, "
             f"failed {o['fail'] + o['known-defect']} "
             f"(known defect {o['known-defect']}, unexpected {o['fail']})",
             f"  fail_ratio {(o['fail'] + o['known-defect']) / n:.4f}   "
             f"inconclusive_ratio {o['inconclusive'] / n:.4f}   "
             f"samples beyond p90: {out['beyond_p90']}"]
    if "raw" in out and not info["trace"]:
        r = out["raw"]
        lines.append(f"  raw clock (not scaled to reference speed): wall_s {r['wall_s']:.4g} s, "
                     f"op_p50_ms {r['op_p50_ms']:.4g}, op_p90_ms {r['op_p90_ms']:.4g}, "
                     f"set-up without import {r['setup_s']:.4g} s")
    if info["loaded"]:
        lines.append(f"  WARNING: 1-min load {info['load1_at_start']:.2f} "
                     f"above nproc {info['nproc']} at start")
    for spec in specs:
        v = out["reported"][spec["name"]]
        lines.append(f"  {spec['name']:<40} {v:>16.6g} {spec['unit']}")
    return "\n".join(lines)


def run_one(spec, args):
    specs = spec["per_layer" if args.trace else "end_to_end"]
    info = stamp(args)
    if info["loaded"]:
        print(f"perfbench: WARNING: 1-min load {info['load1_at_start']:.2f} above "
              f"nproc {info['nproc']} at start", file=sys.stderr)
    os.makedirs(RUNS, exist_ok=True)
    run_id = (f"{args.workload}-s{args.seed}-t{args.trace}-"
              f"{time.strftime('%Y%m%dT%H%M%S', time.gmtime())}-{os.getpid()}")
    out = run_worker(args, run_id)
    if out is None:
        return 1
    source = out["per_layer"] if args.trace else out["metrics"]
    missing = [s["name"] for s in specs if s["name"] not in source]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    out["reported"] = {s["name"]: source[s["name"]] for s in specs}
    o = out["outcomes"]
    attempted = sum(o.values())
    result = {"correct": not out["problems"], "attempted": attempted,
              "failed": o["fail"] + o["known-defect"],
              "metrics": {s["name"]: {"value": source[s["name"]], "unit": s["unit"]}
                          for s in specs}}
    with open(os.path.join(RUNS, f"{run_id}.json"), "w") as fh:
        json.dump({"stamp": info, "result": result, "worker": out}, fh, indent=1)
    print(table(out, info, specs))
    for problem in out["problems"]:
        print(f"perfbench: OUTPUT CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload named in BENCHMARK.json, or 'all' for each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = manifest()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        codes = [run_one(spec, argparse.Namespace(**{**vars(args), "workload": w}))
                 for w in names]
        return max(codes)
    if args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}")
    return run_one(spec, args)


if __name__ == "__main__":
    sys.exit(main())
