"""Layer tracing from outside the package.

The tracer wraps public functions of the frobcalc modules and records, in
memory, one span per call (name, start, end, parent span, op id) plus
exact call counters.  Every span name is reported as a per-layer self
time, so a span's own work is never hidden from the metrics.  Scalar field
operations are far too frequent for spans, so they only get counters and a
sparse sample of their operands, which is used afterwards to calibrate a
per-call cost in ns.

Wrapping works by replacing every binding of the original object in every
loaded ``frobcalc.*`` module namespace, because several modules bind names
with ``from ... import``.  Methods are replaced on their class.  Nothing
under ``src/`` is modified on disk and :meth:`Tracer.uninstall` restores
every binding.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from contextlib import contextmanager

_now = time.perf_counter_ns

# (module, attribute, span name).  Dotted attributes are methods.  Functions
# not listed here run inside their caller's span and count as its self time.
SPANS = [
    ("linalg", "rref", "linalg.elim"),
    ("linalg", "kernel_basis", "linalg.elim"),
    ("linalg", "solve_linear", "linalg.elim"),
    ("linalg", "invert", "linalg.elim"),
    ("linalg", "column_space_basis", "linalg.elim"),
    ("linalg", "Matrix.__mul__", "linalg.matmul"),
    ("algebra", "Algebra.__init__", "algebra.construct"),
    ("algebra", "endomorphism_witness", "algebra.role_check"),
    ("algebra", "derivation_witness", "algebra.role_check"),
    ("frobenius", "make_frobenius", "frobenius.make_frobenius"),
    ("frobenius", "unit_in_subspace", "frobenius.unit_search"),
    ("calculus", "jacobian", "calculus.jacobian"),
    ("calculus", "divergence", "calculus.divergence"),
    ("calculus", "delta_star", "calculus.delta_star"),
    ("calculus", "liouville_polynomial", "calculus.liouville"),
    ("calculus", "exp_derivation", "calculus.exp_derivation"),
    ("hochschild", "triviality_certificate", "hochschild.certificate"),
    ("hochschild", "cochain_action", "hochschild.cochain_action"),
    ("hochschild", "is_cocycle", "hochschild.is_cocycle"),
    ("hochschild", "apply_coboundary", "hochschild.apply_coboundary"),
    ("hochschild", "cocycle_basis", "hochschild.cocycle_basis"),
    ("hochschild", "_echelonize", "hochschild.echelonize"),
    ("hochschild", "SparseEchelon.insert", "hochschild.echelon.insert"),
    ("hochschild", "SparseEchelon.solve", "hochschild.echelon.solve"),
    ("hochschild", "hh_dimension", "hochschild.homology"),
    ("hochschild", "homology_dimension", "hochschild.homology"),
    ("hochschild", "sigma_action_on_homology", "hochschild.sigma_action"),
    ("crossed", "build_crossed_product", "crossed.build"),
    ("crossed", "predicted_nakayama", "crossed.predicted_nakayama"),
    ("serialize", "algebra_from_doc", "serialize.parse"),
    ("serialize", "matrix_from_doc", "serialize.parse"),
    ("serialize", "crossed_from_doc", "serialize.parse"),
    ("serialize", "digest", "serialize.digest"),
    ("cli", "build_report", "cli.report"),
    ("cli", "_emit", "cli.report"),
    ("cli", "run", "cli.run"),
]

# (module, attribute, counter name): counted, never spanned.
COUNTERS = [
    ("fields", "Field.mul", "fields.mul"),
    ("fields", "Field.add", "fields.add"),
    ("fields", "Field.sub", "fields.sub"),
    ("fields", "Field.is_zero", "fields.is_zero"),
    ("fields", "Field.inv", "fields.inv"),
    ("algebra", "Algebra.mul_raw", "algebra.mul_raw"),
]

# (module, attribute, counter name, span name): counted only when called
# directly inside that span.
COUNTERS_INSIDE = [
    ("algebra", "inverse_of", "frobenius.unit_search.attempts", "frobenius.unit_search"),
]

# Counters whose operands are sampled for the ns calibration.
CALIBRATED = ("fields.mul", "fields.add", "fields.is_zero")
SAMPLE_EVERY = 1 << 10
SAMPLE_SLOTS = 256


class Tracer:
    """Spans and counters for one traced pass at a time."""

    def __init__(self, package):
        self.package = package
        self.patches = []          # (owner, attr, original)
        self.counts = {}           # counter name -> [n]
        self.samples = {name: [None] * SAMPLE_SLOTS for name in CALIBRATED}
        self.spans = []            # (name, start_ns, end_ns, parent, op_id)
        self.hook_ns = {}          # span index -> time its result hooks took
        self.tallies = {}          # computed sizes, e.g. cochain nnz
        self.stack = [-1]
        self.op_id = -1
        self.on = True

    # -- installation ---------------------------------------------------------
    def install(self):
        for mod, attr, name in COUNTERS:
            self._patch(mod, attr, lambda orig, name=name: self._counter(orig, name))
        for mod, attr, name, parent in COUNTERS_INSIDE:
            self._patch(mod, attr, lambda orig, name=name, parent=parent:
                        self._counter_inside(orig, name, parent))
        for mod, attr, name in SPANS:
            hook = _HOOKS.get(attr)
            self._patch(mod, attr,
                        lambda orig, name=name, hook=hook: self._span(orig, name, hook))

    def uninstall(self):
        for owner, attr, orig in reversed(self.patches):
            setattr(owner, attr, orig)
        self.patches.clear()

    def _modules(self):
        prefix = self.package + "."
        return [m for k, m in list(sys.modules.items())
                if m is not None and (k == self.package or k.startswith(prefix))]

    def _patch(self, mod, attr, make):
        module = sys.modules.get(f"{self.package}.{mod}")
        if module is None:
            return
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            orig = vars(owner)[meth]
            setattr(owner, meth, make(orig))
            self.patches.append((owner, meth, orig))
            return
        orig = getattr(module, attr, None)
        if orig is None:
            return
        wrapper = make(orig)
        for m in self._modules():
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapper)
                    self.patches.append((m, key, orig))

    # -- wrappers ---------------------------------------------------------------
    def _counter(self, orig, name):
        cell = self.counts.setdefault(name, [0])
        ring = self.samples.get(name)
        if ring is None:
            @functools.wraps(orig)
            def counted(*args):
                cell[0] += 1
                return orig(*args)
            return counted

        @functools.wraps(orig)
        def sampled(*args):
            n = cell[0] = cell[0] + 1
            if not n & (SAMPLE_EVERY - 1):
                ring[(n // SAMPLE_EVERY) % SAMPLE_SLOTS] = args
            return orig(*args)
        return sampled

    def _counter_inside(self, orig, name, parent):
        cell = self.counts.setdefault(name, [0])
        spans, stack = self.spans, self.stack

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            # an open span's slot holds its name until it closes
            if stack[-1] >= 0 and spans[stack[-1]] == parent:
                cell[0] += 1
            return orig(*args, **kwargs)
        return counted

    def _span(self, orig, name, hook):
        spans, stack, hook_ns = self.spans, self.stack, self.hook_ns

        @functools.wraps(orig)
        def spanned(*args, **kwargs):
            if not self.on:
                return orig(*args, **kwargs)
            idx = len(spans)
            spans.append(name)
            stack.append(idx)
            start = _now()
            try:
                out = orig(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1], self.op_id)
            if hook is not None:
                # the hook runs inside the caller's span: keep its time out
                # of that span's self time
                h0 = _now()
                with self.suspended():
                    hook(self, args, out)
                parent = stack[-1]
                hook_ns[parent] = hook_ns.get(parent, 0) + _now() - h0
            return out
        return spanned

    # -- control ------------------------------------------------------------------
    @contextmanager
    def suspended(self):
        """Run benchmark-side code without its calls showing in any layer."""
        was = self.on
        saved = {k: c[0] for k, c in self.counts.items()}
        self.on = False
        try:
            yield
        finally:
            self.on = was
            for k, n in saved.items():
                self.counts[k][0] = n

    def reset(self):
        for cell in self.counts.values():
            cell[0] = 0
        self.spans.clear()
        self.hook_ns.clear()
        self.tallies.clear()
        self.stack[:] = [-1]

    def tally(self, key, amount=1):
        self.tallies[key] = self.tallies.get(key, 0) + amount

    # -- results ------------------------------------------------------------------
    def summary(self):
        """Per-name calls and self time (less the time of result hooks run
        inside the span), exact counters and tallies, and the total hook
        time, ``hook_s``, which the op timings include."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, self_ns = {}, {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (
                end - start - child_ns[i] - self.hook_ns.get(i, 0))
        counts = {k: c[0] for k, c in self.counts.items()}
        return {"calls": calls, "self_s": {k: v / 1e9 for k, v in self_ns.items()},
                "counts": counts, "tallies": dict(self.tallies),
                "hook_s": sum(self.hook_ns.values()) / 1e9}

    def calibrate_ns(self, repeat=200):
        """Cost per call of the scalar ops on operands sampled from the
        workload; call after :meth:`uninstall` so the originals run."""
        out = {}
        for name in CALIBRATED:
            meth = name.split(".")[1]
            calls = [(getattr(a[0], meth), a[1:]) for a in self.samples[name]
                     if a is not None]
            best = 0.0
            for trial in range(5):
                t0 = _now()
                for _ in range(repeat):
                    for fn, a in calls:
                        fn(*a)
                dt = (_now() - t0) / (repeat * len(calls)) if calls else 0.0
                best = dt if trial == 0 else min(best, dt)
            out[name] = best
        return out

    def dump_spans(self, path):
        with gzip.open(path, "wt") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")))
                fh.write("\n")


# ---------------------------------------------------------------------------
# result hooks: computed sizes read off return values

def cochain_nnz(c):
    """(dense entries, nonzeros) of a cochain, from its public flat form."""
    flat = c.flatten()
    zero = c.algebra.field.zero()
    return len(flat), sum(1 for v in flat if v != zero)


def _cochain_hook(tr, args, out):
    if out is not None:
        dense, nnz = cochain_nnz(out)
        tr.tally("cochain.dense_entries", dense)
        tr.tally("cochain.nnz", nnz)


def _certificate_hook(tr, args, out):
    _cochain_hook(tr, args, out)
    if out is not None and cochain_nnz(out)[1] == 0:
        tr.tally("certificate.zero_rhs")


def _echelonize_hook(tr, args, out):
    ech = out[0]
    tr.tally("echelon.rank", ech.rank)
    tr.tally("echelon.pivot_nnz", sum(len(col) for col, _ in ech.pivots.values()))


def _unit_search_hook(tr, args, out):
    if getattr(out, "verdict", None) == "inconclusive":
        tr.tally("unit_search.inconclusive")


def _run_hook(tr, args, out):
    tr.tally(f"cli.exit.{out}")


_HOOKS = {
    "triviality_certificate": _certificate_hook,
    "cochain_action": _cochain_hook,
    "apply_coboundary": _cochain_hook,
    "_echelonize": _echelonize_hook,
    "unit_in_subspace": _unit_search_hook,
    "run": _run_hook,
}
