"""Per-layer tracing of ctrlinv from outside the package.

`installed(tracer)` wraps the public functions of each ctrlinv module (the
layers) and rebinds the wrapper in every `ctrlinv.*` namespace that holds
the original, since most functions are imported by name into other modules
(`normalize` into dsl, forms, flag, integrals and numeric).  Leaving the
block restores the originals.

A wrapper records a span (name, start, end, parent) in memory and keeps, per
name, the call count, the inclusive time and the self time: the span's
duration minus the time its direct child spans cover.  Spans are written out
only when the run ends.  A wrapper returns the wrapped function's result and
re-raises its exception unchanged, so traced reports are byte-identical to
untraced ones (the worker checks this by digest).
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from collections import Counter

# module -> public functions wrapped as spans
TRACED = {
    "dsl": ("parse_system",),
    "expr": ("normalize", "is_zero", "factor", "divide_exact", "evaluate"),
    "forms": ("reduce_mod", "pivot_solution", "make_form", "wedge"),
    "flag": ("derived_flag", "annihilator", "complete_coframe", "torsion",
             "derived_system", "rref", "certify_rank"),
    "integrals": ("analyze", "first_integrals", "gfi_candidates",
                  "nondegenerate", "check_membership"),
    "sampling": ("zero_locus_points",),
    "numeric": ("invariance_test", "escape_test", "leaf_controllability",
                "lie_bracket", "rhs_function"),
    "cli": ("run",),
}

# (metric name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("dsl.parse_system.s", "s"),
    ("expr.normalize.calls", "count"),
    ("expr.normalize.s", "s"),
    ("expr.normalize.self_s", "s"),
    ("expr.is_zero.calls", "count"),
    ("expr.is_zero.s", "s"),
    ("expr.is_zero.proven_zero", "count"),
    ("expr.is_zero.proven_nonzero", "count"),
    ("expr.is_zero.unknown", "count"),
    ("expr.factor.calls", "count"),
    ("expr.factor.s", "s"),
    ("expr.divide_exact.calls", "count"),
    ("expr.evaluate.calls", "count"),
    ("expr.evaluate.s", "s"),
    ("forms.reduce_mod.calls", "count"),
    ("forms.reduce_mod.s", "s"),
    ("forms.reduce_mod.self_s", "s"),
    ("forms.pivot_solution.calls", "count"),
    ("forms.pivot_solution.s", "s"),
    ("forms.make_form.calls", "count"),
    ("forms.wedge.calls", "count"),
    ("flag.annihilator.s", "s"),
    ("flag.complete_coframe.s", "s"),
    ("flag.torsion.calls", "count"),
    ("flag.torsion.s", "s"),
    ("flag.torsion.self_s", "s"),
    ("flag.derived_system.s", "s"),
    ("flag.rref.calls", "count"),
    ("flag.rref.s", "s"),
    ("flag.certify_rank.s", "s"),
    ("integrals.analyze.s", "s"),
    ("integrals.first_integrals.s", "s"),
    ("integrals.gfi_candidates.s", "s"),
    ("integrals.nondegenerate.s", "s"),
    ("integrals.check_membership.calls", "count"),
    ("integrals.check_membership.s", "s"),
    ("integrals.check_membership.confirmed_ratio", "1"),
    ("sampling.zero_locus_points.calls", "count"),
    ("sampling.zero_locus_points.s", "s"),
    ("sampling.zero_locus_points.points", "count"),
    ("numeric.invariance_test.calls", "count"),
    ("numeric.invariance_test.s", "s"),
    ("numeric.escape_test.calls", "count"),
    ("numeric.escape_test.s", "s"),
    ("numeric.leaf_controllability.s", "s"),
    ("numeric.lie_bracket.calls", "count"),
    ("numeric.rhs.calls", "count"),
    ("numeric.rhs.rows", "count"),
    ("numeric.rhs.s", "s"),
    ("numeric.rhs.rows_per_s", "1/s"),
    ("cli.overhead_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """In-memory span and counter recorder for one thread."""

    def __init__(self):
        self.names = []
        self._ids = {}
        # span i: name id, parent span (-1 for a root), start, end
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stats = {}  # name -> [calls, inclusive s, self s]
        self.counts = Counter()
        self._stack = []  # [span index, time covered by direct children]

    def wrap(self, name, fn, on_result=None):
        """`fn` recorded as span `name`; `on_result(args, result)` runs after
        a successful call (outside the span's own timing)."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        depth = [0]  # re-entries of the same name count once in inclusive s
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            frame = [index, 0.0]
            stack.append(frame)
            depth[0] += 1
            start = clock()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.span_end[index] = end
                stack.pop()
                depth[0] -= 1
                duration = end - start
                stat[0] += 1
                if depth[0] == 0:
                    stat[1] += duration
                stat[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def stat(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])

    def write_spans(self, path):
        """Write every span as JSON: `names`, and `spans` as [index into
        names, start, end, index of the parent span or -1]."""
        spans = [list(span) for span in zip(self.span_name, self.span_start,
                                            self.span_end, self.span_parent)]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": spans}, fh)


def _hooks(tracer):
    """Counters kept at the layer boundaries, keyed by wrapped function."""
    counts = tracer.counts

    def is_zero(args, verdict):
        counts["expr.is_zero." + {"ProvenZero": "proven_zero",
                                  "ProvenNonzero": "proven_nonzero",
                                  "Unknown": "unknown"}[verdict.kind.value]] += 1

    def check_membership(args, result):
        if result.classification.value in ("GeneralizedFirstIntegral",
                                           "FirstIntegral"):
            counts["integrals.check_membership.confirmed"] += 1

    def zero_locus_points(args, points):
        counts["sampling.zero_locus_points.points"] += len(points)

    return {"expr.is_zero": is_zero,
            "integrals.check_membership": check_membership,
            "sampling.zero_locus_points": zero_locus_points}


def _wrap_rhs_function(tracer, fn):
    """`rhs_function` traced, and so is the batched right-hand side it
    returns (what RK4 calls per stage), as numeric.rhs with its row count."""
    traced = tracer.wrap("numeric.rhs_function", fn)

    def count_rows(args, out):
        tracer.counts["numeric.rhs.rows"] += len(args[0])

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.wrap("numeric.rhs", traced(*args, **kwargs), count_rows)

    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace ctrlinv's public functions inside the block."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "ctrlinv" or name.startswith("ctrlinv.")]
    hooks = _hooks(tracer)
    patched = []
    try:
        for module, functions in TRACED.items():
            owner = sys.modules[f"ctrlinv.{module}"]
            for fn_name in functions:
                name = f"{module}.{fn_name}"
                original = getattr(owner, fn_name)
                if name == "numeric.rhs_function":
                    wrapper = _wrap_rhs_function(tracer, original)
                else:
                    wrapper = tracer.wrap(name, original, hooks.get(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            patched.append((m, attr, original))
        yield tracer
    finally:
        for m, attr, original in reversed(patched):
            setattr(m, attr, original)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced pass, except trace.overhead_s."""
    out = {}
    for name, (calls, inclusive, self_s) in tracer.stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = inclusive
        out[f"{name}.self_s"] = self_s
    out.update(tracer.counts)
    membership = tracer.stat("integrals.check_membership")[0]
    confirmed = tracer.counts["integrals.check_membership.confirmed"]
    out["integrals.check_membership.confirmed_ratio"] = (
        confirmed / membership if membership else 0.0)
    rhs_s = tracer.stat("numeric.rhs")[1]
    out["numeric.rhs.rows_per_s"] = (
        tracer.counts["numeric.rhs.rows"] / rhs_s if rhs_s else 0.0)
    # time in cli.run outside every traced ctrlinv call it made
    out["cli.overhead_s"] = tracer.stat("cli.run")[2]
    return {name: out.get(name, 0) for name, _ in LAYER_METRICS
            if name != "trace.overhead_s"}
