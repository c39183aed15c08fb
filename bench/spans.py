"""Spans around the benchmark's calls into each lampirs layer.

Every layer call an operation makes goes through ``tracer.call(name, fn,
*args)``.  The untraced run uses ``NullTracer``, whose ``call`` is a plain
call, so end-to-end timings carry no tracing cost.  The traced run uses
``Tracer``, which keeps one span per call in memory: its name, start, end,
parent span and operation id, plus an optional size class.  Spans are
written out once, at the end of the run, and the per-layer metrics are
derived from them.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from time import perf_counter

# Layer calls the operations wrap, by the metric prefix they report under.
LAYER_SPANS = (
    "lamplighter.certify_convergence",
    "lamplighter.SubgroupTriple.conjugated",
    "lamplighter.SubgroupTriple.contains_element",
    "cbrank.build_approach_sequence",
    "cbrank.classify_limit",
    "cbrank.truncation",
    "cbrank.cb_levels",
    "submodules.submodules_of_codimension",
    "submodules.invariant_report",
    "submodules.Submodule.canonical",
    "submodules.Submodule.contains_submodule",
    "submodules.construct_with_invariants",
    "submodules.vanish_sequence",
    "irs.splice_measures",
    "irs.sampler_law_report",
    "irs.majority_invariance_estimate",
    "irs.convergence_report",
    "irs.block_average_marginal",
    "irs.window_of_submodule",
    "algebra.enumerate_irreducibles",
    "algebra.poly_gcd",
    "formats.parse_triple",
    "formats.measure_from_json",
    "formats.distribution_to_json",
    "formats.canonical_json",
    "cli.main",
)

# Work counters: (counter, layer span whose busy time it is divided by).
RATES = {
    "lamplighter.witness_checks_per_s": (
        "lamplighter.witness_checks",
        "lamplighter.certify_convergence",
    ),
    "irs.splice_trials_per_s": ("irs.splice_trials", "irs.splice_measures"),
    "irs.sampler_trials_per_s": ("irs.sampler_trials", "irs.sampler_law_report"),
}


class NullTracer:
    """Tracing off: layer calls are plain calls."""

    def call(self, name, fn, *args, cls=None):
        return fn(*args)

    def count(self, name, value):
        pass

    def begin_op(self, kind, op_id):
        pass

    def end_op(self, end, ok):
        pass


class Tracer:
    """Tracing on: one span per layer call, kept in memory."""

    def __init__(self):
        # [name, start, end, parent index, op id, size class, ok]
        self.spans = []
        self.counts = Counter()
        self._op = None

    def begin_op(self, kind, op_id):
        self._op = len(self.spans)
        self.spans.append([f"op.{kind}", perf_counter(), None, None, op_id, None, True])

    def end_op(self, end, ok):
        span = self.spans[self._op]
        span[2] = end
        span[6] = ok
        self._op = None

    def call(self, name, fn, *args, cls=None):
        parent = self._op
        op_id = self.spans[parent][4] if parent is not None else None
        start = perf_counter()
        ok = False
        try:
            result = fn(*args)
            ok = True
            return result
        finally:
            self.spans.append([name, start, perf_counter(), parent, op_id, cls, ok])

    def count(self, name, value):
        self.counts[name] += value

    def write(self, path):
        keys = ("name", "start", "end", "parent", "op", "class", "ok")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)

    def layer_metrics(self):
        """Per-layer metrics: busy time, calls, failures, size-class medians,
        counters, rates, and the glue time no layer span covers."""
        busy = Counter()
        calls = Counter()
        failed = Counter()
        classes = {}
        child_time = Counter()
        for name, start, end, parent, _, cls, ok in self.spans:
            if name.startswith("op."):
                continue
            busy[name] += end - start
            calls[name] += 1
            failed[name] += not ok
            if cls is not None:
                classes.setdefault(f"{name}.{cls}", []).append(end - start)
            if parent is not None:
                child_time[parent] += end - start
        glue = sum(
            span[2] - span[1] - child_time[idx]
            for idx, span in enumerate(self.spans)
            if span[0].startswith("op.")
        )
        metrics = {}
        for name in LAYER_SPANS:
            metrics[f"{name}.busy_s"] = busy[name]
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.failed"] = failed[name]
        for name, durations in classes.items():
            metrics[f"{name}.median_ms"] = statistics.median(durations) * 1000
        metrics.update(self.counts)
        for rate, (counter, span) in RATES.items():
            metrics[rate] = self.counts[counter] / busy[span] if busy[span] else 0.0
        metrics["bench.glue_s"] = glue
        return metrics, busy
