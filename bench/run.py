#!/usr/bin/env python3
"""Benchmark of lampirs: one seeded workload per run, see README.md here.

    python3 bench/run.py --workload certify-f2 --seed 1 --seconds 20 --trace 0

Run from the root of the repository.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
metric names and units are those of BENCHMARK.json at the root, end-to-end
metrics with ``--trace 0`` and per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from time import perf_counter

import hostspeed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9
WORKLOAD_NAMES = ("certify-f2", "certify-generic", "splice", "lattice")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def fresh_import():
    """Import the workloads, and lampirs under them, as a new process would."""
    for name in list(sys.modules):
        if name in ("lampirs", "workloads", "spans") or name.startswith("lampirs."):
            del sys.modules[name]
    workloads = importlib.import_module("workloads")
    lampirs_file = os.path.abspath(sys.modules["lampirs"].__file__)
    if not lampirs_file.startswith(SRC + os.sep):
        raise ImportError(f"lampirs imported from {lampirs_file}, not from {SRC}")
    return workloads


def setup(name, seed, workdir):
    """Imports, seeded fixtures and a warm-up run of the first operation,
    repeated; returns the median time at the nominal host speed and the
    last repetition's objects."""
    def once():
        workloads = fresh_import()
        tracing = importlib.import_module("spans")
        workload = workloads.WORKLOADS[name](seed, workdir)
        workload.ops[0].run(tracing.NullTracer())
        return workload, tracing

    times = []
    for _ in range(SETUP_REPEATS):
        (workload, tracing), seconds = hostspeed.at_nominal_speed(once)
        times.append(seconds)
    return statistics.median(times), workload, tracing


def run_op(op, tracer, op_id):
    """Time one operation, then check its output; returns (seconds, ok)."""
    tracer.begin_op(op.kind, op_id)
    started = perf_counter()
    try:
        output = op.run(tracer)
    except Exception:
        ended = perf_counter()
        tracer.end_op(ended, False)
        traceback.print_exc(file=sys.stderr)
        return ended - started, False
    ended = perf_counter()
    try:
        ok = bool(op.check(output))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    tracer.end_op(ended, ok)
    if not ok:
        print(f"check failed: operation {op_id} ({op.kind})", file=sys.stderr)
    return ended - started, ok


def determinism(workload, tracer, first_id):
    """Each CLI run twice through lampirs.cli.main: exit 0, identical bytes."""
    from workloads import run_cli

    failed = 0
    for offset, argv in enumerate(workload.cli_runs):
        tracer.begin_op("cli", first_id + offset)
        try:
            first = tracer.call("cli.main", run_cli, argv)
            second = tracer.call("cli.main", run_cli, argv)
            ok = first == second and first[0] == 0
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        tracer.end_op(perf_counter(), ok)
        if not ok:
            print(f"determinism check failed: lampirs {' '.join(argv)}", file=sys.stderr)
            failed += 1
    return len(workload.cli_runs), failed


def tail(times):
    """Time at the highest percentile with at least ten operations beyond it,
    that percentile, and the operation count."""
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - 11, 0)
    return ordered[rank], 100.0 * (rank + 1) / n, n


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    end_to_end, per_layer = contract()
    workdir = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    try:
        try:
            setup_s, workload, tracing = setup(args.workload, args.seed, workdir)
        except ImportError as exc:
            print(f"cannot import the benchmark or lampirs: {exc}", file=sys.stderr)
            return 2
        workload.prepare()
        passes = max(2, round(args.seconds / workload.pass_s))
        null = tracing.NullTracer()
        tracer = tracing.Tracer() if args.trace else null
        # (operation index, traced, measured seconds, host-speed interval)
        timed = []
        attempted = failed = 0
        op_id = 0
        loop_started = perf_counter()
        readings = hostspeed.Readings()
        for index in range(passes):
            # The traced run alternates untraced and traced passes, so the
            # tracing overhead is measured on the same inputs and machine state.
            traced = bool(args.trace) and index % 2 == 1
            for i, op in enumerate(workload.ops):
                elapsed, ok = run_op(op, tracer if traced else null, op_id)
                timed.append((i, traced, elapsed, readings.interval()))
                op_id += 1
                attempted += 1
                failed += not ok
        readings.close()
        loop_s = perf_counter() - loop_started
        cli_attempted, cli_failed = determinism(workload, tracer, op_id)
        attempted += cli_attempted
        failed += cli_failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # samples[traced][i]: operation i's times at the nominal host speed, in
    # untraced or traced passes; raw[i]: its measured untraced times.
    samples = {False: [[] for _ in workload.ops], True: [[] for _ in workload.ops]}
    raw = [[] for _ in workload.ops]
    for i, traced, elapsed, interval in timed:
        samples[traced][i].append(elapsed * readings.factor(interval))
        if not traced:
            raw[i].append(elapsed)
    typical = [statistics.median(op_times) for op_times in samples[False]]
    times = [t for op_times in samples[False] for t in op_times]
    tail_s, tail_pct, op_count = tail(times)
    print(
        f"# workload {args.workload}, seed {args.seed}, {passes} passes of "
        f"{len(workload.ops)} operations in {loop_s:.1f} s with their checks; "
        f"Python {platform.python_version()}, {os.cpu_count()} CPUs"
    )
    print(f"# fail_ratio = {failed / attempted} ({failed} of {attempted} operations)")
    print(
        "# measured pass walls (s): "
        + " ".join(f"{sum(pass_times):.3f}" for pass_times in zip(*raw))
    )
    print(
        "# pass walls at the nominal host speed (s): "
        + " ".join(f"{sum(pass_times):.3f}" for pass_times in zip(*samples[False]))
    )
    speeds = [hostspeed.NOMINAL_S / r for r in readings.readings]
    print(
        f"# host speed over nominal: median {statistics.median(speeds):.3f}, "
        f"range {min(speeds):.3f} to {max(speeds):.3f} over {len(speeds)} readings"
    )
    if args.trace:
        metrics, busy = tracer.layer_metrics()
        metrics["bench.trace_overhead_s"] = (
            sum(statistics.median(t) for t in samples[True]) - sum(typical)
        )
        layers = {}
        for name, seconds in busy.items():
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
        total = sum(layers.values()) + metrics["bench.glue_s"]
        for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"# traced time in {layer}: {seconds:.3f} s ({100 * seconds / total:.1f}%)")
        trace_dir = os.path.join(ROOT, ".bench-trace")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json"))
        wanted = per_layer
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": sum(typical),
            "op_p50_ms": statistics.median(typical) * 1000,
            "op_tail_ms": tail_s * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"# op_tail_ms is the p{tail_pct:.2f} time over {op_count} operations")
        wanted = end_to_end
    report = {
        name: {"value": metrics.get(name, 0), "unit": unit}
        for name, unit in ((m["name"], m["unit"]) for m in wanted)
    }
    for name, entry in report.items():
        print(f"{name} = {entry['value']} {entry['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
