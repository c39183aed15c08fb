"""Paired end-to-end runs of ``bench/run.py`` on two commits, written as a BENCH_*.json.

Run from the root of the repository:

    python3 tools/paired_bench.py --parent REV --change REV --seed 1101 \\
        --out BENCH_name.json --what "what the change does" \\
        [--workload NAME ...] [--claim WORKLOAD:METRIC] [--note TEXT ...]

Each commit is extracted by ``git archive`` into a temporary directory, so
neither side holds a bytecode cache or an uncommitted file.  For each
workload (default: every workload of ``BENCHMARK.json``, in its order) the
tool runs ``PAIRS`` (10) pairs of ``bench/run.py --trace 0``, one process
at a time with ``PYTHONDONTWRITEBYTECODE=1``; both runs of a pair take the
same seed, and the side that runs first alternates from pair to pair.
Workload i takes the seeds ``seed + 10*i`` to ``seed + 10*i + 9``.  The
run length is ``run_seconds`` of the change's ``BENCHMARK.json``, and so
are the end-to-end metrics and their bounds.

With ``--claim``, one more pair runs on the claimed workload, parent
first, with ``--trace 1`` and the workload's first seed; each side's
per-layer ``*.busy_s`` metrics go under ``traced``, so a claim can cite
where the time went.

The output holds ``what``, ``commits``, ``command``, ``host``, ``notes``
(the seeds and run order, then each ``--note``), ``claim``, ``traced``
(null without a claim), a ``summary``
per workload (each metric's median and quartiles per side, the pairs the
change read lower in, the ratio of the medians and whether the change is
within the metric's bound; and each side's median of the measured pass
walls, which no host-speed reading rescales) and, under ``runs``, every
run's last JSON line and its measured pass walls.  Every end-to-end
metric must be one where lower is better.  A claim is met when it rests
on at least ``PAIRS`` pairs, the change reads lower in at least nine
tenths of them, its median is lower by more than the distance between
the parent's quartiles, and no more operations failed.

Extraction uses tarfile's ``data`` filter where the running Python has it
(3.10.12, 3.11.4, 3.12 and later); older versions extract without one.
"""

import argparse
import io
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

PAIRS = 10
COMMAND = "python3 bench/run.py --workload WORKLOAD --seed SEED --seconds {seconds} --trace 0"
_DATA_FILTER = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
PASS_WALLS = "# measured pass walls (s): "


def _extract(tar, dest):
    """Extract the tar archive held in the bytes ``tar`` into ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **_DATA_FILTER)


def _checkout(repo, rev, dest):
    """Extract the tree of ``rev`` into ``dest``; return the full commit id."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=repo, check=True, capture_output=True, text=True,
    ).stdout.strip()
    tar = subprocess.run(["git", "archive", sha], cwd=repo, check=True, capture_output=True).stdout
    _extract(tar, dest)
    return sha


def _pass_walls(stdout):
    """The measured pass walls, in seconds, that a ``bench/run.py`` stdout reports."""
    line = next(ln for ln in stdout.splitlines() if ln.startswith(PASS_WALLS))
    return [float(wall) for wall in line[len(PASS_WALLS):].split()]


def _run(checkout, workload, seed, seconds, trace=0):
    """One ``bench/run.py`` process; its last line, parsed, and its
    measured pass walls."""
    caches = list(pathlib.Path(checkout).rglob("__pycache__"))
    if caches:
        raise RuntimeError(f"bytecode cache in a clean checkout: {caches[0]}")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"{' '.join(argv[1:])} in {checkout} exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    return json.loads(lines[-1]), _pass_walls(done.stdout)


def _value(run, metric):
    return run["last_line"]["metrics"][metric]["value"]


def _quartiles(values):
    return [round(q, 6) for q in statistics.quantiles(values, n=4, method="inclusive")[::2]]


def summarize(runs, bounds):
    """Per workload, in order of first appearance: seeds, failed operations
    per side, and for each metric of ``bounds`` {name: bound}, lower being
    better, the two medians and quartiles, the pairs the change read lower
    in (ties count for neither), the ratio of the medians and whether the
    change's median is within the bound of the parent's; then the median of
    each side's measured pass walls, pooled over its runs.  ``runs`` pairs
    runs by workload and seed."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        sides = {"parent": {}, "change": {}}
        for r in runs:
            if r["workload"] == workload:
                sides[r["side"]][r["seed"]] = r
        seeds = sorted(set(sides["parent"]) & set(sides["change"]))
        entry = {
            "seeds": seeds,
            "failed_parent": sum(sides["parent"][s]["last_line"]["failed"] for s in seeds),
            "failed_change": sum(sides["change"][s]["last_line"]["failed"] for s in seeds),
            "metrics": {},
        }
        for name, bound in bounds.items():
            parent = [_value(sides["parent"][s], name) for s in seeds]
            change = [_value(sides["change"][s], name) for s in seeds]
            p_med, c_med = statistics.median(parent), statistics.median(change)
            entry["metrics"][name] = {
                "parent_median": round(p_med, 6),
                "parent_quartiles": _quartiles(parent),
                "change_median": round(c_med, 6),
                "change_quartiles": _quartiles(change),
                "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change)),
                "pairs": len(seeds),
                "change_over_parent": round(c_med / p_med, 4),
                "within_bound": c_med <= (1 + bound) * p_med,
            }
        p_walls, c_walls = (
            statistics.median(w for s in seeds for w in sides[side][s]["pass_walls_s"])
            for side in ("parent", "change")
        )
        entry["measured_pass_walls_s"] = {
            "parent_median": round(p_walls, 6),
            "change_median": round(c_walls, 6),
            "change_over_parent": round(c_walls / p_walls, 4),
        }
        out[workload] = entry
    return out


def busy_seconds(last_line):
    """The per-layer ``*.busy_s`` metrics of a ``--trace 1`` run's last line."""
    return {name: m["value"] for name, m in last_line["metrics"].items() if name.endswith(".busy_s")}


def claim_result(summary, workload, metric):
    """A claimed gain on one metric, judged on the summary: met when there
    are at least ``PAIRS`` pairs, the change read lower in at least nine
    tenths of them, its median is
    lower than the parent's by more than the parent's interquartile
    distance, and no more operations failed."""
    m = summary[workload]["metrics"][metric]
    lo, hi = m["parent_quartiles"]
    met = (
        m["pairs"] >= PAIRS
        and 10 * m["change_lower_in_pairs"] >= 9 * m["pairs"]
        and m["parent_median"] - m["change_median"] > hi - lo
        and summary[workload]["failed_change"] <= summary[workload]["failed_parent"]
    )
    return {"workload": workload, "metric": metric, "met": met}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", required=True)
    parser.add_argument("--what", required=True)
    parser.add_argument("--note", action="append", default=[])
    parser.add_argument("--claim")
    args = parser.parse_args(argv)
    repo = pathlib.Path.cwd()
    with tempfile.TemporaryDirectory(prefix="paired-bench-") as tmp:
        checkouts, commits = {}, {}
        for side in ("parent", "change"):
            checkouts[side] = os.path.join(tmp, side)
            commits[side] = _checkout(repo, getattr(args, side), checkouts[side])
        spec = json.loads(pathlib.Path(checkouts["change"], "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]
        if any(m["better"] != "lower" for m in spec["end_to_end"]):
            raise SystemExit("only metrics where lower is better are summarized")
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        claimed = args.claim and args.claim.split(":")
        if claimed and claimed[0] not in workloads:
            parser.error(f"--claim names {claimed[0]}, which is not among the workloads run")
        runs = []
        for i, workload in enumerate(workloads):
            for k in range(PAIRS):
                seed = args.seed + i * PAIRS + k
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order, 1):
                    last, walls = _run(checkouts[side], workload, seed, seconds)
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "position_in_pair": position, "last_line": last,
                                 "pass_walls_s": walls})
                    print(f"{workload} seed {seed} {side}: wall_s "
                          f"{last['metrics']['wall_s']['value']:.5f}", file=sys.stderr)
        traced = None
        if claimed:
            seed = args.seed + workloads.index(claimed[0]) * PAIRS
            traced = {"workload": claimed[0], "seed": seed, "busy_s": {}}
            for side in ("parent", "change"):
                last, _ = _run(checkouts[side], claimed[0], seed, seconds, trace=1)
                traced["busy_s"][side] = busy_seconds(last)
    summary = summarize(runs, bounds)
    claim = claim_result(summary, *claimed) if claimed else None
    notes = [
        ", ".join(f"{w} ran on seeds {s['seeds'][0]}-{s['seeds'][-1]}" for w, s in summary.items()) + ".",
        "Within each workload the side that ran first alternated from pair to pair; "
        "position_in_pair gives the order of each run. The runs had PYTHONDONTWRITEBYTECODE "
        "set and neither checkout held a bytecode cache.",
    ]
    record = {
        "what": args.what,
        "commits": commits,
        "command": COMMAND.format(seconds=seconds),
        "host": f"{os.cpu_count()}-core host, Python {platform.python_version()}; "
                "pairs alternate which side runs first",
        "notes": notes + args.note,
        "claim": claim,
        "traced": traced,
        "summary": summary,
        "runs": runs,
    }
    pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
