"""The summary step of ``tools/paired_bench.py`` on a synthetic run list.

No checkout is made and no process is started: the functions that turn
runs into the ``summary``, ``claim`` and ``traced`` parts of a
BENCH_*.json and the one that extracts an archive are called, and ``main``
runs on stand-ins for the checkouts and the runs.
"""

import importlib.util
import io
import json
import pathlib
import subprocess
import tarfile

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py"


@pytest.fixture
def paired_bench(monkeypatch):
    def spawned(*args, **kwargs):
        raise AssertionError("the summary step started a process")

    monkeypatch.setattr(subprocess, "Popen", spawned)
    spec = importlib.util.spec_from_file_location("paired_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(workload, seed, side, wall_s, rss, failed=0, walls=(1.0,)):
    metrics = {"wall_s": {"value": wall_s, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {
        "workload": workload,
        "seed": seed,
        "side": side,
        "position_in_pair": 1 if (seed % 2 == 0) == (side == "parent") else 2,
        "last_line": {"correct": True, "attempted": 10, "failed": failed, "metrics": metrics},
        "pass_walls_s": list(walls),
    }


def synthetic_runs():
    """Ten pairs of "fast", where the change reads 0.8x the parent's wall_s
    but for one pair, and four of "steady", where the change's wall_s is
    30% higher in one pair and its peak RSS always 5% higher."""
    runs = []
    for k in range(10):
        parent = 1.0 + k / 100
        change = parent * (1.1 if k == 3 else 0.8)
        runs += [run("fast", 100 + k, "parent", parent, 20.0),
                 run("fast", 100 + k, "change", change, 20.0, failed=int(k == 9))]
    for k, wall in enumerate((0.5, 0.5, 0.5, 0.5)):
        runs += [run("steady", 200 + k, "change", wall * (1.3 if k == 0 else 1.0), 21.0),
                 run("steady", 200 + k, "parent", wall, 20.0)]
    return runs


def test_summary_of_a_synthetic_run_list(paired_bench):
    summary = paired_bench.summarize(synthetic_runs(), {"wall_s": 0.25, "peak_rss_mb": 0.1})
    assert list(summary) == ["fast", "steady"]
    fast = summary["fast"]
    assert fast["seeds"] == list(range(100, 110))
    assert (fast["failed_parent"], fast["failed_change"]) == (0, 1)
    wall = fast["metrics"]["wall_s"]
    # parent 1.00..1.09: median 1.045, inclusive quartiles 1.0225 and 1.0675
    assert wall["parent_median"] == 1.045
    assert wall["parent_quartiles"] == [1.0225, 1.0675]
    assert wall["change_lower_in_pairs"] == 9 and wall["pairs"] == 10
    # change 0.800..0.872 and 1.133: median (0.840 + 0.848) / 2
    assert wall["change_median"] == 0.844
    assert wall["within_bound"] and wall["change_over_parent"] < 1
    rss = fast["metrics"]["peak_rss_mb"]
    # equal readings: no pair is lower, and the ratio is 1
    assert (rss["change_lower_in_pairs"], rss["change_over_parent"], rss["within_bound"]) == (0, 1.0, True)
    steady = summary["steady"]["metrics"]
    assert steady["wall_s"]["change_median"] == steady["wall_s"]["parent_median"] == 0.5
    assert steady["wall_s"]["change_lower_in_pairs"] == 0 and steady["wall_s"]["within_bound"]
    # 21 MB against 20 MB is 5% worse, inside a 10% bound; at 4% it is not
    assert steady["peak_rss_mb"]["within_bound"]
    tight = paired_bench.summarize(synthetic_runs(), {"peak_rss_mb": 0.04})
    assert not tight["steady"]["metrics"]["peak_rss_mb"]["within_bound"]


def test_claim_needs_nine_tenths_a_gap_past_the_quartiles_and_no_more_failures(paired_bench):
    runs = synthetic_runs()
    bounds = {"wall_s": 0.25, "peak_rss_mb": 0.1}
    summary = paired_bench.summarize(runs, bounds)
    # 9 of 10 pairs, but the change failed one more operation
    assert paired_bench.claim_result(summary, "fast", "wall_s")["met"] is False
    clean = [r for r in runs if r["last_line"]["failed"] == 0] + [
        run("fast", 109, "change", 1.09 * 0.8, 20.0)
    ]
    summary = paired_bench.summarize(clean, bounds)
    assert paired_bench.claim_result(summary, "fast", "wall_s") == {
        "workload": "fast", "metric": "wall_s", "met": True
    }
    # equal medians are no gain, and 0 of 4 pairs is not nine tenths
    assert paired_bench.claim_result(summary, "steady", "wall_s")["met"] is False
    assert paired_bench.claim_result(summary, "fast", "peak_rss_mb")["met"] is False
    # three pairs, all lower and far past the quartiles, are too few
    short = [r for r in clean if r["workload"] == "fast" and r["seed"] < 103]
    assert paired_bench.claim_result(paired_bench.summarize(short, bounds), "fast", "wall_s")["met"] is False


def test_measured_pass_walls_are_kept_and_summarized(paired_bench):
    stdout = (
        "# fail_ratio = 0.0 (0 of 10 operations)\n"
        "# measured pass walls (s): 0.201 0.190 0.250\n"
        "# pass walls at the nominal host speed (s): 0.180 0.181 0.179\n"
        '{"correct": true}\n'
    )
    assert paired_bench._pass_walls(stdout) == [0.201, 0.19, 0.25]
    # The parent's walls pool to 0.20..0.29 (median 0.245); the change's,
    # whose rescaled wall_s is unchanged, to 0.10..0.19 (median 0.145).
    runs = []
    for k in range(5):
        runs += [run("w", k, "parent", 1.0, 20.0, walls=(0.2 + k / 100, 0.25 + k / 100)),
                 run("w", k, "change", 1.0, 20.0, walls=(0.1 + k / 100, 0.15 + k / 100))]
    summary = paired_bench.summarize(runs, {"wall_s": 0.25})["w"]
    assert summary["measured_pass_walls_s"] == {
        "parent_median": 0.245, "change_median": 0.145, "change_over_parent": 0.5918
    }
    assert summary["metrics"]["wall_s"]["change_over_parent"] == 1.0


def test_extract_runs_on_this_python(paired_bench, tmp_path):
    # The data filter is passed only where tarfile has it.
    body = b"print(1)\n"
    buffer = io.BytesIO()
    with tarfile.open(fileobj=buffer, mode="w") as archive:
        member = tarfile.TarInfo("bench/run.py")
        member.size = len(body)
        archive.addfile(member, io.BytesIO(body))
    paired_bench._extract(buffer.getvalue(), tmp_path)
    assert (tmp_path / "bench" / "run.py").read_bytes() == body


def test_claim_adds_one_traced_pair_on_its_workload(paired_bench, monkeypatch, tmp_path):
    # The checkouts and the bench/run.py processes are stand-ins: each run
    # is recorded, and a traced run reads busier on the parent.
    spec = {"run_seconds": 3, "workloads": [{"name": "a"}, {"name": "b"}],
            "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}
    calls = []

    def checkout(repo, rev, dest):
        pathlib.Path(dest).mkdir()
        (pathlib.Path(dest) / "BENCHMARK.json").write_text(json.dumps(spec))
        return rev * 40

    def bench_run(checkout, workload, seed, seconds, trace=0):
        side = pathlib.Path(checkout).name
        calls.append((workload, seed, side, seconds, trace))
        if trace:
            busy = 0.4 if side == "parent" else 0.3
            metrics = {"irs.splice_measures.busy_s": {"value": busy, "unit": "s"},
                       "irs.splice_measures.calls": {"value": 9, "unit": "count"}}
        else:
            metrics = {"wall_s": {"value": 1.0 if side == "parent" else 0.8, "unit": "s"}}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}, [1.0]

    monkeypatch.setattr(paired_bench, "_checkout", checkout)
    monkeypatch.setattr(paired_bench, "_run", bench_run)
    out = tmp_path / "BENCH_test.json"
    argv = ["--parent", "p", "--change", "c", "--seed", "100", "--out", str(out), "--what", "w"]
    paired_bench.main(argv + ["--claim", "b:wall_s"])
    record = json.loads(out.read_text())
    # ten untraced pairs per workload, then one traced pair on b's first seed
    assert len(calls) == 2 * 2 * paired_bench.PAIRS + 2
    assert calls[-2:] == [("b", 110, "parent", 3, 1), ("b", 110, "change", 3, 1)]
    assert all(trace == 0 for *_, trace in calls[:-2])
    assert record["traced"] == {
        "workload": "b", "seed": 110,
        "busy_s": {"parent": {"irs.splice_measures.busy_s": 0.4},
                   "change": {"irs.splice_measures.busy_s": 0.3}},
    }
    assert record["claim"] == {"workload": "b", "metric": "wall_s", "met": True}
    # without a claim no traced run is made
    calls.clear()
    paired_bench.main(argv + ["--workload", "a"])
    assert len(calls) == 2 * paired_bench.PAIRS and json.loads(out.read_text())["traced"] is None
    with pytest.raises(SystemExit):
        paired_bench.main(argv + ["--workload", "a", "--claim", "b:wall_s"])
