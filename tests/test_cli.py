"""Command-line interface: outputs, exit codes, determinism.

The commands run in this process through ``main``, which returns the exit
code.  Tests whose contract is about the process run ``python -m
lampirs.cli`` as a child and carry the ``process`` marker: an input refused
with exit code 2, one stderr line and no traceback, byte-identical reruns
across interpreters, and the child's peak RSS.
"""

import hashlib
import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from lampirs.cli import _printed, main
from lampirs.formats import canonical_json, distribution_to_json, format_vector
from lampirs.irs import convergence_report, convergence_trend
from lampirs.selftest import _measure_grid

CMD = [sys.executable, "-m", "lampirs.cli"]
# sha256 of the `irs` stdout, JSON then CSV, over the `_measure_grid(7)`
# measures and the (m, j) grid of `test_trend_grid_hash`, in loop order
GOLDEN_IRS_GRID_SHA256 = "098361f2b1c59d34109f02211476cc48dd25804aa4383b1b247d2c6418895247"


def run_cli(*args):
    """``main(args)`` in this process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_process(*args, timeout=300):
    """``python -m lampirs.cli`` with ``args`` in a child interpreter."""
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=timeout
    )


def run_measured(*args, timeout=60):
    """(exit code, stdout, peak RSS in MB) of ``python -m lampirs.cli`` with
    ``args``.  A wrapper interpreter runs the command as its only child and
    reads that child's peak RSS, so no other process of the suite counts."""
    pytest.importorskip("resource")
    wrapper = (
        "import json, resource, subprocess, sys\n"
        "res = subprocess.run(sys.argv[1:], capture_output=True, text=True)\n"
        "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "mb = peak / (2**20 if sys.platform == 'darwin' else 2**10)\n"
        "print(json.dumps([res.returncode, res.stdout, mb]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", wrapper, *CMD, *args],
        capture_output=True, text=True, timeout=timeout,
    )
    return json.loads(out.stdout)


TRIPLE_TEXT = "s=2\nn=1 e=2 p=2\n1\nv=x^-1*(1+x)\n"

MIX_JSON = json.dumps(
    {
        "schema": "lampirs.measure.v1",
        "n": 1,
        "p": 2,
        "atoms": [
            {"weight": "1/2", "period": 1, "gens": ["1"]},
            {"weight": "1/2", "period": 1, "gens": []},
        ],
    }
)


def measure_json(mu):
    """The measure file of a ``SubgroupMeasure.mixture``."""
    U = mu.atoms[0][1]
    atoms = [
        {"weight": str(w), "period": V.period, "gens": [format_vector(g) for g in V.gens]}
        for w, V in mu.atoms
    ]
    return json.dumps({"schema": "lampirs.measure.v1", "n": U.n, "p": U.p, "atoms": atoms})


class TestCount:
    def test_formula_only(self):
        res = run_cli("count", "5", "1", "0")
        assert res.returncode == 0
        assert json.loads(res.stdout)["formula"] == "1"

    def test_enumerate_match(self):
        res = run_cli("count", "2", "2", "1", "--enumerate")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["formula"] == "3" and data["enumerated"] == 3 and data["match"]

    def test_enumerate_f3(self):
        res = run_cli("count", "3", "1", "2", "--enumerate")
        data = json.loads(res.stdout)
        assert data["formula"] == "6" and data["match"]

    @pytest.mark.process
    def test_enumerate_memory_bounded(self):
        # 131,072 subgroups of F_2[x^±]: the count must not hold them all.
        # Holding the list took 97 MB; counting as they are made, 17 MB.
        returncode, stdout, peak_mb = run_measured("count", "2", "1", "18", "--enumerate")
        assert returncode == 0
        data = json.loads(stdout)
        assert data["enumerated"] == 131072 and data["match"]
        assert peak_mb < 40, peak_mb

    @pytest.mark.process
    def test_enumerate_memory_bounded_rank_two(self):
        # 196,608 subgroups of F_2[x^±]^2 from row tables of at most 2^9
        # rows: only one shape's tables are held, and no subgroup.
        returncode, stdout, peak_mb = run_measured("count", "2", "2", "9", "--enumerate")
        assert returncode == 0
        data = json.loads(stdout)
        assert data["enumerated"] == 196608 and data["match"]
        assert peak_mb < 40, peak_mb


class TestInvariants:
    def test_example_triple(self, tmp_path):
        path = tmp_path / "V.triple"
        path.write_text(TRIPLE_TEXT)
        res = run_cli("invariants", "--triple", str(path))
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert (data["s"], data["e"], data["t"], data["r"]) == (2, 2, 1, 1)

    def test_full_module_triple(self, tmp_path):
        path = tmp_path / "full.triple"
        path.write_text("s=3\nn=1 e=1 p=2\n1\nv=0\n")
        data = json.loads(run_cli("invariants", "--triple", str(path)).stdout)
        assert (data["t"], data["r"]) == (3, 0)

    def test_malformed_file_exit_2(self, tmp_path):
        path = tmp_path / "bad.triple"
        path.write_text("s=2\nnonsense\n")
        res = run_cli("invariants", "--triple", str(path))
        assert res.returncode == 2
        assert "line" in res.stderr

    def test_missing_file_exit_2(self):
        res = run_cli("invariants", "--triple", "/nonexistent/f.triple")
        assert res.returncode == 2


class TestCb:
    def test_csv_closed_form(self):
        res = run_cli("cb", "--tmax", "6", "--prodmax", "6", "--format", "csv")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "t,r,level"
        for line in lines[1:]:
            t, r, level = (int(tok) for tok in line.split(","))
            assert level == (0 if r == 0 else t * r)

    def test_truncation_at_the_budget_edge(self):
        # the 999-element chain t = 1, r <= 998 is the largest the budget takes
        res = run_cli("cb", "--tmax", "1", "--prodmax", "998", "--format", "csv")
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert len(lines) == 1000 and lines[-1] == "1,998,998"


class TestApproachCommand:
    def test_sequence_and_certificate(self, tmp_path):
        path = tmp_path / "V.triple"
        path.write_text(TRIPLE_TEXT)
        outdir = tmp_path / "terms"
        res = run_cli(
            "approach", "--triple", str(path), "--target", "1,0",
            "--count", "8", "--ball", "3,4,8", "--outdir", str(outdir),
        )
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["encodings_exact"]
        assert data["convergence"]["stabilized"]
        assert len(list(outdir.glob("term_*.triple"))) == 8

    def test_terms_keep_the_target_encoding(self, tmp_path):
        # U = (1+x^2) F_2[x^(+-2)]: the first irreducible, 1+x, would give a
        # term of period 1; it is skipped instead of reported as a violation.
        path = tmp_path / "V.triple"
        path.write_text("s=2\nn=1 e=2 p=2\n[1+x^2]\nv=[0]\n")
        res = run_cli(
            "approach", "--triple", str(path), "--target", "1,0",
            "--count", "25", "--ball", "1,1,5",
        )
        assert res.returncode == 0, res.stdout + res.stderr
        data = json.loads(res.stdout)
        assert data["encodings_exact"]
        assert len(data["terms"]) == 25

    def test_invalid_target_usage_error(self, tmp_path):
        path = tmp_path / "V.triple"
        path.write_text(TRIPLE_TEXT)
        res = run_cli("approach", "--triple", str(path), "--target", "3,1")
        assert res.returncode == 2

    @pytest.mark.process
    @pytest.mark.parametrize("target", ["0,0", "0,3", "-1,0"])
    def test_target_t_below_one_usage_error(self, tmp_path, target):
        path = tmp_path / "V.triple"
        path.write_text(TRIPLE_TEXT)
        res = run_process("approach", "--triple", str(path), f"--target={target}")
        assert res.returncode == 2
        assert len(res.stderr.splitlines()) == 1, res.stderr
        assert "target t must be >= 1" in res.stderr


class TestMalformedArguments:
    @pytest.mark.process
    @pytest.mark.parametrize(
        "args",
        [
            ("--target", "1"),
            ("--target", "a,b"),
            ("--target", "1,0", "--ball", "1,2"),
            ("--target", "1,0", "--ball", "1,2,x"),
            ("--target", "1,0", "--ball=1,-3,5"),
            ("--target", "1,0", "--ball=-1,2,5"),
        ],
    )
    def test_approach_exit_2_one_line(self, tmp_path, args):
        path = tmp_path / "V.triple"
        path.write_text(TRIPLE_TEXT)
        res = run_process("approach", "--triple", str(path), "--count", "4", *args)
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1, res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.process
    def test_mix_window_exit_2_one_line(self):
        res = run_process("mix", "--nai", "11", "--trials", "10", "--seed", "1", "--window", "1")
        assert res.returncode == 2
        assert len(res.stderr.splitlines()) == 1, res.stderr

    @pytest.mark.process
    @pytest.mark.parametrize(
        "mu_text, args",
        [
            pytest.param("{not json", ("--j", "1"), id="not-json"),
            pytest.param('{"n": 1, "p": 2}', ("--j", "1"), id="no-atoms"),
            pytest.param(MIX_JSON.replace('"1/2"', '"abc"', 1), ("--j", "1"), id="bad-weight"),
            pytest.param(MIX_JSON.replace('"period": 1', '"period": "x"', 1), ("--j", "1"), id="bad-period"),
            pytest.param(MIX_JSON, ("--j", "-1"), id="negative-j"),
        ],
    )
    def test_irs_exit_2_one_line(self, tmp_path, mu_text, args):
        mu = tmp_path / "mu.json"
        mu.write_text(mu_text)
        res = run_process("irs", "--mu", str(mu), "--m", "4", *args)
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1, res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.process
    @pytest.mark.parametrize("nai", ["a", "11,", "-1"])
    def test_mix_nai_exit_2_one_line(self, nai):
        res = run_process("mix", "--nai", nai, "--trials", "10", "--seed", "1")
        assert res.returncode == 2
        assert len(res.stderr.splitlines()) == 1, res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.process
    def test_mix_nai_over_budget(self):
        # the exact majority measure at 14301 has a 4,303-digit denominator,
        # past Python's 4,300-digit int-to-str limit
        args = ("--nai", "14301", "--trials", "5", "--seed", "3", "--window", "0,0")
        res = run_process("mix", *args)
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1, res.stderr
        assert "budget" in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.process
    @pytest.mark.parametrize("k, a", [("1", "100000"), ("100000", "100000")])
    def test_count_over_budget(self, k, a):
        # the count would need a*k bits: past what prints, or 2^(10^10)
        res = run_process("count", "2", k, a, timeout=20)
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1, res.stderr
        assert "budget" in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.process
    @pytest.mark.parametrize(
        "ball", ["64,1,3", "100000000,1,3", "3,500000,3", "3,1000000000000,3"]
    )
    def test_approach_ball_over_budget(self, tmp_path, ball):
        # just past the ball dimension (129) and the shift count (1,000,001),
        # and two balls far past them
        path = tmp_path / "V.triple"
        path.write_text("s=4\nn=1 e=2 p=2\n1\nv=0\n")
        res = run_process(
            "approach", "--triple", str(path), "--target", "1,0", "--count", "3",
            "--ball", ball, timeout=20,
        )
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1, res.stderr
        assert "budget" in res.stderr and "Traceback" not in res.stderr

    def test_approach_ball_at_the_dimension_budget(self, tmp_path):
        path = tmp_path / "V.triple"
        path.write_text("s=4\nn=1 e=2 p=2\n1\nv=0\n")
        res = run_cli(
            "approach", "--triple", str(path), "--target", "1,0", "--count", "3",
            "--ball", "63,1,3",
        )
        # the sequence does not stabilize on this ball: exit 1, with a report
        assert res.returncode == 1, res.stderr
        assert f'"witnesses_checked":{3 * 2**127}' in res.stdout

    @pytest.mark.process
    @pytest.mark.parametrize("count", ["1001", "1000000"])
    def test_approach_count_over_budget(self, tmp_path, count):
        path = tmp_path / "V.triple"
        path.write_text("s=1\nn=1 e=1 p=2\n0\nv=0\n")
        res = run_process(
            "approach", "--triple", str(path), "--target", "1,0", "--count", count,
            "--ball", "0,0,1", timeout=20,
        )
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1, res.stderr
        assert "budget" in res.stderr and "Traceback" not in res.stderr

    def test_approach_count_at_the_budget(self, tmp_path):
        path = tmp_path / "V.triple"
        path.write_text("s=1\nn=1 e=1 p=2\n0\nv=0\n")
        res = run_cli(
            "approach", "--triple", str(path), "--target", "1,0", "--count", "1000",
            "--ball", "0,0,1",
        )
        assert res.returncode == 0, res.stderr
        assert len(json.loads(res.stdout)["terms"]) == 1000

    @pytest.mark.process
    @pytest.mark.parametrize(
        "ball, code", [("0,7812,63", 0), ("0,7812,1000", 0), ("0,7813,63", 2), ("0,7812,64", 2)]
    )
    def test_approach_ball_at_the_key_budget(self, tmp_path, ball, code):
        # (2S+1)(H+1) keys with H = min(H, count) = 63 or 64: 10^6 is the
        # most allowed; s = 1000 keeps the members few
        path = tmp_path / "V.triple"
        path.write_text("s=1000\nn=1 e=1 p=2\n0\nv=0\n")
        count = "64" if ball.endswith(",64") else "63"
        res = run_process(
            "approach", "--triple", str(path), "--target", "1000,0", "--count", count,
            "--ball", ball, timeout=60,
        )
        assert res.returncode == code, res.stderr
        if code:
            assert "budget" in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.process
    def test_approach_ball_at_the_shift_budget_edge_finishes(self, tmp_path):
        # (2S+1)(H+1) = 38,001 * 26 = 988,026 keys, inside the budget; the
        # degree gap walks the marker lamps of 19,001 member shifts, each
        # from the one before
        path = tmp_path / "V.triple"
        path.write_text(TRIPLE_TEXT)
        res = run_process(
            "approach", "--triple", str(path), "--target", "1,0",
            "--ball", "2,19000,25", timeout=60,
        )
        # the sequence does not stabilize on this ball: exit 1, with a report
        assert res.returncode == 1, res.stderr
        assert json.loads(res.stdout)["convergence"]["stabilized"] is False

    @pytest.mark.process
    def test_cb_truncation_over_budget(self):
        res = run_process("cb", "--tmax", "100000", "--prodmax", "100000000", timeout=20)
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1, res.stderr
        assert "budget" in res.stderr

    @pytest.mark.process
    @pytest.mark.parametrize(
        "args",
        [
            ("count", "2", "1", "1", "--format", "csv"),
            ("cb", "--tmax", "4", "--prodmax", "4", "--format", "text"),
        ],
    )
    def test_format_without_table_exit_2_one_line(self, args):
        # only cb, irs and mix have a CSV table, and no command prints text
        res = run_process(*args)
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1, res.stderr
        assert "--format" in res.stderr

    @pytest.mark.process
    @pytest.mark.parametrize(
        "args, message",
        [(("0", "1", "1"), "lamp rank n"), (("1", "0", "1"), "minimal period b")],
    )
    def test_construct_names_the_bad_argument(self, args, message):
        res = run_process("construct", *args)
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1, res.stderr
        assert message in res.stderr

    @pytest.mark.process
    def test_irs_directory_as_measure(self, tmp_path):
        res = run_process("irs", "--mu", str(tmp_path), "--m", "4", "--j", "1")
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1, res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.process
    @pytest.mark.parametrize("command", ["invariants", "approach"])
    def test_binary_triple_file(self, tmp_path, command):
        path = tmp_path / "V.triple"
        path.write_bytes(b"\xff\xfe\x00\x80binary")
        extra = ("--target", "1,0", "--count", "4") if command == "approach" else ()
        res = run_process(command, "--triple", str(path), *extra)
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1, res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.process
    @pytest.mark.parametrize("command", ["irs", "mix"])
    def test_negative_weight_one_line(self, tmp_path, command):
        # the weights 1, 1, -1 on 1, 1+x and 0 sum to 1
        atoms = [{"weight": w, "gens": g} for w, g in [("1", ["1"]), ("1", ["1+x"]), ("-1", [])]]
        mu = tmp_path / "mu.json"
        mu.write_text(json.dumps({"n": 1, "p": 2, "atoms": atoms}))
        if command == "irs":
            args = ("irs", "--mu", str(mu), "--m", "4", "--j", "0")
        else:
            args = ("mix", "--nai", "3", "--trials", "10", "--seed", "1", "--mu1", str(mu))
        res = run_process(*args, timeout=20)
        assert res.returncode == 2 and res.stdout == ""
        assert len(res.stderr.splitlines()) == 1, res.stderr
        assert "weight -1 is negative" in res.stderr

    def test_irs_empty_atom_list(self, tmp_path):
        mu = tmp_path / "mu.json"
        mu.write_text(json.dumps({**json.loads(MIX_JSON), "atoms": []}))
        res = run_cli("irs", "--mu", str(mu), "--m", "4", "--j", "1")
        assert res.returncode == 2
        assert "at least one atom" in res.stderr

    @pytest.mark.process
    def test_mix_denominator_above_two_to_the_64(self, tmp_path):
        big = 2**64 + 1
        mu = json.loads(MIX_JSON)
        mu["atoms"][0]["weight"] = f"1/{big}"
        mu["atoms"][1]["weight"] = f"{big - 1}/{big}"
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(mu))
        res = run_process("mix", "--nai", "11", "--trials", "10", "--seed", "1", "--mu1", str(path))
        assert res.returncode == 2
        assert len(res.stderr.splitlines()) == 1, res.stderr

    @pytest.mark.process
    def test_mix_mismatched_measures_name_p(self, tmp_path):
        mu = tmp_path / "mu.json"
        mu.write_text(MIX_JSON.replace('"p": 2', '"p": 3'))
        res = run_process("mix", "--nai", "11", "--trials", "10", "--seed", "1", "--mu1", str(mu))
        assert res.returncode == 2
        assert len(res.stderr.splitlines()) == 1, res.stderr
        assert "p=3" in res.stderr and "p=2" in res.stderr


def assert_refused_by_budget(res):
    assert res.returncode == 2
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1, res.stderr
    assert "budget" in res.stderr and "Traceback" not in res.stderr


def measure_with_period(tmp_path, period):
    path = tmp_path / "mu.json"
    atom = {"weight": "1", "period": period, "gens": ["1+x"]}
    path.write_text(json.dumps({"n": 1, "p": 2, "atoms": [atom]}))
    return str(path)


# An integer literal of 5,000 digits, past the 4,300 that Python's int() reads
HUGE = "9" * 5000
HUGE_TRIPLES = {
    "coefficient": f"s=2\nn=1 e=2 p=2\n[{HUGE}x]\nv=[0]\n",
    "exponent": f"s=2\nn=1 e=2 p=2\n[x^{HUGE}]\nv=[0]\n",
    "offset": f"s=2\nn=1 e=2 p=2\n[x^{HUGE}*(1+x)]\nv=[0]\n",
    "marker": f"s=2\nn=1 e=2 p=2\n1\nv=[x^-{HUGE}]\n",
    "n": f"s=2\nn={HUGE} e=2 p=2\n1\nv=0\n",
    "e": f"s=2\nn=1 e={HUGE} p=2\n1\nv=0\n",
    "p": f"s=2\nn=1 e=2 p={HUGE}\n1\nv=0\n",
    "s": f"s={HUGE}\nn=1 e=2 p=2\n1\nv=0\n",
}
HUGE_GENERATORS = {
    "coefficient": f"{HUGE}x",
    "exponent": f"x^{HUGE}",
    "offset": f"x^-{HUGE}*(1+x)",
}


class TestOversizedIntegers:
    """An integer of the input past what Python reads is refused as a
    format error naming its line: exit 2, one stderr line, no traceback."""

    @staticmethod
    def assert_refused(res, line=None):
        assert res.returncode == 2, res.stderr[-300:]
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1, res.stderr[-300:]
        assert res.stderr.startswith("input error: ") and "Traceback" not in res.stderr
        assert len(res.stderr) < 200
        if line is not None:
            assert f"line {line}:" in res.stderr

    @pytest.mark.process
    @pytest.mark.parametrize("command", ["invariants", "approach"])
    @pytest.mark.parametrize("position", sorted(HUGE_TRIPLES))
    def test_triple(self, tmp_path, command, position):
        path = tmp_path / "V.triple"
        path.write_text(HUGE_TRIPLES[position])
        extra = ("--target", "1,0", "--count", "4") if command == "approach" else ()
        res = run_process(command, "--triple", str(path), *extra)
        line = {"s": 1, "n": 2, "e": 2, "p": 2, "marker": 4}.get(position, 3)
        self.assert_refused(res, line)

    @pytest.mark.process
    @pytest.mark.parametrize("command", ["irs", "mix"])
    @pytest.mark.parametrize("position", sorted(HUGE_GENERATORS))
    def test_measure_generator(self, tmp_path, command, position):
        mu = tmp_path / "mu.json"
        gens = f'"gens": ["{HUGE_GENERATORS[position]}"]'
        mu.write_text(MIX_JSON.replace('"gens": ["1"]', gens, 1))
        if command == "irs":
            res = run_process("irs", "--mu", str(mu), "--m", "4", "--j", "1")
        else:
            res = run_process(
                "mix", "--nai", "11", "--trials", "10", "--seed", "1", "--mu1", str(mu)
            )
        self.assert_refused(res)


class TestFormColumnBudget:
    # A form at level L has n*L columns; 16384 is the budget.

    @pytest.mark.process
    @pytest.mark.parametrize("n, period", [(1, 16385), (1, 2000000), (2, 8193)])
    def test_invariants_over_budget(self, tmp_path, n, period):
        zeros = ",0" * (n - 1)
        path = tmp_path / "V.triple"
        path.write_text(f"s=0\nn={n} e={period} p=2\n[1+x{zeros}]\nv=[0{zeros}]\n")
        assert_refused_by_budget(run_process("invariants", "--triple", str(path), timeout=20))

    def test_invariants_at_the_budget(self, tmp_path):
        path = tmp_path / "V.triple"
        path.write_text("s=0\nn=1 e=16384 p=2\n1+x\nv=0\n")
        res = run_cli("invariants", "--triple", str(path))
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["e"] == 16384

    @pytest.mark.process
    @pytest.mark.parametrize("period", [16385, 3000000])
    @pytest.mark.parametrize("command", ["irs", "mix"])
    def test_measure_atom_over_budget(self, tmp_path, command, period):
        mu = measure_with_period(tmp_path, period)
        if command == "irs":
            args = ("irs", "--mu", mu, "--m", "3", "--j", "1")
        else:
            args = ("mix", "--nai", "3", "--trials", "1", "--seed", "1", "--mu1", mu)
        assert_refused_by_budget(run_process(*args, timeout=20))

    def test_measure_atom_at_the_budget(self, tmp_path):
        mu = measure_with_period(tmp_path, 16384)
        res = run_cli("mix", "--nai", "3", "--trials", "1", "--seed", "1", "--mu1", mu)
        assert res.returncode == 0, res.stderr

    def test_stored_period_without_a_form(self):
        res = run_cli("construct", "1", "100000000", "1")
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("n=1 e=100000000 p=2\n")

    @pytest.mark.process
    @pytest.mark.parametrize("b", [16385, 200000])
    def test_construct_rank_over_budget(self, b):
        # rescaled rank r needs about r generators and a form of >= r columns
        assert_refused_by_budget(run_process("construct", "1", str(b), str(b), timeout=20))

    def test_construct_rank_at_the_budget(self):
        res = run_cli("construct", "1", "16384", "16384")
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("n=1 e=16384 p=2\n")


def construct_triple(tmp_path, level):
    """A triple file of s = 0 on the generators ``construct 1 level level`` prints."""
    gens = run_cli("construct", "1", str(level), str(level)).stdout
    path = tmp_path / "V.triple"
    path.write_text("s=0\n" + gens + "v=0\n")
    return str(path)


class TestFormEntryBudget:
    # A form at level L has n*L columns and may have as many rows; 65536
    # entries is the budget.

    @pytest.mark.process
    def test_invariants_over_budget(self, tmp_path):
        # 480 generators at period 480: 230,400 entries
        path = construct_triple(tmp_path, 480)
        assert_refused_by_budget(run_process("invariants", "--triple", path, timeout=20))

    def test_invariants_at_the_budget(self, tmp_path):
        res = run_cli("invariants", "--triple", construct_triple(tmp_path, 256))
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["e"] == 256

    @pytest.mark.process
    @pytest.mark.parametrize("n, r", [(16384, 16384), (4000000, 1)])
    def test_construct_generator_entries_over_budget(self, n, r):
        # r generators of n coordinates: every form has r rows of n*b >= n columns
        assert_refused_by_budget(run_process("construct", str(n), "1", str(r), timeout=20))

    def test_construct_generator_entries_at_the_budget(self):
        # 256 generators of 256 coordinates; `construct 1 16384 16384` and
        # `construct 1 100000000 1` stay accepted too (TestFormColumnBudget)
        res = run_cli("construct", "256", "1", "256")
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("n=256 e=1 p=2\n")
        assert len(res.stdout.splitlines()) == 257

    @pytest.mark.process
    def test_approach_over_budget(self, tmp_path):
        # from U = 0 at s = 1600 toward t = 1, each term has 1,600 rows and columns
        path = tmp_path / "Z.triple"
        path.write_text("s=1600\nn=1 e=1 p=2\nv=0\n")
        args = ("--target", "1,0", "--count", "1", "--ball", "1,1,1")
        res = run_process("approach", "--triple", str(path), *args, timeout=20)
        assert_refused_by_budget(res)


class TestPolySpanBudget:
    # A parsed polynomial's body is stored densely: an exponent span, highest
    # minus lowest exponent of its nonzero terms, above 65536 is refused.

    @pytest.mark.process
    @pytest.mark.parametrize(
        "gen", ["1+x^-65537", "1+x^-3000000", "1+x^-99999999", "x^-5*(1+x^70000)"]
    )
    def test_invariants_over_budget(self, tmp_path, gen):
        path = tmp_path / "V.triple"
        path.write_text(f"s=0\nn=1 e=1 p=2\n[{gen}]\nv=[0]\n")
        assert_refused_by_budget(run_process("invariants", "--triple", str(path), timeout=20))

    @pytest.mark.process
    def test_marker_over_budget(self, tmp_path):
        path = tmp_path / "V.triple"
        path.write_text("s=1\nn=1 e=1 p=2\n1+x\nv=x^-40000+x^40000\n")
        assert_refused_by_budget(run_process("invariants", "--triple", str(path), timeout=20))

    @pytest.mark.process
    def test_measure_generator_over_budget(self, tmp_path):
        path = tmp_path / "mu.json"
        atom = {"weight": "1", "gens": ["1+x^65537"]}
        path.write_text(json.dumps({"n": 1, "p": 2, "atoms": [atom]}))
        args = ("mix", "--nai", "3", "--trials", "1", "--seed", "1", "--mu1", str(path))
        assert_refused_by_budget(run_process(*args, timeout=20))

    @pytest.mark.parametrize("gen", ["1+x^-65536", "x^-32768*(1+x^65536)", "1+3x^99999+x^65536"])
    def test_invariants_at_the_budget(self, tmp_path, gen):
        # at p = 3 the coefficient 3 is zero, so x^99999 is no term
        path = tmp_path / "V.triple"
        path.write_text(f"s=0\nn=1 e=1 p=3\n[{gen}]\nv=[0]\n")
        res = run_cli("invariants", "--triple", str(path))
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["rk"] == 1

    def test_lone_monomial_with_a_huge_exponent(self, tmp_path):
        path = tmp_path / "V.triple"
        path.write_text("s=1\nn=1 e=1 p=2\n1+x\nv=x^99999999999\n")
        res = run_cli("invariants", "--triple", str(path))
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["s"] == 1


class TestFarExponents:
    # A shift or an exponent far from 0 costs no walk per exponent: a
    # non-period s is reduced modulo the stored period, a membership test
    # moves its vector next to y^0, an entry in a free column of a form is
    # its own residue and is not walked, and a walk of more than
    # RESIDUE_RANGE_BUDGET = 2^17 y-steps over the entries in pivot columns
    # is refused before its first step.  Each input took 3.9 s or more
    # before, linear in the exponent.

    @staticmethod
    def run_timed(tmp_path, text, command, *args):
        path = tmp_path / "V.triple"
        path.write_text(text)
        started = time.perf_counter()
        res = run_process(command, "--triple", str(path), *args, timeout=20)
        return res, time.perf_counter() - started

    @pytest.mark.process
    def test_a_far_non_period_is_refused_at_once(self, tmp_path):
        text = "s=10000000000000001\nn=1 e=2 p=2\n1\nv=x^-1*(1+x)\n"
        res, seconds = self.run_timed(tmp_path, text, "invariants")
        assert res.returncode == 2 and "is not a period of U" in res.stderr
        assert len(res.stderr.splitlines()) == 1 and seconds < 3

    @pytest.mark.process
    def test_a_far_generator_is_moved_next_to_y0(self, tmp_path):
        text = "s=0\nn=1 e=2 p=2\nx^9999999*(1)\nv=0\n"
        res, seconds = self.run_timed(tmp_path, text, "invariants")
        assert res.returncode == 0, res.stderr
        assert (json.loads(res.stdout)["e"], json.loads(res.stdout)["rk"]) == (2, 1)
        assert seconds < 3

    @pytest.mark.process
    def test_a_far_free_column_entry_is_not_walked(self, tmp_path):
        # The form at level 2 has the one row [1, x^9999999], pivot in
        # column 0; its far entry, in column 3, and those of x times the
        # generator lie in free columns.
        text = "s=0\nn=2 e=2 p=2\n[1, x^9999999]\nv=[0, 0]\n"
        res, seconds = self.run_timed(tmp_path, text, "invariants")
        assert res.returncode == 0, res.stderr
        assert (json.loads(res.stdout)["e"], json.loads(res.stdout)["rk"]) == (2, 1)
        assert seconds < 3

    @pytest.mark.process
    @pytest.mark.parametrize(
        "text, command, args",
        [
            ("s=2\nn=1 e=2 p=2\n1+x^2\nv=x^9999999\n", "approach",
             ("--target", "1,0", "--count", "3", "--ball", "2,2,3")),
        ],
        ids=["far-marker"],
    )
    def test_a_far_residue_is_refused_by_its_budget(self, tmp_path, text, command, args):
        res, seconds = self.run_timed(tmp_path, text, command, *args)
        assert_refused_by_budget(res)
        assert "residue walk of y-range 4999999 exceeds the budget 131072" in res.stderr
        assert seconds < 3

    @pytest.mark.process
    @pytest.mark.parametrize("weight", ["1e-2000000", "0e-3000000", "1e-10000000"])
    def test_a_far_weight_exponent_is_refused_at_once(self, tmp_path, weight):
        # Fraction expanded 10^e first: 0.57 s, 1.07 s and 9.1 s of parsing.
        mu = json.loads(MIX_JSON)
        mu["atoms"][0]["weight"] = weight
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(mu))
        started = time.perf_counter()
        res = run_process("irs", "--mu", str(path), "--m", "4", "--j", "1", timeout=20)
        seconds = time.perf_counter() - started
        assert res.returncode == 2 and len(res.stderr.splitlines()) == 1, res.stderr
        assert f"weight '{weight}' has an exponent past 4299" in res.stderr
        assert seconds < 3


class TestSpliceWindowBudget:
    # n*(hi - lo + 1) may reach WINDOW_DIM_BUDGET = 24.

    @pytest.mark.process
    @pytest.mark.parametrize(
        "args", [("--window", "0,24"), ("--window", "0,20000"), ("--n", "2", "--window", "0,12")]
    )
    def test_mix_window_over_budget(self, args):
        res = run_process("mix", "--nai", "3", "--trials", "1", "--seed", "1", *args, timeout=20)
        assert_refused_by_budget(res)

    @pytest.mark.parametrize("args", [("--window", "0,23"), ("--n", "2", "--window", "5,16")])
    def test_mix_window_at_the_budget(self, args):
        res = run_cli("mix", "--nai", "3", "--trials", "1", "--seed", "1", *args)
        assert res.returncode == 0, res.stderr


class TestIrsCommand:
    def test_bound_report(self, tmp_path):
        mu = tmp_path / "mix.json"
        mu.write_text(MIX_JSON)
        res = run_cli("irs", "--mu", str(mu), "--m", "8", "--j", "1")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["tv"] == "1/8" and data["pass"] and data["literal_bound_held"]
        trend = {row["m"]: row["tv"] for row in data["trend"]}
        assert trend[2] == "1/2" and trend[4] == "1/4" and trend[8] == "1/8"

    def test_zero_weight_atom_keeps_the_measure_invariant(self, tmp_path):
        # a weight-0 atom whose shift is no atom is left out of the
        # invariance test, as it is out of every marginal
        data = json.loads(MIX_JSON)
        plain = tmp_path / "mix.json"
        plain.write_text(MIX_JSON)
        data["atoms"].insert(1, {"weight": "0", "period": 2, "gens": ["1"]})
        padded = tmp_path / "padded.json"
        padded.write_text(json.dumps(data))
        runs = [run_cli("irs", "--mu", str(mu), "--m", "2", "--j", "1") for mu in (plain, padded)]
        assert [res.returncode for res in runs] == [0, 0], runs[1].stderr
        assert runs[1].stdout == runs[0].stdout

    def test_m_far_past_the_width(self, tmp_path):
        mu = tmp_path / "mix.json"
        mu.write_text(MIX_JSON)
        res = run_cli("irs", "--mu", str(mu), "--m", str(10**12), "--j", "1")
        assert res.returncode == 0, res.stderr
        data = json.loads(res.stdout)
        assert data["tv"] == "1/1000000000000" and data["literal_bound_held"]
        assert len(data["trend"]) == 41  # m = 1, 2, 4, ..., 2^39, 10^12

    @pytest.mark.process
    def test_m_past_the_bit_budget(self, tmp_path):
        # the 4,300-digit m leaves the marginal's probabilities, over 4m,
        # past what prints
        mu = tmp_path / "mix.json"
        mu.write_text(MIX_JSON)
        res = run_process("irs", "--mu", str(mu), "--m", "9" * 4300, "--j", "1", timeout=20)
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1, res.stderr
        assert "budget" in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.process
    def test_largest_accepted_m_prints(self, tmp_path):
        # weights over 2^7000: the cut phase's law has probabilities over
        # 2^14000, so m may take 283 of the 14,283 bits that print
        big = 2**7000
        mu = json.loads(MIX_JSON)
        mu["atoms"][0]["weight"] = f"1/{big}"
        mu["atoms"][1]["weight"] = f"{big - 1}/{big}"
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(mu))
        m = 2**283 - 1
        res = run_cli("irs", "--mu", str(path), "--m", str(m), "--j", "1")
        assert res.returncode == 0, res.stderr
        data = json.loads(res.stdout)
        assert data["m"] == m and data["pass"]
        res = run_process("irs", "--mu", str(path), "--m", str(m + 1), "--j", "1", timeout=60)
        assert res.returncode == 2
        assert len(res.stderr.splitlines()) == 1, res.stderr
        assert "budget" in res.stderr

    @pytest.mark.process
    def test_json_trend_memory_bounded(self, tmp_path):
        # m = 2^6000 - 1: 6,001 trend rows, 11 MB of JSON.  Held as one
        # string the output took 57 MB; written a row at a time, 17.5 MB.
        mu = tmp_path / "mix.json"
        mu.write_text(MIX_JSON)
        out = tmp_path / "irs.json"
        m = 2**6000 - 1
        returncode, _, peak_mb = run_measured(
            "irs", "--mu", str(mu), "--m", str(m), "--j", "1", "-o", str(out)
        )
        assert returncode == 0
        data = json.loads(out.read_text())
        assert data["m"] == m and data["pass"] and len(data["trend"]) == 6001
        assert peak_mb < 40, peak_mb

    def test_json_is_canonical_json_of_the_whole_payload(self, tmp_path, capsys):
        # the trend is written a row at a time; the bytes are those of the
        # payload with the trend as one list, as it was built before
        trend_keys = ("m", "tv", "pass", "literal_bound_held")
        for name, mu in _measure_grid(11):
            path = tmp_path / f"{name}.json"
            path.write_text(measure_json(mu))
            for m in (1, 2, 3, 6, 100, 2**200 - 3, 2**200 + 1):
                for j in range(4):
                    report = convergence_report(mu, m, j)
                    trend = [_printed(row) for row in convergence_trend(mu, report)]
                    payload = {
                        "schema": "lampirs.irs.v1",
                        **_printed(report),
                        "trend": [{k: row[k] for k in trend_keys} for row in trend],
                        "marginal": distribution_to_json(report["marginal"]),
                    }
                    args = ["irs", "--mu", str(path), "--m", str(m), "--j", str(j)]
                    assert main(args) == (0 if report["pass"] else 1)
                    assert capsys.readouterr().out == canonical_json(payload)

    def test_trend_csv(self, tmp_path):
        mu = tmp_path / "mix.json"
        mu.write_text(MIX_JSON)
        res = run_cli("irs", "--mu", str(mu), "--m", "4", "--j", "1", "--format", "csv")
        lines = res.stdout.strip().splitlines()
        assert lines[0].startswith("m,j,tv")
        assert len(lines) == 4  # m = 1, 2, 4 plus header

    def test_trend_grid_hash(self, tmp_path, capsys):
        # the digest of the trend computed row by row with convergence_report:
        # m below, at and far past the width j + 1, for j = 0..3
        digest = hashlib.sha256()
        for name, mu in _measure_grid(7):
            path = tmp_path / f"{name}.json"
            path.write_text(measure_json(mu))
            for m in (1, 2, 3, 4, 5, 8, 100, 2**200 - 1):
                for j in range(4):
                    for fmt in ("json", "csv"):
                        args = ["irs", "--mu", str(path), "--m", str(m), "--j", str(j)]
                        assert main(args + ["--format", fmt]) == 0
                        digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == GOLDEN_IRS_GRID_SHA256


class TestMixCommand:
    def test_largest_majority_length_prints(self):
        res = run_cli("mix", "--nai", "14283", "--trials", "5", "--seed", "3", "--window", "0,0")
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["runs"][0]["n_ai"] == 14283

    def test_small_run(self):
        res = run_cli(
            "mix", "--nai", "11", "--trials", "2000", "--seed", "7",
            "--window", "0,0",
        )
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["runs"][0]["within_bound"]

    def test_empty_window_refused(self, tmp_path):
        for name, gen in (("full", "1"), ("line", "1+x")):
            atoms = [{"weight": "1", "gens": [gen]}]
            (tmp_path / f"{name}.json").write_text(json.dumps({"n": 1, "p": 2, "atoms": atoms}))
        res = run_cli(
            "mix", "--nai", "11", "--trials", "20", "--seed", "1", "--window", "5,0",
            "--mu1", str(tmp_path / "full.json"), "--mu2", str(tmp_path / "line.json"),
        )
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "error: empty window [5, 0]\n"

    @pytest.mark.process
    def test_negative_window_needs_equals(self):
        # argparse reads a separate "-5,-4" as an option, not as the value
        args = ("mix", "--nai", "11", "--trials", "50", "--seed", "1")
        res = run_cli(*args, "--window=-5,-4")
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["runs"][0]["empirical"]["window"] == [-5, -4]
        res = run_process(*args, "--window", "-5,-4")
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1, res.stderr
        assert "expected one argument" in res.stderr

    def test_trend_over_majority_lengths(self):
        res = run_cli(
            "mix", "--nai", "11,51", "--trials", "2000", "--seed", "7",
            "--window", "0,1", "--format", "csv",
        )
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0].startswith("n_ai,")
        assert len(lines) == 3


class TestDeterminism:
    @pytest.mark.process
    @pytest.mark.parametrize(
        "args",
        [
            ("count", "2", "2", "2", "--enumerate"),
            ("cb", "--tmax", "5", "--prodmax", "8"),
            ("mix", "--nai", "11", "--trials", "2000", "--seed", "3"),
        ],
    )
    def test_byte_identical_reruns(self, args):
        first = run_process(*args)
        second = run_process(*args)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout
