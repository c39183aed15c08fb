"""Acceptance criteria, one test per criterion, at their stated tolerances.

Criteria 1-11 share a single seeded run of the suite; criterion 12 runs the
command-line selftest twice and compares bytes.  Each test prints its own
PASS/FAIL line (visible with ``pytest -s``).
"""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lampirs.algebra import LaurentPoly, enumerate_irreducibles, format_poly_plain
from lampirs.errors import PreconditionError
from lampirs.formats import canonical_json, format_submodule, format_triple, format_vector
from lampirs.lamplighter import SubgroupTriple
from lampirs.rng import SplitMix64
from lampirs.selftest import DEFAULT_SEED, run_criteria
from lampirs.submodules import (
    LaurentVector,
    Submodule,
    construct_with_invariants,
    count_submodules,
    submodules_of_codimension,
)

pytestmark = pytest.mark.acceptance

# sha256 of the stdout of `lampirs selftest --seed 7` and of `lampirs mix
# --nai 11,51,201 --trials 20000 --seed 7 --window 0,2`.  Both print seeded
# Monte Carlo results, so a change to any SplitMix64 word they read, or to
# the order the words are read in, changes them.
GOLDEN_SELFTEST_SHA256 = "6c3b637ca32aba5fe7d874a6639924e7f575a5b1c321dd35280a4ebcd0f995d4"
GOLDEN_MIX_SHA256 = "c232a43058dc61504b9125f129f0d80e43e165cb35e7af345081e792386ccc0f"
# stdout of `lampirs mix ... --format csv` on each argument list
GOLDEN_MIX_CSV_SHA256 = [
    (("--nai", "11,51,201", "--trials", "2000", "--seed", "7", "--window", "0,2"),
     "4f4d453d322549a68feb8a16d631b8bc6538d9b61f0fc4f54389bc9ec6876093"),
    (("--nai", "11,51", "--trials", "2000", "--seed", "3", "--window=-1,0", "--n", "2", "--p", "3"),
     "7434b34a5d637acba710d13d3ce7028573f387e8f32dd77dd56dafd7c38073f1"),
]
# stdout of `lampirs cb --tmax 12 --prodmax 20`, as JSON and with --format csv
GOLDEN_CB_SHA256 = {
    "json": "33ae6002f55c31fb8cee54c76cfdd1bd091dee57aa0ef4d6f16a342528ecd29b",
    "csv": "42e180a393a48ce44535149459c9637706ea6072f47c27019ec9bdd4ca6d6dae",
}
# sha256 of format_submodule over every enumerated submodule, p in {2, 3, 5},
# k <= 3, a <= 3 with at most 1,000 submodules, in enumeration order
GOLDEN_ENUMERATION_SHA256 = "f979a57960954fa0d2148b12371f5b004748683b8f9d29e52e585d553830883f"
# the same over p in {2, 3, 5, 7}, k <= 4, a <= 6 with at most 1,000
# submodules: the shapes above again, and those with a = 4..6 (among them
# (2, 2, 5)), p = 7 or k = 4 that the digest above misses
GOLDEN_ENUMERATION_WIDE_SHA256 = "2652625760212a8e5e898675f19d582c229d9e8c905263c81e0c672db1b27a33"
# sha256 of format_submodule(construct_with_invariants(n, p, b, r)) over
# p in {2, 3, 5, 7}, n <= 3, b <= 6 and every r in 1..n*b
GOLDEN_CONSTRUCT_SHA256 = "27fb40320ef85dd2967605f5f8dc94276c63f6131d09b489b9cbeef1afb783a4"
# stdout of the two demos whose output is all exact
GOLDEN_DEMO_SHA256 = {
    "01_counting_submodules.py": "6de065737d3989f93a3dd9c5effa353c1a1994fd5eb0408b9e9458ace9b2a935",
    "03_poset_levels.py": "d65988d9fdc8080fe115027f56cdfa7f64d418e211cd61efdbad93c651f22bf7",
}
# sha256 of enumerate_irreducibles(p, count), each polynomial as
# format_poly_plain and a newline, recorded from the trial-division
# enumeration: the sieve must give the same sequence
GOLDEN_IRREDUCIBLES_SHA256 = {
    (2, 1000): "30bab47b32cec1314202ca9a912f53f0b58d0ce47e7f8e4c961bafaf92091924",
    (3, 500): "7f3f25b9a73dc1c802f059b7b3e44eea71aa925b2571f2a07ffb23306bb01d41",
    (7, 300): "359dbaca5362d0cc02f20101c56a6699932819705f62af791b8ac4ecd29e92d3",
    (43, 1000): "6f26dfc4de3f55e00a1f95b7adc64ce636d9d4758914e23f860e4b511816c4d3",
    (997, 1000): "8a76bf6ce180a1a1398cf52365b3c921ec8f8db689c2adb902441b1f897fa7ab",
    (65521, 5): "4a6020187a0be69c7e5bdda1f67f66238aba5ca6b38c1d605fcd3a576c176f10",
}
# stdout of `lampirs approach` on the triple s=2, U = F_2[x^{+-2}], v =
# x^-1 (1+x) with --target 1,0 --count 8 --ball 3,4,8
GOLDEN_APPROACH_SHA256 = "4058563650dee63c61945b69255d7215ea127c21bcb05e799f58e23ad253354d"
# stdout of `lampirs approach` on s=2, U = (1+x^2) F_2[x^{+-2}], v = 0 with
# --target 1,0 --count 25 --ball 1,1,5: the first irreducible, 1+x, gives a
# term of period 1, which is skipped
GOLDEN_APPROACH_SKIP_SHA256 = "215f274d34e1ef53d17bc8b178645bd850acb218cd846d33247c1c1a93c9d341"
# stdout of `lampirs approach` on triples beyond p = 2: (name, triple file,
# arguments, exit code, sha256).  p3n2 has a nonzero marker and stabilizes;
# p5 stabilizes; p3n2-witness does not stabilize and names a witness at a
# negative shift; p3-off-multiple stores its lamps at period 6 with s = 9.
GOLDEN_APPROACH_WIDE = [
    ("p3n2", "s=4\nn=2 e=2 p=3\n[1+2x, x]\n[x, 1]\nv=[x^-1, 1+x]\n",
     ("--target", "1,1", "--count", "6", "--ball", "1,4,6"), 0,
     "e5d23ad1025aaca1deb4e1dca7783691ca8f658e195b268fafbff3c79ca00372"),
    ("p5", "s=2\nn=1 e=2 p=5\n[1+3x^2]\nv=[2+x]\n",
     ("--target", "1,0", "--count", "12", "--ball", "1,2,12"), 0,
     "90848fa67c5d870dadfb34d888811e398355e229cb6f15db6508df565cae0388"),
    ("p3n2-witness", "s=2\nn=2 e=1 p=3\n[1, 0]\nv=[1+x, 2]\n",
     ("--target", "1,0", "--count", "6", "--ball", "2,4,6"), 1,
     "4971eadf56071c9325a1ac7575aef97780a8823fb004f22b037d90313768b509"),
    ("p3-off-multiple", "s=9\nn=1 e=6 p=3\n[1+2x]\n[x^3*(1+2x)]\nv=[1+2x^2]\n",
     ("--target", "1,2", "--count", "6", "--ball", "2,18,6"), 0,
     "a0e724c605ac29762c2c0f03e994f42c06e13288af9229f8f2f4df5417db072d"),
]
# stdout of `lampirs invariants` on each of OFF_MULTIPLE_TRIPLES, concatenated
GOLDEN_OFF_MULTIPLE_INVARIANTS_SHA256 = "98f6b4f8d3c2822105e275f99b1f133ba644deb76a201729c40f9622b4d9f210"
# Triples whose s is not a multiple of the stored period of their lamps;
# the minimal periods are 2, 3, 1 and 2.
OFF_MULTIPLE_TRIPLES = [
    "s=6\nn=1 e=4 p=2\n[1+x]\n[x^2*(1+x)]\nv=[x]\n",
    "s=9\nn=1 e=6 p=3\n[1+2x]\n[x^3*(1+2x)]\nv=[1+2x^2]\n",
    "s=4\nn=2 e=6 p=3\n"
    + "".join(f"[x^{j}, x^{j + 1}]\n" for j in range(6))
    + "v=[2, 1+x]\n",
    "s=2\nn=2 e=4 p=5\n[1+3x^2, 4]\n[x^2*(1+3x^2), x^2*(4)]\nv=[0, x^2]\n",
]
# invariants() and format_triple(canonical()) of triples whose lamps are
# stored at 2 to 6 times their minimal period (see period_pin_submodules)
GOLDEN_STORED_MULTIPLE_SHA256 = "85ddd59f956f9ccd362d46c9d5753a0396b0a5a19b4628a2f88f6a192547ff87"
# format_submodule(U.with_period(new)) over period_pin_submodules and every
# new <= 12, with a marker where new is not a period
GOLDEN_WITH_PERIOD_SHA256 = "6987005f49e5313242142753479aac23f63d09c821dc5dffe1ac2d628c701f7c"
# stdout of `lampirs irs` on the seeded_measure_json files for (seed, p, n) in
# IRS_PIN_MEASURES at each (m, j) of IRS_PIN_RUNS, concatenated, as JSON and
# with --format csv; (2, 3) puts the printed marginal at m below the width
GOLDEN_IRS_SHA256 = {
    "json": "e3462a900bcb9d8b37363f7d58ef38df0be5481a8d97eea859d19ef8471d0762",
    "csv": "e30f24e2e8590cac026f4269d70f50bb11a4f3341a49eb4ad78d586598eca6f3",
}
IRS_PIN_MEASURES = [(5, 2, 1), (7, 3, 2)]
IRS_PIN_RUNS = [(8, 1), (5, 2), (2, 3)]
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def suite():
    report, timings = run_criteria(DEFAULT_SEED)
    by_name = {entry["name"]: entry for entry in report["criteria"]}
    return {"report": report, "timings": timings, "by_name": by_name}


def announce(num, name, ok):
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}")


def entry_of(suite, name):
    return suite["by_name"][name]


def test_criterion_01_submodule_counting(suite):
    entry = entry_of(suite, "submodule_counting")
    announce(1, "submodule counting formula vs enumeration", entry["passed"])
    cases = entry["details"]["cases"]
    grid = {(c["p"], c["k"], c["a"]) for c in cases}
    assert {(2, 1, a) for a in range(5)} <= grid
    assert {(2, 2, a) for a in range(4)} <= grid
    assert {(3, 1, a) for a in range(4)} <= grid
    assert {(3, 2, a) for a in range(3)} <= grid
    for case in cases:
        assert case["match"], case
    assert suite["timings"]["submodule_counting"] < 60
    assert entry["passed"]


def test_criterion_02_full_module_rank(suite):
    entry = entry_of(suite, "full_module_rank")
    announce(2, "rescaled rank of the full module", entry["passed"])
    for case in entry["details"]["cases"]:
        assert case["rank"] == case["n"] * case["m"]
    assert entry["passed"]


def test_criterion_03_rank_multiplicativity(suite):
    entry = entry_of(suite, "rank_multiplicativity")
    announce(3, "rank multiplicativity on 100 seeded subgroups", entry["passed"])
    assert entry["details"]["checked"] == 100
    assert entry["passed"]


def test_criterion_04_prescribed_constructions(suite):
    entry = entry_of(suite, "prescribed_constructions")
    announce(4, "prescribed period/rank constructions", entry["passed"])
    cases = entry["details"]["cases"]
    covered = {(c["n"], c["b"], c["r"]) for c in cases}
    expected = {
        (n, b, r) for n in (1, 2) for b in range(1, 5) for r in range(1, n * b + 1)
    }
    assert covered == expected
    for case in cases:
        assert case["ok"], case
    assert suite["timings"]["prescribed_constructions"] < 120
    assert entry["passed"]


def test_criterion_05_poset_levels(suite):
    entry = entry_of(suite, "poset_levels")
    announce(5, "derivative levels match t*r; chain 2,4,8", entry["passed"])
    assert entry["details"]["mismatches"] == []
    assert entry["details"]["chain_levels"] == [2, 4, 8]
    assert entry["passed"]


def test_criterion_06_approach_pipeline(suite):
    entry = entry_of(suite, "approach_pipeline")
    announce(6, "approach sequences: encoding, convergence, classification",
             entry["passed"])
    instances = entry["details"]["instances"]
    assert len(instances) == 10
    for inst in instances:
        assert inst["encodings_exact"], inst
        assert inst["stabilization_index"] is not None, inst
        assert inst["stabilization_index"] <= 25
        assert inst["classified_strict"], inst
    assert suite["timings"]["approach_pipeline"] < 120
    assert entry["passed"]


def test_criterion_07_conjugation_invariance(suite):
    entry = entry_of(suite, "conjugation_invariance")
    announce(7, "conjugation invariance of the encoding", entry["passed"])
    assert entry["details"]["checked"] == 200
    assert entry["details"]["ball_membership_checks"] > 0
    assert entry["passed"]


def test_criterion_08_stationarity(suite):
    entry = entry_of(suite, "stationarity_block_locality")
    announce(8, "block-average stationarity and locality", entry["passed"])
    measures = {row["measure"] for row in entry["details"]["measures"]}
    assert measures == {"point_full", "point_zero", "even_mixture", "seeded_three_atom"}
    for row in entry["details"]["measures"]:
        assert row["stationary"] and row["block_local"], row
    assert entry["passed"]


def test_criterion_09_tv_bound(suite):
    entry = entry_of(suite, "tv_bound")
    announce(9, "exact distances within 2(j+1)/m and decreasing", entry["passed"])
    for row in entry["details"]["rows"]:
        assert row["bound_ok"], row
        tv = Fraction(row["tv"])
        assert tv <= Fraction(row["conservative_bound"])
    assert suite["timings"]["tv_bound"] < 60
    assert entry["passed"]


def test_criterion_10_sampler_law(suite):
    entry = entry_of(suite, "sampler_law")
    announce(10, "sampler law within 0.02 of the exact marginal", entry["passed"])
    assert entry["details"]["trials"] == 10**5
    assert Fraction(entry["details"]["tv"]) <= Fraction(1, 50)
    assert entry["passed"]


def test_criterion_11_splice_mixing(suite):
    entry = entry_of(suite, "splice_mixing")
    announce(11, "splice mixing trend", entry["passed"])
    details = entry["details"]
    assert details["window"] == [0, 1]
    assert [row["n_ai"] for row in details["rows"]] == [11, 51, 201, 401]
    for row in details["rows"]:
        assert row["within_bound"], row
        assert row["within_exact_tolerance"], row
    assert details["tv_final_small"]
    assert details["invariance_decreasing"]
    assert suite["timings"]["splice_mixing"] < 120
    assert details["tv_nonincreasing"], (
        "empirical splice distances on the window [0, 1] must decrease "
        "strictly in the majority-window length, as the exact distance "
        "2 * majority_symmetric_difference(n_ai) does"
    )
    assert entry["passed"]


def test_criterion_12_selftest_determinism(tmp_path):
    cmd = [sys.executable, "-m", "lampirs.cli", "selftest", "--seed", str(DEFAULT_SEED)]
    # Both runs start at once and are then awaited; neither reads the other.
    first, second = (
        subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    )
    try:
        first_out, first_err = first.communicate(timeout=600)
        second_out, second_err = second.communicate(timeout=600)
    finally:
        first.kill()
        second.kill()
    identical = first_out == second_out and len(first_out) > 0
    announce(12, "selftest reports byte-identical across reruns", identical)
    assert first.returncode == 0, first_err
    assert second.returncode == 0, second_err
    assert identical
    parsed = json.loads(first_out)
    assert canonical_json(parsed) == first_out


def test_golden_stdout_hashes(suite):
    assert DEFAULT_SEED == 7
    # `lampirs selftest` writes canonical_json(report) to stdout, byte for byte
    selftest_out = canonical_json(suite["report"]).encode()
    assert hashlib.sha256(selftest_out).hexdigest() == GOLDEN_SELFTEST_SHA256
    mix = subprocess.run(
        [sys.executable, "-m", "lampirs.cli", "mix", "--nai", "11,51,201",
         "--trials", "20000", "--seed", "7", "--window", "0,2"],
        capture_output=True, timeout=300,
    )
    assert mix.returncode == 0, mix.stderr
    assert hashlib.sha256(mix.stdout).hexdigest() == GOLDEN_MIX_SHA256
    for fmt, golden in GOLDEN_CB_SHA256.items():
        cb = subprocess.run(
            [sys.executable, "-m", "lampirs.cli", "cb", "--tmax", "12",
             "--prodmax", "20", "--format", fmt],
            capture_output=True, timeout=60,
        )
        assert cb.returncode == 0, cb.stderr
        assert hashlib.sha256(cb.stdout).hexdigest() == golden, fmt


@pytest.mark.parametrize("args, golden", GOLDEN_MIX_CSV_SHA256)
def test_golden_mix_csv_hashes(args, golden):
    mix = subprocess.run(
        [sys.executable, "-m", "lampirs.cli", "mix", *args, "--format", "csv"],
        capture_output=True, timeout=120,
    )
    assert mix.returncode == 0, mix.stderr
    assert hashlib.sha256(mix.stdout).hexdigest() == golden


def test_golden_enumeration_construction_and_demo_hashes(tmp_path):
    enumerated = hashlib.sha256()
    for p in (2, 3, 5):
        for k in (1, 2, 3):
            for a in range(4):
                if count_submodules(p, k, a) <= 1000:
                    for U in submodules_of_codimension(p, k, a):
                        enumerated.update(format_submodule(U).encode())
    assert enumerated.hexdigest() == GOLDEN_ENUMERATION_SHA256
    wide = hashlib.sha256()
    for p in (2, 3, 5, 7):
        for k in (1, 2, 3, 4):
            for a in range(7):
                if count_submodules(p, k, a) <= 1000:
                    for U in submodules_of_codimension(p, k, a):
                        wide.update(format_submodule(U).encode())
    assert wide.hexdigest() == GOLDEN_ENUMERATION_WIDE_SHA256
    constructed = hashlib.sha256()
    for p in (2, 3, 5, 7):
        for n in (1, 2, 3):
            for b in range(1, 7):
                for r in range(1, n * b + 1):
                    U = construct_with_invariants(n, p, b, r)
                    constructed.update(format_submodule(U).encode())
    assert constructed.hexdigest() == GOLDEN_CONSTRUCT_SHA256
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    for demo, golden in GOLDEN_DEMO_SHA256.items():
        res = subprocess.run(
            [sys.executable, str(ROOT / "demos" / demo)],
            capture_output=True, timeout=120, cwd=tmp_path, env=env,
        )
        assert res.returncode == 0, res.stderr
        assert hashlib.sha256(res.stdout).hexdigest() == golden, demo


def test_golden_irreducibles_hashes():
    for (p, count), golden in GOLDEN_IRREDUCIBLES_SHA256.items():
        text = "".join(format_poly_plain(f) + "\n" for f in enumerate_irreducibles(p, count))
        assert hashlib.sha256(text.encode()).hexdigest() == golden, (p, count)


def seeded_vector(rng, n, p, exponents=range(-2, 3)):
    coords = []
    for _ in range(n):
        f = LaurentPoly.zero(p)
        for exp in exponents:
            c = rng.below(p)
            if c:
                f = f + LaurentPoly.monomial(p, exp, c)
        coords.append(f)
    return LaurentVector(p, coords)


def period_pin_submodules():
    """Seeded U with n <= 2, p in {2, 3, 5} and stored period P <= 6.

    Each is spanned by g, x^d g, ..., x^(P-d) g for a divisor d of P, so
    its minimal period divides d and is often below P; four constructed
    subgroups of known minimal period close the list.
    """
    rng = SplitMix64(2026)
    out = []
    for _ in range(40):
        n = 1 + rng.below(2)
        p = (2, 3, 5)[rng.below(3)]
        period = 1 + rng.below(6)
        divisors = [d for d in range(1, period + 1) if period % d == 0]
        d = divisors[rng.below(len(divisors))]
        g = seeded_vector(rng, n, p)
        out.append(Submodule(n, p, period, [g.shifted(j * d) for j in range(period // d)]))
    for n, p, b, r in [(1, 2, 3, 2), (2, 3, 2, 3), (1, 5, 4, 4), (2, 2, 1, 1)]:
        out.append(construct_with_invariants(n, p, b, r))
    return out


def test_golden_approach_and_period_hashes(tmp_path):
    path = tmp_path / "V.triple"
    path.write_text("s=2\nn=1 e=2 p=2\n1\nv=x^-1*(1+x)\n")
    approach = subprocess.run(
        [sys.executable, "-m", "lampirs.cli", "approach", "--triple", str(path),
         "--target", "1,0", "--count", "8", "--ball", "3,4,8"],
        capture_output=True, timeout=120,
    )
    assert approach.returncode == 0, approach.stderr
    assert hashlib.sha256(approach.stdout).hexdigest() == GOLDEN_APPROACH_SHA256
    rng = SplitMix64(2027)
    stored = hashlib.sha256()
    for U in period_pin_submodules():
        C = U.canonical()
        e = C.period
        for k in range(2, 7):
            gens = [g.shifted(j * e) for g in C.gens for j in range(k)]
            lamps = Submodule(C.n, C.p, k * e, gens)
            s = e * (1 + rng.below(6))
            triple = SubgroupTriple(s, lamps, seeded_vector(rng, C.n, C.p))
            stored.update(canonical_json(triple.invariants()).encode())
            stored.update(format_triple(triple.canonical()).encode())
    assert stored.hexdigest() == GOLDEN_STORED_MULTIPLE_SHA256
    rewritten = hashlib.sha256()
    for U in period_pin_submodules():
        for new in range(1, 13):
            try:
                text = format_submodule(U.with_period(new))
            except PreconditionError:
                text = "not a period\n"
            rewritten.update(f"{new}\n{text}".encode())
    assert rewritten.hexdigest() == GOLDEN_WITH_PERIOD_SHA256


def test_golden_skip_approach_and_off_multiple_invariants_hashes(tmp_path):
    path = tmp_path / "V.triple"
    path.write_text("s=2\nn=1 e=2 p=2\n[1+x^2]\nv=[0]\n")
    approach = subprocess.run(
        [sys.executable, "-m", "lampirs.cli", "approach", "--triple", str(path),
         "--target", "1,0", "--count", "25", "--ball", "1,1,5"],
        capture_output=True, timeout=120,
    )
    assert approach.returncode == 0, approach.stderr
    assert hashlib.sha256(approach.stdout).hexdigest() == GOLDEN_APPROACH_SKIP_SHA256
    digest = hashlib.sha256()
    for idx, text in enumerate(OFF_MULTIPLE_TRIPLES):
        path = tmp_path / f"off-{idx}.triple"
        path.write_text(text)
        res = subprocess.run(
            [sys.executable, "-m", "lampirs.cli", "invariants", "--triple", str(path)],
            capture_output=True, timeout=60,
        )
        assert res.returncode == 0, res.stderr
        digest.update(res.stdout)
    assert digest.hexdigest() == GOLDEN_OFF_MULTIPLE_INVARIANTS_SHA256


@pytest.mark.parametrize(
    "name,text,args,code,golden", GOLDEN_APPROACH_WIDE, ids=[c[0] for c in GOLDEN_APPROACH_WIDE]
)
def test_golden_approach_beyond_p2_hashes(tmp_path, name, text, args, code, golden):
    path = tmp_path / f"{name}.triple"
    path.write_text(text)
    res = subprocess.run(
        [sys.executable, "-m", "lampirs.cli", "approach", "--triple", str(path), *args],
        capture_output=True, timeout=120,
    )
    assert res.returncode == code, res.stderr
    assert hashlib.sha256(res.stdout).hexdigest() == golden


def seeded_measure_json(seed, p, n):
    """A shift-invariant measure file: two seeded atoms, each paired with its shift."""
    rng = SplitMix64(seed)
    drawn = []
    for _ in range(2):
        gens = [seeded_vector(rng, n, p, (0, 1)) for _ in range(1 + rng.below(n))]
        drawn.append((1 + rng.below(3), 1 + rng.below(2), gens))
    total = 2 * sum(w for w, _, _ in drawn)
    atoms = [
        {
            "weight": str(Fraction(w, total)),
            "period": period,
            "gens": [format_vector(g.shifted(shift)) for g in gens],
        }
        for w, period, gens in drawn
        for shift in (0, 1)
    ]
    return json.dumps({"schema": "lampirs.measure.v1", "n": n, "p": p, "atoms": atoms})


def test_golden_irs_hashes(tmp_path):
    paths = []
    for seed, p, n in IRS_PIN_MEASURES:
        path = tmp_path / f"mu-{seed}.json"
        path.write_text(seeded_measure_json(seed, p, n))
        paths.append(path)
    for fmt, golden in GOLDEN_IRS_SHA256.items():
        digest = hashlib.sha256()
        for path in paths:
            for m, j in IRS_PIN_RUNS:
                res = subprocess.run(
                    [sys.executable, "-m", "lampirs.cli", "irs", "--mu", str(path),
                     "--m", str(m), "--j", str(j), "--format", fmt],
                    capture_output=True, timeout=60,
                )
                assert res.returncode == 0, res.stderr
                digest.update(res.stdout)
        assert digest.hexdigest() == golden, fmt


def test_summary(suite):
    lines = []
    for entry in suite["report"]["criteria"]:
        lines.append(
            f"criterion {entry['criterion']:2d} {entry['name']}: "
            f"{'PASS' if entry['passed'] else 'FAIL'}"
        )
    print("\n".join(lines))
