"""Cross-checks of the seeded Monte Carlo paths against per-trial references.

``splice_measures`` and ``sampler_law_report`` count trials under one
integer key each and build each distinct window subgroup once;
``majority_invariance_estimate`` tests the two end coins and the shared
coins in between.  The references below are the direct per-trial loops:
their own SplitMix64 stream, forked per trial, a linear walk of the
cumulative table, every trial's subgroup built and counted on the spot, and
both majorities counted.  Both must give the same bytes, the same atom
order and the same report values.  The majority test is also checked
against both majorities on every coin word up to n_ai = 11.
"""

from array import array
from fractions import Fraction
from functools import cache
from math import gcd

import pytest

import lampirs.irs
from lampirs.algebra import LaurentPoly, Poly
from lampirs.formats import canonical_json, distribution_to_json
from lampirs.irs import (
    SubgroupMeasure,
    WindowDistribution,
    _draw_index,
    block_average_marginal,
    majority_invariance_estimate,
    majority_symmetric_difference,
    sampler_law_report,
    splice_measures,
    tv_distance,
)
from lampirs.rng import SplitMix64
from lampirs.submodules import LaurentVector, Submodule

from window_oracles import sum_with

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def ref_mix(z):
    z &= MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


class RefStream:
    """SplitMix64 written out step by step, independent of ``lampirs.rng``."""

    def __init__(self, seed):
        self.state = seed & MASK

    def u64(self):
        self.state = (self.state + GAMMA) & MASK
        return ref_mix(self.state)

    def below(self, n):
        limit = (MASK + 1) - ((MASK + 1) % n)
        while True:
            u = self.u64()
            if u < limit:
                return u % n

    def bits(self, k):
        out = filled = 0
        while filled < k:
            take = min(64, k - filled)
            out |= (self.u64() & ((1 << take) - 1)) << filled
            filled += take
        return out

    def fork(self, *labels):
        acc = ref_mix(self.state ^ GAMMA)
        for label in labels:
            acc = ref_mix(acc ^ ref_mix(label & MASK) ^ GAMMA)
        return RefStream(acc)


def ref_sample(dist, rng):
    items = dist.sorted_items()
    den = 1
    for _, prob in items:
        den = den * prob.denominator // gcd(den, prob.denominator)
    ticket = rng.below(den)
    acc = 0
    for ws, prob in items:
        acc += int(prob * den)
        if ticket < acc:
            return ws
    raise AssertionError("ticket beyond the table")


def empirical(p, n, lo, hi, counts, trials):
    return WindowDistribution(
        p, n, lo, hi, {ws: Fraction(c, trials) for ws, c in counts.items()}
    )


def within(value, bound, tol_sq):
    excess = value - bound
    return excess <= 0 or excess * excess <= tol_sq


def ref_splice(mu1, mu2, n_ai, lo, hi, trials, seed):
    rng = RefStream(seed)
    marg1, marg2 = mu1.marginal(lo, hi), mu2.marginal(lo, hi)
    width = hi - lo + 1
    half = n_ai // 2
    counts = {}
    all_first = all_second = 0
    for trial in range(trials):
        stream = rng.fork(n_ai, trial)
        ws1 = ref_sample(marg1, stream)
        ws2 = ref_sample(marg2, stream)
        coins = stream.bits(width - 1 + n_ai)
        mask = 0
        for cell in range(width):
            if bin((coins >> cell) & ((1 << n_ai) - 1)).count("1") > half:
                mask |= 1 << cell
        all_first += mask == (1 << width) - 1
        all_second += mask == 0
        first = [lo + c for c in range(width) if (mask >> c) & 1]
        second = [lo + c for c in range(width) if not (mask >> c) & 1]
        if not first:
            spliced = ws2.intersect_sites(second)
        elif not second:
            spliced = ws1.intersect_sites(first)
        else:
            spliced = sum_with(ws1.intersect_sites(first), ws2.intersect_sites(second))
        counts[spliced] = counts.get(spliced, 0) + 1
    emp = empirical(marg1.p, marg1.n, lo, hi, counts, trials)
    target = marg1.mixed_with(marg2, Fraction(1, 2), Fraction(1, 2))
    tv = tv_distance(emp, target)
    lambda_first = Fraction(all_first, trials)
    lambda_second = Fraction(all_second, trials)
    defect = 2 * (1 - lambda_first - lambda_second)
    tol_sq = Fraction(9 * len(set(target.atoms) | set(emp.atoms)), trials)
    report = {
        "n_ai": n_ai,
        "trials": trials,
        "tv": tv,
        "lambda_all_first": lambda_first,
        "lambda_all_second": lambda_second,
        "boundary_defect_bound": defect,
        "mc_tolerance_sq": tol_sq,
        "within_bound": within(tv, defect, tol_sq),
        "majority_sym_diff_exact": majority_symmetric_difference(n_ai),
    }
    return emp, target, report


def ref_block_draw(mu, m, lo, hi, rng):
    k = rng.below(m)
    block_law = mu.marginal(0, m - 1)
    result = None
    start = lo - ((lo + k) % m)
    while start <= hi:
        run_lo, run_hi = max(lo, start), min(hi, start + m - 1)
        block = ref_sample(block_law, rng)
        piece = block.project(run_lo - start, run_hi - start).transported(run_lo)
        piece = piece.embedded(lo, hi)
        result = piece if result is None else sum_with(result, piece)
        start += m
    return result


def ref_sampler_report(mu, m, lo, hi, trials, seed):
    rng = RefStream(seed)
    exact = block_average_marginal(mu, m, lo, hi)
    counts = {}
    for _ in range(trials):
        ws = ref_block_draw(mu, m, lo, hi, rng)
        counts[ws] = counts.get(ws, 0) + 1
    emp = empirical(exact.p, exact.n, lo, hi, counts, trials)
    tv = tv_distance(emp, exact)
    tol_sq = Fraction(9 * len(exact.atoms), trials)
    return {
        "trials": trials,
        "tv": tv,
        "support": len(exact.atoms),
        "tolerance_sq": tol_sq,
        "within_tolerance": within(tv, Fraction(0), tol_sq),
        "empirical": emp,
        "exact": exact,
    }


def ref_majority(n_ai, trials, seed):
    rng = RefStream(seed)
    hits = 0
    for _ in range(trials):
        coins = rng.bits(n_ai + 1)
        w1, w2 = coins & ((1 << n_ai) - 1), coins >> 1
        hits += (bin(w1).count("1") > n_ai // 2) != (bin(w2).count("1") > n_ai // 2)
    return Fraction(hits, trials)


# -- measures ---------------------------------------------------------------


def lamp(p, *coeff_lists):
    return LaurentVector(
        p, tuple(LaurentPoly.from_poly(Poly(p, c)) for c in coeff_lists)
    )


@cache
def measures():
    line2 = Submodule(1, 2, 1, [lamp(2, (1, 1))])
    every_other = Submodule(1, 2, 2, [lamp(2, (1,))])
    line3 = Submodule(1, 3, 1, [lamp(3, (1, 2))])
    plane = Submodule(2, 2, 1, [lamp(2, (1,), (1, 1))])
    return {
        "full": SubgroupMeasure.point(Submodule.full(1, 2)),
        "zero": SubgroupMeasure.point(Submodule.zero(1, 2)),
        "line": SubgroupMeasure.point(line2),
        "mix3": SubgroupMeasure.mixture(
            [
                (Fraction(1, 3), Submodule.full(1, 2)),
                (Fraction(1, 6), Submodule.zero(1, 2)),
                (Fraction(1, 2), line2),
            ]
        ),
        "period2": SubgroupMeasure.mixture(
            [(Fraction(1, 2), every_other), (Fraction(1, 2), every_other.shifted(1))]
        ),
        "p3": SubgroupMeasure.mixture(
            [(Fraction(2, 5), line3), (Fraction(3, 5), Submodule.zero(1, 3))]
        ),
        "p3point": SubgroupMeasure.point(line3),
        "n2": SubgroupMeasure.mixture(
            [(Fraction(1, 4), Submodule.full(2, 2)), (Fraction(3, 4), plane)]
        ),
        "n2point": SubgroupMeasure.point(plane),
    }


SPLICE_PAIRS = [
    ("full", "zero"),
    ("line", "mix3"),
    ("mix3", "period2"),
    ("p3point", "p3"),
    ("n2", "n2point"),
]
WINDOWS = [(0, 0), (0, 1), (-1, 1)]


def json_bytes(dist):
    return canonical_json(distribution_to_json(dist))


def assert_same_distribution(new, ref):
    assert json_bytes(new) == json_bytes(ref)
    assert list(new.atoms) == list(ref.atoms)


class TestTableWalk:
    @pytest.mark.parametrize("name", ["full", "mix3", "period2", "p3", "n2"])
    def test_sample_and_index_match_linear_walk(self, name):
        dist = measures()[name].marginal(0, 1)
        table = dist._table()
        index_rng, ref_rng = SplitMix64(3), RefStream(3)
        for _ in range(200):
            expected = ref_sample(dist, ref_rng)
            assert dist.ordered_atoms()[_draw_index(table, index_rng)] == expected


class TestSpliceOracle:
    @pytest.mark.parametrize("n_ai", [11, 51, 201])
    @pytest.mark.parametrize("lo, hi", WINDOWS)
    @pytest.mark.parametrize("pair", SPLICE_PAIRS, ids="-".join)
    def test_matches_per_trial_loop(self, pair, lo, hi, n_ai):
        mu1, mu2 = (measures()[name] for name in pair)
        seed = 1000 * n_ai + 10 * hi + len(pair[0])
        got = splice_measures(mu1, mu2, n_ai, lo, hi, 300, seed)
        ref = ref_splice(mu1, mu2, n_ai, lo, hi, 300, seed)
        assert_same_distribution(got[0], ref[0])
        assert_same_distribution(got[1], ref[1])
        assert got[2] == ref[2]

    @pytest.mark.parametrize(
        "n_ai, lo, hi, seed",
        [
            (63, 0, 1, 3),
            (63, 0, 2, 4),
            (1, -1, 1, 5),
            (11, 0, 2, 2**64 + 9),
            (11, 0, 1, -7),
        ],
    )
    def test_word_boundaries_and_raw_seeds(self, n_ai, lo, hi, seed):
        mu1, mu2 = measures()["mix3"], measures()["line"]
        got = splice_measures(mu1, mu2, n_ai, lo, hi, 400, seed)
        ref = ref_splice(mu1, mu2, n_ai, lo, hi, 400, seed)
        assert_same_distribution(got[0], ref[0])
        assert got[2] == ref[2]


SAMPLER_CASES = [
    # (measure, m, lo, hi): windows meeting 1 to 3 blocks
    ("mix3", 2, 0, 3),
    ("mix3", 3, 0, 1),
    ("period2", 4, 0, 1),
    ("p3", 4, -1, 2),
    ("mix3", 5, 0, 0),
    ("period2", 5, 1, 6),
    ("n2", 3, 0, 1),
    ("line", 2, 0, 2),
]


class TestSamplerOracle:
    @pytest.mark.parametrize("name, m, lo, hi", SAMPLER_CASES)
    def test_matches_per_trial_loop(self, name, m, lo, hi):
        mu = measures()[name]
        seed = 31 * m + hi
        got = sampler_law_report(mu, m, lo, hi, 500, seed)
        ref = ref_sampler_report(mu, m, lo, hi, 500, seed)
        assert_same_distribution(got.pop("empirical"), ref.pop("empirical"))
        assert_same_distribution(got.pop("exact"), ref.pop("exact"))
        assert got == ref


class TestMajorityOracle:
    @pytest.mark.parametrize("n_ai", [1, 11, 51, 63, 65, 201])
    def test_matches_per_trial_loop(self, n_ai):
        got = majority_invariance_estimate(n_ai, 700, n_ai)
        assert got == ref_majority(n_ai, 700, n_ai)

    @pytest.mark.parametrize("n_ai", [1, 3, 5, 7, 9, 11])
    def test_every_coin_word(self, monkeypatch, n_ai):
        # one trial per (n_ai + 1)-bit coin word c, with seeded bits above it
        class OneWord:
            def __init__(self, seed):
                self.seed = seed

            def take(self, count):
                assert count == 1
                return array("Q", [self.seed])

        monkeypatch.setattr(lampirs.irs, "SplitMix64", OneWord)
        half = n_ai // 2
        junk = RefStream(n_ai)
        for c in range(1 << (n_ai + 1)):
            word = c | (junk.u64() << (n_ai + 1)) & MASK
            differ = ((c & ((1 << n_ai) - 1)).bit_count() > half) != ((c >> 1).bit_count() > half)
            assert majority_invariance_estimate(n_ai, 1, word) == differ, (n_ai, c)
