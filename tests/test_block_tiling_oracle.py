"""Cross-checks of the exact mu_m marginals against the block tiling.

``block_shift_term_marginal`` and ``block_average_marginal`` sum mu's
marginals on the runs each phase cuts the window into, and average only the
phases that cut it.  The reference below is the tiling law itself, built
with nothing but whole-distribution operations: project the window-[0, m-1]
law onto each block's part of the window, move it there, take the law of
independent direct sums block after block, and average all m phases.  Both
must give the same bytes for every phase and for the phase average.
"""

from fractions import Fraction
from functools import cache

import pytest

from lampirs.formats import canonical_json, distribution_to_json
from lampirs.irs import (
    SubgroupMeasure,
    WindowDistribution,
    block_average_marginal,
    block_shift_term_marginal,
    convergence_report,
)
from lampirs.rng import SplitMix64
from lampirs.selftest import _measure_grid, random_vector
from lampirs.submodules import Submodule

from window_oracles import sum_with


def convolve_disjoint(d1, d2, lo, hi):
    """Law of the direct sum of independent draws, both embedded in [lo, hi]."""
    out = {}
    for ws1, p1 in d1.atoms.items():
        e1 = ws1.embedded(lo, hi)
        for ws2, p2 in d2.atoms.items():
            combined = sum_with(e1, ws2.embedded(lo, hi))
            out[combined] = out.get(combined, Fraction(0)) + p1 * p2
    return WindowDistribution(d1.p, d1.n, lo, hi, out)


def ref_term(mu, m, k, lo, hi):
    block_law = mu.marginal(0, m - 1)
    pieces = []
    start = lo - ((lo + k) % m)
    while start <= hi:
        run_lo, run_hi = max(lo, start), min(hi, start + m - 1)
        local = block_law.project(run_lo - start, run_hi - start)
        pieces.append(local.transported(run_lo))
        start += m
    result = pieces[0].map_support(lambda ws: ws.embedded(lo, hi), lo, hi)
    for piece in pieces[1:]:
        result = convolve_disjoint(result, piece, lo, hi)
    return result


def ref_average(mu, m, lo, hi):
    out = {}
    for k in range(m):
        for ws, prob in ref_term(mu, m, k, lo, hi).atoms.items():
            out[ws] = out.get(ws, Fraction(0)) + prob / m
    first = mu.marginal(0, 0)
    return WindowDistribution(first.p, first.n, lo, hi, out)


def seeded_mixture(seed, p, n):
    """Shift-invariant mixture of atoms paired with their shifts.

    Generators span two sites, so the atoms meet small windows in many ways.
    """
    rng = SplitMix64(seed)
    atoms = []
    for _ in range(2):
        gens = [random_vector(rng, n, p, 0, 1) for _ in range(1 + rng.below(n))]
        U = Submodule(n, p, 1 + rng.below(2), gens)
        weight = 1 + rng.below(3)
        atoms += [(weight, U), (weight, U.shifted(1))]
    total = sum(w for w, _ in atoms)
    return SubgroupMeasure.mixture([(Fraction(w, total), U) for w, U in atoms])


# The names of ``measures()``, known without building one, so that a fault
# in the library fails the tests that build them, not their collection.
NAMES = ["grid-point_full", "grid-point_zero", "grid-even_mixture", "grid-seeded_three_atom"]
NAMES += [f"mix-p{p}-n{n}" for p in (2, 3) for n in (1, 2)]


@cache
def measures():
    out = {f"grid-{name}": mu for name, mu in _measure_grid(7)}
    for p in (2, 3):
        for n in (1, 2):
            out[f"mix-p{p}-n{n}"] = seeded_mixture(100 * p + n, p, n)
    return out


# one site, a negative lo, and one far from the origin; the m grid below
# runs from under to past the width of each wider window
WINDOWS = [(0, 0), (-1, 1), (-2, 3), (3, 7)]


def json_bytes(dist):
    return canonical_json(distribution_to_json(dist))


def test_grid_measures_are_invariant_and_varied():
    assert list(measures()) == NAMES
    assert all(mu.invariant for mu in measures().values())
    for name, mu in measures().items():
        if name.startswith("mix-"):
            assert len(mu.marginal(0, 3).atoms) > 1, name


@pytest.mark.parametrize("lo, hi", WINDOWS)
@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("name", NAMES)
def test_tiling_matches_distribution_level_build(name, m, lo, hi):
    mu = measures()[name]
    for k in range(m):
        got = block_shift_term_marginal(mu, m, k, lo, hi)
        assert json_bytes(got) == json_bytes(ref_term(mu, m, k, lo, hi)), k
    got = block_average_marginal(mu, m, lo, hi)
    assert json_bytes(got) == json_bytes(ref_average(mu, m, lo, hi))


@pytest.mark.parametrize("name", NAMES)
def test_distance_times_m_is_constant_past_the_width(name):
    mu = measures()[name]
    # For m >= w every cut point is cut by its own phase, so
    # m * TV(mu_m|_W, mu_W) = |sum over cuts of (law_c - mu_W)|_1 <= 2j.
    for j in range(4):
        w = j + 1
        scaled = set()
        for m in [*range(w, w + 6), 10**12]:
            report = convergence_report(mu, m, j)
            scaled.add(m * report["tv"])
            assert report["literal_bound_held"], (j, m)
        assert len(scaled) == 1, (j, scaled)


def recording(mu):
    asked = []

    def marginal(lo, hi):
        asked.append((lo, hi))
        return mu.marginal(lo, hi)

    return SubgroupMeasure(marginal, mu.invariant), asked


@pytest.mark.parametrize("name", NAMES)
def test_exact_calls_read_no_marginal_wider_than_the_window(name):
    mu = measures()[name]
    for lo, hi in WINDOWS:
        for m in [*range(1, 9), 10**12]:
            watched, asked = recording(mu)
            block_average_marginal(watched, m, lo, hi)
            convergence_report(watched, m, hi - lo)
            for k in {0, 1 % m, m - 1}:
                block_shift_term_marginal(watched, m, k, lo, hi)
            assert asked and max(b - a for a, b in asked) <= hi - lo, (m, asked)
