"""Window distributions: exact marginals, approximants, samplers, splicing."""

from fractions import Fraction

import pytest

import lampirs.irs
from lampirs.algebra import LaurentPoly, Poly
from lampirs.errors import ContextError, DomainError, ResourceBudgetError
from lampirs.formats import canonical_json, distribution_to_json, measure_from_json, parse_vector
from lampirs.irs import (
    MAJORITY_LENGTH_BUDGET,
    SubgroupMeasure,
    WindowDistribution,
    WindowSubgroup,
    block_average_marginal,
    block_shift_term_marginal,
    convergence_report,
    convergence_trend,
    majority_invariance_estimate,
    majority_symmetric_difference,
    sampler_law_report,
    splice_measures,
    tv_distance,
    window_of_submodule,
)
from lampirs.rng import SplitMix64
from lampirs.selftest import _measure_grid, criterion_tv_bound
from lampirs.submodules import LaurentVector, Submodule

P2 = 2
HALF = Fraction(1, 2)


def even_mixture():
    return SubgroupMeasure.mixture(
        [(HALF, Submodule.full(1, P2)), (HALF, Submodule.zero(1, P2))]
    )


def line_submodule(coeffs=(1, 1)):
    return Submodule(
        1, P2, 1, [LaurentVector(P2, (LaurentPoly.from_poly(Poly(P2, coeffs)),))]
    )


class TestWindowOfSubmodule:
    def test_full_and_zero(self):
        full = window_of_submodule(Submodule.full(1, P2), 0, 2)
        assert full.dim == 3
        zero = window_of_submodule(Submodule.zero(1, P2), -1, 1)
        assert zero.dim == 0

    @pytest.mark.parametrize("U", [Submodule.full(1, P2), line_submodule(), Submodule.zero(1, P2)])
    def test_empty_window_refused(self, U):
        with pytest.raises(DomainError, match=r"empty window \[3, 1\]"):
            window_of_submodule(U, 3, 1)

    def test_even_span_window(self):
        U = Submodule(1, P2, 2, [LaurentVector.unit(1, P2, 0)])
        ws = window_of_submodule(U, 0, 3)
        # events in even exponents only: sites 0 and 2 hold exponents 0, -2
        assert ws.dim == 2

    def test_matches_brute_force_membership(self):
        # independent oracle: intersect by testing every window vector
        rng = SplitMix64(404)
        for _ in range(10):
            coeffs = [rng.below(2) for _ in range(3)]
            coeffs.append(1)
            U = line_submodule(tuple(coeffs))
            lo, hi = -1, 1
            ws = window_of_submodule(U, lo, hi)
            dim = hi - lo + 1
            member_vectors = set()
            for code in range(2**dim):
                vec = tuple((code >> i) & 1 for i in range(dim))
                lamp = LaurentVector(P2, (sum(
                    (LaurentPoly.monomial(P2, -(lo + i), c) for i, c in enumerate(vec) if c),
                    LaurentPoly.zero(P2),
                ),))
                if U.contains_vector(lamp):
                    member_vectors.add(vec)
            spanned = set()
            for code in range(2 ** ws.dim):
                acc = (0,) * dim
                for i in range(ws.dim):
                    if (code >> i) & 1:
                        acc = tuple((a + b) % 2 for a, b in zip(acc, ws.rows[i]))
                spanned.add(acc)
            assert spanned == member_vectors


class TestProjection:
    def test_identity_projection(self):
        dist = even_mixture().marginal(0, 2)
        assert dist.project(0, 2) == dist

    def test_point_mass_projects_to_point_mass(self):
        full = window_of_submodule(Submodule.full(1, P2), 0, 2)
        d = WindowDistribution.point(full)
        proj = d.project(1, 2)
        ((ws, prob),) = proj.sorted_items()
        assert prob == 1 and ws.dim == 2

    def test_diagonal_line_projects_to_zero(self):
        diag = WindowSubgroup(P2, 1, 0, 1, ((1, 1),))
        proj = WindowDistribution.point(diag).project(0, 0)
        ((ws, prob),) = proj.sorted_items()
        assert ws.dim == 0 and prob == 1

    def test_projection_consistency_chain(self):
        mu = even_mixture()
        outer = mu.marginal(-1, 2)
        assert outer.project(0, 2).project(0, 1) == outer.project(0, 1)
        assert outer.project(0, 1) == mu.marginal(0, 1)
        # n = 2, p = 3: every subwindow of [-1, 3]
        mu = SubgroupMeasure.mixture(
            [
                (Fraction(1, 3), Submodule(2, 3, 2, [parse_vector("[1+2x, x]", 2, 3)])),
                (Fraction(2, 3), Submodule(2, 3, 1, [parse_vector("[0, 1+x^2]", 2, 3)])),
            ]
        )
        outer = mu.marginal(-1, 3)
        for a in range(-1, 4):
            for b in range(a, 4):
                assert outer.project(a, b) == mu.marginal(a, b)


class TestCanonicalConstruction:
    """The window constructor always row-reduces: any spanning rows give the
    one RREF representative, and no switch skips it."""

    def test_rows_out_of_rref(self):
        plane = WindowSubgroup(P2, 1, 0, 1, ((1, 1), (0, 1)))
        assert plane.rows == ((1, 0), (0, 1))
        assert plane == WindowSubgroup(P2, 1, 0, 1, ((1, 0), (0, 1)))
        assert WindowSubgroup(3, 1, 0, 1, ((0, 2), (2, 1))).rows == ((1, 0), (0, 1))

    def test_zero_and_duplicate_rows(self):
        ws = WindowSubgroup(3, 1, 0, 2, ((1, 2, 0), (0, 0, 0), (2, 1, 0), (1, 2, 0)))
        assert ws.rows == ((1, 2, 0),)
        zero = WindowSubgroup(3, 1, 0, 2, ((0, 0, 0), (3, 6, -9)))
        assert zero == WindowSubgroup.zero(3, 1, 0, 2)

    def test_unreduced_and_negative_entries(self):
        ws = WindowSubgroup(5, 2, 0, 0, ((-1, 7),))
        assert ws.rows == ((1, 3),)
        assert ws == WindowSubgroup(5, 2, 0, 0, ((2, 6),))

    def test_row_width_checked_before_reduction(self):
        for rows in (((1, 0, 0),), ((0, 0, 0),), ((1, 0), (0, 1, 0))):
            with pytest.raises(DomainError):
                WindowSubgroup(P2, 1, 0, 1, rows)

    def test_domain_refused(self):
        for args in ((P2, 0, 0, 1, ()), (P2, 1, 1, 0, ()), (4, 1, 0, 1, ())):
            with pytest.raises(DomainError):
                WindowSubgroup(*args)

    @pytest.mark.parametrize("switch", [True, False])
    def test_no_reduce_switch(self, switch):
        with pytest.raises(TypeError):
            WindowSubgroup(P2, 1, 0, 1, ((1, 1),), reduce=switch)


class TestBlockAverage:
    def test_point_masses_are_fixed_points(self):
        for U in (Submodule.full(1, P2), Submodule.zero(1, P2)):
            mu = SubgroupMeasure.point(U)
            for m in (1, 2, 3):
                assert block_average_marginal(mu, m, 0, 1) == mu.marginal(0, 1)

    def test_pinned_mixture_value(self):
        # Hand convolution of independent two-cell blocks under both phases.
        mu = even_mixture()
        got = block_average_marginal(mu, 2, 0, 1)
        probs = {ws.dim: [] for ws in got.atoms}
        by_rows = {ws.rows: p for ws, p in got.atoms.items()}
        assert by_rows[()] == Fraction(3, 8)
        assert by_rows[((1, 0),)] == Fraction(1, 8)
        assert by_rows[((0, 1),)] == Fraction(1, 8)
        assert by_rows[((1, 0), (0, 1))] == Fraction(3, 8)
        assert tv_distance(got, mu.marginal(0, 1)) == HALF

    def test_m_past_the_width_is_the_closed_form(self):
        # For m >= w = 2 only the phase starting a block at site 1 cuts [0, 1]:
        # mu_m = ((m-1)/m) mu_[0,1] + (1/m) mu_[0,0] (+) mu_[1,1].
        got = block_average_marginal(even_mixture(), 30, 0, 1)
        by_rows = {ws.rows: p for ws, p in got.atoms.items()}
        assert by_rows == {
            (): Fraction(59, 120),
            ((1, 0),): Fraction(1, 120),
            ((0, 1),): Fraction(1, 120),
            ((1, 0), (0, 1)): Fraction(59, 120),
        }

    def test_bit_budget_on_m(self):
        # the probabilities of the even mixture's mu_m on [0, 1] are over 4m
        largest = 2**14281 - 1
        report = convergence_report(even_mixture(), largest, 1)
        assert report["tv"] == Fraction(1, largest)
        canonical_json(distribution_to_json(report["marginal"]))
        with pytest.raises(ResourceBudgetError, match="budget"):
            convergence_report(even_mixture(), largest + 1, 1)

    def test_window_budget_checked_before_the_block_marginal(self):
        # The even mixture of zero and the p = 3, n = 2 line <(1+x+x^2, 1+2x)>:
        # at m = 400 its window-[0, 399] marginal alone takes seconds.  The
        # exact calls read run marginals on [0, 1]; the sampler, which draws
        # whole blocks, refuses m before building the block marginal.
        g = LaurentVector(
            3, (LaurentPoly.from_poly(Poly(3, (1, 1, 1))), LaurentPoly.from_poly(Poly(3, (1, 2))))
        )
        inner = SubgroupMeasure.mixture(
            [(HALF, Submodule(2, 3, 1, [g])), (HALF, Submodule.zero(2, 3))]
        )
        asked = []

        def marginal(lo, hi):
            asked.append((lo, hi))
            return inner.marginal(lo, hi)

        mu = SubgroupMeasure(marginal, inner.invariant)
        split = block_shift_term_marginal(mu, 400, 399, 0, 1)
        assert block_shift_term_marginal(mu, 400, 0, 0, 1) == inner.marginal(0, 1)
        assert block_average_marginal(mu, 400, 0, 1) == inner.marginal(0, 1).mixed_with(
            split, Fraction(399, 400), Fraction(1, 400)
        )
        with pytest.raises(ResourceBudgetError, match="budget"):
            sampler_law_report(mu, 400, 0, 1, 10, 1)
        assert (0, 399) not in asked

    def test_non_invariant_measure_rejected(self):
        mu = SubgroupMeasure.point(
            Submodule(1, P2, 2, [LaurentVector.unit(1, P2, 0)])
        )
        assert not mu.invariant
        with pytest.raises(DomainError):
            block_average_marginal(mu, 2, 0, 1)

    @pytest.mark.parametrize(
        "mu, m, lo, hi, error, message",
        [
            pytest.param(even_mixture(), 2, 3, 1, DomainError, "empty window", id="empty-window"),
            pytest.param(
                SubgroupMeasure.point(Submodule(1, P2, 2, [LaurentVector.unit(1, P2, 0)])),
                2, 0, 1, DomainError, "shift-invariant", id="not-invariant",
            ),
            pytest.param(even_mixture(), 2, 0, 31, ResourceBudgetError, "budget", id="window-budget"),
            pytest.param(even_mixture(), 0, 0, 1, DomainError, "shift class", id="no-phase"),
        ],
    )
    def test_shift_term_refuses_what_the_average_refuses(self, mu, m, lo, hi, error, message):
        with pytest.raises(error, match=message):
            block_shift_term_marginal(mu, m, 0, lo, hi)
        with pytest.raises(error):
            block_average_marginal(mu, m, lo, hi)

    def test_shift_orbit_mixture_is_invariant(self):
        U = Submodule(1, P2, 2, [LaurentVector.unit(1, P2, 0)])
        mu = SubgroupMeasure.mixture([(HALF, U), (HALF, U.shifted(1))])
        assert mu.invariant
        base = block_average_marginal(mu, 2, 0, 1)
        shifted = block_average_marginal(mu, 2, 3, 4).transported(0)
        assert base == shifted

    def test_empty_mixture_rejected_as_empty(self):
        with pytest.raises(DomainError, match="at least one atom"):
            SubgroupMeasure.mixture([])
        with pytest.raises(DomainError, match="sum to 1"):
            SubgroupMeasure.mixture([(HALF, Submodule.zero(1, P2))])

    def test_negative_weight_rejected(self):
        # the weights 1, 1, -1 sum to 1, but no measure has a negative mass
        atoms = [(1, Submodule.full(1, P2)), (1, line_submodule()), (-1, Submodule.zero(1, P2))]
        with pytest.raises(DomainError, match="weight -1 is negative"):
            SubgroupMeasure.mixture(atoms)

    @pytest.mark.parametrize("weight", [HALF, 0])
    def test_atoms_of_another_lamp_group_refused_at_construction(self, weight):
        # refused whatever the odd atom weighs, before any marginal is read
        atoms = [(1 - weight, Submodule.full(1, P2)), (weight, Submodule.zero(1, 3))]
        with pytest.raises(ContextError) as raised:
            SubgroupMeasure.mixture(atoms)
        message = "mixture atoms on different lamp groups: (n, p) (1, 2) and (1, 3)"
        assert str(raised.value) == message
        with pytest.raises(ContextError, match=r"\(1, 2\) and \(2, 2\)"):
            SubgroupMeasure.mixture([(1, Submodule.full(1, P2)), (0, Submodule.full(2, P2))])

    def test_measure_files_hold_one_lamp_group(self):
        # a file names (n, p) once, so its atoms, a zero weight among them, all build
        data = {
            "schema": "lampirs.measure.v1",
            "n": 1,
            "p": P2,
            "atoms": [
                {"weight": "1/2", "period": 1, "gens": ["1"]},
                {"weight": "0", "period": 2, "gens": ["1"]},
                {"weight": "1/2", "period": 1, "gens": []},
            ],
        }
        mu = measure_from_json(data)
        assert [w for w, _ in mu.atoms] == [HALF, 0, HALF]
        assert mu.marginal(0, 2) == even_mixture().marginal(0, 2)

    def test_weight_zero_atoms_build_no_window(self, monkeypatch):
        calls = []

        def counted(U, lo, hi):
            calls.append(U)
            return window_of_submodule(U, lo, hi)

        monkeypatch.setattr(lampirs.irs, "window_of_submodule", counted)
        zero, full = Submodule.zero(1, P2), Submodule.full(1, P2)
        mu = SubgroupMeasure.mixture([(HALF, full), (0, line_submodule()), (HALF, zero)])
        law = mu.marginal(0, 3)
        assert calls == [full, zero]
        # the weight-0 atom's window comes first, and a later atom shares it:
        # only the order of the atoms view differs from the mixture without it
        shared = SubgroupMeasure.mixture([(0, zero), (HALF, full), (HALF, zero)]).marginal(0, 3)
        assert list(shared.atoms) == [window_of_submodule(full, 0, 3), WindowSubgroup.zero(P2, 1, 0, 3)]
        expected = even_mixture().marginal(0, 3)
        for dist in (law, shared):
            assert dist._table() == expected._table()
            assert canonical_json(distribution_to_json(dist)) == canonical_json(
                distribution_to_json(expected)
            )
            draws, expected_draws = SplitMix64(5), SplitMix64(5)
            assert [dist.sample_index(draws) for _ in range(50)] == [
                expected.sample_index(expected_draws) for _ in range(50)
            ]

    def test_invariant_tag_matches_marginal_shift(self):
        mu = even_mixture()
        assert mu.invariant
        assert mu.marginal(1, 3).transported(0) == mu.marginal(0, 2)
        lonely = SubgroupMeasure.point(
            Submodule(1, P2, 2, [LaurentVector.unit(1, P2, 0)])
        )
        assert not lonely.invariant
        assert lonely.marginal(1, 3).transported(0) != lonely.marginal(0, 2)


class TestWindowMatch:
    """Operands on different windows or lamp groups are refused by one rule."""

    def laws(self):
        mu = even_mixture()
        return mu.marginal(0, 1), mu.marginal(1, 2), mu.marginal(0, 2)

    def test_sum_with(self):
        a, b = window_of_submodule(line_submodule(), 0, 1), WindowSubgroup.zero(3, 1, 0, 1)
        with pytest.raises(ContextError, match=r"n=1, p=2 on \[0, 1\] and n=1, p=3 on \[0, 1\]"):
            a.sum_with(b)
        with pytest.raises(ContextError, match="window mismatch"):
            a.sum_with(WindowSubgroup.zero(P2, 1, 0, 2))

    def test_mixed_with(self):
        here, moved, wider = self.laws()
        for other in (moved, wider):
            with pytest.raises(ContextError, match="window mismatch"):
                here.mixed_with(other, HALF, HALF)

    def test_tv_distance(self):
        here, moved, wider = self.laws()
        for other in (moved, wider):
            with pytest.raises(ContextError, match="window mismatch"):
                tv_distance(here, other)


class TestDistanceReports:
    def test_tv_point_masses(self):
        a = WindowDistribution.point(window_of_submodule(Submodule.full(1, P2), 0, 0))
        b = WindowDistribution.point(WindowSubgroup.zero(P2, 1, 0, 0))
        assert tv_distance(a, a) == 0
        assert tv_distance(a, b) == 2

    def test_convergence_report_trend(self):
        mu = even_mixture()
        values = [convergence_report(mu, m, 1)["tv"] for m in (2, 4, 8)]
        assert values == [HALF, Fraction(1, 4), Fraction(1, 8)]
        for m in (2, 4, 8):
            rep = convergence_report(mu, m, 1)
            assert rep["pass"] and rep["literal_bound_held"]

    def test_point_mass_zero_distance(self):
        mu = SubgroupMeasure.point(Submodule.full(1, P2))
        for m in (2, 4):
            assert convergence_report(mu, m, 2)["tv"] == 0


def trend_grid():
    """(name, j, rows) of ``convergence_trend`` over the ``_measure_grid(7)``
    measures, with m below, at and far past the width j + 1, for j = 0..3:
    the grid of the ``irs`` trend digest."""
    for name, mu in _measure_grid(7):
        for m in (1, 2, 3, 4, 5, 8, 100, 2**200 - 1):
            for j in range(4):
                yield name, j, list(convergence_trend(mu, convergence_report(mu, m, j)))


class TestTrend:
    def test_rows_are_the_reports(self):
        # C_W/m' read off the last row, for m' > j, against a marginal built
        # at each m'; for m' < j the law fails on this grid, so a row there
        # read off C_W would differ from its report
        grid = dict(_measure_grid(7))
        past_the_width = 0
        for name, j, rows in trend_grid():
            assert [row["m"] for row in rows[:-1]] == [2**i for i in range(len(rows) - 1)]
            for row in rows:
                want = convergence_report(grid[name], row["m"], j)
                want.pop("marginal")
                assert {k: v for k, v in row.items() if k != "marginal"} == want
                past_the_width += row["m"] > j
        assert past_the_width > 3000

    def test_literal_bound_holds(self):
        # at most j phases cut a (j + 1)-site window, each at a distance of
        # at most 2 and with weight 1/m, so TV <= 2j/m on every row
        _, details = criterion_tv_bound(7)
        assert details["rows"] and all(row["literal_bound_held"] for row in details["rows"])
        for name, j, rows in trend_grid():
            assert all(row["literal_bound_held"] for row in rows), (name, j)


class TestSampler:
    def test_reproducible(self):
        a = sampler_law_report(even_mixture(), 3, 0, 1, 50, seed=42)
        b = sampler_law_report(even_mixture(), 3, 0, 1, 50, seed=42)
        assert a == b

    def test_point_mass_constant(self):
        mu = SubgroupMeasure.point(Submodule.zero(1, P2))
        rep = sampler_law_report(mu, 2, 0, 1, 20, seed=1)
        assert len(rep["empirical"].atoms) == 1

    def test_law_matches_exact_marginal(self):
        rep = sampler_law_report(even_mixture(), 4, 0, 1, 20000, seed=11)
        assert rep["within_tolerance"]
        assert rep["tv"] < Fraction(1, 20)

    @pytest.mark.parametrize(
        "m, trials, message",
        [(4, 0, "trials"), (4, -5, "trials"), (0, 100, "m must"), (-1, 100, "m must")],
    )
    def test_report_rejects_bad_input(self, m, trials, message):
        with pytest.raises(DomainError, match=message):
            sampler_law_report(even_mixture(), m, 0, 1, trials, seed=1)

    def test_report_rejects_empty_window(self):
        with pytest.raises(DomainError, match="empty window"):
            sampler_law_report(even_mixture(), 2, 1, 0, 100, seed=1)


class TestSplice:
    def test_same_measure_gives_common_marginal(self):
        mu = even_mixture()
        empirical, target, rep = splice_measures(mu, mu, 11, 0, 1, 20000, seed=5)
        assert target == mu.marginal(0, 1)
        assert rep["within_bound"]

    def test_empty_window_refused_before_any_marginal(self):
        mu1 = SubgroupMeasure.point(Submodule.full(1, P2))
        mu2 = SubgroupMeasure.point(line_submodule())
        with pytest.raises(DomainError, match=r"empty window \[5, 0\]"):
            splice_measures(mu1, mu2, 11, 5, 0, 20, seed=1)
        assert mu1._cache == {} and mu2._cache == {}

    def test_point_masses_single_cell(self):
        mu1 = SubgroupMeasure.point(Submodule.full(1, P2))
        mu2 = SubgroupMeasure.point(Submodule.zero(1, P2))
        empirical, target, rep = splice_measures(mu1, mu2, 51, 0, 0, 20000, seed=5)
        assert target.atoms[window_of_submodule(Submodule.full(1, P2), 0, 0)] == HALF
        # single-cell window: every trial is all-first or all-second
        assert rep["lambda_all_first"] + rep["lambda_all_second"] == 1
        assert rep["boundary_defect_bound"] == 0
        assert rep["within_bound"]

    @pytest.mark.parametrize("n", [1, 2])
    def test_window_budget_edges(self, n):
        # n * (hi - lo + 1) may reach WINDOW_DIM_BUDGET = 24; one site more
        # is refused on the one-site marginal, before a window marginal.
        widest = 24 // n
        mu1 = SubgroupMeasure.point(Submodule.full(n, P2))
        mu2 = SubgroupMeasure.point(Submodule.zero(n, P2))
        empirical, _, _ = splice_measures(mu1, mu2, 3, 0, widest - 1, 10, seed=1)
        assert empirical.n * (empirical.hi + 1) == 24
        asked = []

        def marginal(lo, hi):
            asked.append((lo, hi))
            return mu1.marginal(lo, hi)

        with pytest.raises(ResourceBudgetError, match="budget") as err:
            splice_measures(SubgroupMeasure(marginal, True), mu2, 3, 0, widest, 10, seed=1)
        assert err.value.requested == n * (widest + 1)
        assert asked == [(0, 0)]

    def test_even_window_length_rejected(self):
        mu = even_mixture()
        with pytest.raises(DomainError):
            splice_measures(mu, mu, 10, 0, 0, 10, seed=1)

    def test_majority_exact_symmetric_difference(self):
        # brute-force oracle over all words of length n+1
        for n in (3, 5, 7):
            hits = 0
            for word in range(2 ** (n + 1)):
                w1 = word & ((1 << n) - 1)
                w2 = word >> 1
                if (bin(w1).count("1") > n // 2) != (bin(w2).count("1") > n // 2):
                    hits += 1
            assert majority_symmetric_difference(n) == Fraction(hits, 2 ** (n + 1))

    def test_majority_measure_is_half(self):
        for n in (3, 5):
            ups = sum(1 for w in range(2**n) if bin(w).count("1") > n // 2)
            assert Fraction(ups, 2**n) == HALF

    @pytest.mark.parametrize(
        "n_ai, trials, message",
        [
            (11, 0, "trials"),
            (11, -1, "trials"),
            (10, 100, "positive odd"),
            (0, 100, "positive odd"),
            (-3, 100, "positive odd"),
        ],
    )
    def test_invariance_estimate_rejects_bad_input(self, n_ai, trials, message):
        with pytest.raises(DomainError, match=message):
            majority_invariance_estimate(n_ai, trials, seed=1)

    def test_majority_length_budget(self):
        mu = even_mixture()
        n_ai = MAJORITY_LENGTH_BUDGET + 2
        assert str(majority_symmetric_difference(MAJORITY_LENGTH_BUDGET))
        with pytest.raises(ResourceBudgetError):
            majority_symmetric_difference(n_ai)
        with pytest.raises(ResourceBudgetError):
            majority_invariance_estimate(n_ai, 10, seed=1)
        with pytest.raises(ResourceBudgetError):
            splice_measures(mu, mu, n_ai, 0, 0, 10, seed=1)

    def test_splice_rejects_no_trials(self):
        mu = even_mixture()
        with pytest.raises(DomainError, match="trials must be"):
            splice_measures(mu, mu, 11, 0, 0, 0, seed=1)

    def test_invariance_estimate_tracks_exact(self):
        est = majority_invariance_estimate(11, 20000, seed=9)
        exact = majority_symmetric_difference(11)
        assert abs(est - exact) < Fraction(1, 50)
