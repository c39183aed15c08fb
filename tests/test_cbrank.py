"""Poset derivative levels, the divisor-product order, approach pipeline."""

import pytest

from lampirs import cbrank, submodules
from lampirs.algebra import LaurentPoly, Poly
from lampirs.cbrank import (
    TRUNCATION_BUDGET,
    build_approach_sequence,
    cb_levels,
    classify_limit,
    level_closed_form,
    poset_less,
    truncation,
    unbounded_rank_certificate,
)
from lampirs.errors import ConsistencyError, DomainError, ResourceBudgetError
from lampirs.lamplighter import SubgroupTriple, delta_site
from lampirs.rng import SplitMix64
from lampirs.submodules import LaurentVector, Submodule, construct_with_invariants


def levels_by_iterated_removal(elements):
    """Reference levels: remove the minimal pairs, level by level."""
    remaining = set(elements)
    levels = {}
    level = 0
    while remaining:
        minimal = [x for x in remaining if not any(poset_less(y, x) for y in remaining)]
        assert minimal, "a finite strict order has a minimal element"
        for x in minimal:
            levels[x] = level
        remaining.difference_update(minimal)
        level += 1
    return levels


class TestOrder:
    def test_zero_rank_points_are_minimal(self):
        for t in (1, 2, 5):
            for other in [(1, 0), (1, 3), (2, 1)]:
                assert not poset_less(other, (t, 0)) or other[1] * other[0] < 0

    def test_examples(self):
        assert poset_less((1, 1), (2, 1))
        assert not poset_less((2, 1), (3, 1))
        assert not poset_less((2, 1), (2, 1))

    def test_strict_order_on_truncation(self):
        # irreflexive and transitive on every pair and triple of truncation(12, 20)
        elements = truncation(12, 20)
        assert len(elements) == 70
        assert not any(poset_less(a, a) for a in elements)
        below = {b: [a for a in elements if poset_less(a, b)] for b in elements}
        for c in elements:
            for b in below[c]:
                for a in below[b]:
                    assert poset_less(a, c), (a, b, c)


class TestLevels:
    def test_chain(self):
        # (1, r) for r = 0..4 is a chain; levels count the pairs below
        assert cb_levels(truncation(1, 4)) == {(1, r): r for r in range(5)}

    def test_antichain(self):
        # pairs with r = 0 are pairwise incomparable
        assert set(cb_levels([(t, 0) for t in range(1, 6)]).values()) == {0}

    def test_empty(self):
        assert cb_levels(()) == {}

    def test_levels_ignore_element_order(self):
        elements = truncation(6, 6)
        assert cb_levels(elements[::-1]) == cb_levels(elements)

    @pytest.mark.parametrize("bounds", [(12, 20), (30, 60), (100, 180), (1, 300)])
    def test_sweep_equals_iterated_removal(self, bounds):
        elements = truncation(*bounds)
        assert cb_levels(elements) == levels_by_iterated_removal(elements)

    @pytest.mark.parametrize("bounds", [(12, 20), (30, 60), (1, 300), (100, 180)])
    def test_sweep_equals_iterated_removal_off_downward_closed_sets(self, bounds):
        # seeded subsets that miss pairs below the pairs they keep, so a
        # column's largest r' below a pair is often not the one just under it
        elements = truncation(*bounds)
        rng = SplitMix64(bounds[0] * 1000 + bounds[1])
        for keep in (2, 3, 5):
            subset = [x for x in elements if rng.below(keep) == 0]
            kept = set(subset)
            assert any(
                poset_less(y, x) and y not in kept for x in subset for y in elements
            ), "the subset is downward closed"
            assert cb_levels(subset) == levels_by_iterated_removal(subset)

    @pytest.mark.parametrize("pair", [(0, 1), (-2, 1)])
    def test_t_below_one_refused(self, pair):
        with pytest.raises(DomainError, match="t >= 1"):
            cb_levels([(1, 1), pair])

    def test_elements_in_order(self):
        assert truncation(3, 3) == (
            (1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0), (3, 1),
        )

    def test_recursion_identity(self):
        elements = truncation(6, 6)
        levels = cb_levels(elements)
        for x in elements:
            below = [levels[y] for y in elements if poset_less(y, x)]
            assert levels[x] == (1 + max(below) if below else 0)

    def test_closed_form_on_truncations(self):
        for bounds in [(6, 6), (8, 12)]:
            poset = truncation(*bounds)
            levels = cb_levels(poset)
            for point, lvl in levels.items():
                assert lvl == level_closed_form(point)

    def test_closed_form_at_the_budget_edge(self):
        elements = truncation(100, 180)
        assert len(elements) == 991
        levels = cb_levels(elements)
        assert len(levels) == 991
        for point, lvl in levels.items():
            assert lvl == level_closed_form(point), point

    def test_closed_form_point_values(self):
        assert level_closed_form((5, 0)) == 0
        assert level_closed_form((1, 1)) == 1
        assert cb_levels(truncation(8, 12))[(1, 1)] == 1
        assert cb_levels(truncation(8, 12))[(4, 1)] == 4

    def test_truncation_stability(self):
        small = cb_levels(truncation(4, 6))
        large = cb_levels(truncation(8, 12))
        for point, lvl in small.items():
            assert large[point] == lvl

    def test_truncation_budget(self, monkeypatch):
        for bounds in [(2, TRUNCATION_BUDGET - 1), (1, TRUNCATION_BUDGET), (10**9, 0), (10**5, 10**8)]:
            with pytest.raises(ResourceBudgetError):
                truncation(*bounds)
        # the budget counts elements: (8, 12) has 39 of them
        monkeypatch.setattr(cbrank, "TRUNCATION_BUDGET", 39)
        assert len(truncation(8, 12)) == 39
        with pytest.raises(ResourceBudgetError):
            truncation(9, 12)

    def test_downward_closure(self):
        elems = set(truncation(8, 12))
        for x in elems:
            for y in elems:
                if poset_less(y, x):
                    assert y in elems


class TestCertificate:
    def test_chain_levels_grow(self):
        cert = unbounded_rank_certificate([2, 4, 8])
        assert cert["chain_strictly_increasing"]
        assert cert["closed_form_matches"]
        assert [s["max_level"] for s in cert["stages"]] == [2, 4, 8]

    def test_bad_bounds(self):
        with pytest.raises(DomainError):
            unbounded_rank_certificate([4, 2])


def make_triple(s, U, v=None):
    v = v if v is not None else LaurentVector.zero(U.n, U.p)
    return SubgroupTriple(s, U, U.reduce_vector(v))


def seeded_encoding_grid():
    """150 seeded triples (t*e(U), U, 0), U spanned by one polynomial of
    degree < 4 at a stored period e <= 4 over F_2 or F_3, and t <= 2."""
    rng = SplitMix64(5)
    for _ in range(150):
        p = (2, 3)[rng.below(2)]
        e = 1 + rng.below(4)
        t = 1 + rng.below(2)
        f = LaurentPoly.zero(p)
        for exp in range(4):
            c = rng.below(p)
            if c:
                f = f + LaurentPoly.monomial(p, exp, c)
        U = Submodule(1, p, e, [LaurentVector(p, [f])])
        yield make_triple(t * U.minimal_period(), U)


def skip_case():
    """(1+x^2) F_2[x^(+-2)] with s = 2: toward (1, 0), the term for the first
    irreducible, 1+x, has period 1 and is skipped."""
    f = LaurentPoly.from_poly(Poly(2, [1, 0, 1]))
    return make_triple(2, Submodule(1, 2, 2, [LaurentVector(2, [f])]))


class TestApproach:
    def test_invalid_target_rejected(self):
        V = make_triple(2, Submodule.zero(1, 2))
        with pytest.raises(DomainError):
            build_approach_sequence(V, (3, 0), 3)  # 3 does not divide 2
        with pytest.raises(DomainError):
            build_approach_sequence(V, (2, 1), 3)  # not strictly below (2, 1)

    @pytest.mark.parametrize("target", [(0, 0), (0, 5), (-1, 0), (-2, 1)])
    def test_target_t_below_one_rejected(self, target):
        V = make_triple(2, Submodule.zero(1, 2))
        with pytest.raises(DomainError, match="target t must be >= 1"):
            build_approach_sequence(V, target, 3)

    def test_target_encoding_exact(self):
        U = construct_with_invariants(1, 2, 2, 1)
        V = make_triple(4, U, delta_site(1, 2, 1))
        assert V.poset_encoding() == (2, 1)
        for target in [(1, 1), (1, 0), (2, 0)]:
            seq = build_approach_sequence(V, target, 6)
            assert all(W.poset_encoding() == target for W in seq)
            assert all(W.contains_subgroup(V) for W in seq)

    def test_target_encoding_exact_on_a_seeded_grid(self):
        with_target = 0
        for V in seeded_encoding_grid():
            if not poset_less((1, 0), V.poset_encoding()):
                continue
            with_target += 1
            seq = build_approach_sequence(V, (1, 0), 12)
            assert [W.poset_encoding() for W in seq] == [(1, 0)] * 12, V
        assert with_target == 114

    @pytest.mark.parametrize(
        "V, target",
        [
            (skip_case(), (1, 0)),
            (make_triple(4, construct_with_invariants(1, 2, 2, 1), delta_site(1, 2, 0)), (1, 1)),
            (make_triple(6, construct_with_invariants(2, 3, 3, 4)), (2, 1)),
        ],
    )
    def test_encodings_are_read_from_the_terms(self, monkeypatch, V, target):
        # approach_sequence computes each term's minimal period, so
        # classify_limit and the `approach` command's encodings_exact check
        # read it back without testing a period of any term again.
        seq = build_approach_sequence(V, target, 8)
        terms = {id(W.lamps) for W in seq}
        calls = []
        has_period = Submodule.has_period

        def counting(U, d):
            if id(U) in terms:
                calls.append(d)
            return has_period(U, d)

        monkeypatch.setattr(Submodule, "has_period", counting)
        classify_limit(seq, V)
        assert all(W.poset_encoding() == target for W in seq)
        assert calls == []


class TestClassify:
    def test_constant_sequence_stabilizes_with_equality(self):
        V = make_triple(2, construct_with_invariants(1, 2, 2, 1))
        rep = classify_limit([V, V, V], V)
        (group,) = rep["groups"]
        assert group["stabilizes"] and not group["strict"] and group["divides"]

    def test_approach_output_is_strict(self):
        V = make_triple(2, Submodule.zero(1, 2))
        seq = build_approach_sequence(V, (1, 1), 5)
        rep = classify_limit(seq, V)
        (group,) = rep["groups"]
        assert group["strict"] and not group["stabilizes"]
        assert (group["t"], group["r"]) == (1, 1)

    def test_a_non_stabilizing_sequence_builds_no_form(self, monkeypatch):
        # Every term records an encoding other than the limit's, so no tail
        # is compared with the limit and no Hermite form is built.
        V = make_triple(4, construct_with_invariants(1, 2, 2, 1), delta_site(1, 2, 0))
        seq = build_approach_sequence(V, (1, 1), 8)
        V.poset_encoding()
        calls, hermite = [], submodules.laurent_hermite_form
        monkeypatch.setattr(
            submodules, "laurent_hermite_form", lambda *args: calls.append(args) or hermite(*args)
        )
        rep = classify_limit(seq, V)
        assert calls == [] and not any(W.lamps._forms for W in seq)
        (group,) = rep["groups"]
        assert group["strict"] and not group["stabilizes"]

    def test_interleaved_sequences_grouped(self):
        V = make_triple(4, construct_with_invariants(1, 2, 2, 1), delta_site(1, 2, 0))
        seq_a = build_approach_sequence(V, (1, 1), 4)
        seq_b = build_approach_sequence(V, (2, 0), 4)
        mixed = [x for pair in zip(seq_a, seq_b) for x in pair]
        rep = classify_limit(mixed, V)
        keys = {(g["t"], g["r"]) for g in rep["groups"]}
        assert keys == {(1, 1), (2, 0)}
        assert all(g["strict"] for g in rep["groups"])

    def test_violation_raises(self):
        # A sequence whose encoding does not divide the limit's must be refused.
        V = make_triple(2, Submodule.zero(1, 2))
        W = make_triple(3, Submodule.zero(1, 2))
        with pytest.raises(ConsistencyError):
            classify_limit([W], V)
