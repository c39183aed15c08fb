"""Periodic subgroup invariants, counting oracle, and the constructions."""

import hashlib

import pytest

from lampirs import lamplighter, submodules
from lampirs.algebra import LaurentPoly, Poly, poly_gcd
from lampirs.cbrank import build_approach_sequence, classify_limit
from lampirs.errors import ContextError, DomainError, PreconditionError, ResourceBudgetError
from lampirs.formats import format_vector
from lampirs.lamplighter import SubgroupTriple, certify_convergence
from lampirs.rng import SplitMix64
from lampirs.submodules import (
    SEQUENCE_BUDGET,
    CanonicalForm,
    LaurentVector,
    Submodule,
    _vector_at,
    _vector_coordinates,
    approach_sequence,
    construct_with_invariants,
    count_submodules,
    invariant_report,
    laurent_hermite_form,
    submodules_of_codimension,
    vanish_sequence,
)

from test_oracle_crosscheck import (
    _coordinates,
    laurent_rows,
    pinned_grid,
    residue_coordinates,
    unvectorize,
    vectorize,
)


# The (e(U), rk, t) shapes of the p = 2 limits of the certify-f2 benchmark.
CERTIFY_F2_SHAPES = [(2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 2, 1), (3, 1, 2), (3, 2, 2)]


def unit(n, p, i=0, exp=0):
    return LaurentVector.unit(n, p, i, exponent=exp)


def span_even(p):
    """F_p[x^2, x^-2] * 1 inside the rank-1 module."""
    return Submodule(1, p, 2, [unit(1, p)])


def random_vector(rng, n, p, lo=-2, hi=2):
    coords = []
    for _ in range(n):
        f = LaurentPoly.zero(p)
        for e in range(lo, hi + 1):
            c = rng.below(p)
            if c:
                f = f + LaurentPoly.monomial(p, e, c)
        coords.append(f)
    return LaurentVector(p, coords)


class TestRescale:
    def test_full_module_identity_presentation(self):
        for n in (1, 2, 3):
            F = Submodule.full(n, 2).form(1)
            assert F.rank == n and F.ncols == n

    def test_even_span_splits_by_parity(self):
        U = span_even(2)
        F = U.form(2)
        assert F.ncols == 2 and F.rank == 1
        assert U.rescaled_rank(2) == 1

    def test_zero_gives_empty_matrix(self):
        assert Submodule.zero(2, 2).form(4).rank == 0

    def test_level_must_be_multiple(self):
        with pytest.raises(DomainError):
            span_even(2).form(3)


class TestLaurentHermiteForm:
    def test_idempotent_and_row_space_preserved(self):
        rng = SplitMix64(1234)
        for p in (2, 3):
            for _ in range(25):
                n, e = 1 + rng.below(2), 1 + rng.below(3)
                U = Submodule(n, p, e, [random_vector(rng, n, p) for _ in range(3)])
                for level in (e, 2 * e):
                    form = U.form(level)
                    assert laurent_hermite_form(p, n, level, form.rows) == form
                    # Pivots are monic polynomials; entries above a pivot
                    # are residues of smaller degree.
                    rows = laurent_rows(form)
                    for idx, col in enumerate(form.pivots):
                        pivot = rows[idx][col]
                        assert pivot.offset == 0 and pivot.body.leading() == 1
                        for row in rows[:idx]:
                            entry = row[col]
                            assert entry.is_zero() or (
                                entry.offset >= 0 and entry.offset + entry.body.degree < pivot.body.degree
                            )
                    for g in U.gens:
                        for k in range(level // e):
                            coords = _coordinates(vectorize(g.shifted(k * e), level))
                            assert not form.residue(coords)
                    for row in rows:
                        assert U.contains_vector(unvectorize(row, n, level, p))

    def test_pivot_is_generator_gcd(self):
        # Rows f*g and f*h with g, h coprime echelonize to the single pivot f,
        # whatever unit x^k scales each generator.
        f, g, h = Poly(2, (1, 1, 1)), Poly(2, (1, 1)), Poly(2, (1, 1, 0, 1))
        assert poly_gcd(g, h) == Poly.one(2)
        rows = [
            [LaurentPoly(2, 3, f * g)],
            [LaurentPoly(2, -2, f * h)],
        ]
        form = laurent_hermite_form(2, 1, 1, [_coordinates(r) for r in rows])
        assert laurent_rows(form) == ((LaurentPoly.from_poly(f),),) and form.pivots == (0,)
        assert form.rows == ((((0, 0), 1), ((0, 1), 1), ((0, 2), 1)),)

    def test_builds_no_laurent_polynomial(self, monkeypatch):
        # Rows go from F_p coordinates to canonical rows in that one format:
        # no LaurentPoly is built inside the engine, for the forms of
        # enumerated subgroups nor for those of approach terms, built as
        # each term's form is read.
        inside, built = [], []
        real_form, real_new = submodules.laurent_hermite_form, LaurentPoly.__new__

        def building(*args):
            inside.append(args)
            try:
                return real_form(*args)
            finally:
                built.append(inside.pop())

        def constructing(cls, *args, **kwargs):
            assert not inside, "laurent_hermite_form built a LaurentPoly"
            return real_new(cls, *args, **kwargs)

        enumerated = submodules_of_codimension(3, 2, 2)
        rows = [[_vector_coordinates(g, 2) for g in U._at_period(2).gens] for U in enumerated]
        U = construct_with_invariants(1, 2, 3, 2)
        monkeypatch.setattr(submodules, "laurent_hermite_form", building)
        monkeypatch.setattr(LaurentPoly, "__new__", constructing)
        forms = [submodules.laurent_hermite_form(3, 2, 2, r) for r in rows]
        seq = approach_sequence(U, 2, 1, 6)
        for V in seq:
            V.form(V.period)
        assert len(seq) == 6 and len(built) > len(forms) + len(seq)
        assert sum(form.rank for form in forms) > len(forms)

    def test_each_row_is_indexed_once(self, monkeypatch):
        # The rows of every form built for an approach sequence, its
        # certificate and a reading of every term's form are indexed as
        # they are pushed, and never again.
        built, indexed = [], []
        real_form, real_index = submodules.laurent_hermite_form, CanonicalForm._index_row

        def building(*args):
            built.append(real_form(*args))
            return built[-1]

        def indexing(self, row, c):
            indexed.append(row)
            return real_index(self, row, c)

        monkeypatch.setattr(submodules, "laurent_hermite_form", building)
        monkeypatch.setattr(CanonicalForm, "_index_row", indexing)
        U = construct_with_invariants(1, 2, 3, 2)
        V = SubgroupTriple(6, U, U.reduce_vector(unit(1, 2, exp=-1)))
        seq = build_approach_sequence(V, (1, 0), 6)
        result = certify_convergence(lambda m: seq[m - 1], V, 3, 12, 6)
        for W in seq:
            W.lamps.form(W.lamps.period)
        assert result.index is not None and len(built) > len(seq)
        assert len(indexed) == sum(form.rank for form in built)


class TestMembership:
    def test_zero_vector_always_member(self):
        assert span_even(2).contains_vector(LaurentVector.zero(1, 2))

    def test_generators_are_members(self):
        rng = SplitMix64(5)
        for _ in range(20):
            U = Submodule(2, 3, 2, [random_vector(rng, 2, 3) for _ in range(2)])
            for g in U.gens:
                assert U.contains_vector(g)
                assert U.contains_vector(g.shifted(2))
                assert U.contains_vector(g.shifted(-4))

    def test_odd_exponent_not_in_even_span(self):
        assert not span_even(2).contains_vector(unit(1, 2, exp=1))
        assert span_even(2).contains_vector(unit(1, 2, exp=-2))

    def test_vector_of_another_module_is_refused(self):
        # x e_0 of rank 1, e_0 of rank 3 and e_0 over F_3 are no vectors of
        # R^2 over F_2: reduce_vector refuses them as contains_vector does
        U = Submodule(2, 2, 1, [unit(2, 2)])
        for w in (unit(1, 2, exp=1), unit(3, 2), unit(2, 3)):
            with pytest.raises(ContextError, match="different ambient module"):
                U.contains_vector(w)
            with pytest.raises(ContextError, match="different ambient module"):
                U.reduce_vector(w)


class TestPeriodsAndRanks:
    def test_full_module(self):
        for n in (1, 2):
            rep = invariant_report(Submodule.full(n, 2), 4)
            assert (rep.e, rep.rank, rep.deficiency) == (1, n, 0)

    def test_zero_module(self):
        rep = invariant_report(Submodule.zero(1, 3), 5)
        assert (rep.e, rep.rank, rep.deficiency) == (1, 0, 1)

    def test_even_span(self):
        rep = invariant_report(span_even(2), 2)
        assert (rep.e, rep.rank, rep.deficiency) == (2, 1, 1)

    def test_minimal_period_divides_and_is_minimal(self):
        rng = SplitMix64(17)
        cases = []
        for _ in range(30):
            n = 1 + rng.below(2)
            p = (2, 3)[rng.below(2)]
            e = 1 + rng.below(4)
            cases.append(Submodule(n, p, e, [random_vector(rng, n, p)]))
        # Also p = 5, and U spanned by g, x^d g, ..., x^(e-d) g for a divisor
        # d of e, so that the minimal period is often below the stored one.
        for _ in range(30):
            n = 1 + rng.below(2)
            p = (2, 3, 5)[rng.below(3)]
            e = 1 + rng.below(6)
            divisors = [d for d in range(1, e + 1) if e % d == 0]
            d = divisors[rng.below(len(divisors))]
            g = random_vector(rng, n, p)
            cases.append(Submodule(n, p, e, [g.shifted(j * d) for j in range(e // d)]))
        below = 0
        for U in cases:
            e = U.period
            got = U.minimal_period(e)
            assert U.minimal_period(2 * e) == got
            assert e % got == 0
            assert U.shifted(got).equals(U)
            for d in range(1, got):
                if got % d == 0:
                    assert not U.shifted(d).equals(U)
            below += got < e
        assert below > 0

    def test_precondition_violation(self):
        U = span_even(2)
        with pytest.raises(PreconditionError):
            U.minimal_period(3)
        with pytest.raises(PreconditionError):
            U.rescaled_rank(3)

    def test_given_period_checked_once_the_minimal_period_is_known(self):
        U = span_even(2)
        assert U.minimal_period() == 2
        for s in (1, 3, 5):
            with pytest.raises(PreconditionError):
                U.minimal_period(s)
        assert U.minimal_period(4) == 2

    def test_forms_at_the_minimal_period_are_built_once(self, monkeypatch):
        # Stored at period 4, minimal period 2: the form at 2 is kept on the
        # subgroup, so only the first round builds forms.
        from lampirs import submodules
        from lampirs.lamplighter import SubgroupTriple

        built = []
        real = submodules.laurent_hermite_form

        def counting(p, n, level, rows):
            built.append(level)
            return real(p, n, level, rows)

        monkeypatch.setattr(submodules, "laurent_hermite_form", counting)
        V = SubgroupTriple(4, construct_with_invariants(1, 2, 2, 1).with_period(4))
        rounds = []
        for _ in range(3):
            before = len(built)
            V.poset_encoding()
            V.lamps.canonical_key()
            V.invariants()
            V.lamps.canonical()
            rounds.append(len(built) - before)
        assert rounds == [2, 0, 0], built
        assert V.lamps.form(6) is V.lamps.form(6)
        with pytest.raises(DomainError):
            V.lamps.form(3)

    def test_single_generator_rank_one(self):
        g = LaurentVector(
            2, (LaurentPoly.monomial(2, 1), LaurentPoly.from_poly(Poly(2, (1, 1))))
        )
        U = Submodule(2, 2, 1, [g])
        assert U.form(U.period).rank == 1

    def test_rank_multiplicativity_sample(self):
        rng = SplitMix64(23)
        for _ in range(40):
            n = 1 + rng.below(2)
            p = (2, 3)[rng.below(2)]
            e = 1 + rng.below(4)
            b = 1 + rng.below(3)
            U = Submodule(n, p, e, [random_vector(rng, n, p)])
            assert U.rescaled_rank(b * e) == b * U.rescaled_rank(e)


class TestFormColumnBudget:
    def test_form_column_budget_edges(self, monkeypatch):
        # With a budget of 12 columns, <1 + x> stored at period 12 has
        # minimal period 12 and an approach sequence may reach E = 12.  One
        # column more is refused before the divisors of the period are
        # listed or a generator is re-presented or read into coordinates.
        monkeypatch.setattr(submodules, "FORM_COLUMN_BUDGET", 12)
        line = [LaurentVector(2, (LaurentPoly.from_poly(Poly(2, (1, 1))),))]
        assert invariant_report(Submodule(1, 2, 12, line)).e == 12
        zero = Submodule.zero(1, 2)
        assert len(approach_sequence(zero, 12, 0, 1)) == 1
        full = Submodule.full(1, 2)
        assert full.form(12).rank == 12

        def unstarted(*args):
            raise AssertionError("a refused form must not be started")

        for name in ("_divisors", "_vector_coordinates"):
            monkeypatch.setattr(submodules, name, unstarted)
        monkeypatch.setattr(Submodule, "_at_period", unstarted)
        refusals = [
            (13, Submodule(1, 2, 13, line).minimal_period),
            (14, Submodule(2, 2, 7, [unit(2, 2)]).minimal_period),
            (13, lambda: full.form(13)),
            # zero's form and minimal period are cached by the call above
            (13, lambda: approach_sequence(zero, 13, 0, 1)),
        ]
        for requested, call in refusals:
            with pytest.raises(ResourceBudgetError, match="budget") as err:
                call()
            assert err.value.requested == requested
        # a stored period on which no form is built stays accepted
        U = construct_with_invariants(1, 2, 10**8, 1)
        assert U.period == 10**8 and U.has_period(2 * 10**8)


class TestFormEntryBudget:
    def test_form_entry_budget_edges(self, monkeypatch):
        # With a budget of 36 entries, the 6 generators of U_6 at period 6,
        # the full module at level 6 and approach terms of 6 x 6 and 5 x 7
        # fit.  49 entries are refused before the divisors of the period are
        # listed, a generator is re-presented or read into coordinates, or the
        # quotient piece of an approach sequence is built.
        monkeypatch.setattr(submodules, "FORM_ENTRY_BUDGET", 36)
        assert invariant_report(construct_with_invariants(1, 2, 6, 6)).e == 6
        zero = Submodule.zero(1, 2)
        assert len(approach_sequence(zero, 6, 0, 1)) == 1
        assert len(approach_sequence(zero, 7, 2, 1)) == 1
        full = Submodule.full(1, 2)
        assert full.form(6).rank == 6
        seven = construct_with_invariants(1, 2, 7, 7)

        def unstarted(*args):
            raise AssertionError("a refused form must not be started")

        for name in ("_divisors", "_vector_coordinates", "construct_with_invariants"):
            monkeypatch.setattr(submodules, name, unstarted)
        monkeypatch.setattr(Submodule, "_at_period", unstarted)
        refusals = [
            (49, seven.minimal_period),
            (49, lambda: full.form(7)),
            (49, lambda: approach_sequence(zero, 7, 0, 1)),
            (42, lambda: approach_sequence(zero, 7, 1, 1)),
        ]
        for requested, call in refusals:
            with pytest.raises(ResourceBudgetError, match="exceeds the budget 36$") as err:
                call()
            assert err.value.requested == requested


class TestCanonicalForms:
    def test_presentation_independence(self):
        rng = SplitMix64(31)
        for _ in range(20):
            g1 = random_vector(rng, 2, 2)
            g2 = random_vector(rng, 2, 2)
            U = Submodule(2, 2, 2, [g1, g2])
            V = Submodule(2, 2, 2, [g2, g1 + g2, g1.shifted(2)])
            assert U.equals(V)
            assert U.canonical_key() == V.canonical_key()

    def test_unit_scaling_invariance(self):
        g = random_vector(SplitMix64(3), 1, 3)
        U = Submodule(1, 3, 1, [g])
        V = Submodule(1, 3, 1, [g.scaled(2).shifted(5)])
        assert U.equals(V)

    def test_distinct_modules_differ(self):
        assert not span_even(2).equals(Submodule.full(1, 2))

    def test_residue_linear_and_decides_membership(self):
        rng = SplitMix64(43)
        for p in (2, 3):
            for _ in range(20):
                U = Submodule(2, p, 2, [random_vector(rng, 2, p)])
                form = U.form(2)

                def residue(w):
                    got = form.residue(_coordinates(vectorize(w, 2)))
                    assert got == residue_coordinates(U, w, 2), (U, w)
                    return got

                w1, w2 = random_vector(rng, 2, p), random_vector(rng, 2, p)
                r1, r2 = residue(w1), residue(w2)
                total = {k: (r1.get(k, 0) + r2.get(k, 0)) % p for k in r1.keys() | r2.keys()}
                assert residue(w1 + w2) == {k: c for k, c in total.items() if c}
                assert (not r1) == U.contains_vector(w1)
                assert residue(U.gens[0].shifted(4) + w1) == r1

    def test_reduce_vector_is_coset_canonical(self):
        rng = SplitMix64(41)
        for _ in range(25):
            U = Submodule(2, 2, 2, [random_vector(rng, 2, 2) for _ in range(2)])
            w = random_vector(rng, 2, 2)
            u = U.gens[0].shifted(-2) + U.gens[-1] if U.gens else LaurentVector.zero(2, 2)
            assert U.reduce_vector(w) == U.reduce_vector(w + u)
            assert U.contains_vector(w - U.reduce_vector(w))


class TestCounting:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("a", [0, 1, 2])
    def test_enumeration_matches_formula(self, p, k, a):
        subs = submodules_of_codimension(p, k, a)
        assert len(subs) == count_submodules(p, k, a)
        keys = {U.canonical_key() for U in subs}
        assert len(keys) == len(subs)

    @pytest.mark.parametrize("p, k, a", [(2, 2, 3), (3, 2, 2), (2, 3, 2), (5, 1, 3), (2, 2, 5)])
    def test_enumerated_matrices_are_canonical(self, p, k, a):
        # each enumerated matrix is a canonical form at level 1 already, so
        # the engine, fed its rows, gives them back unchanged
        for U in submodules_of_codimension(p, k, a):
            rows = [_vector_coordinates(g, 1) for g in U.gens]
            form = laurent_hermite_form(p, k, 1, rows)
            assert form.rows == tuple(tuple(sorted(row.items())) for row in rows), U
            assert form.pivots == tuple(range(k))

    @pytest.mark.parametrize(
        "p, k, a, built", [(2, 2, 5, 144), (3, 2, 2, 30), (2, 3, 2, 37), (2, 2, 3, 28)]
    )
    def test_rows_are_shared_within_a_degree_shape(self, p, k, a, built):
        # every row is built once per degree shape, row 0 once per outermost
        # diagonal entry: for (2, 2, 5), 32 rows 1 and 112 rows 0, where one
        # generator per row of each subgroup would be 1,536
        subs = submodules_of_codimension(p, k, a)
        assert len({id(g) for U in subs for g in U.gens}) == built
        assert len(subs) * k > built

    @pytest.mark.parametrize("p, a", [(2, 6), (3, 3), (5, 2)])
    def test_one_row_per_subgroup_for_rank_one(self, p, a):
        subs = submodules_of_codimension(p, 1, a)
        assert len({id(g) for U in subs for g in U.gens}) == len(subs)

    def test_exact_small_sets(self):
        # codim 1 of the rank-1 module over F_2: only (x+1)R.
        (only,) = submodules_of_codimension(2, 1, 1)
        expected = Submodule(1, 2, 1, [LaurentVector(2, (LaurentPoly.from_poly(Poly(2, (1, 1))),))])
        assert only.equals(expected)
        # codim 2: (x^2+1)R and (x^2+x+1)R.
        pair = submodules_of_codimension(2, 1, 2)
        wanted = [Poly(2, (1, 0, 1)), Poly(2, (1, 1, 1))]
        for U, f in zip(pair, wanted):
            assert U.equals(
                Submodule(1, 2, 1, [LaurentVector(2, (LaurentPoly.from_poly(f),))])
            )

    def test_formula_values(self):
        assert count_submodules(2, 1, 1) == 1
        assert count_submodules(2, 2, 1) == 3
        assert count_submodules(5, 1, 0) == 1
        assert count_submodules(3, 2, 2) == 3**4 - 3**2

    def test_budget_error(self):
        with pytest.raises(ResourceBudgetError):
            submodules_of_codimension(3, 3, 5)

    def test_count_bits_budget_edge(self):
        # for p = 2 the count is refused from a*k = 14,284 bits on
        for k, a in [(1, 14283), (14283, 1), (3, 4761)]:
            assert len(str(count_submodules(2, k, a))) == 4300
        for k, a in [(1, 14284), (14284, 1), (2, 7142)]:
            with pytest.raises(ResourceBudgetError, match="budget"):
                count_submodules(2, k, a)


class TestConstructions:
    def test_b1_returns_free_modules(self):
        U = construct_with_invariants(1, 2, 1, 1)
        assert U.equals(Submodule.full(1, 2))
        U2 = construct_with_invariants(3, 2, 1, 2)
        rep = invariant_report(U2, 1)
        assert (rep.e, rep.rank) == (1, 2)

    def test_even_span_case(self):
        U = construct_with_invariants(1, 2, 2, 1)
        assert U.equals(span_even(2))

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_roundtrip_grid(self, p):
        for n in (1, 2, 3):
            for b in range(1, 7):
                for r in range(1, n * b + 1):
                    rep = invariant_report(construct_with_invariants(n, p, b, r), b)
                    assert (rep.e, rep.rank) == (b, r)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            construct_with_invariants(1, 2, 2, 3)
        with pytest.raises(DomainError):
            construct_with_invariants(1, 2, 2, 0)
        with pytest.raises(DomainError, match="lamp rank n"):
            construct_with_invariants(0, 2, 1, 1)
        with pytest.raises(DomainError, match="minimal period b"):
            construct_with_invariants(1, 2, 0, 1)
        with pytest.raises(DomainError, match="lamp rank n"):
            construct_with_invariants(-1, 2, -1, 1)

    def test_rank_past_the_column_budget_is_refused_before_any_generator(self, monkeypatch):
        # A subgroup of rescaled rank r has forms of at least r columns, so
        # with a budget of 12 columns a rank of 13 is refused unbuilt.
        monkeypatch.setattr(submodules, "FORM_COLUMN_BUDGET", 12)
        assert invariant_report(construct_with_invariants(2, 2, 6, 12)).rank == 12

        def unstarted(*args, **kwargs):
            raise AssertionError("a refused subgroup must not be started")

        monkeypatch.setattr(LaurentVector, "unit", unstarted)
        for n, b, r in [(1, 13, 13), (13, 1, 13), (2, 7, 13), (1, 10**8, 10**8)]:
            with pytest.raises(ResourceBudgetError, match="budget") as err:
                construct_with_invariants(n, 2, b, r)
            assert err.value.requested == r


class TestVanish:
    def test_zero_stays_zero(self):
        for U in vanish_sequence(Submodule.zero(1, 2), 3):
            assert U.is_zero()

    def test_full_module_sequence(self):
        seq = vanish_sequence(Submodule.full(1, 2), 2)
        assert seq[0].equals(
            Submodule(1, 2, 1, [LaurentVector(2, (LaurentPoly.from_poly(Poly(2, (1, 1))),))])
        )
        assert seq[1].equals(
            Submodule(1, 2, 1, [LaurentVector(2, (LaurentPoly.from_poly(Poly(2, (1, 1, 1))),))])
        )

    def test_invariants_preserved_and_membership_dies(self):
        U = span_even(2)
        base = invariant_report(U, 2)
        w = U.gens[0]
        seq = vanish_sequence(U, 6)
        memberships = [V.contains_vector(w) for V in seq]
        for V in seq:
            rep = invariant_report(V, 2)
            assert (rep.e, rep.rank) == (base.e, base.rank)
        assert not any(memberships[1:]), "fixed vector must leave the tail"

    def test_count_budget_edges(self, monkeypatch):
        seq = vanish_sequence(Submodule.full(1, 2), SEQUENCE_BUDGET)
        assert len(seq) == 1000 and seq[-1].gens[0].coords[0].body.degree == 13

        def unbuilt(self, f):
            raise AssertionError("a refused count must not build a term")

        monkeypatch.setattr(Submodule, "scaled", unbuilt)
        for count in (SEQUENCE_BUDGET + 1, 5000):
            with pytest.raises(ResourceBudgetError, match="budget") as err:
                vanish_sequence(Submodule.full(1, 2), count)
            assert err.value.requested == count


class TestApproach:
    def test_prescribed_examples(self):
        Z = Submodule.zero(1, 2)
        seq = approach_sequence(Z, 2, 1, 4)
        for V in seq:
            rep = invariant_report(V)
            assert (rep.e, rep.deficiency) == (2, 1)
            assert V.contains_submodule(Z)
            assert not V.is_zero()

    def test_full_rank_target_gives_scaled_free_modules(self):
        # toward the zero subgroup with deficiency target 0 and b = 1: f_m R
        seq = approach_sequence(Submodule.zero(1, 2), 1, 0, 2)
        for V, f in zip(seq, (Poly(2, (1, 1)), Poly(2, (1, 1, 1)))):
            assert V.equals(Submodule.full(1, 2).scaled(f))
            assert invariant_report(V).deficiency == 0

    def test_containment_and_target(self):
        rng = SplitMix64(77)
        for _ in range(6):
            U = construct_with_invariants(1, 2, 2, 1)
            r_u = invariant_report(U, 2).deficiency
            b = 1 + rng.below(2)
            r_target = rng.below(r_u * b)
            seq = approach_sequence(U, b, r_target, 4)
            for V in seq:
                assert V.contains_submodule(U)
                assert not V.equals(U)
                rep = invariant_report(V)
                assert rep.e == 2 * b
                assert rep.deficiency == r_target

    def test_membership_stabilizes_on_window(self):
        U = Submodule.zero(1, 2)
        seq = approach_sequence(U, 2, 1, 12)
        probes = [unit(1, 2, exp=e) for e in range(-2, 3)]
        for w in probes:
            tail = [V.contains_vector(w) for V in seq[6:]]
            assert tail == [U.contains_vector(w)] * len(tail)

    @staticmethod
    def counted(monkeypatch):
        """Count has_period calls and Hermite form builds."""
        from lampirs import submodules

        counts = {"period": 0, "form": 0}
        has_period, form = Submodule.has_period, submodules.laurent_hermite_form

        def counting_period(self, s):
            counts["period"] += 1
            return has_period(self, s)

        def counting_form(*args):
            counts["form"] += 1
            return form(*args)

        monkeypatch.setattr(Submodule, "has_period", counting_period)
        monkeypatch.setattr(submodules, "laurent_hermite_form", counting_form)
        return counts

    @pytest.mark.parametrize("e, rk, t", CERTIFY_F2_SHAPES)
    def test_terms_take_no_period_test_and_one_form_each(self, monkeypatch, e, rk, t):
        # The p = 2 shapes of the certify-f2 benchmark: no term is tested for
        # a period and the sequence builds no form.  Read at E, each term
        # builds one form.
        U = construct_with_invariants(1, 2, e, rk)
        U.canonical()
        counts = self.counted(monkeypatch)
        for r_target in range(t * (e - rk)):
            counts.update(period=0, form=0)
            seq = approach_sequence(U, t, r_target, 12)
            assert counts == {"period": 0, "form": 0}, r_target
            for V in seq:
                V.form(e * t)
            assert counts == {"period": 0, "form": 12}, r_target
            assert all(V.minimal_period() == e * t for V in seq)

    @pytest.mark.parametrize("e, rk, t", CERTIFY_F2_SHAPES)
    def test_only_keyed_terms_hold_a_form(self, monkeypatch, e, rk, t):
        # The calls of a certify-f2 operation on each shape: build 25 terms,
        # certify them at radius 4 with the shift bound 2s, classify them.
        # A term's form is built only when the certificate keys the term:
        # classify_limit compares no term with the limit, as every term's
        # recorded encoding differs from the limit's.
        U = construct_with_invariants(1, 2, e, rk)
        V = SubgroupTriple(t * e, U, U.reduce_vector(random_vector(SplitMix64(61 * e + t), 1, 2)))
        keyed, member_keys = [], lamplighter._member_keys

        def keying(triple, *args):
            keyed.append(triple)
            return member_keys(triple, *args)

        monkeypatch.setattr(lamplighter, "_member_keys", keying)
        unformed = 0
        for r_target in range(t * (e - rk)):
            keyed.clear()
            seq = build_approach_sequence(V, (1, r_target), 25)
            certify_convergence(lambda m: seq[m - 1], V, 4, 2 * t * e, 25)
            classify_limit(seq, V)
            for m, W in enumerate(seq, 1):
                if not W.lamps._forms:
                    unformed += 1
                else:
                    assert any(W is K for K in keyed), (r_target, m)
        assert unformed > 0

    def test_a_skipped_term_takes_one_period_test(self, monkeypatch):
        # (1+x^2) F_2[x^(+-2)] with b = 1: the term for 1+x, which divides
        # g_1 = 1+y, is built and tested and has period 1, so its period
        # test builds the one form; no later f divides g_1.
        U = Submodule(1, 2, 2, [LaurentVector(2, [LaurentPoly.from_poly(Poly(2, [1, 0, 1]))])])
        U.canonical()
        counts = self.counted(monkeypatch)
        seq = approach_sequence(U, 1, 0, 8)
        assert counts == {"period": 1, "form": 1}
        for V in seq:
            V.form(2)
        assert counts == {"period": 1, "form": 1 + 8}
        # the first kept term is the one for 1+y+y^2, with y = x^2
        first = LaurentPoly.from_poly(Poly(2, [0, 1, 0, 1, 0, 1]))
        assert seq[0].contains_vector(LaurentVector(2, [first]))

    def test_a_moved_row_off_the_free_columns_takes_no_period_test(self, monkeypatch):
        # (1+x+x^3+x^4) F_2[x^(+-2)] with b = 1 has the row (1+y^2, 1+y), y =
        # x^2.  Moved by x its residue is (1+y, y+y^2): the entry in the pivot
        # column rules the period 1 out for every term, though 1+y, the first
        # f, divides both entries.
        h = Poly(2, [1, 1, 0, 1, 1])
        U = Submodule(1, 2, 2, [LaurentVector(2, [LaurentPoly.from_poly(h)])])
        U.canonical()
        counts = self.counted(monkeypatch)
        seq = approach_sequence(U, 1, 0, 8)
        assert counts == {"period": 0, "form": 0}
        for V in seq:
            V.form(2)
        assert counts == {"period": 0, "form": 8}
        assert all(V.minimal_period() == 2 for V in seq)

    def test_hypothesis_violations_named(self):
        full = Submodule.full(1, 2)
        with pytest.raises(DomainError, match="deficiency"):
            approach_sequence(full, 2, 0, 2)
        with pytest.raises(DomainError, match="r_target"):
            approach_sequence(Submodule.zero(1, 2), 2, 2, 2)

    def test_count_at_the_budget(self, monkeypatch):
        seq = approach_sequence(Submodule.zero(1, 2), 1, 0, SEQUENCE_BUDGET)
        assert len(seq) == SEQUENCE_BUDGET

        def unbuilt(self):
            raise AssertionError("a refused count must not build the sequence")

        monkeypatch.setattr(Submodule, "canonical", unbuilt)
        for count in (SEQUENCE_BUDGET + 1, 10**6):
            with pytest.raises(ResourceBudgetError, match="budget"):
                approach_sequence(Submodule.zero(1, 2), 1, 0, count)
        with pytest.raises(DomainError, match="count"):
            approach_sequence(Submodule.zero(1, 2), 1, 0, 0)


class TestVectorize:
    def test_roundtrip(self):
        rng = SplitMix64(13)
        for _ in range(30):
            v = random_vector(rng, 2, 3, lo=-4, hi=4)
            for level in (1, 2, 3):
                coords = _vector_coordinates(v, level)
                assert _vector_at(coords, 2, level, 3) == v
                assert coords == _coordinates(vectorize(v, level))
                assert unvectorize(vectorize(v, level), 2, level, 3) == v


# sha256 of the form keys at P and 2P, the minimal period, and membership
# and the canonical representative of seeded probes (members among them),
# over pinned_grid(1414, 300); recorded while residues still came from a
# Laurent division per pivot, and unchanged since they come from the y-action.
GRID_PIN_SHA256 = "02179193a821feba4e5a9ec518fc37f2f256a922d73d631ce4e749711a5e4578"


def laurent_key(form):
    """``form.key()`` in the layout the pin was recorded in: each row as its
    Laurent entries, each entry as (offset, coefficients)."""
    rows = tuple(tuple((e.offset, e.body.coeffs) for e in row) for row in laurent_rows(form))
    return (form.p, form.level, form.pivots, rows)


class TestResidueGridPin:
    def test_grid_digest_is_pinned(self):
        rng = SplitMix64(1415)
        digest = hashlib.sha256()
        seen = {"proper_divisor": 0, "degree_0_pivot": 0, "member": 0}
        for U in pinned_grid(1414, 300):
            e = U.minimal_period()
            form = U.form(U.period)
            seen["proper_divisor"] += e < U.period
            rows = laurent_rows(form)
            seen["degree_0_pivot"] += any(not row[c].body.degree for row, c in zip(rows, form.pivots))
            lines = [repr(laurent_key(form)), repr(laurent_key(U.form(2 * U.period))), str(e)]
            for k in range(4):
                w = random_vector(rng, U.n, U.p, lo=-5, hi=3)
                if k % 2 and U.gens:
                    w = U.gens[rng.below(len(U.gens))].shifted(U.period * (rng.below(5) - 2))
                member = U.contains_vector(w)
                seen["member"] += member
                lines += [str(member), format_vector(U.reduce_vector(w))]
            digest.update(("\n".join(lines) + "\n").encode())
        assert all(seen.values()), seen
        assert digest.hexdigest() == GRID_PIN_SHA256
