"""Group law, subgroup triples, conjugation, cylinders, convergence windows."""

import pytest

from lampirs import lamplighter
from lampirs.algebra import PRIME_BOUND, LaurentPoly, Poly
from lampirs.errors import DomainError, ResourceBudgetError
from lampirs.fplinalg import rref
from lampirs.lamplighter import (
    BALL_DIM_BUDGET,
    GroupElement,
    SubgroupTriple,
    _least_difference,
    ball_size,
    certify_convergence,
    conjugate_element,
    cylinder_contains,
    delta_site,
    power,
)
from lampirs.rng import SplitMix64
from lampirs.submodules import (
    ENUMERATION_BUDGET,
    PRINTABLE_BITS,
    LaurentVector,
    Submodule,
    construct_with_invariants,
)


def rand_vec(rng, n, p, lo=-2, hi=2):
    coords = []
    for _ in range(n):
        f = LaurentPoly.zero(p)
        for e in range(lo, hi + 1):
            c = rng.below(p)
            if c:
                f = f + LaurentPoly.monomial(p, e, c)
        coords.append(f)
    return LaurentVector(p, coords)


def rand_element(rng, n, p):
    return GroupElement(rand_vec(rng, n, p), rng.below(7) - 3)


def slow_power(g, k):
    out = GroupElement.identity(g.n, g.p)
    step = g if k >= 0 else g.inverse()
    for _ in range(abs(k)):
        out = out * step
    return out


def word_closure(generators, max_words):
    """Finite BFS closure of a generator set, as a membership oracle."""
    gens = list(generators) + [g.inverse() for g in generators]
    seen = {generators[0] * generators[0].inverse()}
    frontier = list(seen)
    while frontier and len(seen) < max_words:
        new = []
        for w in frontier:
            for g in gens:
                x = w * g
                if x not in seen:
                    seen.add(x)
                    new.append(x)
                    if len(seen) >= max_words:
                        break
            if len(seen) >= max_words:
                break
        frontier = new
    return seen


class TestGroupLaw:
    def test_shift_convention(self):
        # (delta_0, 1) * (delta_0, 0) = (delta_0 + delta_-1, 1)
        d0 = delta_site(1, 2, 0)
        prod = GroupElement(d0, 1) * GroupElement(d0, 0)
        assert prod.shift == 1
        assert prod.lamps == d0 + delta_site(1, 2, -1)

    def test_axioms_on_random_triples(self):
        rng = SplitMix64(2024)
        ident = GroupElement.identity(2, 3)
        for _ in range(1000):
            a, b, c = (rand_element(rng, 2, 3) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * a.inverse() == ident
            assert a * ident == a and ident * a == a

    def test_power_closed_form_matches_iteration(self):
        rng = SplitMix64(55)
        for _ in range(50):
            g = rand_element(rng, 1, 2)
            for k in range(-6, 7):
                assert power(g, k) == slow_power(g, k)

    def test_power_edge_cases(self):
        g = GroupElement(delta_site(1, 3, 2), -2)
        assert power(g, 0) == GroupElement.identity(1, 3)
        assert power(g, -1) == g.inverse()


class TestShiftsAreInts:
    """A shift that is not an int is refused, never truncated."""

    @pytest.mark.parametrize("shift", [2.7, 2.0, "2", None, True])
    def test_group_element(self, shift):
        with pytest.raises(DomainError):
            GroupElement(delta_site(1, 2, 0), shift)

    @pytest.mark.parametrize("s", [2.9, 2.0, "2", True])
    def test_subgroup_triple(self, s):
        with pytest.raises(DomainError):
            SubgroupTriple(s, Submodule.full(1, 2))

    def test_ints_kept(self):
        assert GroupElement(delta_site(1, 2, 0), -3).shift == -3
        assert SubgroupTriple(2, Submodule.full(1, 2)).s == 2


def triple_even_span(s=2, v_exp=None):
    U = Submodule(1, 2, 2, [LaurentVector.unit(1, 2, 0)])
    v = LaurentVector.zero(1, 2) if v_exp is None else LaurentVector.unit(1, 2, 0, exponent=v_exp)
    return SubgroupTriple(s, U, U.reduce_vector(v))


class TestTripleMembership:
    def test_marker_and_lamp_generators_are_members(self):
        rng = SplitMix64(9)
        for _ in range(20):
            U = Submodule(1, 2, 2, [rand_vec(rng, 1, 2)])
            v = U.reduce_vector(rand_vec(rng, 1, 2))
            V = SubgroupTriple(2, U, v)
            assert V.contains_element(GroupElement(v, 2))
            for g in U.gens:
                assert V.contains_element(GroupElement(g, 0))

    def test_negative_power_member(self):
        V = triple_even_span(2, v_exp=1)
        marker = GroupElement(V.v, V.s)
        assert V.contains_element(power(marker, -2))

    def test_against_word_enumeration_oracle(self):
        V = triple_even_span(2, v_exp=0)
        gens = [GroupElement(V.v, 2)] + [
            GroupElement(g.shifted(2 * k), 0) for g in V.lamps.gens for k in (-1, 0, 1)
        ]
        for w in word_closure(gens, 400):
            assert V.contains_element(w)

    def test_non_members(self):
        V = triple_even_span(2)
        assert not V.contains_element(GroupElement(LaurentVector.zero(1, 2), 1))
        assert not V.contains_element(GroupElement(delta_site(1, 2, 1), 0))

    def test_s_zero_triples(self):
        U = Submodule.full(1, 2)
        V = SubgroupTriple(0, U)
        assert V.contains_element(GroupElement(delta_site(1, 2, 3), 0))
        assert not V.contains_element(GroupElement(delta_site(1, 2, 3), 2))
        with pytest.raises(DomainError):
            SubgroupTriple(0, U, delta_site(1, 2, 0))
        with pytest.raises(DomainError):
            V.poset_encoding()


class TestCanonicalTriples:
    def test_canonical_is_idempotent(self):
        rng = SplitMix64(88)
        for _ in range(20):
            U = Submodule(1, 2, 2, [rand_vec(rng, 1, 2)])
            V = SubgroupTriple(4, U, rand_vec(rng, 1, 2))
            c1 = V.canonical()
            c2 = c1.canonical()
            assert c1.same_subgroup(V)
            assert c2.lamps.gens == c1.lamps.gens and c2.v == c1.v

    def test_lamp_offset_gives_same_canonical(self):
        rng = SplitMix64(99)
        for _ in range(20):
            U = Submodule(2, 2, 2, [rand_vec(rng, 2, 2), rand_vec(rng, 2, 2)])
            v = rand_vec(rng, 2, 2)
            u = U.gens[0].shifted(-2)
            a = SubgroupTriple(2, U, v).canonical()
            b = SubgroupTriple(2, U, v + u).canonical()
            assert a.v == b.v and a.lamps.gens == b.lamps.gens

    def test_generator_order_irrelevant(self):
        g1 = delta_site(1, 2, 0) + delta_site(1, 2, 1)
        g2 = delta_site(1, 2, -1)
        a = SubgroupTriple(1, Submodule(1, 2, 1, [g1, g2])).canonical()
        b = SubgroupTriple(1, Submodule(1, 2, 1, [g2, g1])).canonical()
        assert a.lamps.gens == b.lamps.gens


class TestTripleRoundTrip:
    def test_reconstruction_from_word_closure(self):
        # Rebuild the triple from nothing but the generated subgroup's
        # elements, then compare canonical forms with the original.
        U = Submodule(1, 2, 2, [LaurentVector.unit(1, 2, 0)])
        v = U.reduce_vector(delta_site(1, 2, 1))
        V = SubgroupTriple(2, U, v).canonical()
        gens = [GroupElement(V.v, V.s)] + [
            GroupElement(g.shifted(2 * k), 0) for g in V.lamps.gens for k in (-1, 0, 1)
        ]
        closure = word_closure(gens, 800)
        shifts = {g.shift for g in closure}
        assert min(t for t in shifts if t > 0) == V.s
        lamp_parts = [g.lamps for g in closure if g.shift == 0 and not g.lamps.is_zero()]
        rebuilt_lamps = Submodule(1, 2, V.s, lamp_parts)
        assert rebuilt_lamps.equals(V.lamps)
        marker = next(g for g in closure if g.shift == V.s)
        rebuilt = SubgroupTriple(V.s, rebuilt_lamps, marker.lamps).canonical()
        assert rebuilt.same_subgroup(V)
        assert rebuilt.v == V.v
        assert rebuilt.lamps.gens == V.lamps.gens

    def test_lamp_parts_of_closure_stay_in_triple(self):
        rng = SplitMix64(1212)
        for _ in range(5):
            U = Submodule(1, 2, 2, [rand_vec(rng, 1, 2)])
            V = SubgroupTriple(2, U, U.reduce_vector(rand_vec(rng, 1, 2)))
            gens = [GroupElement(V.v, 2)] + [GroupElement(g, 0) for g in U.gens]
            for w in word_closure(gens, 200):
                if w.shift == 0:
                    assert V.lamps.contains_vector(w.lamps)


class TestNonMinimalPeriods:
    def test_triple_accepts_coarser_stored_period(self):
        # U stored with period 4 but actually x^2-invariant; s = 2 is valid.
        U4 = Submodule(1, 2, 4, [
            LaurentVector.unit(1, 2, 0, exponent=k) for k in (0, 2)
        ])
        assert U4.has_period(2)
        V = SubgroupTriple(2, U4, LaurentVector.zero(1, 2))
        assert V.poset_encoding() == (1, 1)

    def test_invalid_period_rejected(self):
        from lampirs.errors import PreconditionError

        U = Submodule(1, 2, 2, [LaurentVector.unit(1, 2, 0)])
        with pytest.raises(PreconditionError):
            SubgroupTriple(3, U, LaurentVector.zero(1, 2))


class TestContainment:
    def test_reflexive(self):
        V = triple_even_span()
        assert V.contains_subgroup(V)

    def test_phi_twisted_containment(self):
        # V = (1, R, 0) contains W = (2, U, (1+x) * 0 + u) whenever U <= R.
        big = SubgroupTriple(1, Submodule.full(1, 2))
        small = triple_even_span(2)
        assert big.contains_subgroup(small)
        assert not small.contains_subgroup(big)

    def test_phi_twisted_companion_exactly(self):
        # outer = (1, (x^2+1)R, delta_0); inner v must be (1+x) * delta_0 mod U'.
        f = Poly(2, (1, 0, 1))
        U = Submodule(1, 2, 1, [LaurentVector(2, (LaurentPoly.from_poly(f),))])
        vprime = delta_site(1, 2, 0)
        outer = SubgroupTriple(1, U, U.reduce_vector(vprime))
        twist = LaurentPoly.from_poly(Poly(2, (1, 1)))  # 1 + x
        inner_good = SubgroupTriple(
            2, U, U.reduce_vector(vprime.scaled(twist) + U.gens[0].shifted(-1))
        )
        inner_bad = SubgroupTriple(
            2, U, U.reduce_vector(vprime.scaled(twist) + delta_site(1, 2, -1))
        )
        assert outer.contains_subgroup(inner_good)
        assert not outer.contains_subgroup(inner_bad)

    def test_s_incompatible(self):
        a = SubgroupTriple(3, Submodule.full(1, 2))
        b = SubgroupTriple(2, Submodule.full(1, 2))
        assert not a.contains_subgroup(b)

    def test_companion_condition_matters(self):
        U = Submodule.zero(1, 2)
        inner_good = SubgroupTriple(2, U, LaurentVector.zero(1, 2))
        inner_bad = SubgroupTriple(2, U, delta_site(1, 2, 0))
        outer = SubgroupTriple(1, U, LaurentVector.zero(1, 2))
        # phi_2(x) * 0 = 0, so only the v = 0 inner triple is contained.
        assert outer.contains_subgroup(inner_good)
        assert not outer.contains_subgroup(inner_bad)

    def test_partial_order_on_chain(self):
        chain = [
            SubgroupTriple(4, Submodule.zero(1, 2)),
            SubgroupTriple(2, Submodule.zero(1, 2)),
            SubgroupTriple(2, Submodule(1, 2, 2, [LaurentVector.unit(1, 2, 0)])),
            SubgroupTriple(1, Submodule.full(1, 2)),
        ]
        for i in range(len(chain)):
            for j in range(i, len(chain)):
                assert chain[j].contains_subgroup(chain[i])
        # antisymmetry under canonical equality
        for i in range(len(chain)):
            for j in range(i + 1, len(chain)):
                assert not chain[i].contains_subgroup(chain[j])

    def test_encoding_shrinks_up_the_chain(self):
        # Larger subgroups sit lower in the divisor-product order.
        from lampirs.cbrank import poset_less

        chain = [
            SubgroupTriple(4, Submodule.zero(1, 2)),
            SubgroupTriple(2, Submodule.zero(1, 2)),
            SubgroupTriple(2, Submodule(1, 2, 2, [LaurentVector.unit(1, 2, 0)])),
        ]
        encodings = [V.poset_encoding() for V in chain]
        for small, big in zip(encodings[1:], encodings):
            assert poset_less(small, big) or small == big


class TestConjugation:
    def test_identity_fixes(self):
        V = triple_even_span(2, v_exp=1)
        C = V.conjugated(GroupElement.identity(1, 2))
        assert C.same_subgroup(V)

    def test_pure_shift_form(self):
        V = triple_even_span(2, v_exp=1).canonical()
        g = GroupElement(LaurentVector.zero(1, 2), 3)
        C = V.conjugated(g)
        expected = SubgroupTriple(
            V.s, V.lamps.shifted(3), V.v.shifted(3)
        ).canonical()
        assert C.same_subgroup(expected)

    def test_membership_equivalence_random(self):
        rng = SplitMix64(314)
        for _ in range(30):
            U = Submodule(1, 2, 2, [rand_vec(rng, 1, 2)])
            V = SubgroupTriple(2, U, U.reduce_vector(rand_vec(rng, 1, 2)))
            g = rand_element(rng, 1, 2)
            C = V.conjugated(g)
            assert C.s == V.s
            for _ in range(40):
                h = rand_element(rng, 1, 2)
                assert C.contains_element(conjugate_element(g, h)) == V.contains_element(h)

    def test_encoding_invariant(self):
        rng = SplitMix64(271)
        for _ in range(40):
            U = Submodule(1, 2, 2, [rand_vec(rng, 1, 2)])
            V = SubgroupTriple(4, U, U.reduce_vector(rand_vec(rng, 1, 2)))
            g = rand_element(rng, 1, 2)
            assert V.conjugated(g).poset_encoding() == V.poset_encoding()

    def test_conjugation_composes(self):
        rng = SplitMix64(918)
        for _ in range(25):
            U = Submodule(2, 2, 2, [rand_vec(rng, 2, 2), rand_vec(rng, 2, 2)])
            V = SubgroupTriple(2, U, U.reduce_vector(rand_vec(rng, 2, 2)))
            g1 = rand_element(rng, 2, 2)
            g2 = rand_element(rng, 2, 2)
            assert V.conjugated(g1).conjugated(g2).same_subgroup(
                V.conjugated(g2 * g1)
            )

    def test_far_shift_keeps_v_in_its_coset(self):
        # U holds the even exponents and v = x: x^(1000) v = x^1001 lies in
        # another coset of U than x, so the conjugate's v stays x^1001 and is
        # never moved next to y^0; a shift of 10^6 is refused, not answered x
        U = construct_with_invariants(1, 2, 2, 1)
        x = LaurentVector.unit(1, 2, 0, exponent=1)
        V = SubgroupTriple(2, U, x)
        shift = GroupElement(LaurentVector.zero(1, 2), 1000)
        assert V.conjugated(shift).v == LaurentVector.unit(1, 2, 0, exponent=1001)
        with pytest.raises(ResourceBudgetError):
            V.conjugated(GroupElement(LaurentVector.zero(1, 2), 10**6))


class TestProjections:
    def test_shift_projection_and_lamp_intersection(self):
        U = Submodule(1, 2, 2, [LaurentVector.unit(1, 2, 0)])
        # The shift projection is generated by s; the lamp intersection is U.
        V = SubgroupTriple(2, U)
        assert V.s == 2
        assert V.lamps.equals(U)
        inside_lamps = SubgroupTriple(0, U)
        assert inside_lamps.s == 0

    def test_shift_projection_conjugation_invariant(self):
        rng = SplitMix64(606)
        U = Submodule(1, 2, 2, [LaurentVector.unit(1, 2, 0)])
        V = SubgroupTriple(4, U)
        for _ in range(30):
            g = rand_element(rng, 1, 2)
            assert V.conjugated(g).s == 4


class TestCylinders:
    def test_identity_always_inside(self):
        V = triple_even_span()
        assert cylinder_contains(V, [GroupElement.identity(1, 2)], [])

    def test_marker_inside_and_avoid(self):
        V = triple_even_span(2, v_exp=1)
        marker = GroupElement(V.v, 2)
        assert cylinder_contains(V, [marker], [])
        assert not cylinder_contains(V, [], [marker])


class TestConvergenceWindow:
    def test_constant_sequence(self):
        V = triple_even_span(2, v_exp=1)
        res = certify_convergence(lambda m: V, V, 2, 2, 6)
        assert res.stabilized and res.index == 1

    def test_planted_disagreement_reported(self):
        V = triple_even_span(2)
        other = SubgroupTriple(2, Submodule.full(1, 2))

        def provider(m):
            return other

        res = certify_convergence(provider, V, 2, 2, 6)
        assert not res.stabilized
        assert res.witness is not None
        # the witness really does distinguish the two subgroups
        g = res.witness
        assert other.contains_element(g) != V.contains_element(g)

    @pytest.mark.parametrize("radius, shift_bound", [(1, -3), (-1, 2), (-1, -1)])
    def test_negative_ball_rejected(self, radius, shift_bound):
        V = triple_even_span(2)
        with pytest.raises(DomainError):
            certify_convergence(lambda m: V, V, radius, shift_bound, 5)

    def test_zero_radius_and_shift_bound(self):
        V = triple_even_span(2)
        res = certify_convergence(lambda m: V, V, 0, 0, 3)
        assert res.stabilized and res.index == 1 and res.witnesses_checked == 2

    def unused_provider(self, m):
        raise AssertionError("a refused ball must not reach the sequence")

    @pytest.mark.parametrize(
        "radius, shift_bound",
        [
            (64, 0),  # dimension 129
            (100000000, 1),
            (3, 500000),  # 1,000,001 shifts
            (3, 125000),  # 250,001 shifts, keyed 4 times
            (3, 10**12),
        ],
    )
    def test_ball_past_a_budget_refused(self, radius, shift_bound):
        # s = 4, U = F_2[x^(+-2)]: the refusal comes before the basis or a key
        V = SubgroupTriple(4, Submodule(1, 2, 2, [LaurentVector.unit(1, 2, 0)]))
        with pytest.raises(ResourceBudgetError):
            certify_convergence(self.unused_provider, V, radius, shift_bound, 3)

    def test_ball_at_the_key_budget(self):
        # (2S+1)(H+1) = 15,625 * 64 = 10^6 keys is the most a ball may need;
        # s = 1000 and U = 0 keep the members, and so the work, few
        V = SubgroupTriple(1000, Submodule.zero(1, 2))
        res = certify_convergence(lambda m: V, V, 0, 7812, 63)
        assert res.stabilized and res.witnesses_checked == 2 * 15625
        for shift_bound, horizon in ((7813, 63), (7812, 64)):
            with pytest.raises(ResourceBudgetError, match="budget"):
                certify_convergence(self.unused_provider, V, 0, shift_bound, horizon)

    def test_ball_at_the_dimension_budget(self):
        V = SubgroupTriple(4, Submodule(1, 2, 2, [LaurentVector.unit(1, 2, 0)]))
        res = certify_convergence(lambda m: V, V, 63, 1, 3)
        assert res.stabilized and res.witnesses_checked == 3 * 2**127

    def test_ball_size_at_the_budget_edges(self):
        assert ball_size(1, 2, 63, 1, 3) == 3 * 2**127
        assert ball_size(128, 2, 0, 1, 3) == 3 * 2**BALL_DIM_BUDGET
        with pytest.raises(ResourceBudgetError):
            ball_size(1, 2, 64, 0, 1)
        assert ball_size(1, 3, 0, 7812, 63) == 3 * 15625
        assert ball_size(1, 3, 0, 249999, 1) == 3 * (ENUMERATION_BUDGET // 2 - 1)
        for shift_bound, horizon in ((7813, 63), (7812, 64), (250000, 1)):
            with pytest.raises(ResourceBudgetError):
                ball_size(1, 3, 0, shift_bound, horizon)
        # the largest ball within both budgets has a witness count that prints
        largest = ball_size(128, PRIME_BOUND - 15, 0, 249999, 1)
        assert largest.bit_length() <= PRINTABLE_BITS
        assert len(str(largest)) < 4300

    def test_offsets_out_of_the_window_are_not_built(self):
        # U = 0, s = 1, v = 1: d_k = -(1 + x + ... + x^(k-1)) leaves a radius-3
        # window at k = 5, and no later d_k is reduced or row-reduced
        V = SubgroupTriple(1, Submodule.zero(1, 2), LaurentVector.unit(1, 2, 0))
        res = certify_convergence(lambda m: V, V, 3, 100000, 2)
        assert res.stabilized and res.witnesses_checked == 2**7 * 200001


def random_key(rng, dim, p):
    """A key as ``_member_keys`` makes them: None for the empty set, else
    RREF rows a of the direction and values x, the set {c : a.c = -x}."""
    if rng.below(5) == 0:
        return None
    rows = [[rng.below(p) for _ in range(dim)] for _ in range(rng.below(dim + 1))]
    direction, _ = rref(rows, p)
    return direction, tuple(rng.below(p) for _ in direction)


def keyed_set(key, dim, p):
    """Codes of the keyed set; digit i of a code is coordinate i."""
    codes = set()
    for code in range(p**dim):
        c = [code // p**i % p for i in range(dim)]
        if key is not None and all(
            (sum(a * b for a, b in zip(row, c)) + x) % p == 0 for row, x in zip(*key)
        ):
            codes.add(code)
    return codes


class TestLeastDifference:
    def test_matches_brute_force_on_random_keys(self):
        rng = SplitMix64(4890)
        compared = 0
        while compared < 4890:
            p, dim = (2, 3, 5, 7)[rng.below(4)], 1 + rng.below(3)
            key_a, key_b = random_key(rng, dim, p), random_key(rng, dim, p)
            difference = keyed_set(key_a, dim, p) ^ keyed_set(key_b, dim, p)
            if not difference:
                continue
            digits = _least_difference(key_a, key_b, dim, p)
            assert sum(c * p**i for i, c in enumerate(digits)) == min(difference), (key_a, key_b)
            compared += 1

    def test_matches_brute_force_when_one_set_holds_the_other(self):
        # inner is outer cut by one more equation through outer's least code
        # a, so a is in both and outer's least code outside inner is a unit
        # step from a
        rng = SplitMix64(3434)
        compared = 0
        while compared < 1500:
            p, dim = (2, 3, 5)[rng.below(3)], 1 + rng.below(4)
            outer = random_key(rng, dim, p)
            if outer is None:
                continue
            least = min(keyed_set(outer, dim, p))
            a = [least // p**i % p for i in range(dim)]
            direction, _ = rref([*outer[0], [rng.below(p) for _ in range(dim)]], p)
            if direction == outer[0]:
                continue
            inner = direction, tuple(-sum(r * c for r, c in zip(row, a)) % p for row in direction)
            key_a, key_b = (outer, inner) if rng.below(2) else (inner, outer)
            difference = keyed_set(key_a, dim, p) ^ keyed_set(key_b, dim, p)
            digits = _least_difference(key_a, key_b, dim, p)
            assert sum(c * p**i for i, c in enumerate(digits)) == min(difference), (key_a, key_b)
            compared += 1

    def test_names_the_witness_in_few_membership_tests(self, monkeypatch):
        # U = F_p[x^(+-1)](1 - x - x^2), s = 0, against the zero subgroup at
        # radius 3: the witness is named with at most the least code and one
        # unit step per digit tested for membership, in both directions
        calls = []
        in_keyed_set = lamplighter._in_keyed_set
        monkeypatch.setattr(
            lamplighter, "_in_keyed_set", lambda *args: calls.append(args) or in_keyed_set(*args)
        )
        p = 65521
        gen = LaurentVector(p, [LaurentPoly.from_poly(Poly(p, [1, -1, -1]))])
        term = SubgroupTriple(0, Submodule(1, p, 1, [gen]))
        res = certify_convergence(lambda m: term, SubgroupTriple(0, Submodule.zero(1, p)), 3, 0, 1)
        assert not res.stabilized and term.contains_element(res.witness)
        assert not res.witness.lamps.is_zero()
        assert len(calls) <= 2 * (7 + 1)
