"""Field/ring arithmetic: hand-verified values and exhaustive identities."""

import pytest

import itertools

from lampirs import algebra
from lampirs.algebra import (
    LaurentPoly,
    Poly,
    base_p_digits,
    enumerate_irreducibles,
    geometric_series,
    irreducibles,
    poly_gcd,
)
from lampirs.errors import ConsistencyError, ContextError, DomainError, ResourceBudgetError
from lampirs.rng import SplitMix64


def P(p, *coeffs):
    return Poly(p, coeffs)


def monic_polys(p, degree):
    """All monic polynomials of exact degree, ascending in base-p encoding."""
    for idx in range(p**degree):
        yield Poly(p, base_p_digits(idx, p, degree) + [1])


def is_irreducible(f):
    """Irreducibility test (exhaustive, exact): the oracle.  Degree 2 over an
    odd p is Euler's criterion, x^2 + bx + c being irreducible exactly when
    b^2 - 4c is a non-residue; every other case is trial division."""
    d = f.degree
    if d is None or d == 0:
        return False
    if d == 1:
        return True
    if d == 2 and f.p > 2:
        c, b, _ = f.monic().coeffs
        return pow(b * b - 4 * c, (f.p - 1) // 2, f.p) == f.p - 1
    for e in range(1, d // 2 + 1):
        for g in monic_polys(f.p, e):
            if (f % g).is_zero():
                return False
    return True


def trial_division_irreducibles(p, count):
    """The first ``count`` of the irreducibles order, by trial division alone."""
    out = []
    for degree in itertools.count(1):
        for f in monic_polys(p, degree):
            if f.constant() and is_irreducible(f):
                out.append(f)
                if len(out) == count:
                    return out


class TestPoly:
    def test_canonical_no_trailing_zeros(self):
        assert P(2, 1, 1, 0, 0).coeffs == (1, 1)

    def test_zero_degree_is_sentinel(self):
        assert Poly.zero(5).degree is None
        assert P(3, 0, 0).degree is None

    def test_mod_reduction_at_construction(self):
        assert P(3, 4, 5).coeffs == (1, 2)

    def test_arithmetic_closure(self):
        a, b = P(5, 2, 3), P(5, 4, 0, 1)
        assert (a + b) - b == a
        assert a * Poly.one(5) == a
        q, r = divmod(a * b + P(5, 1), b)
        assert q * b + r == a * b + P(5, 1)
        assert r.degree is None or r.degree < b.degree

    @pytest.mark.parametrize("p", [2, 3])
    def test_divisor_with_a_trailing_zero_fails(self, p):
        # A divisor breaking the no-trailing-zero rule has "leading" coefficient
        # 0; dividing by it would leave a remainder as long as the divisor,
        # and a Euclid built on the division would never end.  At p = 2 the
        # inverse pow(0, 0, 2) is 1, so the coefficient itself is tested.
        with pytest.raises(ConsistencyError, match="trailing zero"):
            divmod(P(p, 1, 1, 1), Poly._raw(p, [1, 0]))

    def test_composite_modulus_rejected(self):
        with pytest.raises(DomainError):
            Poly(6, (1,))

    def test_modulus_mismatch(self):
        with pytest.raises(ContextError):
            P(2, 1) + P(3, 1)


class TestGcd:
    def test_gcd_with_zero_is_monic(self):
        f = P(3, 2, 2)
        assert poly_gcd(f, Poly.zero(3)) == f.monic()
        assert poly_gcd(Poly.zero(3), Poly.zero(3)).is_zero()

    def test_square_factor_over_f2(self):
        # (x+1)^2 = x^2+1 over F_2, verified by expansion.
        xp1 = P(2, 1, 1)
        assert xp1 * xp1 == P(2, 1, 0, 1)
        assert poly_gcd(P(2, 1, 0, 1), xp1) == xp1

    def test_coprime(self):
        assert poly_gcd(P(2, 0, 1), P(2, 1, 1)) == Poly.one(2)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_gcd_divides_and_is_greatest(self, p):
        rng = SplitMix64(99 + p)
        for _ in range(40):
            d = Poly(p, [rng.below(p) for _ in range(3)])
            a = d * Poly(p, [rng.below(p) for _ in range(3)])
            b = d * Poly(p, [rng.below(p) for _ in range(3)])
            g = poly_gcd(a, b)
            if g.is_zero():
                assert a.is_zero() and b.is_zero()
                continue
            assert (a % g).is_zero() and (b % g).is_zero()
            if not d.is_zero():
                assert (g % d).is_zero()


class TestGeometricSeries:
    def test_one_term(self):
        assert geometric_series(1, 7, 3) == Poly.one(3)

    def test_three_terms_step_one(self):
        assert geometric_series(3, 1, 2) == P(2, 1, 1, 1)

    def test_two_terms_step_two(self):
        assert geometric_series(2, 2, 2) == P(2, 1, 0, 1)

    def test_rejects_zero_arguments(self):
        with pytest.raises(DomainError):
            geometric_series(0, 1, 2)
        with pytest.raises(DomainError):
            geometric_series(1, 0, 2)

    @pytest.mark.parametrize("p", [2, 3])
    def test_telescoping_identity(self, p):
        # (x^s - 1) * (1 + x^s + ... + x^(s(t-1))) = x^(st) - 1, all t, s <= 16.
        for t in range(1, 17):
            for s in range(1, 17):
                lhs = (Poly.one(p).shift(s) - Poly.one(p)) * geometric_series(t, s, p)
                assert lhs == Poly.one(p).shift(s * t) - Poly.one(p)


class TestIrreducibles:
    def test_first_four_over_f2(self):
        got = enumerate_irreducibles(2, 4)
        assert got == [P(2, 1, 1), P(2, 1, 1, 1), P(2, 1, 1, 0, 1), P(2, 1, 0, 1, 1)]

    def test_first_two_over_f3(self):
        assert enumerate_irreducibles(3, 2) == [P(3, 1, 1), P(3, 2, 1)]

    def test_smallest(self):
        assert enumerate_irreducibles(2, 1) == [P(2, 1, 1)]

    def test_never_includes_x_and_all_pass_trial_division(self):
        for p in (2, 3):
            for f in enumerate_irreducibles(p, 12):
                assert f.constant() != 0  # x never divides these
                assert is_irreducible(f)
                # independent exhaustive check: no proper monic divisor
                d = f.degree
                for e in range(1, d):
                    for g in monic_polys(p, e):
                        assert not (f % g).is_zero() or g == Poly.one(p)

    def test_count_budget_edges(self):
        assert len(enumerate_irreducibles(2, algebra.SEQUENCE_BUDGET)) == 1000
        assert len(enumerate_irreducibles(997, 1000)) == 1000
        for p in (2, 997):
            with pytest.raises(ResourceBudgetError) as err:
                enumerate_irreducibles(p, algebra.SEQUENCE_BUDGET + 1)
            assert err.value.requested == 1001

    def test_sieve_block_budget_edges(self, monkeypatch):
        # Over F_2 degree d is sieved in blocks of 2^(d-1) entries; a budget
        # of 8 admits degree 4 (7 irreducibles other than x up to it) and
        # refuses degree 5 before its first block is allocated.  The memo
        # starts empty, so every block read is sieved here.
        monkeypatch.setattr(algebra, "_SIEVED", {})
        allocated = []

        def recording_bytearray(*args):
            out = bytearray(*args)
            allocated.append(len(out))
            return out

        monkeypatch.setattr(algebra, "bytearray", recording_bytearray, raising=False)
        monkeypatch.setattr(algebra, "ENUMERATION_BUDGET", 8)
        gen = irreducibles(2)
        assert list(itertools.islice(gen, 7)) == trial_division_irreducibles(2, 7)
        with pytest.raises(ResourceBudgetError) as err:
            next(gen)
        assert err.value.requested == 16
        assert max(allocated) == 8
        monkeypatch.setattr(algebra, "ENUMERATION_BUDGET", 7)
        gen = irreducibles(2)
        assert [f.degree for f in itertools.islice(gen, 4)] == [1, 2, 3, 3]
        with pytest.raises(ResourceBudgetError) as err:
            next(gen)
        assert err.value.requested == 8

    def test_sieve_memo_reads_no_further_than_asked(self, monkeypatch):
        # Over F_2, x + 1 is the one irreducible of degree 1, and the blocks
        # of degrees 2-4 (x^(d-1) coefficient 0, then 1) hold 0, 1; 1, 1;
        # 1, 2 more.
        monkeypatch.setattr(algebra, "_SIEVED", {})
        assert enumerate_irreducibles(2, 5) == trial_division_irreducibles(2, 5)
        found, ends = algebra._SIEVED[2]
        assert len(found) == 5 and ends == [1, 1, 2, 3, 4, 5]
        assert enumerate_irreducibles(2, 6) == trial_division_irreducibles(2, 6)
        assert len(found) == 7 and ends == [1, 1, 2, 3, 4, 5, 7]
        got = enumerate_irreducibles(2, 7)
        assert got == trial_division_irreducibles(2, 7) and got is not found

    def test_sieve_budget_on_a_warm_memo(self, monkeypatch):
        # Degrees already in the memo are served from it, with no block
        # allocated, but each is still refused past the budget, at the same
        # degree and size as on an empty memo; a refusal leaves the memo
        # whole for the readers after it.
        monkeypatch.setattr(algebra, "_SIEVED", {})
        want = trial_division_irreducibles(2, 30)
        assert enumerate_irreducibles(2, 22) == want[:22]  # degrees 1-6
        allocated = []

        def recording_bytearray(*args):
            out = bytearray(*args)
            allocated.append(len(out))
            return out

        monkeypatch.setattr(algebra, "bytearray", recording_bytearray, raising=False)
        budget = algebra.ENUMERATION_BUDGET
        for limit, count, requested in ((8, 7, 16), (7, 4, 8)):
            monkeypatch.setattr(algebra, "ENUMERATION_BUDGET", limit)
            gen = irreducibles(2)
            assert list(itertools.islice(gen, count)) == want[:count]
            with pytest.raises(ResourceBudgetError) as err:
                next(gen)
            assert err.value.requested == requested
        assert allocated == []
        monkeypatch.setattr(algebra, "ENUMERATION_BUDGET", budget)
        assert list(itertools.islice(irreducibles(2), 30)) == want
        assert allocated == [64]  # block 0 of degree 7 alone


class TestLaurent:
    def test_canonical_offset(self):
        f = LaurentPoly(2, 0, P(2, 0, 1, 1))
        assert f.offset == 1 and f.body == P(2, 1, 1)

    def test_zero_has_offset_zero(self):
        assert LaurentPoly(2, 5, Poly.zero(2)).offset == 0

    def test_shift_adjusts_offset_only(self):
        f = LaurentPoly.from_poly(P(2, 1, 1))
        assert f.shifted(-3).offset == -3
        assert f.shifted(-3).body == f.body

    def test_add_mul_roundtrip(self):
        f = LaurentPoly(3, -2, P(3, 1, 2))
        g = LaurentPoly(3, 1, P(3, 2, 1))
        assert (f + g) - g == f
        prod = f * g
        assert prod.offset == -1
        assert prod.body == P(3, 1, 2) * P(3, 2, 1)


class TestCanonicalConstruction:
    """The public constructors return the one canonical value on any input,
    and take no switch that skips it."""

    def test_poly_strips_trailing_zeros_and_reduces(self):
        assert Poly(2, (1, 0)) == Poly(2, (1,))
        assert Poly(3, (4, -1, 6, 0)).coeffs == (1, 2)
        assert Poly(5, (-5, 10, 0)).coeffs == ()
        assert Poly(7, [-1] * 3) == Poly(7, (6, 6, 6))

    def test_laurent_moves_low_zeros_into_the_offset(self):
        f = LaurentPoly(3, 2, Poly(3, (0, 0, 4, -1)))
        assert (f.offset, f.body.coeffs) == (4, (1, 2))
        assert f == LaurentPoly(3, 4, Poly(3, (1, 2)))
        assert LaurentPoly(5, -3, Poly(5, (0, 5, 1))) == LaurentPoly(5, -1, Poly(5, (1,)))

    def test_laurent_zero_body_has_offset_zero(self):
        for body in (None, Poly.zero(5), Poly(5, (0, 5, 10))):
            f = LaurentPoly(5, 7, body)
            assert (f.offset, f.body.coeffs) == (0, ())
            assert f == LaurentPoly.zero(5)

    def test_laurent_body_of_another_modulus_refused(self):
        with pytest.raises(ContextError):
            LaurentPoly(3, 0, Poly(2, (1, 1)))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Poly(2, (1, 0), normalize=False),
            lambda: Poly(2, (1,), normalize=True),
            lambda: LaurentPoly(2, 0, Poly(2, (0, 1)), normalize=False),
            lambda: LaurentPoly(2, 0, Poly(2, (1,)), normalize=True),
        ],
    )
    def test_no_normalize_switch(self, build):
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_derived_values_are_canonical(self, p):
        rng = SplitMix64(8080 + p)
        for _ in range(60):
            f = Poly(p, [rng.below(p) for _ in range(rng.below(6))])
            c = rng.below(3 * p) - p
            k = rng.below(4)
            for g in (-f, f.scale(c), f.shift(k), f * Poly(p, (c, 1)), f - f.shift(1)):
                assert all(0 <= a < p for a in g.coeffs), (f, c, k)
                assert g == Poly(p, g.coeffs), (f, c, k)
            assert (-f).coeffs == Poly(p, [-a for a in f.coeffs]).coeffs
            L = LaurentPoly(p, rng.below(7) - 3, f)
            for h in (-L, L.scale(c), L.shifted(k - 2), L * L):
                assert h == LaurentPoly(h.p, h.offset, Poly(p, h.body.coeffs)), (L, c, k)
                assert h.is_zero() or h.body.constant() != 0


class TestSympyOracle:
    """gcd and irreducibility against sympy's independent GF(p) arithmetic."""

    @staticmethod
    def to_sympy(f):
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")
        return sympy.Poly(list(reversed(f.coeffs)) or [0], x, modulus=f.p)

    @staticmethod
    def from_sympy(g, p):
        return Poly(p, [int(c) for c in reversed(g.all_coeffs())])

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_gcd_matches(self, p):
        rng = SplitMix64(7 + p)
        for _ in range(60):
            d = Poly(p, [rng.below(p) for _ in range(1 + rng.below(3))])
            a = d * Poly(p, [rng.below(p) for _ in range(1 + rng.below(5))])
            b = d * Poly(p, [rng.below(p) for _ in range(1 + rng.below(5))])
            want = self.to_sympy(a).gcd(self.to_sympy(b))
            if not want.is_zero:
                want = want.monic()
            assert poly_gcd(a, b) == self.from_sympy(want, p)

    @pytest.mark.parametrize("p, max_degree", [(2, 7), (3, 4), (5, 3)])
    def test_irreducibility_matches(self, p, max_degree):
        for degree in range(1, max_degree + 1):
            for f in monic_polys(p, degree):
                assert is_irreducible(f) == self.to_sympy(f).is_irreducible, f

    @pytest.mark.parametrize("p, count", [(2, 20), (3, 15), (5, 12)])
    def test_enumeration_matches(self, p, count):
        # The same (degree, encoding) order, with irreducibility and the
        # exclusion of x decided by sympy alone.
        want = []
        degree = 1
        while len(want) < count:
            for f in monic_polys(p, degree):
                g = self.to_sympy(f)
                if g.eval(0) != 0 and g.is_irreducible and len(want) < count:
                    want.append(f)
            degree += 1
        assert enumerate_irreducibles(p, count) == want
