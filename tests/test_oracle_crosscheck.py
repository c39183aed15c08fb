"""Cross-checks of the Laurent canonical forms against plain F_p row spans.

The canonical-form machinery decides membership, equality and rank through
Hermite reduction over the rescaled Laurent ring.  These tests rebuild the
same answers from nothing but finite F_p linear algebra: spanning all
generator shifts within a generous exponent margin, row-reducing integer
coefficient vectors, and measuring dimension growth.  Convergence
certificates, computed by comparing affine member sets, are rebuilt by
checking every witness of the ball against every term.  Keyed from the
horizon down, they are rebuilt by keying every term from the first, and
their witnesses, named by a closed form, by a row reduction per trial
value.  Residues and Hermite forms, computed through
the action of y on residues, are rebuilt by a Laurent division per pivot.  Sieved irreducibles are rebuilt by trial
division, and periods found on moved form rows by form equalities and by
generator containment.  Approach terms, whose periods are gated and whose
forms are built when read, are rebuilt by the divisor scan on each
candidate term, and the rank each term records, read in place of its
form, by the invariants of a copy that records none.  Membership and periods read on F_p coordinates are
rebuilt through group products and shifted Laurent rows, and triple
containment, read as membership of the contained triple's marker, by the
geometric-factor criterion.  Periods and approach gates, read on
generators moved by the coordinate reader, are rebuilt on the form's rows
rotated in column space, and certificate witnesses, written from their
digits at level 1, by summing scaled site deltas.  Enumerated subgroups,
built without the public constructors' checks, are rebuilt by the
validating constructors, and conjugated elements, written by the closed
form, by the group product.  Certificates whose scan starts at the degree
gap are rebuilt from the same subgroups without their gap record.  Values
built unchecked by a ``_raw`` constructor, from column bodies to window
subgroups and marginal atoms, are rebuilt by the checking constructors and
must come back unchanged.  Exact window laws, summed on integer numerators
over one denominator with disjoint-site sums merged by pivot, are rebuilt
in Fraction arithmetic with row-reduced sums, atom order included.  Any
disagreement fails the test.
"""

import functools
import hashlib
import itertools
from fractions import Fraction
from math import gcd, lcm

import pytest

from lampirs import irs, lamplighter
from lampirs.algebra import LaurentPoly, Poly, geometric_series, irreducibles
from lampirs.cbrank import build_approach_sequence, poset_less
from lampirs.errors import ContextError, PreconditionError, ResourceBudgetError
from lampirs.fplinalg import rref, span_intersect_coordinates
from lampirs.formats import format_vector, parse_triple
from lampirs.irs import (
    PRINTABLE_BITS,
    SubgroupMeasure,
    WindowDistribution,
    WindowSubgroup,
    _block_pieces,
    _block_starts,
    _check_block_window,
    _direct_sum,
    _phase_law,
    _spliced,
    block_average_marginal,
    block_shift_term_marginal,
    empirical_distribution,
    sampler_law_report,
    splice_measures,
    tv_distance,
    window_of_submodule,
)
from lampirs.lamplighter import (
    ConvergenceResult,
    GroupElement,
    SubgroupTriple,
    _BallResidues,
    _QuotientTest,
    _least_difference,
    ball_size,
    certify_convergence,
    conjugate_element,
    delta_site,
    power,
)
from lampirs.rng import SplitMix64
from lampirs.selftest import _measure_grid
from lampirs.submodules import (
    LaurentVector,
    Submodule,
    _add_scaled,
    _body,
    _by_column,
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

from test_algebra import trial_division_irreducibles
from test_cbrank import seeded_encoding_grid, skip_case
from window_oracles import sum_with

MARGIN = 12


def central_restriction(U, margin, lo, hi):
    """U's elements supported on [lo, hi], built purely from F_p row spans."""
    rows, _ = bounded_span(U, -margin, margin)
    width = 2 * margin + 1
    keep = [
        i * width + (e + margin)
        for i in range(U.n)
        for e in range(lo, hi + 1)
    ]
    return span_intersect_coordinates(rows, sorted(keep), U.p, U.n * width)


def coefficient_row(vec, lo, hi):
    """Coefficients of a LaurentVector over exponent window [lo, hi]."""
    width = hi - lo + 1
    row = [0] * (vec.n * width)
    for i, poly in enumerate(vec.coords):
        for exp, c in poly.terms():
            assert lo <= exp <= hi, "window too small for the vector"
            row[i * width + (exp - lo)] = c
    return row


def bounded_span(U, lo, hi):
    """RREF of all generator shifts supported inside [lo, hi]."""
    rows = []
    for g in U.gens:
        live = [c for c in g.coords if not c.is_zero()]
        g_lo = min(c.offset for c in live)
        g_hi = max(c.offset + c.body.degree for c in live)
        k = (lo - g_hi) // U.period - 1  # safely below the first valid shift
        while g_hi + k * U.period <= hi:
            if g_lo + k * U.period >= lo:
                rows.append(coefficient_row(g.shifted(k * U.period), lo, hi))
            k += 1
    return rref(rows, U.p)


def span_contains(rref_rows, pivots, vec, p):
    """Membership of vec in the row space given in RREF form."""
    v = [c % p for c in vec]
    for row, pc in zip(rref_rows, pivots):
        if v[pc]:
            f = v[pc]
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return not any(v)


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


class TestMembershipOracle:
    def test_agreement_on_random_cases(self):
        rng = SplitMix64(8080)
        for _ in range(40):
            n = 1 + rng.below(2)
            p = (2, 3)[rng.below(2)]
            e = 1 + rng.below(3)
            U = Submodule(n, p, e, [rand_vec(rng, n, p) for _ in range(1 + rng.below(2))])
            reduced, pivots = bounded_span(U, -MARGIN, MARGIN)
            for _ in range(12):
                w = rand_vec(rng, n, p)
                # bias half the probes toward actual members
                if rng.below(2) and U.gens:
                    w = U.gens[0].shifted(e * (rng.below(3) - 1)) + w
                claimed = U.contains_vector(w)
                row = coefficient_row(w, -MARGIN, MARGIN)
                oracle = span_contains(reduced, pivots, row, p)
                if claimed:
                    assert oracle, "canonical form accepts a vector the span lacks"
                else:
                    assert not oracle, "canonical form rejects a spanned vector"

    def test_agreement_for_constructed_subgroups(self):
        rng = SplitMix64(9090)
        for n, b, r in [(1, 2, 1), (1, 3, 2), (2, 2, 3), (1, 4, 3)]:
            U = construct_with_invariants(n, 2, b, r)
            reduced, pivots = bounded_span(U, -MARGIN, MARGIN)
            for _ in range(15):
                w = rand_vec(rng, n, 2)
                row = coefficient_row(w, -MARGIN, MARGIN)
                assert U.contains_vector(w) == span_contains(reduced, pivots, row, 2)


class TestEqualityOracle:
    def test_window_spans_agree_with_equality(self):
        rng = SplitMix64(444)
        distinguished = 0
        for _ in range(25):
            p = (2, 3)[rng.below(2)]
            g1, g2 = rand_vec(rng, 1, p), rand_vec(rng, 1, p)
            U = Submodule(1, p, 2, [g1, g2])
            same = Submodule(1, p, 2, [g2, g1 + g2.shifted(-2)])
            other = Submodule(1, p, 2, [g1 + rand_vec(rng, 1, p)])
            assert U.equals(same)
            # equal subgroups restrict to the same central window space
            assert central_restriction(U, MARGIN, -4, 4) == central_restriction(
                same, MARGIN, -4, 4
            )
            if not U.equals(other):
                # claimed inequality must be witnessed by an actual vector
                found = False
                for _ in range(300):
                    w = rand_vec(rng, 1, p, lo=-3, hi=3)
                    if U.contains_vector(w) != other.contains_vector(w):
                        found = True
                        break
                assert found, "equals() distinguishes but no witness found"
                distinguished += 1
        assert distinguished > 0


class TestWindowIntersectionOracle:
    def test_measure_window_matches_span_restriction(self):
        from lampirs.irs import window_of_submodule

        rng = SplitMix64(777)
        for _ in range(20):
            n = 1 + rng.below(2)
            p = (2, 3)[rng.below(2)]
            e = 1 + rng.below(2)
            U = Submodule(n, p, e, [rand_vec(rng, n, p) for _ in range(1 + rng.below(2))])
            site_lo, site_hi = -2, 2
            ws = window_of_submodule(U, site_lo, site_hi)
            # oracle works in exponents; site k is exponent -k
            exp_lo, exp_hi = -site_hi, -site_lo
            central = central_restriction(U, MARGIN, exp_lo, exp_hi)
            width = exp_hi - exp_lo + 1
            # re-encode oracle rows into the window's (site-major) coordinates
            full_width = 2 * MARGIN + 1
            converted = []
            for row in central:
                out = [0] * (n * width)
                for i in range(n):
                    for exp in range(exp_lo, exp_hi + 1):
                        site = -exp
                        out[(site - site_lo) * n + i] = row[
                            i * full_width + (exp + MARGIN)
                        ]
                converted.append(out)
            assert rref(converted, p)[0] == ws.rows


# ---------------------------------------------------------------------------
# Reference reduction: a Laurent division per pivot, independent of the
# y-action on residues that the package computes with.  Its inputs are
# Laurent columns, split from vectors here, not by the package's readers.
# ---------------------------------------------------------------------------


def laurent_columns(terms, p):
    """LaurentPolys with the coefficients {exponent: c} of each of ``terms``."""
    return [
        LaurentPoly(p, min(t), Poly(p, [t.get(e, 0) for e in range(min(t), max(t) + 1)]))
        if t
        else LaurentPoly.zero(p)
        for t in terms
    ]


def _coordinates(cols):
    """F_p coordinates {(column, exponent): c} of a vector of Laurent columns,
    the input format of :func:`laurent_hermite_form` and of residues."""
    return {(j, exp): c for j, entry in enumerate(cols) for exp, c in entry.terms()}


def vectorize(vec, level):
    """Split a LaurentVector across exponent classes mod ``level``: column
    j*n + i holds the x^j-residue class of coordinate i, y acting as x^level."""
    cols = [{} for _ in range(vec.n * level)]
    for i, poly in enumerate(vec.coords):
        for exp, c in poly.terms():
            q, j = divmod(exp, level)
            cols[j * vec.n + i][q] = c
    return laurent_columns(cols, vec.p)


def unvectorize(cols, n, level, p):
    """Inverse of :func:`vectorize`."""
    coords = [{} for _ in range(n)]
    for col, entry in enumerate(cols):
        j, i = divmod(col, n)
        for q, c in entry.terms():
            coords[i][q * level + j] = c
    return LaurentVector(p, laurent_columns(coords, p))


def laurent_rows(form):
    """The coordinate rows of a canonical form as rows of Laurent columns,
    the layout of :func:`reference_hermite_form`."""
    out = []
    for row in form.rows:
        terms = [{} for _ in range(form.ncols)]
        for (j, q), c in row:
            terms[j][q] = c
        out.append(tuple(laurent_columns(terms, form.p)))
    return tuple(out)


def laurent_mod(f, g):
    """Residue of a LaurentPoly f modulo g*F_p[y^(+-1)], of degree below g's.

    g is monic with g(0) != 0, so y is a unit mod g, with inverse
    -(g - g(0))/y / g(0); negative exponents are brought in by powering it.
    """
    p = g.p
    if g.degree == 0 or f.is_zero():
        return Poly.zero(p)
    if f.offset >= 0:
        return f.body.shift(f.offset) % g
    r = f.body % g
    power = Poly(p, g.coeffs[1:]).scale(-pow(g.constant(), p - 2, p) % p)
    step = -f.offset
    while step:
        if step & 1:
            r = r * power % g
        power = power * power % g
        step >>= 1
    return r


def laurent_exact_div(f, g):
    """The Laurent quotient f / g; f must be divisible by g."""
    q, rem = divmod(f.body, g)
    assert rem.is_zero(), "inexact Laurent division"
    return LaurentPoly(f.p, f.offset, q)


def eliminate(v, row, c):
    """Take v[c] to its residue modulo the pivot row[c], in place, by
    subtracting a Laurent multiple of the whole row."""
    pivot = row[c].body
    diff = v[c] - LaurentPoly.from_poly(laurent_mod(v[c], pivot))
    if not diff.is_zero():
        q = laurent_exact_div(diff, pivot)
        for j in range(c, len(v)):
            if not row[j].is_zero():
                v[j] = v[j] - q * row[j]


def reference_hermite_form(p, n, level, generator_cols):
    """(rows, pivots) of the canonical form: Euclid on each column, pivots
    made monic with offset 0, then the entries above each pivot reduced
    top down, one pivot at a time, by :func:`eliminate`."""
    rows = [list(r) for r in generator_cols if any(not e.is_zero() for e in r)]
    pivots = []
    for col in range(n * level):
        top = len(pivots)
        while True:
            live = [i for i in range(top, len(rows)) if not rows[i][col].is_zero()]
            if not live:
                break
            best = min(live, key=lambda i: rows[i][col].body.degree)
            rows[top], rows[best] = rows[best], rows[top]
            if len(live) == 1:
                break
            pivot = rows[top][col]
            for i in range(top + 1, len(rows)):
                entry = rows[i][col]
                if not entry.is_zero():
                    q, _ = divmod(entry.body, pivot.body)
                    q = LaurentPoly(p, entry.offset - pivot.offset, q)
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[top])]
        if top < len(rows) and not rows[top][col].is_zero():
            entry = rows[top][col]
            inv = pow(entry.body.leading(), p - 2, p)
            rows[top] = [e.scale(inv).shifted(-entry.offset) for e in rows[top]]
            pivots.append(col)
    rows = rows[: len(pivots)]
    for idx, col in enumerate(pivots):
        for i in range(idx):
            if not rows[i][col].is_zero():
                eliminate(rows[i], rows[idx], col)
    return tuple(tuple(row) for row in rows), tuple(pivots)


@functools.lru_cache(maxsize=2048)
def reference_form(U, level):
    """:func:`reference_hermite_form` of U at a level that is a period of U,
    from the generators shifted by multiples of gcd(level, stored period)."""
    g = gcd(level, U.period)
    gens = [v.shifted(k * g) for v in U.gens for k in range(level // g)]
    return reference_hermite_form(U.p, U.n, level, [vectorize(v, level) for v in gens])


def residue_coordinates(U, w, level):
    """F_p coordinates {(column, exponent): c} of w reduced from scratch:
    a Laurent division per pivot of U's reference form at ``level``."""
    rows, pivots = reference_form(U, level)
    v = vectorize(w, level)
    for row, c in zip(rows, pivots):
        if not v[c].is_zero():
            eliminate(v, row, c)
    return _coordinates(v)


def step_cases(seed, count):
    """Seeded U with p in {2, 3, 5}, n <= 3 and stored period P <= 6.

    Most are spanned by the shifts x^(j*d) g, j < P/d, of one or two vectors
    for a divisor d of P, so the minimal period is often below P; some also
    hold a coordinate monomial, whose pivot has degree 0.  The zero and the
    full subgroup at each P close the list.
    """
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        n = 1 + rng.below(3)
        p = (2, 3, 5)[rng.below(3)]
        period = 1 + rng.below(6)
        divisors = [d for d in range(1, period + 1) if period % d == 0]
        d = divisors[rng.below(len(divisors))]
        gens = []
        for _ in range(1 + rng.below(2)):
            g = rand_vec(rng, n, p)
            gens += [g.shifted(j * d) for j in range(period // d)]
        if rng.below(3) == 0:
            unit = LaurentVector.unit(n, p, rng.below(n), exponent=rng.below(5) - 2)
            gens += [unit.shifted(j * d) for j in range(period // d)]
        out.append(Submodule(n, p, period, gens))
    for period in range(1, 7):
        n, p = 1 + period % 3, (2, 3, 5)[period % 3]
        out.append(Submodule(n, p, period, ()))
        units = [LaurentVector.unit(n, p, i, exponent=j) for i in range(n) for j in range(period)]
        out.append(Submodule(n, p, period, units))
    return out


def pinned_grid(seed, count):
    """Seeded U with p in {2, 3, 5, 7}, n <= 3 and stored period P <= 6.

    Each is spanned by the shifts x^(j*d) g, j < P/d, of one or two vectors
    with negative exponents, for a divisor d of P, so the minimal period is
    often below P; about a third also hold a coordinate monomial, whose
    pivot has degree 0.
    """
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        n, p, period = 1 + rng.below(3), (2, 3, 5, 7)[rng.below(4)], 1 + rng.below(6)
        divisors = [d for d in range(1, period + 1) if period % d == 0]
        d = divisors[rng.below(len(divisors))]
        gens = []
        for _ in range(1 + rng.below(2)):
            g = rand_vec(rng, n, p, lo=-4, hi=2)
            gens += [g.shifted(j * d) for j in range(period // d)]
        if rng.below(3) == 0:
            g = LaurentVector.unit(n, p, rng.below(n), exponent=rng.below(7) - 4)
            gens += [g.shifted(j * d) for j in range(period // d)]
        out.append(Submodule(n, p, period, gens))
    return out


def offset_oracle(triple, k, level):
    """Residue coordinates of d_k, the lamps of (0, k*s)(v, s)^(-k), from scratch."""
    shift = GroupElement(LaurentVector.zero(triple.n, triple.p), k * triple.s)
    marker = power(GroupElement(triple.v, triple.s), -k)
    return residue_coordinates(triple.lamps, (shift * marker).lamps, level)


class TestResidueStepOracle:
    """Residues reached by y-steps against per-vector full reductions."""

    @staticmethod
    @functools.cache
    def cases():
        return step_cases(5151, 60)

    @staticmethod
    def windows(rng):
        # one seeded window, one left of site 0 and one right of it
        lo = rng.below(15) - 9
        return [(lo, lo + rng.below(8)), (-9, -3), (2, 8)]

    def levels(self, U):
        e = U.minimal_period()
        return sorted({U.period, 2 * U.period, e, 3 * e})

    def test_window_residues_match_per_monomial_reduction(self):
        rng = SplitMix64(5152)
        seen = {"below_stored": 0, "degree_0_pivot": 0, "zero": 0, "full": 0, "off_stored": 0}
        for U in self.cases():
            for level in self.levels(U):
                form = U.form(level)
                seen["below_stored"] += level < U.period
                seen["off_stored"] += level % U.period != 0
                seen["zero"] += form.rank == 0
                seen["full"] += form.rank == form.ncols
                seen["degree_0_pivot"] += any(
                    row[c].body.degree == 0 for row, c in zip(laurent_rows(form), form.pivots)
                ) and form.rank < form.ncols
                for lo, hi in self.windows(rng):
                    got = U.window_residues(lo, hi, level)
                    want = {
                        (site, i): residue_coordinates(U, delta_site(U.n, U.p, site, i), level)
                        for site in range(lo, hi + 1)
                        for i in range(U.n)
                    }
                    assert got == want, (U, level, lo, hi)
            assert U.window_residues(-2, 2) == U.window_residues(-2, 2, U.period)
        assert all(seen.values()), seen
        assert {U.p for U in self.cases()} == {2, 3, 5}
        assert {U.n for U in self.cases()} == {1, 2, 3}

    def test_y_power_matches_reduction_of_the_shifted_vector(self):
        rng = SplitMix64(5153)
        for U in self.cases():
            level = U.period
            form = U.form(level)
            for _ in range(3):
                w = rand_vec(rng, U.n, U.p)
                start = residue_coordinates(U, w, level)
                for k in range(-3, 4):
                    want = residue_coordinates(U, w.shifted(k * level), level)
                    assert form.y_power(start, k) == want, (U, w, k)

    def test_membership_does_not_depend_on_a_power_of_y(self):
        # contains moves a vector wholly above or below y^0 next to it, so
        # x^(k*level) w is tested as fast as w, even where the residue of
        # x^(k*level) w would walk past the budget
        rng = SplitMix64(5155)
        members = 0
        for U in self.cases():
            level = U.period
            form = U.form(level)
            for _ in range(3):
                w = rand_vec(rng, U.n, U.p)
                if rng.below(2):
                    w = w - U.reduce_vector(w)
                want = not form.residue(_vector_coordinates(w, level))
                members += want
                for k in (-(10**9), -3, -1, 0, 1, 4, 10**9):
                    assert form.contains(_vector_coordinates(w, level, k * level)) == want, (U, w, k)
        assert members > 20, members

    def test_residue_walks_only_the_pivot_columns(self):
        # An entry in a free column is added where it lies and only those in
        # pivot columns are walked: on near vectors that equals the walk of
        # every entry, and a far free-column entry is its own residue.
        rng = SplitMix64(5157)
        free_entries = far = 0
        for U in self.cases():
            for level in self.levels(U):
                form = U.form(level)
                free = [c for c in range(form.ncols) if c not in form.pivots]
                for _ in range(3):
                    coords = _vector_coordinates(rand_vec(rng, U.n, U.p, lo=-9, hi=9), level)
                    got = form.residue(coords)
                    assert got == walked_residue(form, coords), (U, level, coords)
                    free_entries += any(j in free for j, _ in coords)
                    if free:
                        q = (10**9 + rng.below(9)) * (1 if rng.below(2) else -1)
                        term = {(free[rng.below(len(free))], q): 1 + rng.below(U.p - 1)}
                        want = _add_scaled(dict(got), term.items(), 1, U.p)
                        assert form.residue({**coords, **term}) == want, (U, level, term)
                        far += 1
        assert free_entries > 100 and far > 100, (free_entries, far)

    def test_steps_hold_the_form_rows_themselves(self):
        # each pivot of positive degree is indexed by its row as ``rows``
        # holds it, the same object, beside plain integers: no second tuple
        indexed = 0
        for U in self.cases():
            for level in self.levels(U):
                form = U.form(level)
                rows = dict(zip(form.pivots, form.rows))
                positive = [c for c, row in rows.items() if any(j == c and q for (j, q), _ in row)]
                assert [entry[0] for entry in form._steps] == positive
                for entry in form._steps:
                    held = [x for x in entry if type(x) is not int]
                    assert len(held) == 1 and held[0] is rows[entry[0]], entry
                    indexed += 1
        assert indexed > 0

    def test_offset_recurrence_matches_marker_powers(self):
        # d_k, the lamps of (0, k*s)(v, s)^(-k), reduced from scratch, for s
        # every multiple of e(U) up to 2P, so P need not divide s.
        rng = SplitMix64(5154)
        off_stored = cut = 0
        for U in self.cases()[:40]:
            e = U.minimal_period()
            for s in range(e, 2 * U.period + 1, e):
                triple = SubgroupTriple(s, U, rand_vec(rng, U.n, U.p))
                level = gcd(U.period, s)
                off_stored += s % U.period != 0
                ks = list(range(-4, 5))
                want = [offset_oracle(triple, k, level) for k in ks]
                # every d_k the ball walks, read far side first
                ball = _BallResidues(triple, 1, level, range(-4 * s, 4 * s + 1))
                assert [ball.marker(k) for k in ks[::-1]] == want[::-1], (U, s)
                # d_k outside the window's support is not reachable, and only then
                support = set().union(*U.window_residues(-1, 1, level).values())
                assert ball.support == support
                reachable = ball.reachable()
                got = [reachable.get(k * s) for k in ks]
                assert got == [w if w.keys() <= support else None for w in want], (U, s)
                cut += got.count(None)
        assert off_stored > 0 and cut > 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_offsets_leave_the_window_and_come_back(self, p):
        # U = (1 + x^3), s = 1, v = 1: d_k = -(1 + x + ... + x^(k-1)) mod U
        # leaves the radius-0 window at k = 2 within the pivot's degrees and
        # is 0 again at k = 6, so it must not be cut off on the way
        g = LaurentVector(p, [LaurentPoly.from_poly(Poly(p, [1, 0, 0, 1]))])
        U = Submodule(1, p, 1, [g])
        triple = SubgroupTriple(1, U, LaurentVector.unit(1, p, 0))
        ks = list(range(-8, 9))
        want = [offset_oracle(triple, k, 1) for k in ks]
        support = set().union(*U.window_residues(0, 0).values())
        reachable = _BallResidues(triple, 0, 1, range(-8, 9)).reachable()
        got = [reachable.get(k) for k in ks]
        assert got == [w if w.keys() <= support else None for w in want]
        assert got[ks.index(2)] is None and got[ks.index(6)] == {}


class TestReferenceReduction:
    """Forms and residues against the Laurent division per pivot."""

    @staticmethod
    @functools.cache
    def cases():
        return pinned_grid(2727, 150)

    @staticmethod
    @functools.cache
    def enumerated():
        # every subgroup of R^k of F_p-codimension a, for (p, k, a) below
        shapes = ((2, 2, 3), (3, 2, 2), (2, 3, 2))
        return [U for p, k, a in shapes for U in submodules_of_codimension(p, k, a)]

    @staticmethod
    def levels(U):
        e = U.minimal_period()
        return sorted({U.period, 2 * U.period, e, 3 * e})

    def test_hermite_form_matches_reference(self):
        seen = {"proper_divisor": 0, "degree_0_pivot": 0, "tail": 0}
        for U in self.cases() + self.enumerated():
            for level in self.levels(U):
                form = U.form(level)
                rows = laurent_rows(form)
                assert (rows, form.pivots) == reference_form(U, level), (U, level)
                seen["proper_divisor"] += level < U.period
                seen["degree_0_pivot"] += any(not row[c].body.degree for row, c in zip(rows, form.pivots))
                seen["tail"] += any(
                    not e.is_zero() for row, c in zip(rows, form.pivots) for e in row[c + 1 :]
                )
        assert all(seen.values()), seen
        assert {U.p for U in self.cases()} == {2, 3, 5, 7}

    def test_hermite_form_of_raw_rows_matches_reference(self):
        # rows of Laurent entries with negative offsets, fed in directly;
        # then more rows than columns, with entries 30 to 60 exponents wide
        # for long quotients, spanning a proper submodule so that a wrong
        # step shows; and one column of 10 rows 100 wide
        rng = SplitMix64(2728)
        cases = []
        for _ in range(150):
            p, n, level = (2, 3, 5, 7)[rng.below(4)], 1 + rng.below(2), 1 + rng.below(3)
            rows = [
                vectorize(rand_vec(rng, n, p, lo=-3 * level, hi=2 * level), level)
                for _ in range(1 + rng.below(n * level + 1))
            ]
            cases.append((p, n, level, rows))
        for p in (2, 3, 5):
            n = 2 + rng.below(2)
            base = [rand_vec(rng, n, p, lo=-15, hi=15) for _ in range(n - 1)]
            wide = []
            for _ in range(2 * n + 1):
                v = LaurentVector.zero(n, p)
                for b in base:
                    v = v + b.scaled(rand_vec(rng, 1, p, lo=0, hi=rng.below(31)).coords[0])
                wide.append(vectorize(v, 1))
            cases.append((p, n, 1, wide))
        cases.append((3, 1, 1, [vectorize(rand_vec(rng, 1, 3, lo=-50, hi=50), 1) for _ in range(10)]))
        # more rows than columns, drawn as F_p[y^±]-combinations of at most
        # as many base rows as columns: random rows mostly span everything
        # and echelonize to the identity, which checks little past column 0
        combined = []
        for _ in range(40):
            p, n, level = (2, 3, 5, 7)[rng.below(4)], 1 + rng.below(2), 1 + rng.below(3)
            base = [
                rand_vec(rng, n, p, lo=-3 * level, hi=3 * level)
                for _ in range(1 + rng.below(n * level))
            ]
            rows = []
            for _ in range(n * level + 1 + rng.below(3)):
                v = LaurentVector.zero(n, p)
                for b in base:
                    y_poly = rand_vec(rng, 1, p, lo=-3, hi=3).coords[0].terms()
                    v = v + b.scaled(sum(
                        (LaurentPoly.monomial(p, level * e, c) for e, c in y_poly),
                        LaurentPoly.zero(p),
                    ))
                rows.append(vectorize(v, level))
            combined.append((p, n, level, rows))
        identity = []
        for p, n, level, rows in cases + combined:
            form = laurent_hermite_form(p, n, level, [_coordinates(r) for r in rows])
            assert (laurent_rows(form), form.pivots) == reference_hermite_form(p, n, level, rows)
            identity.append(form.rank == form.ncols and all(
                list(row) == [((c, 0), 1)] for row, c in zip(form.rows, form.pivots)
            ))
        assert sum(identity[len(cases):]) < len(combined) // 4

    def test_residue_matches_reference(self):
        rng = SplitMix64(2729)
        members = 0
        for U in self.cases():
            for level in self.levels(U):
                form = U.form(level)
                for k in range(3):
                    w = rand_vec(rng, U.n, U.p, lo=-11, hi=11)
                    if k == 2 and U.gens:
                        w = U.gens[rng.below(len(U.gens))].shifted(U.period * (rng.below(7) - 3))
                    got = form.residue(_coordinates(vectorize(w, level)))
                    assert got == residue_coordinates(U, w, level), (U, level, w)
                    members += not got
        assert members > 0


def walked_residue(form, coords):
    """The residue of the coordinates ``coords`` by the walk of every entry,
    free columns too: by Horner in y from the top exponent down to y^0 and
    from the bottom up to y^-1, each entry c at y^q in column j entering as
    c times the unit residue of j."""
    p, up, down = form.p, {}, {}
    exponents = [q for _, q in coords]
    for q in range(max(exponents, default=-1), -1, -1):
        if up:
            up = form.y_power(up, 1)
        for (j, r), c in coords.items():
            if r == q:
                _add_scaled(up, form.unit_residue(j).items(), c, p)
    for q in range(min(exponents, default=0), 0):
        for (j, r), c in coords.items():
            if r == q:
                _add_scaled(down, form.unit_residue(j).items(), c, p)
        down = form.y_power(down, -1)
    return _add_scaled(up, down.items(), 1, p)


def periodic_cases(seed, count):
    """Seeded U with n <= 2, p in {2, 3, 5} and stored period P <= 6.

    Each is spanned by g, x^d g, ..., x^(P-d) g (and sometimes a second
    vector the same way) for a divisor d of P, so x^d U = U and the
    minimal period is often a proper divisor of P.
    """
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        n = 1 + rng.below(2)
        p = (2, 3, 5)[rng.below(3)]
        period = 1 + rng.below(6)
        divisors = [d for d in range(1, period + 1) if period % d == 0]
        d = divisors[rng.below(len(divisors))]
        gens = []
        for _ in range(1 + rng.below(2)):
            g = rand_vec(rng, n, p)
            gens += [g.shifted(j * d) for j in range(period // d)]
        out.append(Submodule(n, p, period, gens))
    return out


class TestPeriodOracle:
    """Periods decided by containment against equality of Hermite forms."""

    @staticmethod
    @functools.cache
    def cases():
        return periodic_cases(6060, 40)

    @staticmethod
    def is_period(U, d):
        return U.shifted(d).equals(U)

    def test_has_period_matches_form_equality(self):
        for U in self.cases():
            for d in range(1, 2 * U.period + 1):
                assert U.has_period(d) == self.is_period(U, d), (U, d)

    def test_minimal_period_is_the_first_period_divisor(self):
        proper = 0
        for U in self.cases():
            for s in range(1, 2 * U.period + 1):
                if not self.is_period(U, s):
                    with pytest.raises(PreconditionError):
                        U.minimal_period(s)
                    continue
                first = next(d for d in range(1, s + 1) if s % d == 0 and self.is_period(U, d))
                assert U.minimal_period(s) == first, (U, s)
                proper += first < U.period
        assert proper > 0

    def first_period(self, U):
        """The least period of U, found among the divisors of its stored period."""
        return next(
            d for d in range(1, U.period + 1) if U.period % d == 0 and self.is_period(U, d)
        )

    def test_canonical_keeps_the_minimal_period(self):
        for U in self.cases():
            e = self.first_period(U)
            C = U.canonical()
            assert (C.period, C.minimal_period()) == (e, e), U
            assert all(C.has_period(d) == (d % e == 0) for d in range(1, 2 * e + 1)), U

    def test_approach_terms_have_the_oracle_period(self):
        # Every emitted term's minimal period is E = e(U)*b by the oracle, on
        # the seeded encoding grid and on a case where a term is skipped.
        cases = [(V, 12) for V in seeded_encoding_grid()] + [(skip_case(), 25)]
        checked = 0
        for V, count in cases:
            if not poset_less((1, 0), V.poset_encoding()):
                continue
            E = V.s
            for W in build_approach_sequence(V, (1, 0), count):
                assert W.lamps.minimal_period() == self.first_period(W.lamps) == E, W
                checked += 1
        assert checked == 114 * 12 + 25

    def test_with_period_is_the_same_group(self):
        # Equality at lcm(new, P) is the costly oracle, so half the cases.
        for U in self.cases()[:20]:
            for new in range(1, 2 * U.period + 1):
                if self.is_period(U, new):
                    W = U.with_period(new)
                    assert W.period == new and W.equals(U), (U, new)
                else:
                    with pytest.raises(PreconditionError):
                        U.with_period(new)


def long_period_cases(seed):
    """Seeded U stored at period L in {4, 8, 9, 12, 16, 36}, one per divisor
    d of L, spanned by g, x^d g, ..., x^(L-d) g (n <= 2, p in {2, 3, 5}), so
    the minimal period divides d and L/e often has a repeated prime."""
    rng = SplitMix64(seed)
    out = []
    for period in (4, 8, 9, 12, 16, 36):
        for d in (d for d in range(1, period + 1) if period % d == 0):
            n = 1 + rng.below(2)
            p = (2, 3, 5)[rng.below(3)]
            g = rand_vec(rng, n, p)
            out.append(Submodule(n, p, period, [g.shifted(j * d) for j in range(period // d)]))
    return out


class TestMovedRowPeriodOracle:
    """Periods tested on moved form rows against shifted copies of U."""

    @staticmethod
    @functools.cache
    def cases():
        return long_period_cases(7070)

    def test_minimal_period_matches_the_ascending_scan(self):
        repeated = 0
        for U in self.cases():
            L = U.period
            first = next(
                d for d in range(1, L + 1)
                if L % d == 0 and (d == L or U.shifted(d).equals(U))
            )
            assert U.minimal_period() == first, U
            quotient = L // first
            repeated += any(quotient % (q * q) == 0 for q in (2, 3))
        assert repeated >= 10

    def test_has_period_matches_generator_containment(self):
        coprime = 0
        for U in self.cases():
            L = U.period
            for s in [s for s in range(1, 3 * L + 1) if gcd(s, L) == 1 or s > L][:24]:
                want = all(U.contains_vector(g.shifted(s)) for g in U.gens)
                assert U.has_period(s) == want, (U, s)
                coprime += gcd(s, L) == 1 and want
        assert coprime > 0


def scanned_approach(U, b, r_target, count):
    """The terms M + f*Q of ``approach_sequence``, each candidate built from
    its generators and kept when the divisor scan of a fresh Submodule finds
    the period E = e(U)*b; and the number of candidates skipped."""
    n, p = U.n, U.p
    canon = U.canonical()
    e = canon.period
    free = [c for c in range(n * e) if c not in canon.form(e).pivots]
    Q = construct_with_invariants(len(free), p, b, len(free) * b - r_target)
    base = [g.shifted(j * e) for g in canon.gens for j in range(b)]
    kept, skipped = [], 0
    for f in irreducibles(p):
        gens = list(base)
        for t in Q.gens:
            cols = [LaurentPoly.zero(p)] * (n * e)
            for a, entry in enumerate(t.coords):
                cols[free[a]] = entry * f
            gens.append(unvectorize(cols, n, e, p))
        term = Submodule(n, p, e * b, gens)
        if term.minimal_period() != e * b:
            skipped += 1
            continue
        kept.append(term)
        if len(kept) == count:
            return kept, skipped


def approach_cases(seed, count):
    """Seeded (U, b, r_target, count): U from :func:`periodic_cases` with a
    positive deficiency, b in {1, 2, 3, 4, 6}."""
    rng = SplitMix64(seed)
    out = []
    for U in periodic_cases(seed, count):
        r_u = invariant_report(U).deficiency
        if r_u:
            b = (1, 2, 3, 4, 6)[rng.below(5)]
            out.append((U, b, rng.below(r_u * b), 2 + rng.below(4)))
    return out


def free_copy_case():
    """U = F_2-span of (1+x, 1) in R^2: e = 1 with free column 1, and at
    level 2 its pivots are (0, 1), one in a copy of that free column."""
    U = Submodule(2, 2, 1, [LaurentVector(2, [LaurentPoly.from_poly(Poly(2, [1, 1])),
                                              LaurentPoly.one(2)])])
    return U, 2, 1, 6


class TestApproachTermOracle:
    """Approach terms against the divisor scan and forms built from scratch."""

    @staticmethod
    @functools.cache
    def cases():
        return approach_cases(8080, 120) + [
            (skip_case().lamps, 1, 0, 8),
            free_copy_case(),
            # x moves the row (1+y^2, 1+y) to a residue with an entry in the
            # pivot column, and 1+y divides every entry
            (Submodule(1, 2, 2, [LaurentVector(2, [LaurentPoly.from_poly(Poly(2, [1, 1, 0, 1, 1]))])]),
             1, 0, 8),
        ]

    def test_free_copy_case_has_a_pivot_in_a_free_copy(self):
        U, b, _, _ = free_copy_case()
        assert U.canonical().form(1).pivots == (0,)
        assert U.canonical().form(2).pivots == (0, 1)

    def test_terms_match_the_divisor_scan(self):
        skipped = 0
        for U, b, r_target, count in self.cases():
            want, k = scanned_approach(U, b, r_target, count)
            got = approach_sequence(U, b, r_target, count)
            skipped += k
            assert [W.gens for W in got] == [W.gens for W in want], (U, b, r_target)
            E = U.minimal_period() * b
            for W in got:
                fresh = Submodule(W.n, W.p, W.period, W.gens)
                assert W.minimal_period() == fresh.minimal_period() == E, W
                assert W.form(E).key() == fresh.form(E).key(), W
        assert skipped > 0


def recorded_rank_cases(seed):
    """Seeded (V, target): V = (t*e(U), U, v) for U in R^n, n <= 2, over
    p in {2, 3, 5}, toward a target (t', r') below V's encoding with
    b = t/t' in {1, 2, 3}, two per (p, n, b); then the gated (1+x^2) case,
    whose term for 1+x is tested for the period 1 and skipped."""
    rng = SplitMix64(seed)
    out = []
    for p, n, b, _ in itertools.product((2, 3, 5), (1, 2), (1, 2, 3), range(2)):
        e = 1 + rng.below(3)
        rk = rng.below(n * e)
        U = construct_with_invariants(n, p, e, rk) if rk else Submodule.zero(n, p)
        t_target = 1 + rng.below(2)
        V = SubgroupTriple(t_target * b * U.minimal_period(), U, rand_vec(rng, n, p))
        t, r = V.poset_encoding()
        out.append((V, (t_target, rng.below(t * r // t_target))))
    return out + [(skip_case(), (1, 0))]


class TestRecordedRankOracle:
    """The (e, rank) an approach term records against a copy without it."""

    def test_recorded_rank_matches_a_copy_that_records_none(self):
        terms = 0
        for V, target in recorded_rank_cases(9090):
            for W in build_approach_sequence(V, target, 6):
                U = W.lamps
                built = set(U._forms)
                report = invariant_report(U)
                assert set(U._forms) == built, W
                assert report == invariant_report(Submodule._raw(U.n, U.p, U.period, U.gens)), W
                assert W.poset_encoding() == target, W
                terms += 1
        assert terms == 37 * 6


def gauss_count(p, d):
    """Number of monic irreducibles of degree d over F_p, by Moebius inversion."""
    def mobius(m):
        out, q = 1, 2
        while q * q <= m:
            if m % q == 0:
                m //= q
                if m % q == 0:
                    return 0
                out = -out
            q += 1
        return -out if m > 1 else out

    return sum(mobius(d // k) * p**k for k in range(1, d + 1) if d % k == 0) // d


class TestIrreducibleSieveOracle:
    """The block sieve against trial division, each count past a degree."""

    @pytest.mark.parametrize(
        "p, count",
        [(2, 75), (3, 85), (5, 60), (7, 145), (43, 950), (997, 1000), (65521, 65522)],
    )
    def test_sieve_matches_trial_division(self, p, count):
        got = list(itertools.islice(irreducibles(p), count))
        assert got == trial_division_irreducibles(p, count)
        degrees = [f.degree for f in got]
        assert degrees[-1] > 1
        for d in range(1, degrees[-1]):
            assert degrees.count(d) == gauss_count(p, d) - (d == 1), (p, d)


class TestRankViaGrowth:
    def test_dimension_slope_equals_rank(self):
        # dim(U restricted to a width-W window) grows by rank per period step.
        cases = [
            Submodule.full(1, 2),
            Submodule.full(2, 2),
            construct_with_invariants(1, 2, 2, 1),
            construct_with_invariants(2, 2, 2, 3),
            construct_with_invariants(1, 3, 3, 2),
        ]
        for U in cases:
            e = U.period
            rank = U.rescaled_rank(e)
            dims = []
            for reps in (4, 5, 6):
                lo, hi = 0, reps * e - 1
                rows, _ = bounded_span(U, lo, hi)
                dims.append(len(rows))
            slopes = {b - a for a, b in zip(dims, dims[1:])}
            assert slopes == {rank}, (dims, rank)


def ball_configurations(n, p, radius):
    """Every configuration on sites [-radius, radius], in code order: site
    -radius of component 0 is the least significant base-p digit."""
    sites = [(i, site) for i in range(n) for site in range(-radius, radius + 1)]
    for code in range(p ** len(sites)):
        w = LaurentVector.zero(n, p)
        rest = code
        for i, site in sites:
            rest, c = divmod(rest, p)
            if c:
                w = w + delta_site(n, p, site, component=i, value=c)
        yield w


def enumerated_certificate(provider, limit, radius, shift_bound, horizon):
    """The certificate from every witness's membership in every term."""
    witnesses = [
        GroupElement(w, t)
        for t in range(-shift_bound, shift_bound + 1)
        for w in ball_configurations(limit.n, limit.p, radius)
    ]
    in_limit = [limit.contains_element(g) for g in witnesses]
    last = [0] * len(witnesses)
    for m in range(1, horizon + 1):
        triple = provider(m)
        for idx, g in enumerate(witnesses):
            if triple.contains_element(g) != in_limit[idx]:
                last[idx] = m
    worst = max(last)
    if worst >= horizon:
        bad = witnesses[last.index(worst)]
        return ConvergenceResult(False, None, bad, len(witnesses), horizon)
    return ConvergenceResult(True, max(1, worst + 1), None, len(witnesses), horizon)


def approach_case(p, e, rk, t, seed, horizon):
    """Seeded limit of shape (e, rk, t) at p, and a sequence approaching it."""
    U = construct_with_invariants(1, p, e, rk)
    V = SubgroupTriple(t * e, U, U.reduce_vector(rand_vec(SplitMix64(seed), 1, p)))
    t_v, r_v = V.poset_encoding()
    return V, build_approach_sequence(V, (1, seed % (t_v * r_v)), horizon)


def vanish_case(p, coeffs, horizon):
    """s = 0 terms f_m U tending to the zero subgroup, and that limit."""
    gen = LaurentPoly.from_poly(Poly(p, coeffs))
    U = Submodule(1, p, 1, [LaurentVector(p, [gen])])
    terms = [SubgroupTriple(0, W) for W in vanish_sequence(U, horizon)]
    return SubgroupTriple(0, Submodule.zero(1, p)), terms


class TestCertificationOracle:
    @pytest.mark.parametrize(
        "case, radius, shift_bound, horizon, stabilized",
        [
            # every term shares the limit's marker (v, s)
            pytest.param(
                lambda h: approach_case(2, 2, 1, 1, 3, h), 3, 4, 8, True, id="p2-s2"
            ),
            pytest.param(
                lambda h: approach_case(2, 2, 1, 2, 5, h), 2, 4, 8, True, id="p2-s4"
            ),
            pytest.param(
                lambda h: approach_case(3, 2, 1, 1, 7, h), 1, 4, 8, True, id="p3-s2"
            ),
            pytest.param(
                lambda h: approach_case(3, 3, 2, 1, 11, h), 2, 3, 6, True, id="p3-s3"
            ),
            pytest.param(
                lambda h: approach_case(5, 2, 1, 1, 13, h), 1, 0, 8, True, id="p5-s2"
            ),
            # the horizon term still differs from the limit inside the ball
            pytest.param(
                lambda h: approach_case(2, 2, 1, 2, 17, h), 4, 4, 2, False, id="p2-short"
            ),
            pytest.param(
                lambda h: approach_case(3, 2, 1, 1, 19, h), 2, 2, 1, False, id="p3-short"
            ),
            pytest.param(
                lambda h: approach_case(5, 2, 1, 1, 13, h), 1, 2, 6, False, id="p5-short"
            ),
            pytest.param(
                lambda h: vanish_case(2, [1, 1, 1], h), 3, 1, 8, True, id="p2-s0"
            ),
            pytest.param(
                lambda h: vanish_case(2, [1, 1], h), 3, 1, 8, False, id="p2-s0-short"
            ),
            pytest.param(
                lambda h: vanish_case(3, [1, 1], h), 2, 0, 6, False, id="p3-s0-short"
            ),
        ],
    )
    def test_matches_witness_enumeration(
        self, case, radius, shift_bound, horizon, stabilized
    ):
        limit, terms = case(horizon)
        got = certify_convergence(lambda m: terms[m - 1], limit, radius, shift_bound, horizon)
        want = enumerated_certificate(
            lambda m: terms[m - 1], limit, radius, shift_bound, horizon
        )
        assert got.to_json() == want.to_json()
        assert got.stabilized == stabilized

    def test_unshared_markers_and_mixed_shifts(self):
        rng = SplitMix64(606)
        failures = 0
        for _ in range(12):
            n, p = (1, 3) if rng.below(2) else (2, 2)

            def triple(s):
                U = Submodule(n, p, max(s, 1), [rand_vec(rng, n, p)])
                return SubgroupTriple(s, U, rand_vec(rng, n, p) if s else None)

            limit = triple(rng.below(3))
            terms = [triple(rng.below(3)) for _ in range(3)]
            got = certify_convergence(lambda m: terms[m - 1], limit, 1, 2, 3)
            want = enumerated_certificate(lambda m: terms[m - 1], limit, 1, 2, 3)
            assert got.to_json() == want.to_json()
            failures += not got.stabilized
        assert failures > 0


    def test_stored_period_off_the_shift(self):
        # Lamps spanned by g and x g, so of minimal period 1, stored at
        # period 2 or 3, with s = 1..3 not always a multiple of it.
        rng = SplitMix64(707)
        off_stored = 0
        for _ in range(8):
            n, p = ((1, 3), (1, 5), (2, 2))[rng.below(3)]

            def triple(s):
                g = rand_vec(rng, n, p)
                period = 2 + rng.below(2)
                U = Submodule(n, p, period, [g.shifted(j) for j in range(period)])
                return SubgroupTriple(s, U, rand_vec(rng, n, p))

            s = 1 + rng.below(3)
            limit = triple(s)
            terms = [triple(s) for _ in range(3)]
            off_stored += sum(V.s % V.lamps.period != 0 for V in [limit] + terms)
            got = certify_convergence(lambda m: terms[m - 1], limit, 1, 3, 3)
            want = enumerated_certificate(lambda m: terms[m - 1], limit, 1, 3, 3)
            assert got.to_json() == want.to_json()
        assert off_stored > 0


class TestCertificationMonotone:
    @pytest.mark.parametrize("shape, vsite", [((2, 1, 1), 1), ((3, 1, 1), 2), ((2, 1, 2), 1), ((3, 2, 1), 0)])
    def test_index_does_not_decrease_with_radius(self, shape, vsite):
        # A larger ball holds every witness of a smaller one, so it can only
        # stabilize later; a ball that does not stabilize stays that way.
        e, rk, t = shape
        U = construct_with_invariants(1, 2, e, rk)
        V = SubgroupTriple(t * e, U, U.reduce_vector(delta_site(1, 2, vsite)))
        seq = build_approach_sequence(V, (1, 0), 25)
        indices = [
            certify_convergence(lambda m: seq[m - 1], V, radius, 2 * t * e, 25).index
            for radius in range(9)
        ]
        ordered = [26 if index is None else index for index in indices]
        assert ordered == sorted(ordered), indices


# ---------------------------------------------------------------------------
# Certificates keyed from the horizon down, and witnesses named by a
# closed form, against the bottom-up scan and the row reduction per trial
# value that they replaced.
# ---------------------------------------------------------------------------


def rref_per_trial_least_difference(key_a, key_b, dim, p):
    """The least code in exactly one keyed set, each trial value of each digit
    decided by row-reducing the equations with the digits fixed so far."""

    def equations(key):
        if key is None:
            return [[0] * dim + [1]]
        return [list(row) + [-x % p] for row, x in zip(*key)]

    def rank(rows):
        _, pivots = rref(rows, p)
        return None if pivots and pivots[-1] == dim else len(pivots)

    def escapes(inside, outside, fixed):
        alone = rank(inside + fixed)
        if alone is None:
            return False
        both = rank(inside + outside + fixed)
        return both is None or both > alone

    a, b = equations(key_a), equations(key_b)
    fixed = []
    for d in reversed(range(dim)):
        unit = [int(i == d) for i in range(dim)]
        forced = {
            row[dim]
            for inside in (a, b)
            for row in rref(inside + fixed, p)[0]
            if list(row[:dim]) == unit
        }
        for value in sorted({0, 1} | forced):
            trial = fixed + [unit + [value]]
            if escapes(a, b, trial) or escapes(b, a, trial):
                fixed = trial
                break
    return [row[dim] for row in reversed(fixed)]


def member_keys(triple, radius, shifts):
    """``_member_keys`` of the triple's ball at gcd(period, s), as the
    certificate keys a term."""
    level = gcd(triple.lamps.period, triple.s)
    return lamplighter._member_keys(_BallResidues(triple, radius, level, shifts))


def bottom_up_certificate(provider, limit, radius, shift_bound, horizon):
    """The certificate with every term keyed, from term 1 up to the horizon."""
    n, p = limit.n, limit.p
    shifts = range(-shift_bound, shift_bound + 1)
    target = member_keys(limit, radius, shifts)
    last = 0
    for m in range(1, horizon + 1):
        triple = provider(m)
        if triple.n != n or triple.p != p:
            raise ContextError("subgroups of different lamplighter groups")
        keys = member_keys(triple, radius, shifts)
        if keys != target:
            last = m
    checked = ball_size(n, p, radius, shift_bound, horizon)
    if last < horizon:
        return ConvergenceResult(True, max(1, last + 1), None, checked, horizon)
    t, key, limit_key = next((t, a, b) for t, a, b in zip(shifts, keys, target) if a != b)
    digits = rref_per_trial_least_difference(key, limit_key, n * (2 * radius + 1), p)
    sites = [(i, site) for i in range(n) for site in range(-radius, radius + 1)]
    lamps = LaurentVector.zero(n, p)
    for (i, site), c in zip(sites, digits):
        if c:
            lamps = lamps + delta_site(n, p, site, component=i, value=c)
    return ConvergenceResult(False, None, GroupElement(lamps, t), checked, horizon)


def pattern_case(pattern, p):
    """Terms toward the zero subgroup, one per letter.  'd' is generated by
    1 + x, a member on sites [-1, 0]; 'a' by 1 + x^8, every nonzero member
    of which spans 8 sites or more, so none lies in a ball of radius 3."""

    def generated(coeffs):
        gen = LaurentVector(p, [LaurentPoly.from_poly(Poly(p, coeffs))])
        return SubgroupTriple(0, Submodule(1, p, 1, [gen]))

    near, far = generated([1, 1]), generated([1] + [0] * 7 + [1])
    return SubgroupTriple(0, Submodule.zero(1, p)), [near if c == "d" else far for c in pattern]


# Terms as pattern_case builds them; most disagree again after agreeing.
PATTERNS = ["a", "d", "dada", "adad", "dadaa", "aadda", "ddaaa", "adadadaa", "aaaa"]


def last_disagreement(pattern):
    return pattern.rfind("d") + 1


class TestScanOrderOracle:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("p", [2, 3])
    def test_non_monotone_patterns_match_the_bottom_up_scan(self, pattern, p):
        limit, terms = pattern_case(pattern, p)
        horizon, m = len(terms), last_disagreement(pattern)
        for radius, shift_bound in ((1, 0), (3, 2)):
            got = certify_convergence(lambda k: terms[k - 1], limit, radius, shift_bound, horizon)
            want = bottom_up_certificate(lambda k: terms[k - 1], limit, radius, shift_bound, horizon)
            assert got.to_json() == want.to_json()
            assert got.index == (None if m == horizon else max(1, m + 1))

    def test_seeded_grid_matches_the_bottom_up_scan(self):
        rng = SplitMix64(2323)
        indices = set()
        for _ in range(60):
            n, p = ((1, 2), (1, 3), (2, 2), (1, 5))[rng.below(4)]

            def triple(s):
                U = Submodule(n, p, max(s, 1), [rand_vec(rng, n, p)])
                return SubgroupTriple(s, U, rand_vec(rng, n, p) if s else None)

            limit = triple(rng.below(3))
            pool = [limit, limit.canonical(), triple(limit.s), triple(rng.below(3))]
            horizon = 1 + rng.below(6)
            terms = [pool[rng.below(4)] for _ in range(horizon)]
            radius, shift_bound = rng.below(3), rng.below(4)
            got = certify_convergence(lambda m: terms[m - 1], limit, radius, shift_bound, horizon)
            want = bottom_up_certificate(lambda m: terms[m - 1], limit, radius, shift_bound, horizon)
            assert got.to_json() == want.to_json()
            indices.add(got.index)
        assert None in indices and len(indices) > 3, indices

    @pytest.mark.parametrize(
        "case, radius, shift_bound, horizon",
        [
            (lambda h: approach_case(2, 2, 1, 1, 3, h), 8, 4, 12),
            (lambda h: approach_case(3, 2, 1, 1, 7, h), 4, 4, 10),
            (lambda h: approach_case(2, 2, 1, 2, 17, h), 6, 4, 3),
            (lambda h: vanish_case(2, [1, 1, 1], h), 6, 1, 10),
            (lambda h: vanish_case(3, [1, 1], h), 5, 0, 8),
        ],
    )
    def test_approach_sequences_match_the_bottom_up_scan(self, case, radius, shift_bound, horizon):
        limit, terms = case(horizon)
        got = certify_convergence(lambda m: terms[m - 1], limit, radius, shift_bound, horizon)
        want = bottom_up_certificate(lambda m: terms[m - 1], limit, radius, shift_bound, horizon)
        assert got.to_json() == want.to_json()

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_keys_only_the_terms_down_to_the_last_disagreement(self, pattern, monkeypatch):
        # The limit, then terms H, H - 1, ... down to the last disagreement
        # m: 1 + (H - m + 1) key sets, 2 on a failure, H + 1 with none.
        calls = []
        ball = lamplighter._BallResidues
        monkeypatch.setattr(
            lamplighter, "_BallResidues", lambda *args: calls.append(args[0]) or ball(*args)
        )
        limit, terms = pattern_case(pattern, 2)
        horizon, m = len(terms), last_disagreement(pattern)
        certify_convergence(lambda k: terms[k - 1], limit, 2, 1, horizon)
        assert len(calls) == 1 + horizon - max(m, 1) + 1
        assert calls == [limit] + terms[max(m, 1) - 1 :][::-1]

    def test_a_foreign_term_below_the_last_disagreement_still_raises(self, monkeypatch):
        calls = []
        ball = lamplighter._BallResidues
        monkeypatch.setattr(
            lamplighter, "_BallResidues", lambda *args: calls.append(args[0]) or ball(*args)
        )
        limit, terms = pattern_case("adaa", 2)
        foreign = pattern_case("d", 3)[1][0]
        terms[0] = foreign
        with pytest.raises(ContextError):
            certify_convergence(lambda k: terms[k - 1], limit, 2, 1, len(terms))
        assert calls == []


def equations_key(rows, dim, p):
    """The key of the solutions of rows [a | b], one equation a.c = b each,
    as ``_member_keys`` makes them: None when there are none."""
    reduced, pivots = rref(rows, p)
    if pivots and pivots[-1] == dim:
        return None
    return tuple(row[:dim] for row in reduced), tuple(-row[dim] % p for row in reduced)


def in_keyed_set(digits, key, p):
    return key is not None and all(
        (sum(a * c for a, c in zip(row, digits)) + x) % p == 0 for row, x in zip(*key)
    )


class TestWitnessSearchOracle:
    def test_closed_form_matches_a_row_reduction_per_trial(self):
        # Pairs of random systems, the second often the first with one
        # equation more, one fewer or one constant moved, so the sets
        # nest or cross and differ only in low digits.
        rng = SplitMix64(2424)
        compared = 0
        while compared < 400:
            p, dim = (2, 3, 5, 7)[rng.below(4)], 1 + rng.below(12)

            def row():
                return [rng.below(p) for _ in range(dim + 1)]

            rows_a = [row() for _ in range(rng.below(dim + 2))]
            rows_b = [list(r) for r in rows_a]
            change = rng.below(4)
            if change == 0 or not rows_b:
                rows_b.append(row())
            elif change == 1:
                rows_b.pop(rng.below(len(rows_b)))
            elif change == 2:
                rows_b[rng.below(len(rows_b))][dim] = rng.below(p)
            else:
                rows_b = [row() for _ in range(rng.below(dim + 2))]
            key_a, key_b = equations_key(rows_a, dim, p), equations_key(rows_b, dim, p)
            if key_a == key_b:
                continue
            digits = _least_difference(key_a, key_b, dim, p)
            assert digits == rref_per_trial_least_difference(key_a, key_b, dim, p)
            assert in_keyed_set(digits, key_a, p) != in_keyed_set(digits, key_b, p)
            compared += 1


# ---------------------------------------------------------------------------
# The degree gap: approach and vanish terms record that they are U + f*Q,
# and certify_convergence keys them only from the last term with deg f at
# most the ball's bound B.  The certificates are rebuilt from the same
# subgroups without their record, keyed from the horizon, and by witness
# enumeration on small balls; the start is checked against the last term
# whose member keys differ from the limit's.
# ---------------------------------------------------------------------------


# The (e(U), rk, t) shapes of the p = 2 limits of the certify-f2 benchmark.
CERTIFY_F2_SHAPES = [(2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 2, 1), (3, 1, 2), (3, 2, 2)]


def gap_grid(seed, count):
    """(limit, terms, radius, shift_bound, horizon): approach sequences to a
    seeded limit of shape (e, rk, t), e, t <= 3, 2, and vanish sequences to
    the zero subgroup, over p in {2, 3, 5} and n in {1, 2}; many horizons
    are too short for the ball, so many certificates fail.  Then count // 3
    vanish sequences from a second stream whose sources have one to three
    generators, at stored period 1 or 2, half of those with n = 2 leaving
    one coordinate zero, so that Q fills only the other column."""
    yield from _approach_and_vanish_grid(seed, count)
    rng = SplitMix64(seed + 1)
    for _ in range(count // 3):
        p, n = (2, 3, 5)[rng.below(3)], 1 + rng.below(2)
        radius, horizon = rng.below(3 if n * p > 5 else 4), 1 + rng.below(12)
        gens = [rand_vec(rng, n, p, 0, 1 + rng.below(3)) for _ in range(1 + rng.below(3))]
        if n == 2 and rng.below(2):
            gone = rng.below(2)
            gens = [
                LaurentVector(p, [LaurentPoly.zero(p) if i == gone else c for i, c in enumerate(g.coords)])
                for g in gens
            ]
        W = Submodule(n, p, 1 + rng.below(2), gens)
        terms = [SubgroupTriple(0, X) for X in vanish_sequence(W, horizon)]
        yield SubgroupTriple(0, Submodule.zero(n, p)), terms, radius, rng.below(3), horizon


def _approach_and_vanish_grid(seed, count):
    rng = SplitMix64(seed)
    for _ in range(count):
        p, n = (2, 3, 5)[rng.below(3)], 1 + rng.below(2)
        radius, horizon = rng.below(3 if n * p > 5 else 4), 1 + rng.below(12)
        if rng.below(3):
            e, t = 1 + rng.below(3), 1 + rng.below(2)
            rk = rng.below(n * e)
            U = construct_with_invariants(n, p, e, rk) if rk else Submodule(n, p, e, ())
            V = SubgroupTriple(t * e, U, U.reduce_vector(rand_vec(rng, n, p)))
            t_v, r_v = V.poset_encoding()
            terms = build_approach_sequence(V, (1, rng.below(t_v * r_v)), horizon)
            yield V, terms, radius, rng.below(2 * t * e + 1), horizon
        else:
            W = Submodule(n, p, 1 + rng.below(2), [rand_vec(rng, n, p, 0, 1 + rng.below(3))])
            terms = [SubgroupTriple(0, X) for X in vanish_sequence(W, horizon)]
            yield SubgroupTriple(0, Submodule.zero(n, p)), terms, radius, rng.below(3), horizon


def unrecorded(terms):
    """The same subgroups, rebuilt by the public constructors: no gap record."""
    return [
        SubgroupTriple(V.s, Submodule(V.n, V.p, V.lamps.period, V.lamps.gens), V.v)
        for V in terms
    ]


def last_keyed_disagreement(limit, terms, radius, shift_bound):
    """The last term whose member keys differ from the limit's, or 0."""
    shifts = range(-shift_bound, shift_bound + 1)
    target = member_keys(limit, radius, shifts)
    return max(
        (m for m, V in enumerate(terms, 1) if member_keys(V, radius, shifts) != target),
        default=0,
    )


def gap_start(limit, terms, radius, shift_bound):
    """``_gap_start`` on the limit's ball at e(U), as the certificate builds
    it, or H when the terms' records do not match the limit."""
    shifts = range(-shift_bound, shift_bound + 1)
    ball = _BallResidues(limit, radius, limit.lamps.minimal_period(), shifts)
    records = lamplighter._matching_records(terms, limit, ball)
    if records is None:
        return len(terms)
    return lamplighter._gap_start(records, ball, lamplighter._member_keys(ball))


def closed_form_gap_start(terms, limit, radius, shifts):
    """``_gap_start`` with each d_t built in closed form: the marker power
    (v, s)^(-t/s) formed as a Laurent product, moved by x^t and reduced from
    scratch at level e, member shift by member shift.  B_j is the widest
    span in column j over every member shift, and a term is admitted when
    deg f <= B_j - sigma_j for a column j of its record; the columns its Q
    does not fill are not read."""
    U, s = limit.lamps, limit.s
    records = [getattr(V.lamps, "_gap", None) for V in terms]
    if not all(r and V.s == s and V.v == limit.v for r, V in zip(records, terms)):
        return len(terms)
    e = U.minimal_period()
    base = (U.canonical_key(), e)
    if any(r[:2] != base for r in records):
        return len(terms)
    form = U.form(e)
    window = [item for r in U.window_residues(-radius, radius, e).values() for item in r.items()]
    widest = {}
    for t in [t for t in shifts if (t % s == 0 if s else t == 0)]:
        items = window
        if s:
            marker = power(GroupElement(limit.v, s), -(t // s)).lamps
            items = window + list(form.residue(_vector_coordinates(marker, e, t)).items())
        for j, qs in _by_column(items).items():
            widest[j] = max(widest.get(j, -1), max(qs) - min(qs))

    def admitted(record):
        _, _, f, spans, _ = record
        return any(f.degree <= widest[j] - sigma for j, sigma in spans if j in widest)

    return max((m for m, r in enumerate(records, 1) if admitted(r)), default=0)


def companion_case(v_text):
    """The approach sequence toward s = 2, U = F_2[x^(+-2)] and the given v,
    with target (1, 0) and 25 terms."""
    limit = parse_triple(f"s=2\nn=1 e=2 p=2\n1\nv={v_text}\n")
    return limit, build_approach_sequence(limit, (1, 0), 25)


@pytest.fixture
def keyed(monkeypatch):
    """The triples keyed, in order: those a ``_BallResidues`` is built for,
    one ball per key set."""
    calls = []
    ball = lamplighter._BallResidues
    monkeypatch.setattr(
        lamplighter, "_BallResidues", lambda *args: calls.append(args[0]) or ball(*args)
    )
    return calls


class TestDegreeGapOracle:
    def test_seeded_grid_matches_full_keying_and_enumeration(self):
        engaged = failed = enumerated = narrowed = 0
        for limit, terms, radius, shift_bound, horizon in gap_grid(2929, 150):
            narrowed += any(sigma for _, sigma in terms[0].lamps._gap[3])
            got = certify_convergence(lambda m: terms[m - 1], limit, radius, shift_bound, horizon)
            bare = unrecorded(terms)
            full = certify_convergence(lambda m: bare[m - 1], limit, radius, shift_bound, horizon)
            assert got.to_json() == full.to_json()
            if got.witnesses_checked <= 400:
                want = enumerated_certificate(
                    lambda m: terms[m - 1], limit, radius, shift_bound, horizon
                )
                assert got.to_json() == want.to_json()
                enumerated += 1
            start = gap_start(limit, terms, radius, shift_bound)
            assert start >= last_keyed_disagreement(limit, terms, radius, shift_bound)
            assert gap_start(limit, bare, radius, shift_bound) == horizon
            engaged += start < horizon
            failed += not got.stabilized
        assert engaged > 40 and failed > 20 and enumerated > 40, (engaged, failed, enumerated)
        assert narrowed > 20, narrowed

    @pytest.mark.parametrize(
        "p, shape, seed, radius, shift_bound, last",
        [
            (2, (2, 1, 1), 1, 3, 4, 7),
            (3, (2, 1, 1), 1, 2, 2, 5),
            (5, (2, 1, 1), 1, 1, 0, 4),
        ],
    )
    def test_tight_cases_start_at_the_last_disagreement(
        self, p, shape, seed, radius, shift_bound, last
    ):
        # Term ``last`` disagrees with the limit on the ball and has
        # deg f = B: the bound cannot be lowered by one.
        limit, terms = approach_case(p, *shape, seed, 12)
        assert last_keyed_disagreement(limit, terms, radius, shift_bound) == last
        assert gap_start(limit, terms, radius, shift_bound) == last
        cert = certify_convergence(lambda m: terms[m - 1], limit, radius, shift_bound, 12)
        assert cert.index == last + 1


    def test_term_residues_fill_only_the_recorded_spans(self):
        # The record's claim, checked on elements: any element of a term,
        # here a seeded F_p combination of its generators moved by its
        # stored period, reduces modulo the limit's lamps at e to some
        # f*q with entries only in the recorded columns, each nonzero one
        # spanning at least deg f + sigma_j in y.
        rng = SplitMix64(3131)
        entries = 0
        for limit, terms, *_ in gap_grid(2929, 150):
            U = limit.lamps
            e = U.minimal_period()
            form = U.form(e)
            for V in terms[:3]:
                _, level, f, spans, _ = V.lamps._gap
                assert level == e
                degree = f.degree
                sigma = dict(spans)
                W = V.lamps
                for _ in range(3):
                    coords = {}
                    for g in W.gens:
                        for k in (-1, 0, 1):
                            c = rng.below(W.p)
                            if c:
                                moved = _vector_coordinates(g, e, k * W.period)
                                _add_scaled(coords, moved.items(), c, W.p)
                    for j, qs in _by_column(form.residue(coords).items()).items():
                        assert j in sigma, (j, spans)
                        assert max(qs) - min(qs) >= degree + sigma[j], (j, spans, degree)
                        entries += 1
        assert entries > 500, entries

    def test_the_vanish_fixture_starts_at_its_last_disagreement(self, keyed):
        # The radius-3, width-3 vanish fixture of the generic workload: the
        # generator spans 2, so sigma = 2 and the ball's one column spans
        # B = 6, and the scan starts at the last term of degree 4, term 7,
        # which disagrees with the limit; without sigma it started at 12.
        for coeffs in ([1, 0, 1], [1, 1, 1]):
            limit, terms = vanish_case(2, coeffs, 12)
            assert {V.lamps._gap[3] for V in terms} == {((0, 2),)}
            assert last_keyed_disagreement(limit, terms, 3, 1) == 7
            assert gap_start(limit, terms, 3, 1) == 7
            keyed.clear()
            cert = certify_convergence(lambda m: terms[m - 1], limit, 3, 1, 12)
            assert cert.index == 8
            assert keyed == [limit, terms[6]]

    def test_pivot_columns_do_not_widen_the_bound(self, keyed):
        # U is generated by (1 + x + x^3) e_0, so column 0 holds a pivot of
        # degree 3 and the residues of the marker lamps d_t spread over
        # y^0..y^2 there; column 1 is free and the one site of radius 0
        # leaves it a span of 0.  So B = 0 and no term is keyed; with the
        # pivot column read too, B would be 2.
        p = 2
        cubic = LaurentPoly.from_poly(Poly(p, [1, 1, 0, 1]))
        U = Submodule(2, p, 1, [LaurentVector(p, [cubic, LaurentPoly.zero(p)])])
        quadratic = LaurentPoly.from_poly(Poly(p, [0, 1, 1]))
        v = U.reduce_vector(LaurentVector(p, [quadratic, LaurentPoly.zero(p)]))
        limit = SubgroupTriple(1, U, v)
        terms = build_approach_sequence(limit, (1, 0), 10)
        assert gap_start(limit, terms, 0, 2) == 0
        keyed.clear()
        assert certify_convergence(lambda m: terms[m - 1], limit, 0, 2, 10).index == 1
        assert keyed == [limit]
        assert gap_start(limit, terms, 1, 2) == last_keyed_disagreement(limit, terms, 1, 2) == 2


class TestGapWalk:
    # ``_gap_start`` walks the residues of d_t out from d_0 by the marker
    # recurrence and stops once every term is admitted; the closed form
    # powers the marker anew for every member shift.

    def test_seeded_grid_matches_the_closed_form(self):
        for limit, terms, radius, shift_bound, horizon in gap_grid(2929, 150):
            shifts = range(-shift_bound, shift_bound + 1)
            want = closed_form_gap_start(terms, limit, radius, shifts)
            assert gap_start(limit, terms, radius, shift_bound) == want

    @pytest.mark.parametrize("v_text", ["x", "x^-1*(1+x)", "1", "0"])
    @pytest.mark.parametrize("radius", [0, 2])
    def test_companions_match_the_closed_form(self, v_text, radius):
        limit, terms = companion_case(v_text)
        for shift_bound in (0, 1, 2, 3, 4, 5, 50, 200):
            shifts = range(-shift_bound, shift_bound + 1)
            want = closed_form_gap_start(terms, limit, radius, shifts)
            assert gap_start(limit, terms, radius, shift_bound) == want, shift_bound


# ---------------------------------------------------------------------------
# The quotient test: below a start term that agrees with the limit, each
# recorded term U + f*Q is decided by one linear system on the limit's ball
# residues.  Its verdict is checked against the terms' member keys on every
# recorded term of the gap grid and of the certify workloads' shapes.
# ---------------------------------------------------------------------------


def quotient_cases():
    """(limit, terms, radius, shift_bound): the gap grid, then the shapes of
    the certify workloads: the p = 2 shapes at radius 3 to 5 and shift bound
    2s, 25 terms; p = 3 and p = 5 shapes with t in {1, 2} at radius 1 and 2
    and shift bound s, 12 terms; and s = 0 vanish sequences of generators of
    width 2 to 4 at radius 3 and 4 and shift bound 1, 12 terms."""
    for limit, terms, radius, shift_bound, _ in gap_grid(2929, 150):
        yield limit, terms, radius, shift_bound
    for seed in range(1, 11):
        for shape in CERTIFY_F2_SHAPES:
            limit, terms = approach_case(2, *shape, seed, 25)
            for radius in (3, 4, 5):
                yield limit, terms, radius, 2 * limit.s
        for p, shape in [(3, (2, 1, 1)), (3, (3, 2, 1)), (3, (2, 1, 2)), (5, (2, 1, 1)), (5, (2, 1, 2))]:
            limit, terms = approach_case(p, *shape, seed, 12)
            for radius in (1, 2):
                yield limit, terms, radius, limit.s
    for coeffs in ([1, 1], [1, 0, 1], [1, 1, 1], [1, 0, 1, 1]):
        limit, terms = vanish_case(2, coeffs, 12)
        for radius in (3, 4):
            yield limit, terms, radius, 1


def quotient_verdicts(limit, terms, radius, shift_bound):
    """(verdict, differs) for every term: the quotient test's verdict on its
    record, None for a system past the bound, and whether its member keys
    differ from the limit's.  The bound is read from the last term's
    residues, as if it were the start term."""
    shifts = range(-shift_bound, shift_bound + 1)
    ball = _BallResidues(limit, radius, limit.lamps.minimal_period(), shifts)
    target = lamplighter._member_keys(ball)
    last = terms[-1]
    keyed = _BallResidues(last, radius, gcd(last.lamps.period, last.s), shifts)
    records = [V.lamps._gap for V in terms]
    test = _QuotientTest(ball, target, keyed, records)
    return [(test.differs(V.lamps._gap), member_keys(V, radius, shifts) != target) for V in terms]


@pytest.fixture
def systems(monkeypatch):
    """Each ``_QuotientTest.differs`` call, in order, as (bound, unknowns
    times coordinates of every matrix it row-reduces, verdict)."""
    calls, inside = [], []
    differs, reduce = _QuotientTest.differs, lamplighter.rref

    def sized_differs(test, record):
        inside.append((test.bound, len(test._targets or ()), []))
        verdict = differs(test, record)
        bound, _, sizes = inside.pop()
        calls.append((bound, sizes, verdict))
        return verdict

    def sized_rref(rows, p):
        if inside:
            _, targets, sizes = inside[-1]
            sizes.append(len(rows) * (len(rows[0]) - targets))
        return reduce(rows, p)

    monkeypatch.setattr(_QuotientTest, "differs", sized_differs)
    monkeypatch.setattr(lamplighter, "rref", sized_rref)
    return calls


class TestQuotientTestOracle:
    def test_verdicts_match_the_member_keys(self, systems):
        checked = differing = refused = 0
        for limit, terms, radius, shift_bound in quotient_cases():
            for m, (verdict, differs) in enumerate(quotient_verdicts(limit, terms, radius, shift_bound), 1):
                if verdict is None:
                    refused += 1
                    continue
                assert verdict == differs, (limit, radius, shift_bound, m)
                checked += 1
                differing += differs
        assert checked > 6000 and differing > 1800, (checked, differing)
        assert refused * 10 < checked, (refused, checked)
        # every system is sized before its matrix is built
        assert all(size <= bound for bound, sizes, _ in systems for size in sizes)
        assert sum(bool(sizes) for _, sizes, _ in systems) > 2000

    def test_far_shifts_refuse_systems_past_the_bound(self, systems, keyed):
        # On the companion sequences at the far shift bound of the gap walk,
        # the marker residues of the shifts without limit members drift far
        # out and widen the hull until every system passes the bound.  No
        # system past it is built, each refused term is keyed, and the
        # certificates equal those keyed in full.
        refused = 0
        for v_text in ["x", "x^-1*(1+x)", "1", "0"]:
            limit, terms = companion_case(v_text)
            bare = unrecorded(terms)
            for radius in (0, 2):
                systems.clear()
                keyed.clear()
                got = certify_convergence(lambda m: terms[m - 1], limit, radius, 200, 25)
                verdicts = [verdict for _, _, verdict in systems]
                if verdicts:
                    # the limit, the start term and each refused term
                    assert len(keyed) == 2 + verdicts.count(None)
                refused += verdicts.count(None)
                assert all(size <= bound for bound, sizes, _ in systems for size in sizes)
                want = certify_convergence(lambda m: bare[m - 1], limit, radius, 200, 25)
                assert got.to_json() == want.to_json(), (v_text, radius)
        assert refused >= 4, refused


class TestDegreeGapFallback:
    # The shape (e, rk, t) = (2, 1, 1) of the f2 workload, at its radius 3
    # and shift bound 2te: every record matches the limit.
    def f2_case(self):
        return approach_case(2, 2, 1, 1, 3, 25)

    def test_the_f2_shape_keys_only_below_the_gap(self, keyed):
        limit, terms = self.f2_case()
        start = gap_start(limit, terms, 3, 4)
        last = last_keyed_disagreement(limit, terms, 3, 4)
        keyed.clear()
        cert = certify_convergence(lambda m: terms[m - 1], limit, 3, 4, 25)
        assert cert.index == max(1, last + 1) and start < 25
        assert keyed == [limit] + terms[max(last, 1) - 1 : start][::-1]
        assert len(keyed) <= 5

    def test_the_limits_window_residues_are_built_once(self, monkeypatch, keyed):
        # The limit's keys and the degree gap read one set of its residues.
        limit, terms = self.f2_case()
        built, window_residues = [], Submodule.window_residues
        monkeypatch.setattr(
            Submodule, "window_residues", lambda U, *args: built.append(U) or window_residues(U, *args)
        )
        keyed.clear()
        certify_convergence(lambda m: terms[m - 1], limit, 3, 4, 25)
        assert [U is limit.lamps for U in built] == [True] + [False] * (len(keyed) - 1)

    @pytest.mark.parametrize("change", ["same-shape", "v", "s", "mixed"])
    def test_records_that_do_not_match_are_ignored(self, change, keyed):
        limit, terms = self.f2_case()
        U, v = limit.lamps, limit.v
        if change == "same-shape":
            limit = SubgroupTriple(limit.s, U.shifted(1), v)
        elif change == "v":
            limit = SubgroupTriple(limit.s, U, v + delta_site(1, 2, -1))
        elif change == "s":
            limit = SubgroupTriple(2 * limit.s, U, v)
        else:
            terms = terms[:12] + unrecorded(terms[12:13]) + terms[13:]
        bare = unrecorded(terms)
        assert gap_start(limit, terms, 3, 4) == 25
        keyed.clear()
        got = certify_convergence(lambda m: terms[m - 1], limit, 3, 4, 25)
        calls = len(keyed)
        keyed.clear()
        want = certify_convergence(lambda m: bare[m - 1], limit, 3, 4, 25)
        assert got.to_json() == want.to_json()
        assert calls == len(keyed)


# ---------------------------------------------------------------------------
# Membership on F_p coordinates: contains_element, contains_vector,
# contains_submodule, reduce_vector and has_period read the vectors they
# test straight into the residue's coordinates.  Each is checked against
# the Laurent-polynomial path it replaced: group products, shifted vectors
# and shifted form rows, split into columns by ``vectorize``.
# ---------------------------------------------------------------------------

# sha256 of the lines of `membership_digest_lines(4242, 30)`: has_period
# answers, minimal periods, reduce_vector outputs and contains_element
# answers on word balls, as the Laurent-polynomial path computed them
GOLDEN_MEMBERSHIP_SHA256 = "d91a6ee688153facf11553e6498e126950796deb4e221b81e24f8a1126dc9fd0"


def word_ball(triple, radius):
    """The ball of the given word length in the generators (0, 1), (e_i, 0)
    and, when s > 0, the marker (v, s), with their inverses; sorted by repr."""
    n, p = triple.n, triple.p
    gens = [GroupElement(LaurentVector.zero(n, p), 1)]
    gens += [GroupElement(LaurentVector.unit(n, p, i), 0) for i in range(n)]
    if triple.s:
        gens.append(GroupElement(triple.v, triple.s))
    gens += [g.inverse() for g in gens]
    ball = frontier = {GroupElement.identity(n, p)}
    for _ in range(radius):
        frontier = {g * h for g in frontier for h in gens} - ball
        ball = ball | frontier
    return sorted(ball, key=repr)


def membership_digest_lines(seed, count):
    """Text lines of the golden membership digest, over ``pinned_grid``: per
    U its periods up to 2P, e(U), four reduced vectors, and per s in
    {0, e(U), P} the contains_element answers on a radius-3 word ball."""
    rng = SplitMix64(seed)
    for U in pinned_grid(seed, count):
        yield "periods " + "".join("01"[U.has_period(d)] for d in range(1, 2 * U.period + 1))
        e = U.minimal_period()
        yield f"e {e}"
        for _ in range(4):
            w = rand_vec(rng, U.n, U.p, lo=-7, hi=7)
            yield f"reduce {format_vector(w)} {format_vector(U.reduce_vector(w))}"
        for s in sorted({0, e, U.period}):
            v = rand_vec(rng, U.n, U.p, lo=-3, hi=3) if s else None
            T = SubgroupTriple(s, U, v)
            yield f"{T!r} " + "".join("01"[T.contains_element(g)] for g in word_ball(T, 3))


def test_membership_digest_is_pinned():
    digest = hashlib.sha256()
    for line in membership_digest_lines(4242, 30):
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_MEMBERSHIP_SHA256


def product_membership(triple, g):
    """contains_element through the group product g * (v, s)^(-k), k = t/s."""
    if triple.s == 0:
        return g.shift == 0 and triple.lamps.contains_vector(g.lamps)
    if g.shift % triple.s:
        return False
    marker = power(GroupElement(triple.v, triple.s), -(g.shift // triple.s))
    return triple.lamps.contains_vector((g * marker).lamps)


def shifted_row_period(U, s):
    """has_period through the form's rows moved by x^s as Laurent entries:
    with a, b = divmod(s, L), the last b column classes wrap with y^(a+1)."""
    if s % U.period == 0:
        return True
    form = U.form(U.period)
    a, b = divmod(s, form.level)
    cut = (form.level - b) * form.n
    for row in laurent_rows(form):
        moved = [e.shifted(a + 1) for e in row[cut:]] + [e.shifted(a) for e in row[:cut]]
        coords = {(j, exp): c for j, entry in enumerate(moved) for exp, c in entry.terms()}
        if form.residue(coords):
            return False
    return True


def coordinate_grid(seed, count):
    """The :func:`pinned_grid` subgroups of rank n <= 2."""
    return [U for U in pinned_grid(seed, count) if U.n <= 2]


class TestCoordinateMembershipOracle:
    """Membership and periods read on F_p coordinates against the group
    product, the shifted Laurent rows and the reference reduction."""

    @staticmethod
    @functools.cache
    def cases():
        return coordinate_grid(3131, 60)

    def test_grid_covers_every_prime(self):
        assert {U.p for U in self.cases()} == {2, 3, 5, 7}
        assert {U.n for U in self.cases()} == {1, 2}

    def test_contains_element_matches_the_group_product(self):
        rng = SplitMix64(3132)
        members = off_stored = 0
        for U in self.cases()[:30]:
            e = U.minimal_period()
            for s in sorted({0, e, U.period, 2 * U.period}):
                v = rand_vec(rng, U.n, U.p, lo=-3, hi=3) if s else None
                T = SubgroupTriple(s, U, v)
                off_stored += s % U.period != 0
                probes = word_ball(T, 2)
                if s:  # far marker powers, whose lamps sum up to five terms x^u v
                    marker = GroupElement(T.v, s)
                    far = [power(marker, k) for k in (-5, -3, 3, 5)]
                    probes += [g * h for g in probes for h in far]
                for g in probes:
                    got = T.contains_element(g)
                    assert got == product_membership(T, g), (T, g)
                    members += got
        assert members > 0 and off_stored > 0

    def test_has_period_matches_shifted_rows(self):
        wrapped = 0
        for U in self.cases():
            L = U.period
            for s in range(1, 3 * L + 2):
                assert U.has_period(s) == shifted_row_period(U, s), (U, s)
                wrapped += s % L != 0 and U.has_period(s)
        assert wrapped > 0

    def test_contains_submodule_matches_reference(self):
        rng = SplitMix64(3133)
        contained = 0
        for U in self.cases():
            others = [U.canonical(), U.shifted(1 + rng.below(3))]
            W = rand_vec(rng, U.n, U.p)
            others.append(Submodule(U.n, U.p, 1 + rng.below(4), [W]))
            for V in others:
                level = U._common_level(V)
                want = all(
                    not residue_coordinates(U, g.shifted(k * V.period), level)
                    for g in V.gens
                    for k in range(level // V.period)
                )
                assert U.contains_submodule(V) == want, (U, V)
                contained += want
        assert contained > 0

    def test_reduce_vector_matches_reference(self):
        rng = SplitMix64(3134)
        for U in self.cases():
            L = U.period
            for _ in range(4):
                w = rand_vec(rng, U.n, U.p, lo=-9, hi=9)
                got = U.reduce_vector(w)
                cols = vectorize(got, L)
                coords = {(j, exp): c for j, col in enumerate(cols) for exp, c in col.terms()}
                assert coords == residue_coordinates(U, w, L), (U, w)
                assert U.contains_vector(w - got)

    def test_membership_builds_no_columns_and_no_products(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        triples = []
        rng = SplitMix64(3135)
        for U in self.cases()[:12]:
            e = U.minimal_period()
            for s in (0, e):
                T = SubgroupTriple(s, U, rand_vec(rng, U.n, U.p) if s else None)
                probes = word_ball(T, 2)
                U.form(U.period)  # forms are built once, before counting
                triples.append((T, probes))
        monkeypatch.setattr(LaurentPoly, "__new__", counted("LaurentPoly", LaurentPoly.__new__))
        monkeypatch.setattr(GroupElement, "__mul__", counted("__mul__", GroupElement.__mul__))
        tested = 0
        for T, probes in triples:
            for g in probes:
                if abs(g.shift) <= 3 * max(T.s, 1):
                    T.contains_element(g)
                    T.lamps.contains_vector(g.lamps)
                    tested += 1
        assert tested > 0 and calls == []


def geometric_containment(outer, inner):
    """``contains_subgroup`` by the geometric factor: with outer = (s', U', v')
    and inner = (s, U, v), s' | s, U ⊆ U' and
    v ≡ (1 + x^s' + ... + x^(s - s')) v' modulo U'."""
    if inner.s == 0:
        return outer.lamps.contains_submodule(inner.lamps)
    if outer.s == 0 or inner.s % outer.s or not outer.lamps.contains_submodule(inner.lamps):
        return False
    factor = LaurentPoly.from_poly(geometric_series(inner.s // outer.s, outer.s, outer.p))
    return outer.lamps.contains_vector(inner.v - outer.v.scaled(factor))


def containment_pairs(seed, count):
    """(outer, inner) triples over ``coordinate_grid``.

    Per U the outer shifts are 0, e, 2e and the stored period P, which need
    not divide the inner ones: 0, the outer shift and twice it, and 3e,
    which 2e does not divide.  The inner lamps are U, (1 + x^e) U, 0 and a
    seeded line; the inner marker is the outer marker's power when the
    shifts allow one, else a seeded vector, moved by 0, a generator of U or
    a seeded vector.
    """
    rng = SplitMix64(seed)
    for U in coordinate_grid(seed, count):
        n, p, e = U.n, U.p, U.minimal_period()
        zero = LaurentVector.zero(n, p)
        inside = [U, U.scaled(LaurentPoly.one(p) + LaurentPoly.monomial(p, e)), Submodule.zero(n, p)]
        for s_out in sorted({0, e, 2 * e, U.period}):
            outer = SubgroupTriple(s_out, U, rand_vec(rng, n, p) if s_out else None)
            for s_in in sorted({0, s_out, 2 * s_out, 3 * e}):
                line = Submodule(n, p, max(s_in, 1), [rand_vec(rng, n, p)])
                for V in inside + [line]:
                    if not s_in:
                        yield outer, SubgroupTriple(0, V)
                        continue
                    if s_out and s_in % s_out == 0:
                        marker = power(GroupElement(outer.v, s_out), s_in // s_out).lamps
                    else:
                        marker = rand_vec(rng, n, p)
                    for moved in (zero, U.gens[0] if U.gens else zero, rand_vec(rng, n, p)):
                        yield outer, SubgroupTriple(s_in, V, marker + moved)


class TestContainmentOracle:
    def test_contains_subgroup_matches_the_geometric_factor(self):
        seen = dict.fromkeys(
            ["in", "out", "not_dividing", "inner_s_0", "outer_s_0", "off_stored", "lamps_out"], 0
        )
        for outer, inner in containment_pairs(6161, 24):
            got = outer.contains_subgroup(inner)
            assert got == geometric_containment(outer, inner), (outer, inner)
            seen["in" if got else "out"] += 1
            seen["not_dividing"] += bool(outer.s and inner.s % outer.s)
            seen["inner_s_0"] += bool(outer.s and not inner.s)
            seen["outer_s_0"] += bool(inner.s and not outer.s)
            seen["off_stored"] += bool(inner.s % outer.lamps.period)
            seen["lamps_out"] += not outer.lamps.contains_submodule(inner.lamps)
        assert all(seen.values()), seen


def rotated_rows(form, s):
    """Coordinates of the rows of ``form`` moved by x^s, rotated in column space.

    With a, b = divmod(s, L), x^s takes column j*n + i at y^q to column
    (j + b)*n + i at y^(q + a), and the columns with j + b >= L wrap to
    column (j + b - L)*n + i at y^(q + a + 1).
    """
    a, b = divmod(s, form.level)
    move, ncols = b * form.n, form.ncols
    for row in form.rows:
        moved = {}
        for (col, q), c in row:
            col += move
            if col < ncols:
                moved[col, q + a] = c
            else:
                moved[col - ncols, q + a + 1] = c
        yield moved


def rotated_row_period(U, s):
    """has_period as the residues of the rotated rows of U's form at its stored period."""
    form = U.form(U.period)
    return s % U.period == 0 or not any(form.residue(row) for row in rotated_rows(form, s))


def redundant_presentation(U, rng):
    """U with two more generators it already holds: a sum of generators
    moved by powers of x^P and a multiple of one by c x^-P + x^P, P the
    stored period."""
    if not U.gens:
        return U
    g, h, P = U.gens[0], U.gens[-1], U.period
    f = LaurentPoly.monomial(U.p, -P, 1 + rng.below(U.p - 1)) + LaurentPoly.monomial(U.p, P)
    extra = [g.shifted(P) + h.shifted(-2 * P), g.scaled(f)]
    return Submodule(U.n, U.p, U.period, U.gens + tuple(extra))


class TestCoordinateMoverOracle:
    """Periods, approach gates and witnesses against the rotated form rows
    and the site-delta sums they were once computed with."""

    @staticmethod
    @functools.cache
    def cases():
        return pinned_grid(4141, 60)

    def test_has_period_matches_rotated_rows(self):
        rng = SplitMix64(4142)
        seen = {"divisor": 0, "other": 0, "redundant": 0}
        for U in self.cases():
            R = redundant_presentation(U, rng)
            assert R.equals(U), U
            for V in (U, R):
                for s in range(1, 2 * V.period + 1):
                    want = rotated_row_period(V, s)
                    assert V.has_period(s) == want, (V, s)
                    seen["divisor" if V.period % s == 0 else "other"] += want
                seen["redundant"] += len(V.gens) > len(V.form(V.period).rows)
        assert all(seen.values()), seen

    def test_gate_residues_match_rotated_rows(self):
        gated = 0
        for U, b, _, _ in approach_cases(8080, 60):
            canon = U.canonical()
            e = canon.period
            form = canon.form(e)
            for d in range(1, 2 * e * b + 1):
                got = [form.residue(_vector_coordinates(g, e, d)) for g in canon.gens]
                assert got == [form.residue(row) for row in rotated_rows(form, d)], (U, d)
                gated += any(got)
        assert gated > 0

    def test_witnesses_match_the_site_delta_sum(self, monkeypatch):
        digits = []

        def recorded(*args):
            digits.append(_least_difference(*args))
            return digits[-1]

        monkeypatch.setattr(lamplighter, "_least_difference", recorded)
        rng = SplitMix64(4143)
        failures = 0
        for _ in range(24):
            p, radius = (2, 3)[rng.below(2)], 1 + rng.below(2)
            s = rng.below(3)

            def triple():
                U = Submodule(2, p, max(s, 1), [rand_vec(rng, 2, p)])
                return SubgroupTriple(s, U, rand_vec(rng, 2, p) if s else None)

            limit, terms = triple(), [triple() for _ in range(2)]
            got = certify_convergence(lambda m: terms[m - 1], limit, radius, 1, 2)
            if got.stabilized:
                continue
            basis = (
                delta_site(2, p, site, component=i)
                for i in range(2)
                for site in range(-radius, radius + 1)
            )
            want = sum(
                (v.scaled(c) for v, c in zip(basis, digits[-1]) if c), LaurentVector.zero(2, p)
            )
            assert got.witness.lamps == want, (limit, terms)
            failures += not want.is_zero()
        assert failures > 0


# ---------------------------------------------------------------------------
# Built without checking again: enumerated subgroups come from unchecked
# constructors, and conjugated elements from the closed form of the group
# law.  Each is rebuilt by the validating constructors and by the product
# g * h * g^-1.
# ---------------------------------------------------------------------------


def enumeration_shapes(limit):
    """(p, k, a) with p in {2, 3, 5}, k <= 3 and at most ``limit`` subgroups
    of codimension a."""
    for p in (2, 3, 5):
        for k in (1, 2, 3):
            a = 0
            while count_submodules(p, k, a) <= limit:
                yield p, k, a
                a += 1


class TestEnumerationOracle:
    def test_enumerated_subgroups_pass_the_validating_constructors(self):
        shapes = list(enumeration_shapes(2000))
        assert len(shapes) == 47
        for p, k, a in shapes:
            subs = submodules_of_codimension(p, k, a)
            assert len(subs) == count_submodules(p, k, a)
            for U in subs:
                V = Submodule(k, p, 1, U.gens)
                assert (V.n, V.p, V.period, V.gens) == (U.n, U.p, U.period, U.gens), (p, k, a, U.gens)
                assert (U.n, U.p, U.period, len(U.gens)) == (k, p, 1, k)
                assert [LaurentVector(p, g.coords) for g in U.gens] == list(U.gens)


def seeded_element(rng, n, p):
    return GroupElement(rand_vec(rng, n, p, lo=-4, hi=4), rng.below(11) - 5)


class TestConjugateElementOracle:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_the_group_product(self, n, p):
        rng = SplitMix64(5150 + 10 * p + n)
        U = Submodule(n, p, 2, [rand_vec(rng, n, p)])
        ball = word_ball(SubgroupTriple(2, U, rand_vec(rng, n, p)), 2)
        pairs = [(g, h) for g in ball[:: max(1, len(ball) // 12)] for h in ball]
        pairs += [(seeded_element(rng, n, p), seeded_element(rng, n, p)) for _ in range(200)]
        moved = 0
        for g, h in pairs:
            got = conjugate_element(g, h)
            assert got == g * h * g.inverse(), (g, h)
            moved += got != h
        assert moved > 0

    def test_refuses_elements_of_different_groups(self):
        with pytest.raises(ContextError):
            conjugate_element(GroupElement.identity(1, 2), GroupElement.identity(2, 2))
        with pytest.raises(ContextError):
            conjugate_element(GroupElement.identity(1, 2), GroupElement.identity(1, 3))


# ---------------------------------------------------------------------------
# Built unchecked from checked parts: every value a ``_raw`` constructor
# makes is rebuilt by its checking constructor, which must return it
# unchanged.
# ---------------------------------------------------------------------------


def assert_rechecked_laurent(f):
    assert type(f.body.coeffs) is tuple
    assert Poly(f.p, f.body.coeffs) == f.body, f
    assert LaurentPoly(f.p, f.offset, Poly(f.p, f.body.coeffs)) == f, f


def assert_rechecked_vector(v):
    assert type(v.coords) is tuple and v.n == len(v.coords)
    for c in v.coords:
        assert_rechecked_laurent(c)
    assert LaurentVector(v.p, v.coords) == v


def assert_rechecked_submodule(U):
    assert type(U.gens) is tuple
    for g in U.gens:
        assert_rechecked_vector(g)
    assert Submodule(U.n, U.p, U.period, U.gens).gens == U.gens


def assert_rechecked_window(ws):
    assert type(ws.rows) is tuple and all(type(r) is tuple for r in ws.rows)
    assert WindowSubgroup(ws.p, ws.n, ws.lo, ws.hi, ws.rows) == ws, ws.rows


def assert_rechecked_element(g):
    assert type(g.shift) is int and (g.n, g.p) == (g.lamps.n, g.lamps.p)
    assert_rechecked_vector(g.lamps)
    assert GroupElement(g.lamps, g.shift) == g


def assert_rechecked_triple(T):
    assert_rechecked_submodule(T.lamps)
    assert_rechecked_vector(T.v)
    fresh = SubgroupTriple(T.s, T.lamps, T.v)
    assert (fresh.n, fresh.p, fresh.s, fresh.v) == (T.n, T.p, T.s, T.v)
    assert fresh.same_subgroup(T)


def assert_rechecked_distribution(d):
    den, nums = d._ints
    assert list(nums) == list(d.atoms)
    assert all(type(c) is int and c > 0 for c in nums.values()) and sum(nums.values()) == den
    assert all(d.atoms[ws] == Fraction(c, den) for ws, c in nums.items())
    fresh = WindowDistribution(d.p, d.n, d.lo, d.hi, d.atoms)
    assert fresh == d and list(fresh.atoms) == list(d.atoms)
    for ws in d.atoms:
        assert_rechecked_window(ws)


def orbit_measure(U):
    """The even mixture of U's shifts x^k U, k below its minimal period: a
    shift-invariant measure."""
    e = U.minimal_period()
    return SubgroupMeasure.mixture([(Fraction(1, e), U.shifted(k)) for k in range(e)])


# ---------------------------------------------------------------------------
# Exact window laws in Fraction arithmetic: the mixture marginal, the phase
# laws, their average mu_m and the distance, as computed before they were
# summed on integer numerators.  Sums of window subgroups go through
# ``sum_with``, which row-reduces.
# ---------------------------------------------------------------------------


def fraction_mixture_marginal(mu, lo, hi):
    out = {}
    for w, U in mu.atoms:
        ws = window_of_submodule(U, lo, hi)
        out[ws] = out.get(ws, Fraction(0)) + w
    n, p = mu.atoms[0][1].n, mu.atoms[0][1].p
    return WindowDistribution(p, n, lo, hi, out)


def fraction_phase_law(mu, m, k, lo, hi):
    bounds = [max(lo, start) for start in _block_starts(m, lo, hi, k)] + [hi + 1]
    law, *runs = (
        {ws.transported(a).embedded(lo, hi): q for ws, q in mu.marginal(0, b - a - 1).atoms.items()}
        for a, b in zip(bounds, bounds[1:])
    )
    for run in runs:
        sums = {}
        for ws1, p1 in law.items():
            for ws2, p2 in run.items():
                combined = sum_with(ws1, ws2)
                sums[combined] = sums.get(combined, 0) + p1 * p2
        law = sums
    return law


def fraction_block_average_marginal(mu, m, lo, hi):
    p, n = _check_block_window(mu, m, lo, hi, hi - lo + 1)
    cut = {-c % m for c in range(lo + 1, hi + 1)}
    terms = [(Fraction(1, m), fraction_phase_law(mu, m, k, lo, hi)) for k in cut]
    if len(cut) < m:
        terms.append((Fraction(m - len(cut), m), fraction_phase_law(mu, m, -lo % m, lo, hi)))
    bits = (m * lcm(*(q.denominator for _, law in terms for q in law.values()))).bit_length()
    if bits > PRINTABLE_BITS:
        raise ResourceBudgetError(
            f"mu_m on [{lo}, {hi}] for an m of {m.bit_length()} bits with denominator bits",
            bits,
            PRINTABLE_BITS,
        )
    out = {}
    for weight, law in terms:
        for ws, prob in law.items():
            out[ws] = out.get(ws, Fraction(0)) + weight * prob
    return WindowDistribution(p, n, lo, hi, out)


def fraction_tv_distance(d1, d2):
    atoms1, atoms2 = d1.atoms, d2.atoms
    keys = set(atoms1) | set(atoms2)
    return sum((abs(atoms1.get(k, 0) - atoms2.get(k, 0)) for k in keys), Fraction(0))


def checked_copy(mu):
    """mu with every marginal rebuilt by the checking constructor, so the
    laws read integer weights taken from Fractions, not from a mixture."""
    def marginal(lo, hi):
        d = mu.marginal(lo, hi)
        return WindowDistribution(d.p, d.n, d.lo, d.hi, d.atoms)

    return SubgroupMeasure(marginal, mu.invariant)


def law_measures():
    """The ``_measure_grid(7)`` measures, orbit measures of seeded subgroups
    with n <= 2, and a checked copy of one of each."""
    grid = [(f"grid-{name}", mu) for name, mu in _measure_grid(7)]
    orbits = [
        (f"orbit-{i}", orbit_measure(U)) for i, U in enumerate(pinned_grid(7171, 24)) if U.n <= 2
    ]
    checked = [("checked-grid", checked_copy(grid[3][1])), ("checked-orbit", checked_copy(orbits[0][1]))]
    return grid + orbits + checked


# windows of one to four sites; the m grid runs past each width
LAW_WINDOWS = [(0, 0), (-1, 1), (2, 4), (-3, 0)]
LAW_MS = [*range(1, 9), 1000]


def items_of(law, den=1):
    return [(ws, Fraction(c, den)) for ws, c in law.items()]


class TestIntegerWeightOracle:
    def test_mixture_marginals(self):
        for name, mu in law_measures():
            if mu.atoms is None:
                continue
            for lo, hi in LAW_WINDOWS:
                got, ref = mu.marginal(lo, hi), fraction_mixture_marginal(mu, lo, hi)
                assert list(got.atoms.items()) == list(ref.atoms.items()), (name, lo, hi)

    def test_phase_laws_and_block_average_marginals(self):
        cases = 0
        for name, mu in law_measures():
            for lo, hi in LAW_WINDOWS:
                for m in LAW_MS:
                    for k in sorted({0, 1 % m, (lo + 1) % m, m - 1}):
                        den, law = _phase_law(mu, m, k, lo, hi)
                        ref = fraction_phase_law(mu, m, k, lo, hi)
                        assert items_of(law, den) == list(ref.items()), (name, m, k, lo, hi)
                        got = block_shift_term_marginal(mu, m, k, lo, hi)
                        assert list(got.atoms.items()) == list(ref.items())
                    got = block_average_marginal(mu, m, lo, hi)
                    ref = fraction_block_average_marginal(mu, m, lo, hi)
                    assert list(got.atoms.items()) == list(ref.atoms.items()), (name, m, lo, hi)
                    target = mu.marginal(lo, hi)
                    assert tv_distance(got, target) == fraction_tv_distance(ref, target)
                    cases += 1
        assert cases > 300

    def test_distances_between_measures(self):
        rng = SplitMix64(7272)
        by_window = {}
        for _, mu in law_measures():
            for lo, hi in LAW_WINDOWS:
                d = mu.marginal(lo, hi)
                by_window.setdefault((d.p, d.n, lo, hi), []).append(d)
                # a checked distribution over a seeded denominator, on the same atoms
                weights = [1 + rng.below(5) for _ in d.atoms]
                atoms = {ws: Fraction(w, sum(weights)) for ws, w in zip(d.atoms, weights)}
                by_window[d.p, d.n, lo, hi].append(WindowDistribution(d.p, d.n, lo, hi, atoms))
        pairs = 0
        for dists in by_window.values():
            for d1 in dists:
                for d2 in dists:
                    got = tv_distance(d1, d2)
                    assert type(got) is Fraction and got == fraction_tv_distance(d1, d2)
                    pairs += got != 0
        assert pairs > 100

    def test_the_bit_budget_reads_reduced_denominators(self):
        # The run marginals of the second measure have probabilities 1/2
        # over its weights' denominator 4, so its laws' reduced denominators
        # are those of the even mixture; the first m is at the budget on
        # [0, 1] (probabilities over 4m), the second past it.
        P2 = 2
        full, zero = Submodule.full(1, P2), Submodule.zero(1, P2)
        quarters = SubgroupMeasure.mixture(
            [(Fraction(1, 4), full), (Fraction(1, 4), full.shifted(1)), (Fraction(1, 2), zero)]
        )
        even = SubgroupMeasure.mixture([(Fraction(1, 2), full), (Fraction(1, 2), zero)])
        largest = 2**14281 - 1
        for mu in (even, quarters):
            got = block_average_marginal(mu, largest, 0, 1)
            ref = fraction_block_average_marginal(mu, largest, 0, 1)
            assert list(got.atoms.items()) == list(ref.atoms.items())
            with pytest.raises(ResourceBudgetError) as raised:
                block_average_marginal(mu, largest + 1, 0, 1)
            with pytest.raises(ResourceBudgetError) as expected:
                fraction_block_average_marginal(mu, largest + 1, 0, 1)
            assert str(raised.value) == str(expected.value)
            assert "denominator bits 14284 exceeds the budget 14283" in str(raised.value)


class TestUncheckedConstructionOracle:
    def test_column_bodies_and_vectors(self):
        rng = SplitMix64(6161)
        for _ in range(300):
            p, n, level = (2, 3, 5, 7)[rng.below(4)], 1 + rng.below(3), 1 + rng.below(4)
            terms = {rng.below(9) - 4: 1 + rng.below(p - 1) for _ in range(1 + rng.below(4))}
            f = LaurentPoly._raw(p, *_body(terms, p))
            assert_rechecked_laurent(f)
            assert dict(f.terms()) == terms
            coords = {
                (rng.below(n * level), rng.below(7) - 3): 1 + rng.below(p - 1)
                for _ in range(rng.below(6))
            }
            v = _vector_at(coords, n, level, p)
            assert_rechecked_vector(v)
            assert _vector_coordinates(v, level) == coords

    def test_vector_operations(self):
        rng = SplitMix64(6262)
        for _ in range(200):
            p, n = (2, 3, 5, 7)[rng.below(4)], 1 + rng.below(3)
            a, b = rand_vec(rng, n, p), rand_vec(rng, n, p)
            f = Poly(p, [rng.below(p) for _ in range(rng.below(4))])
            F = LaurentPoly(p, rng.below(5) - 2, f)
            c, k = rng.below(3 * p) - p, rng.below(9) - 4
            for v in (a + b, a - b, a - a, -a, a.scaled(c), a.scaled(f), a.scaled(F), a.shifted(k)):
                assert_rechecked_vector(v)

    def test_canonical_shifted_and_reperiodized_subgroups(self):
        for U in pinned_grid(6363, 60):
            canon = U.canonical()
            assert_rechecked_submodule(canon)
            assert canon.equals(U)
            for k in (-3, 1, 4):
                assert_rechecked_submodule(U.shifted(k))
            assert_rechecked_submodule(U.with_period(2 * U.period))
            assert_rechecked_submodule(canon.with_period(3 * canon.period))
            assert_rechecked_vector(U.reduce_vector(U.gens[0].shifted(1) if U.gens else
                                                    LaurentVector.zero(U.n, U.p)))

    def test_window_operations(self):
        rng = SplitMix64(6464)
        for U in pinned_grid(6464, 60):
            lo = rng.below(5) - 2
            hi = lo + rng.below(4)
            ws = window_of_submodule(U, lo, hi)
            assert_rechecked_window(ws)
            for a in range(lo, hi + 1):
                for b in range(a, hi + 1):
                    assert_rechecked_window(ws.project(a, b))
            sites = [s for s in range(lo, hi + 1) if rng.below(2)]
            assert_rechecked_window(ws.intersect_sites(sites))
            assert_rechecked_window(ws.embedded(lo - rng.below(2), hi + rng.below(3)))
            assert_rechecked_window(ws.transported(rng.below(9) - 4))

    def test_block_pieces_and_marginal_atoms(self):
        checked = 0
        for U in pinned_grid(6565, 40):
            if U.n > 2:
                continue
            mu = orbit_measure(U)
            for m in (1, 2, 3):
                block_law = mu.marginal(0, m - 1)
                for k in range(m):
                    for column in _block_pieces(block_law, m, -1, 2, k):
                        for ws in column:
                            assert_rechecked_window(ws)
                for ws in block_average_marginal(mu, m, -1, 1).atoms:
                    assert_rechecked_window(ws)
                    checked += 1
        assert checked > 100

    def test_window_distributions(self):
        checked = 0
        for _, mu in law_measures():
            for lo, hi in LAW_WINDOWS:
                assert_rechecked_distribution(mu.marginal(lo, hi))
                for m in (1, 2, 3, 5, 1000):
                    for k in {0, 1 % m, m - 1}:
                        assert_rechecked_distribution(block_shift_term_marginal(mu, m, k, lo, hi))
                    assert_rechecked_distribution(block_average_marginal(mu, m, lo, hi))
                    checked += 1
        assert checked > 100

    def test_points_pushforwards_and_empirical_laws(self):
        checked = 0
        for _, mu in law_measures():
            d = mu.marginal(-1, 1)
            for ws in d.atoms:
                assert_rechecked_distribution(WindowDistribution.point(ws))
            for lo, hi in ((-1, 1), (-1, 0), (0, 1), (1, 1)):
                assert_rechecked_distribution(d.project(lo, hi))
            assert_rechecked_distribution(d.transported(4))
            centre = d.map_support(lambda ws: ws.project(0, 0).embedded(-1, 1), -1, 1)
            assert_rechecked_distribution(centre)
            counts = {ws: i for i, ws in enumerate(d.atoms)}  # the first count is 0
            if len(counts) > 1:
                law = empirical_distribution(d.p, d.n, -1, 1, counts, sum(counts.values()))
                assert_rechecked_distribution(law)
            if mu.invariant:
                assert_rechecked_distribution(sampler_law_report(mu, 2, -1, 1, 40, 5)["empirical"])
                checked += 1
        assert checked > 20

    def test_group_elements(self):
        # products, inverses, powers and conjugates are built unchecked
        rng = SplitMix64(6868)
        for _ in range(150):
            p, n = (2, 3, 5, 7)[rng.below(4)], 1 + rng.below(3)
            g, h = (GroupElement(rand_vec(rng, n, p), rng.below(9) - 4) for _ in range(2))
            for x in (g * h, g.inverse(), conjugate_element(g, h)):
                assert_rechecked_element(x)
            for k in (-3, -1, 0, 1, 2, 5):
                assert_rechecked_element(power(g, k))

    def test_canonical_and_conjugated_triples(self):
        rng = SplitMix64(6969)
        checked = 0
        for U in pinned_grid(6969, 40):
            e = U.minimal_period()
            for s in (0, e, 2 * e):
                T = SubgroupTriple(s, U, rand_vec(rng, U.n, U.p) if s else None)
                g = GroupElement(rand_vec(rng, U.n, U.p), rng.below(9) - 4)
                for V in (T.canonical(), T.conjugated(g)):
                    assert_rechecked_triple(V)
                    checked += V.s > 0
        assert checked > 50

    def test_mixtures_of_laws(self):
        # the checking constructor returns what ``_raw`` builds from its sums
        checked = 0
        laws = [mu.marginal(-1, 1) for _, mu in law_measures()]
        for a, b in itertools.combinations(laws, 2):
            if (a.p, a.n) == (b.p, b.n):
                assert_rechecked_distribution(a.mixed_with(b, Fraction(1, 3), Fraction(2, 3)))
                checked += 1
        assert checked > 10

    def test_disjoint_site_sums(self):
        # Contiguous runs, as the phase laws and block pieces sum them, and
        # seeded masks, as ``_spliced`` interleaves two subgroups' sites.
        rng = SplitMix64(6767)
        groups = {}
        for U in pinned_grid(6767, 80):
            if U.n <= 2:
                groups.setdefault((U.n, U.p), []).append(U)
        reordered = 0
        for U, V in (pair for grid in groups.values() for pair in zip(grid, grid[1:])):
            lo = rng.below(5) - 2
            hi = lo + 1 + rng.below(4)
            ws1, ws2 = window_of_submodule(U, lo, hi), window_of_submodule(V, lo, hi)
            sites = range(lo, hi + 1)
            cut = lo + 1 + rng.below(hi - lo)
            masks = [[s < cut for s in sites]]
            masks += [[rng.below(2) == 1 for _ in sites] for _ in range(6)]
            for mask in masks:
                first = [s for s, bit in zip(sites, mask) if bit]
                second = [s for s, bit in zip(sites, mask) if not bit]
                a, b = ws1.intersect_sites(first), ws2.intersect_sites(second)
                got = _direct_sum(a, b)
                assert_rechecked_window(got)
                assert got == sum_with(a, b) == _direct_sum(b, a), (mask, a.rows, b.rows)
                reordered += got.rows != a.rows + b.rows
        assert reordered > 20

    def test_spliced_atoms(self):
        groups = {}
        for U in pinned_grid(6666, 60):
            if U.n <= 2:
                groups.setdefault((U.n, U.p), []).append(U)
        checked = 0
        for U, V in (pair for grid in groups.values() for pair in zip(grid, grid[1:])):
            mu1, mu2 = orbit_measure(U), orbit_measure(V)
            lo, hi = -1, 1
            for ws1 in mu1.marginal(lo, hi).atoms:
                for ws2 in mu2.marginal(lo, hi).atoms:
                    for mask in range(8):
                        assert_rechecked_window(_spliced(ws1, ws2, mask))
                        checked += 1
            empirical, _, _ = splice_measures(mu1, mu2, 5, lo, hi, 50, 17)
            for ws in empirical.atoms:
                assert_rechecked_window(ws)
        assert checked > 100


# ---------------------------------------------------------------------------
# One stored form of a window law: integer numerators over one denominator.
# ---------------------------------------------------------------------------


class TestStoredWindowLaw:
    def unreduced(self):
        """The mu_m marginal at m = 4 of the even mixture of F_2[x^±] and 0,
        its first atom written twice with weight 1/4: its run marginals are
        over 4, so the law is 28, 4, 4, 28 over 64, not in lowest terms."""
        full, zero = Submodule.full(1, 2), Submodule.zero(1, 2)
        quarters = SubgroupMeasure.mixture(
            [(Fraction(1, 4), full), (Fraction(1, 4), full.shifted(1)), (Fraction(1, 2), zero)]
        )
        return block_average_marginal(quarters, 4, 0, 1)

    def test_the_table_is_in_lowest_terms(self):
        d = self.unreduced()
        den, nums = d._ints
        assert gcd(den, *nums.values()) > 1
        fresh = WindowDistribution(d.p, d.n, d.lo, d.hi, d.atoms)
        assert fresh._ints[0] < den and gcd(*fresh._ints[1].values(), fresh._ints[0]) == 1
        assert d._table() == fresh._table()
        assert d._table()[0] == fresh._ints[0]
        assert d.ordered_atoms() == tuple(ws for ws, _ in d.sorted_items())

    def test_equal_laws_over_different_denominators(self):
        d = self.unreduced()
        den, nums = d._ints
        fresh = WindowDistribution(d.p, d.n, d.lo, d.hi, d.atoms)
        tripled = {ws: 3 * c for ws, c in nums.items()}
        tripled = WindowDistribution._raw(d.p, d.n, d.lo, d.hi, 3 * den, tripled)
        assert fresh._ints[0] != den != tripled._ints[0]
        assert d == fresh == tripled and tripled == d
        first, second, *_ = nums
        moved = dict(nums)
        moved[first] += 1
        moved[second] -= 1
        assert d != WindowDistribution._raw(d.p, d.n, d.lo, d.hi, den, moved)
        assert d != d.transported(1)

    def test_the_atoms_view_keeps_the_numerators_order(self):
        d = self.unreduced()
        den, nums = d._ints
        first, *rest = d.ordered_atoms()
        rotated = {ws: nums[ws] for ws in [*rest, first]}
        law = WindowDistribution._raw(d.p, d.n, d.lo, d.hi, den, rotated)
        assert list(law.atoms) == list(rotated) != list(law.ordered_atoms())
        assert list(law.atoms.values()) == [Fraction(c, den) for c in rotated.values()]
        assert law == d

    def test_no_fraction_is_made_until_a_probability_is_read(self, monkeypatch):
        made = []

        class CountingFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                made.append(args)
                return super().__new__(cls, *args, **kwargs)

        mu = orbit_measure(pinned_grid(7474, 1)[0])
        even = SubgroupMeasure.mixture(
            [(Fraction(1, 2), Submodule.full(1, 2)), (Fraction(1, 2), Submodule.zero(1, 2))]
        )
        monkeypatch.setattr(irs, "Fraction", CountingFraction)
        laws = [mu.marginal(-1, 1), even.marginal(0, 2)]
        for measure in (mu, even):
            _phase_law(measure, 3, 1, 0, 2)
            laws.append(block_average_marginal(measure, 5, 0, 1))
        laws += [law.project(0, 0) for law in laws] + [law.transported(3) for law in laws]
        for law in laws:
            law._table()
        assert made == []
        target = even.marginal(0, 1)
        assert tv_distance(laws[-1].transported(0), target) == Fraction(1, 5)
        assert len(made) == 1
        atoms = laws[2].atoms
        assert len(made) == 1 + len(atoms)
        assert laws[2].atoms[next(iter(atoms))] > 0
        assert len(made) == 1 + 2 * len(atoms)


# ---------------------------------------------------------------------------
# The intersection of a row span with a coordinate subspace, as computed
# when the restored rows were row-reduced once more.
# ---------------------------------------------------------------------------


def rereduced_span_intersect_coordinates(rref_rows, keep_cols, p, ncols):
    if not rref_rows:
        return ()
    keep = set(keep_cols)
    order = [j for j in range(ncols) if j not in keep] + list(keep_cols)
    permuted = [[row[j] for j in order] for row in rref_rows]
    red, _ = rref(permuted, p)
    n_out = ncols - len(keep)
    inside = [row for row in red if not any(row[:n_out])]
    inv = [0] * ncols
    for pos, j in enumerate(order):
        inv[j] = pos
    restored = [tuple(row[inv[j]] for j in range(ncols)) for row in inside]
    return rref(restored, p)[0]


class TestSpanIntersectOracle:
    def test_matches_the_rereducing_version(self):
        rng = SplitMix64(7575)
        proper = 0
        for _ in range(20000):
            p, ncols = (2, 3, 5, 7)[rng.below(4)], 1 + rng.below(9)
            rows = [[rng.below(p) for _ in range(ncols)] for _ in range(rng.below(ncols + 1))]
            rows = rref(rows, p)[0]
            keep = [j for j in range(ncols) if rng.below(3)]
            got = span_intersect_coordinates(rows, keep, p, ncols)
            ref = rereduced_span_intersect_coordinates(rows, keep, p, ncols)
            assert got == ref, (p, rows, keep)
            proper += 0 < len(got) < len(rows)
        assert proper > 2000
