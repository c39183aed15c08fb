"""Exact finite-window calculus for shift-invariant measures on lamp subgroups.

A window [i, j] of sites carries the finite coordinate space F_p^(n*(j-i+1));
subgroups of the window are F_p-subspaces stored in reduced echelon form, so
each subgroup has one representative.  A measure on subgroups of the lamp
group is handled purely through its window marginals, which are exact
finitely supported rational distributions.

The ergodic approximants mu_m lay independent blocks of length m side by
side with a uniformly random phase.  A phase cuts a window into runs that
carry mu's marginals, so mu_m's marginals, stationarity and distance to mu
are computed exactly from marginals no wider than the window, whatever m
is.  A law is stored once, as integer numerators over one denominator,
and summed on them; a Fraction is made only where a probability is read.
A sum of subgroups on disjoint sets of sites merges their rows by pivot,
with no row reduction.  The distance report, with its bounds 2j/m and
2(j+1)/m on a window of j + 1 sites, and its trend in m, which is C_W/m
from the window width on, are stated here and nowhere else.  Monte Carlo
appears only in the seeded samplers, with explicit statistical
tolerances; the mu_m sampler draws whole blocks of length m.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, compress, repeat
from math import comb, gcd, lcm
from operator import ge, mod

from .algebra import Frozen, _set, check_prime
from .errors import ContextError, DomainError, ResourceBudgetError
from .fplinalg import rref, right_nullspace, span_intersect_coordinates
from .rng import (
    SplitMix64,
    StreamBatches,
    below_limit,
    derive_seed,
    int_to_words,
    popcount_lanes,
    word_lanes,
    words_to_int,
)
from .submodules import PRINTABLE_BITS

WINDOW_DIM_BUDGET = 24  # exact marginals stay finitely supported well past this
# Largest majority length n_ai: the denominator 2^n_ai of the exact majority
# measure must print in Python's default 4,300-digit int-to-str limit.
MAJORITY_LENGTH_BUDGET = PRINTABLE_BITS
BATCH_WORDS = 4096  # stream words read per batch of Monte Carlo trials
KEY_BITS = 64  # a splice trial's key fills one 64-bit lane


def _leq_with_sqrt_tolerance(value, bound, tol_sq):
    """value <= bound + sqrt(tol_sq), compared exactly in rationals."""
    excess = value - bound
    return excess <= 0 or excess * excess <= tol_sq


def _check_window(lo, hi):
    """Refuse a window [lo, hi] with no site."""
    if hi < lo:
        raise DomainError(f"empty window [{lo}, {hi}]")


def _check_same_window(a, b):
    """Refuse two window subgroups or laws on different windows or lamp groups."""
    if (a.p, a.n, a.lo, a.hi) != (b.p, b.n, b.lo, b.hi):
        raise ContextError(
            f"window mismatch: n={a.n}, p={a.p} on [{a.lo}, {a.hi}] "
            f"and n={b.n}, p={b.p} on [{b.lo}, {b.hi}]"
        )


class WindowSubgroup(Frozen):
    """Subgroup of the window coordinate space, reduced-echelon basis.

    The constructor checks its arguments and always row-reduces, so it
    returns the one representative of the subgroup the rows span.
    :meth:`_raw` is only for rows in that form by construction.
    """

    __slots__ = ("p", "n", "lo", "hi", "rows")

    def __new__(cls, p, n, lo, hi, rows):
        check_prime(p)
        if n < 1:
            raise DomainError(f"lamp rank n must be >= 1, got {n}")
        _check_window(lo, hi)
        rows = tuple(rows)
        dim = n * (hi - lo + 1)
        for r in rows:
            if len(r) != dim:
                raise DomainError("basis row of wrong width")
        return cls._raw(p, n, lo, hi, rref(rows, p)[0])

    @classmethod
    def _raw(cls, p, n, lo, hi, rows):
        """Unchecked: p is prime, n >= 1, lo <= hi, and ``rows`` is the
        reduced row echelon form over F_p, a tuple of tuples of width
        n*(hi - lo + 1), as ``fplinalg.rref`` returns it."""
        obj = object.__new__(cls)
        _set(obj, "p", p)
        _set(obj, "n", n)
        _set(obj, "lo", lo)
        _set(obj, "hi", hi)
        _set(obj, "rows", rows)
        return obj

    @property
    def width(self):
        return self.hi - self.lo + 1

    @property
    def space_dim(self):
        return self.n * self.width

    @property
    def dim(self):
        return len(self.rows)

    @classmethod
    def zero(cls, p, n, lo, hi):
        return cls(p, n, lo, hi, ())

    def key(self):
        return (self.dim, self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, WindowSubgroup)
            and (self.p, self.n, self.lo, self.hi) == (other.p, other.n, other.lo, other.hi)
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.p, self.n, self.lo, self.hi, self.rows))

    def transported(self, new_lo):
        """Same subgroup pattern relabelled to start at ``new_lo``."""
        return WindowSubgroup._raw(self.p, self.n, new_lo, new_lo + self.width - 1, self.rows)

    def project(self, lo, hi):
        """Intersection with the coordinate subspace of the subwindow [lo, hi]."""
        if lo < self.lo or hi > self.hi or hi < lo:
            raise DomainError("subwindow not nested in window")
        start, stop = (lo - self.lo) * self.n, (hi + 1 - self.lo) * self.n
        rows = tuple(r[start:stop] for r in self.intersect_sites(range(lo, hi + 1)).rows)
        return WindowSubgroup._raw(self.p, self.n, lo, hi, rows)

    def intersect_sites(self, sites):
        """Intersection with the span of an arbitrary subset of sites (full width)."""
        keep = [(site - self.lo) * self.n + c for site in sorted(sites) for c in range(self.n)]
        rows = span_intersect_coordinates(self.rows, keep, self.p, self.space_dim)
        return WindowSubgroup._raw(self.p, self.n, self.lo, self.hi, rows)

    def embedded(self, lo, hi):
        """The same subgroup inside a larger window (zero outside)."""
        if lo > self.lo or hi < self.hi:
            raise DomainError("target window must contain the window")
        left = (self.lo - lo) * self.n
        right = (hi - self.hi) * self.n
        rows = tuple((0,) * left + r + (0,) * right for r in self.rows)
        return WindowSubgroup._raw(self.p, self.n, lo, hi, rows)


def _direct_sum(ws1, ws2):
    """The subgroup ws1 and ws2 generate, ws2 on sites disjoint from ws1's:
    the rows merged by pivot, descending as tuples, are already the RREF."""
    rows = tuple(sorted(ws1.rows + ws2.rows, reverse=True))
    return WindowSubgroup._raw(ws1.p, ws1.n, ws1.lo, ws1.hi, rows)


class WindowDistribution(Frozen):
    """Exact finitely supported distribution over window subgroups.

    Stored once, as ``_ints = (den, {ws: num})``: positive integer numerators
    over one denominator, not always in lowest terms.  Fractions are made
    only where a probability is read (``atoms``, ``sorted_items``).
    """

    __slots__ = ("p", "n", "lo", "hi", "_ints")

    def __new__(cls, p, n, lo, hi, atoms):
        target = WindowSubgroup._raw(p, n, lo, hi, ())
        merged = {}
        for ws, prob in atoms.items():
            prob = Fraction(prob)
            if prob < 0:
                raise DomainError("negative probability")
            if prob == 0:
                continue
            _check_same_window(ws, target)
            merged[ws] = merged.get(ws, Fraction(0)) + prob
        if sum(merged.values(), Fraction(0)) != 1:
            raise DomainError("probabilities must sum to 1")
        den = lcm(*(q.denominator for q in merged.values()))
        nums = {ws: q.numerator * (den // q.denominator) for ws, q in merged.items()}
        return cls._raw(p, n, lo, hi, den, nums)

    @classmethod
    def _raw(cls, p, n, lo, hi, den, nums):
        """Unchecked: ``nums`` {ws: int > 0} on the window sums to ``den``."""
        obj = object.__new__(cls)
        _set(obj, "p", p)
        _set(obj, "n", n)
        _set(obj, "lo", lo)
        _set(obj, "hi", hi)
        _set(obj, "_ints", (den, nums))
        return obj

    @classmethod
    def point(cls, ws):
        return cls._raw(ws.p, ws.n, ws.lo, ws.hi, 1, {ws: 1})

    @property
    def atoms(self):
        """{ws: probability}, as Fractions in ``_ints`` order."""
        den, nums = self._ints
        return {ws: Fraction(num, den) for ws, num in nums.items()}

    def sorted_items(self):
        return sorted(self.atoms.items(), key=lambda kv: kv[0].key())

    def map_support(self, fn, lo, hi):
        den, nums = self._ints
        target = WindowSubgroup._raw(self.p, self.n, lo, hi, ())
        out = {}
        for ws, num in nums.items():
            img = fn(ws)
            _check_same_window(img, target)
            out[img] = out.get(img, 0) + num
        return WindowDistribution._raw(self.p, self.n, lo, hi, den, out)

    def project(self, lo, hi):
        """Exact pushforward under intersection with a nested subwindow."""
        return self.map_support(lambda ws: ws.project(lo, hi), lo, hi)

    def transported(self, new_lo):
        return self.map_support(
            lambda ws: ws.transported(new_lo), new_lo, new_lo + self.hi - self.lo
        )

    def mixed_with(self, other, weight_self, weight_other):
        _check_same_window(self, other)
        out = {ws: prob * weight_self for ws, prob in self.atoms.items()}
        for ws, prob in other.atoms.items():
            out[ws] = out.get(ws, 0) + prob * weight_other
        return WindowDistribution(self.p, self.n, self.lo, self.hi, out)

    def __eq__(self, other):
        """Equal laws on one window have one table: lowest terms, sorted atoms."""
        return (
            isinstance(other, WindowDistribution)
            and (self.p, self.n, self.lo, self.hi) == (other.p, other.n, other.lo, other.hi)
            and self._table() == other._table()
        )

    def _table(self):
        """(den, cumulative numerators, atoms): lowest terms, atoms in
        ``sorted_items()`` order, built each time it is read."""
        den, nums = self._ints
        g = gcd(den, *nums.values())
        order = tuple(sorted(nums, key=WindowSubgroup.key))
        return den // g, list(accumulate(nums[ws] // g for ws in order)), order

    def ordered_atoms(self):
        """The atoms in ``sorted_items()`` order, as :func:`_draw_index` numbers them."""
        return self._table()[2]


def _draw_index(table, rng):
    """Exact draw of an atom's position in the order of a law's ``_table()``,
    read from that table.

    Takes one uniform integer below the reduced common denominator of the
    probabilities, also when there is a single atom.
    """
    den, thresholds, _ = table
    return bisect_right(thresholds, rng.below(den))


def tv_distance(d1, d2):
    """L1 distance between two distributions on the same window (exact)."""
    _check_same_window(d1, d2)
    (den1, nums1), (den2, nums2) = d1._ints, d2._ints
    den = lcm(den1, den2)
    s1, s2 = den // den1, den // den2
    keys = nums1.keys() | nums2.keys()
    return Fraction(sum(abs(nums1.get(k, 0) * s1 - nums2.get(k, 0) * s2) for k in keys), den)


# ---------------------------------------------------------------------------
# Measures given by their window marginals.
# ---------------------------------------------------------------------------


def window_of_submodule(U, lo, hi):
    """Exact intersection of a presented subgroup with a site window.

    Membership reduction against the canonical form is F_p-linear, so the
    intersection is the kernel of the residue map on the window space: one
    column per window coordinate, one row per residue coordinate.  The
    columns come from ``Submodule.window_residues``: one start per column
    class, y-steps for the rest.  As x^P U = U for the stored period P, they
    are read on [lo mod P, lo mod P + hi - lo], which has the same rows.  An
    empty window is refused.
    """
    _check_window(lo, hi)
    n, p = U.n, U.p
    if U.is_zero():
        return WindowSubgroup.zero(p, n, lo, hi)
    sites = range(lo % U.period, lo % U.period + hi - lo + 1)
    residues = U.window_residues(sites[0], sites[-1])
    columns = [residues[site, comp] for site in sites for comp in range(n)]
    support = sorted(set().union(*columns))
    matrix = [[col.get(k, 0) for col in columns] for k in support]
    kernel = right_nullspace(matrix, p, len(columns))
    return WindowSubgroup._raw(p, n, lo, hi, kernel)


class SubgroupMeasure:
    """Measure on lamp subgroups accessed through exact window marginals."""

    def __init__(self, marginal_fn, invariant, atoms=None):
        self._marginal_fn = marginal_fn
        self.invariant = invariant
        self.atoms = atoms
        self._cache = {}

    def marginal(self, lo, hi):
        key = (lo, hi)
        if key not in self._cache:
            self._cache[key] = self._marginal_fn(lo, hi)
        return self._cache[key]

    @classmethod
    def point(cls, U):
        return cls.mixture([(1, U)])

    @classmethod
    def mixture(cls, weighted_atoms):
        atoms = tuple((Fraction(w), U) for w, U in weighted_atoms)
        if not atoms:
            raise DomainError("mixture needs at least one atom")
        negative = next((w for w, _ in atoms if w < 0), None)
        if negative is not None:
            raise DomainError(f"mixture weight {negative} is negative")
        if sum((w for w, _ in atoms), Fraction(0)) != 1:
            raise DomainError("mixture weights must sum to 1")
        n, p = atoms[0][1].n, atoms[0][1].p
        odd = next(((U.n, U.p) for _, U in atoms if (U.n, U.p) != (n, p)), None)
        if odd:
            raise ContextError(f"mixture atoms on different lamp groups: (n, p) {(n, p)} and {odd}")
        den = lcm(*(w.denominator for w, _ in atoms))
        # atoms of weight 0 take no part in any marginal, nor in invariance
        nums = [(w.numerator * (den // w.denominator), U) for w, U in atoms if w]

        def marginal(lo, hi):
            out = {}
            for num, U in nums:
                ws = window_of_submodule(U, lo, hi)
                out[ws] = out.get(ws, 0) + num
            return WindowDistribution._raw(p, n, lo, hi, den, out)

        # Invariant when the weighted multiset of atoms is shift-stable.
        weights = {}
        shifted_weights = {}
        for num, U in nums:
            key = U.canonical_key()
            weights[key] = weights.get(key, 0) + num
            key = U.shifted(1).canonical_key()
            shifted_weights[key] = shifted_weights.get(key, 0) + num
        invariant = weights == shifted_weights
        return cls(marginal, invariant, atoms=atoms)


def _block_starts(m, lo, hi, k):
    """First sites of the phase-k blocks of length m that meet [lo, hi]."""
    return range(lo - ((lo + k) % m), hi + 1, m)


def _block_pieces(block_law, m, lo, hi, k):
    """The phase-k block tiling of [lo, hi], one column per block.

    Blocks of length m start at sites congruent to -k mod m.  For each block
    meeting [lo, hi], left to right, the column holds what every atom of
    ``block_law`` (a window-[0, m-1] law), in ``ordered_atoms()`` order,
    puts on the window: its intersection with the block's part of [lo, hi],
    moved onto those sites and embedded in [lo, hi].
    """
    atoms = block_law.ordered_atoms()
    columns = []
    for start in _block_starts(m, lo, hi, k):
        run_lo = max(lo, start)
        run_hi = min(hi, start + m - 1)
        columns.append(
            tuple(
                ws.project(run_lo - start, run_hi - start)
                .transported(run_lo)
                .embedded(lo, hi)
                for ws in atoms
            )
        )
    return columns


def _check_block_window(mu, m, lo, hi, sites):
    """(p, n) of mu, once mu_m is defined and ``sites`` sites fit the budget."""
    if m < 1:
        raise DomainError("m must be >= 1")
    _check_window(lo, hi)
    if not mu.invariant:
        raise DomainError("the block construction requires a shift-invariant measure")
    return _check_window_dim(mu, sites)


def _check_window_dim(mu, sites):
    """(p, n) of mu, read from its one-site marginal, once ``sites`` sites fit
    ``WINDOW_DIM_BUDGET``."""
    site_law = mu.marginal(0, 0)
    dim = site_law.n * sites
    if dim > WINDOW_DIM_BUDGET:
        raise ResourceBudgetError("a window of dimension", dim, WINDOW_DIM_BUDGET)
    return site_law.p, site_law.n


def _phase_law(mu, m, k, lo, hi):
    """Law on [lo, hi], as (den, {ws: num}), of the phase-k block tiling of mu_m.

    Its blocks cut [lo, hi] into runs and are independent: the law is the
    independent sum of mu's run marginals, each moved onto its run, over
    the product of their denominators.  Distinct atoms of the runs have
    distinct direct sums, so no two products fall on one atom.
    """
    bounds = [max(lo, start) for start in _block_starts(m, lo, hi, k)] + [hi + 1]
    (den, law), *runs = (
        (run_den, {ws.transported(a).embedded(lo, hi): num for ws, num in nums.items()})
        for a, b in zip(bounds, bounds[1:])
        for run_den, nums in [mu.marginal(0, b - a - 1)._ints]
    )
    for run_den, run in runs:
        den *= run_den
        law = {_direct_sum(ws1, ws2): c1 * c2 for ws1, c1 in law.items() for ws2, c2 in run.items()}
    return den, law


def block_shift_term_marginal(mu, m, k, lo, hi):
    """Window marginal of the phase-k term of mu_m, blocks starting at sites -k mod m."""
    if not 0 <= k < m:
        raise DomainError("shift class k must satisfy 0 <= k < m")
    p, n = _check_block_window(mu, m, lo, hi, hi - lo + 1)
    return WindowDistribution._raw(p, n, lo, hi, *_phase_law(mu, m, k, lo, hi))


def block_average_marginal(mu, m, lo, hi):
    """Exact window marginal of the shift-averaged block measure mu_m.

    Phase k starts blocks at the sites c = -k mod m, so only the phases
    (-c) mod m for c in lo+1..hi cut W = [lo, hi], at most w - 1 of them:

        mu_m|_W = ((m - #cut)/m) mu_W + (1/m) sum over cut phases k of law_k,

    law_k being ``_phase_law``.  This takes O(w) phases whatever m is and
    reads no marginal wider than W.  An m for which m times the common
    reduced denominator of these laws, den / gcd(den, nums) for a law
    num/den, passes ``PRINTABLE_BITS`` bits is refused.
    """
    p, n = _check_block_window(mu, m, lo, hi, hi - lo + 1)
    cut = {-c % m for c in range(lo + 1, hi + 1)}
    terms = [(1, *_phase_law(mu, m, k, lo, hi)) for k in cut]
    if len(cut) < m:  # so m >= w: the phase with a block starting at lo leaves W whole
        terms.append((m - len(cut), *_phase_law(mu, m, -lo % m, lo, hi)))
    bits = (m * lcm(*(den // gcd(den, *law.values()) for _, den, law in terms))).bit_length()
    if bits > PRINTABLE_BITS:
        raise ResourceBudgetError(
            f"mu_m on [{lo}, {hi}] for an m of {m.bit_length()} bits with denominator bits",
            bits,
            PRINTABLE_BITS,
        )
    common = lcm(*(den for _, den, _ in terms))
    out = {}
    for weight, den, law in terms:
        scale = weight * (common // den)
        for ws, num in law.items():
            out[ws] = out.get(ws, 0) + scale * num
    return WindowDistribution._raw(p, n, lo, hi, m * common, out)


def _bound_row(m, j, tv):
    """The row of a distance ``tv`` of mu_m from mu on the window [0, j]: both
    bounds, PASS on the conservative one, and whether the literal one held."""
    literal, conservative = Fraction(2 * j, m), Fraction(2 * (j + 1), m)
    return {
        "m": m,
        "j": j,
        "tv": tv,
        "literal_bound": literal,
        "conservative_bound": conservative,
        "pass": tv <= conservative,
        "literal_bound_held": tv <= literal,
    }


def convergence_report(mu, m, j):
    """Exact distance of the mu_m window-[0, j] marginal from mu's.

    PASS requires the conservative bound 2(j+1)/m; whether the literal
    bound 2j/m also held is reported separately.  The literal bound always
    holds: in ``block_average_marginal`` only the cut phases, at most j of
    them for the j + 1 sites, differ from mu's marginal, each with weight
    1/m and a distance of at most 2, so TV <= 2j/m.  The mu_m marginal
    itself is returned under "marginal".
    """
    approx = block_average_marginal(mu, m, 0, j)
    tv = tv_distance(approx, mu.marginal(0, j))
    return {**_bound_row(m, j, tv), "marginal": approx}


def convergence_trend(mu, report):
    """The rows of the distance's trend in m, made one at a time: one per
    m' = 1, 2, 4, ... below the m of ``report`` (a :func:`convergence_report`),
    then ``report`` itself.

    From the width j + 1 on, each of the j cut phases splits [0, j] at its
    own site, the same for every m', and the other phases leave it whole
    (see ``block_average_marginal``).  So the distance is C_W/m' for one
    rational C_W, and those rows are read off ``report``, with no marginal
    of their own; the rows at m' <= j are full reports.
    """
    m, j = report["m"], report["j"]
    c_w = report["tv"] * m
    step = 1
    while step < m:
        yield convergence_report(mu, step, j) if step <= j else _bound_row(step, j, c_w / step)
        step *= 2
    yield report


def _check_trials(trials):
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")


def _counts_by_subgroup(key_counts, subgroup_of):
    """Merge the counts of integer keys into counts of the subgroups they build.

    Each key is built once; a subgroup takes the place of its first key.
    """
    counts = {}
    for key, count in key_counts.items():
        ws = subgroup_of(key)
        counts[ws] = counts.get(ws, 0) + count
    return counts


def empirical_distribution(p, n, lo, hi, counts, trials):
    return WindowDistribution._raw(p, n, lo, hi, trials, {ws: c for ws, c in counts.items() if c})


def sampler_law_report(mu, m, lo, hi, trials, seed):
    """Empirical law of the seeded sampler against the exact marginal.

    Every trial reads on from one stream, ``SplitMix64(seed)``: first the
    phase k below m, then, left to right, the :func:`_draw_index` in the
    window-[0, m-1] marginal of each block meeting [lo, hi].  Each draw
    reads words until one is below its bound's rejection limit, as
    ``SplitMix64.below`` does.  A trial is counted under the integer
    k + m * sum_j idx_j * a^j, a being the number of block atoms.  After
    the loop each distinct key is summed from the pieces of its phase
    tiling, ``_block_pieces``.  The draws keep the window dimension
    n*max(m, hi-lo+1) within budget, so an m past it is refused before the
    block marginal is built.
    """
    _check_trials(trials)
    _check_block_window(mu, m, lo, hi, max(m, hi - lo + 1))
    block_law = mu.marginal(0, m - 1)
    exact = block_average_marginal(mu, m, lo, hi)
    tilings = [_block_pieces(block_law, m, lo, hi, k) for k in range(m)]
    blocks = [len(tiling) for tiling in tilings]
    den, thresholds, atoms = block_law._table()
    size = len(atoms)
    phase_limit, index_limit = below_limit(m), below_limit(den)
    key_counts = {}
    left = trials
    need = 0  # index words the trial still reads; 0 while it reads its phase
    for u in chain.from_iterable(map(SplitMix64(seed).take, repeat(BATCH_WORDS))):
        if need:
            if u < index_limit:
                key += scale * bisect_right(thresholds, u % den)
                scale *= size
                need -= 1
                if not need:
                    key_counts[key] = key_counts.get(key, 0) + 1
                    left -= 1
                    if not left:
                        break
        elif u < phase_limit:
            key = u % m
            scale = m
            need = blocks[key]

    def subgroup(key):
        key, k = divmod(key, m)
        pieces = []
        for column in tilings[k]:
            key, i = divmod(key, size)
            pieces.append(column[i])
        return reduce(_direct_sum, pieces)

    counts = _counts_by_subgroup(key_counts, subgroup)
    empirical = empirical_distribution(exact.p, exact.n, lo, hi, counts, trials)
    tv = tv_distance(empirical, exact)
    support = len(exact._ints[1])
    # sqrt bound kept exact: compare squares instead of taking roots.
    tolerance_sq = Fraction(9 * support, trials)
    return {
        "trials": trials,
        "tv": tv,
        "support": support,
        "tolerance_sq": tolerance_sq,
        "within_tolerance": _leq_with_sqrt_tolerance(tv, Fraction(0), tolerance_sq),
        "empirical": empirical,
        "exact": exact,
    }


# ---------------------------------------------------------------------------
# Splicing two measures along a random site partition (majority sets).
# ---------------------------------------------------------------------------


def _check_majority_length(n_ai):
    if n_ai < 1 or n_ai % 2 == 0:
        raise DomainError(
            f"n_ai must be a positive odd integer so the majority set has "
            f"measure 1/2, got {n_ai}"
        )
    if n_ai > MAJORITY_LENGTH_BUDGET:
        raise ResourceBudgetError("a majority length n_ai", n_ai, MAJORITY_LENGTH_BUDGET)


def majority_symmetric_difference(n_ai):
    """Exact measure of (majority window) XOR (its shift): central binomial mass."""
    _check_majority_length(n_ai)
    half = (n_ai - 1) // 2
    return Fraction(comb(n_ai - 1, half), 2**n_ai)


def _majority_lanes(n_ai, count):
    """The lane constants of :func:`_majority_masks` for n_ai coins on at
    most count lanes: the :func:`word_lanes` ones and masks, the bias
    2^15 - 1 - n_ai//2 in every lane, and the low n_ai % 64 bits of every
    lane."""
    ones, masks = word_lanes(count)
    return ones, masks, ((1 << 15) - 1 - n_ai // 2) * ones, ((1 << n_ai % 64) - 1) * ones


def _majority_masks(columns, n_ai, width, lanes):
    """Each trial's majority mask, in its lane: bit c is set when coins
    c..c+n_ai-1 hold more ones than zeros.

    ``columns[j]`` holds coin word j of every trial, a 64-bit lane each, and
    ``lanes`` are the :func:`_majority_lanes` constants of n_ai.  Cell 0
    counts the ones of its whole coin words and of the next word's low
    bits; cell c then gains coin c - 1 + n_ai and loses coin c - 1, which is
    in word 0 (``KEY_BITS`` keeps the width below 64).  A count is at most
    n_ai <= ``PRINTABLE_BITS`` < 2^15, so adding the bias sets bit 15
    exactly when it passes half.  A lane of ``ones`` with no trial stays 0.
    """
    ones, masks, bias, partial = lanes
    whole, rest = divmod(n_ai, 64)
    count = sum(popcount_lanes(column, masks) for column in columns[:whole])
    if rest:
        count += popcount_lanes(columns[whole] & partial, masks)
    out = (count + bias) >> 15 & ones
    for cell in range(1, width):
        k = cell - 1 + n_ai
        count += (columns[k >> 6] >> (k & 63) & ones) - (columns[0] >> cell - 1 & ones)
        out |= ((count + bias) >> 15 & ones) << cell
    return out


def _spliced(ws1, ws2, mask):
    """ws1's lamps on the cells whose mask bit is set, ws2's on the others."""
    cells = range(ws1.width)
    first_sites = [ws1.lo + c for c in cells if (mask >> c) & 1]
    second_sites = [ws1.lo + c for c in cells if not (mask >> c) & 1]
    return _direct_sum(ws1.intersect_sites(first_sites), ws2.intersect_sites(second_sites))


def splice_measures(mu1, mu2, n_ai, lo, hi, trials, seed):
    """Empirical law of splicing two subgroup measures along majority sets.

    A site g joins the first part when the fair-coin word on sites
    [g, g + n_ai) has more ones than zeros (n_ai odd, so exactly measure 1/2);
    the spliced subgroup keeps the first sample's lamps on those sites and
    the second sample's lamps elsewhere.  Returns (empirical, target, report)
    where target is the even mixture of the two window marginals.

    Trial t reads its own stream, ``SplitMix64(derive_seed(seed, n_ai, t))``.
    It reads, in this order, the words of the :func:`_draw_index` of the first
    window marginal, then those of the second (one word each, unless a word
    is rejected), then hi - lo + n_ai coins on ceil((hi - lo + n_ai)/64)
    words: coin i, of site lo + i, is bit i % 64 of coin word i // 64.  A
    marginal of one atom draws index 0 from a word it never rejects.
    Trials are counted under the integer (i1 * a2 + i2) * 2^w + majority
    mask, a2 being the number of atoms of the second marginal and w the
    window width; each distinct key is built into its window subgroup once,
    after the loop.

    The trials run in batches of about ``BATCH_WORDS`` stream words, one
    64-bit lane per trial: coin word j of the batch's trials makes one int,
    and their keys are made on those lanes at once (``_majority_masks``).
    A marginal of one atom adds nothing to the keys, so its index words are
    read past, with no index arithmetic.  A trial whose first or second
    word is rejected is replayed on its own stream, its key made on one
    lane.  The lane constants of every batch of a call are built once
    (``StreamBatches``), and nothing is kept from call to call.  An empty
    window, or a window of either measure past ``WINDOW_DIM_BUDGET``, is
    refused before any marginal is read, and keys past ``KEY_BITS`` bits
    before any trial.
    """
    _check_majority_length(n_ai)
    _check_trials(trials)
    _check_window(lo, hi)
    for mu in (mu1, mu2):
        _check_window_dim(mu, hi - lo + 1)
    marg1 = mu1.marginal(lo, hi)
    marg2 = mu2.marginal(lo, hi)
    _check_same_window(marg1, marg2)
    p, n = marg1.p, marg1.n
    width = hi - lo + 1
    tables = marg1._table(), marg2._table()
    (_, _, atoms1), (_, _, atoms2) = tables
    size2 = len(atoms2)
    key_bits = (len(atoms1) * size2 << width).bit_length()
    if key_bits > KEY_BITS:
        raise ResourceBudgetError(f"splice keys on {width} cells with bits", key_bits, KEY_BITS)
    # (word position, den, thresholds, rejection limit, key scale) of each
    # marginal of more than one atom
    draws = [
        (j, den, thresholds, below_limit(den), scale)
        for j, ((den, thresholds, _), scale) in enumerate(zip(tables, (size2, 1)))
        if den > 1
    ]
    coin_words = -(-(width - 1 + n_ai) // 64)
    row = 2 + coin_words  # words per trial: two indices, then the coins
    batch = max(1, BATCH_WORDS // row)
    batches = StreamBatches(row, min(batch, trials))
    lanes, one_lane = _majority_lanes(n_ai, min(batch, trials)), _majority_lanes(n_ai, 1)
    prefix = derive_seed(seed, n_ai)
    key_counts = Counter()
    for first in range(0, trials, batch):
        stream_keys = batches.keys(prefix, range(first, min(first + batch, trials)))
        words = batches.words(stream_keys)
        columns = [words_to_int(words[j::row]) for j in range(2, row)]
        keys = _majority_masks(columns, n_ai, width, lanes)
        drawn = []  # (index words, rejection limit) of each marginal in draws
        for j, den, thresholds, limit, scale in draws:
            us = words[j::row].tolist()
            indices = array("Q", map(bisect_right, repeat(thresholds), map(mod, us, repeat(den))))
            keys += words_to_int(indices) * scale << width
            drawn.append((us, limit))
        keys = int_to_words(keys, len(stream_keys))
        if any(max(us) >= limit for us, limit in drawn):  # a draw was rejected
            rejected = map(any, zip(*(map(ge, us, repeat(limit)) for us, limit in drawn)))
            for t in compress(range(len(keys)), rejected):
                stream = SplitMix64(stream_keys[t])
                i1 = _draw_index(tables[0], stream)
                index = i1 * size2 + _draw_index(tables[1], stream)
                coins = list(stream.take(coin_words))
                keys[t] = index << width | _majority_masks(coins, n_ai, width, one_lane)
        key_counts.update(keys)
    full = (1 << width) - 1

    def spliced(key):
        i1, i2 = divmod(key >> width, size2)
        return _spliced(atoms1[i1], atoms2[i2], key & full)

    counts = _counts_by_subgroup(key_counts, spliced)
    all_first = sum(c for key, c in key_counts.items() if key & full == full)
    all_second = sum(c for key, c in key_counts.items() if not key & full)
    empirical = empirical_distribution(p, n, lo, hi, counts, trials)
    target = marg1.mixed_with(marg2, Fraction(1, 2), Fraction(1, 2))
    tv = tv_distance(empirical, target)
    lambda_first = Fraction(all_first, trials)
    lambda_second = Fraction(all_second, trials)
    defect = 2 * (1 - lambda_first - lambda_second)
    support = len(target._ints[1].keys() | empirical._ints[1].keys())
    tolerance_sq = Fraction(9 * support, trials)
    report = {
        "n_ai": n_ai,
        "trials": trials,
        "tv": tv,
        "lambda_all_first": lambda_first,
        "lambda_all_second": lambda_second,
        "boundary_defect_bound": defect,
        "mc_tolerance_sq": tolerance_sq,
        "within_bound": _leq_with_sqrt_tolerance(tv, defect, tolerance_sq),
        "majority_sym_diff_exact": majority_symmetric_difference(n_ai),
    }
    return empirical, target, report


def majority_invariance_estimate(n_ai, trials, seed):
    """Empirical measure of (majority set) XOR (shifted majority set).

    Every trial reads on from one stream, ``SplitMix64(seed)``: the next
    ceil((n_ai + 1)/64) words, coin c_i being bit i % 64 of word i // 64.
    Of the coins c_0..c_n_ai, the first and last n_ai are the two majority
    words, and the bits past c_n_ai go unused.  Their majorities differ exactly when c_0 != c_n_ai and the
    shared coins c_1..c_(n_ai-1) hold (n_ai - 1)/2 ones.

    The trials run in batches, one 64-bit lane per trial as in
    ``splice_measures``: a hit is a lane whose majority flags of cells 0
    and 1 (``_majority_masks`` on two cells) differ.
    """
    _check_majority_length(n_ai)
    _check_trials(trials)
    stream = SplitMix64(seed)
    row = -(-(n_ai + 1) // 64)  # words per trial
    batch = max(1, BATCH_WORDS // row)
    lanes = _majority_lanes(n_ai, min(batch, trials))
    ones = lanes[0]
    hits = 0
    for first in range(0, trials, batch):
        words = stream.take(min(batch, trials - first) * row)
        columns = [words_to_int(words[j::row]) for j in range(row)]
        flags = _majority_masks(columns, n_ai, 2, lanes)
        hits += ((flags ^ flags >> 1) & ones).bit_count()
    return Fraction(hits, trials)
