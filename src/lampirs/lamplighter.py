"""The lamplighter group on (Z/pZ)^n lamps, its elements and subgroup triples.

A group element is a pair (v, s): a finitely supported lamp configuration
v in R^n together with a mover position s in Z.  Multiplication is
(v, s)(w, t) = (v + x^s w, s + t) and inversion (v, s)^-1 = (-x^-s v, -s).

Shift convention (global, fixed once): multiplying a configuration by x
moves the lamp at site i+1 to site i, so the delta configuration at site k
is the Laurent monomial x^-k.  ``SITE_EXPONENT_SIGN`` records this sign and
``delta_site`` applies it.

A subgroup not inside the lamp group is encoded by a triple (s, U, v):
s generates the image of the projection to Z, U is the intersection with
the lamp group (closed under x^{±s}), and (v, s) is any element hitting s.
For subgroups of the lamp group, s = 0 and v = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .algebra import Frozen, LaurentPoly, _set, check_prime, geometric_series
from .errors import ContextError, DomainError, ResourceBudgetError
from .fplinalg import rref
from .submodules import (
    ENUMERATION_BUDGET,
    SITE_EXPONENT_SIGN,
    LaurentVector,
    _add_scaled,
    _vector_at,
    _vector_coordinates,
    format_vector,
    invariant_report,
)


# Largest ball dimension n(2R+1) certified.  The row reductions grow about
# 6x per doubling: a failing three-term approach sequence is checked at
# dimension 127 in about 0.04 s on a 2-core Xeon, and at dimension 255 in
# about 0.25 s.  The budget also keeps the witness count printable.
BALL_DIM_BUDGET = 128


def delta_site(n, p, site, component=0, value=1):
    """Configuration with a single lamp set at the given site."""
    return LaurentVector.unit(n, p, component, exponent=SITE_EXPONENT_SIGN * site, coeff=value)


def _check_shift(s, name):
    """A mover position or triple shift: an int, never truncated from another
    number."""
    if not isinstance(s, int) or isinstance(s, bool):
        raise DomainError(f"{name} must be an int, got {s!r}")
    return s


class GroupElement(Frozen):
    """Element (lamps, shift) of the lamplighter group."""

    __slots__ = ("n", "p", "lamps", "shift")

    def __new__(cls, lamps, shift):
        return cls._raw(lamps, _check_shift(shift, "shift"))

    @classmethod
    def _raw(cls, lamps, shift):
        """Unchecked: ``lamps`` is a LaurentVector and ``shift`` an int."""
        obj = object.__new__(cls)
        _set(obj, "n", lamps.n)
        _set(obj, "p", lamps.p)
        _set(obj, "lamps", lamps)
        _set(obj, "shift", shift)
        return obj

    @classmethod
    def identity(cls, n, p):
        return cls(LaurentVector.zero(n, p), 0)

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.shift == other.shift
            and self.lamps == other.lamps
        )

    def __hash__(self):
        return hash((self.shift, self.lamps))

    def __mul__(self, other):
        if self.n != other.n or self.p != other.p:
            raise ContextError("elements of different lamplighter groups")
        lamps = self.lamps + other.lamps.shifted(self.shift)
        return GroupElement._raw(lamps, self.shift + other.shift)

    def inverse(self):
        return GroupElement._raw((-self.lamps).shifted(-self.shift), -self.shift)

    def __repr__(self):
        return f"GroupElement({format_vector(self.lamps)}, {self.shift})"


def _geometric_factor(step, k, p):
    """1 + x^step + ... + x^(step(k-1)) as a Laurent polynomial; step != 0, k >= 1."""
    series = LaurentPoly.from_poly(geometric_series(k, abs(step), p))
    return series if step > 0 else series.shifted(step * (k - 1))


def power(g, k):
    """g^k via the closed form (v, s)^k = ((1 + x^s + ... + x^{s(k-1)}) v, k s)."""
    if k == 0:
        return GroupElement.identity(g.n, g.p)
    if k < 0:
        return power(g.inverse(), -k)
    if g.shift == 0:
        return GroupElement._raw(g.lamps.scaled(k % g.p), 0)
    return GroupElement._raw(g.lamps.scaled(_geometric_factor(g.shift, k, g.p)), k * g.shift)


def conjugate_element(g, h):
    """g h g^{-1} by its closed form, which :meth:`SubgroupTriple.conjugated` uses.

    For g = (a, s) and h = (b, t) it is ((1 - x^t) a + x^s b, t): the lamps
    are summed as F_p coordinates at level 1, b's and the second copy of a's
    moved as they are read; no product and no inverse is formed.
    """
    if g.n != h.n or g.p != h.p:
        raise ContextError("elements of different lamplighter groups")
    p, t = g.p, h.shift
    coords = _vector_coordinates(g.lamps, 1)
    _add_scaled(coords, _vector_coordinates(g.lamps, 1, t).items(), -1, p)
    _add_scaled(coords, _vector_coordinates(h.lamps, 1, g.shift).items(), 1, p)
    return GroupElement._raw(_vector_at(coords, g.n, 1, p), t)


class SubgroupTriple(Frozen):
    """Subgroup encoded as (s, U, v); validated on construction."""

    __slots__ = ("n", "p", "s", "lamps", "v")

    def __new__(cls, s, lamps, v=None):
        if _check_shift(s, "s") < 0:
            raise DomainError("s must be >= 0")
        n, p = lamps.n, lamps.p
        check_prime(p)
        if v is None:
            v = LaurentVector.zero(n, p)
        if v.p != p or v.n != n:
            raise ContextError("v from a different ambient module")
        if s == 0 and not v.is_zero():
            raise DomainError("triples with s = 0 must have v = 0")
        if s:
            lamps._check_period(s)
        return cls._raw(s, lamps, v)

    @classmethod
    def _raw(cls, s, lamps, v):
        """Unchecked: s >= 0 is an int, a period of the Submodule ``lamps`` if
        s != 0, and ``v`` a LaurentVector of the same R^n, zero if s = 0."""
        obj = object.__new__(cls)
        _set(obj, "n", lamps.n)
        _set(obj, "p", lamps.p)
        _set(obj, "s", s)
        _set(obj, "lamps", lamps)
        _set(obj, "v", v)
        return obj

    # -- membership and equality ----------------------------------------------

    def contains_element(self, g):
        """Exact membership test for a group element.

        For s | t, (w, t) is a member exactly when w + d_t is in U, d_t the
        lamps of (0, t)(v, s)^(-t/s): the sum of x^u v over u = min(t, 0),
        ..., max(t, 0) - s in steps of s, negated for t > 0.  w and these
        terms are summed as F_p coordinates at U's stored period, each moved
        as it is read; no product and no Laurent polynomial is formed.
        :meth:`CanonicalForm.contains` reduces the sum, walking only its span.
        """
        if g.n != self.n or g.p != self.p:
            raise ContextError("element of a different lamplighter group")
        U = self.lamps
        if self.s == 0:
            return g.shift == 0 and U.contains_vector(g.lamps)
        t = g.shift
        if t % self.s:
            return False
        level, sign = U.period, -1 if t > 0 else 1
        coords = _vector_coordinates(g.lamps, level)
        for u in range(min(t, 0), max(t, 0), self.s):
            _add_scaled(coords, _vector_coordinates(self.v, level, u).items(), sign, self.p)
        return U.form(level).contains(coords)

    def canonical(self):
        """Canonical form: U at its minimal period, v reduced modulo U."""
        U = self.lamps.canonical()
        v = U.reduce_vector(self.v) if self.s else LaurentVector.zero(self.n, self.p)
        return SubgroupTriple._raw(self.s, U, v)

    def same_subgroup(self, other):
        if (self.n, self.p, self.s) != (other.n, other.p, other.s):
            return False
        return self.lamps.equals(other.lamps) and self.lamps.contains_vector(
            self.v - other.v
        )

    def contains_subgroup(self, other):
        """Does this subgroup contain ``other``?  Exact, by the triple criteria.

        Writing self = (s', U', v') and other = (s, U, v): other is generated
        by U and its marker (v, s), so it lies in self exactly when U ⊆ U'
        and, for s != 0, (v, s) is a member of self.  By
        :meth:`contains_element` that is s' | s and
        v ≡ (1 + x^{s'} + ... + x^{s - s'}) v' modulo U'.
        """
        if other.n != self.n or other.p != self.p:
            raise ContextError("subgroups of different lamplighter groups")
        return self.lamps.contains_submodule(other.lamps) and (
            other.s == 0 or self.contains_element(GroupElement._raw(other.v, other.s))
        )

    def conjugated(self, g):
        """The conjugate subgroup g V g^{-1}, canonical.

        Closed form: for g = (w, u) the triple becomes
        (s, x^u U, x^u v + (1 - x^s) w), the lamps of g (v, s) g^{-1} by
        :func:`conjugate_element`, also for s = 0, where v = 0 and
        1 - x^0 = 0.
        """
        if g.n != self.n or g.p != self.p:
            raise ContextError("element of a different lamplighter group")
        new_v = conjugate_element(g, GroupElement._raw(self.v, self.s)).lamps
        return SubgroupTriple._raw(self.s, self.lamps.shifted(g.shift), new_v).canonical()

    def poset_encoding(self):
        """Pair (t, r): shift generator over lamp period, and lamp deficiency."""
        if self.s == 0:
            raise DomainError(
                "s = 0 subgroups live in the perfect kernel and are not encoded"
            )
        report = invariant_report(self.lamps)
        return (self.s // report.e, report.deficiency)

    def invariants(self):
        """(s, e, rk, deficiency, t, r) for reporting."""
        report = invariant_report(self.lamps)
        t = self.s // report.e if self.s else 0
        return {
            "s": self.s,
            "e": report.e,
            "rk": report.rank,
            "r": report.deficiency,
            "t": t,
            "r_encoding": report.deficiency,
        }

    def __repr__(self):
        return (
            f"SubgroupTriple(s={self.s}, gens={len(self.lamps.gens)},"
            f" v={format_vector(self.v)})"
        )


def cylinder_contains(triple, inside, avoid):
    """Basic clopen-set test: all of ``inside`` members, none of ``avoid``."""
    return all(triple.contains_element(g) for g in inside) and not any(
        triple.contains_element(g) for g in avoid
    )


@dataclass
class ConvergenceResult:
    """Outcome of a finite-window convergence certification."""

    stabilized: bool
    index: int | None
    witness: GroupElement | None
    witnesses_checked: int
    horizon: int

    def to_json(self):
        data = {
            "stabilized": self.stabilized,
            "index": self.index,
            "witnesses_checked": self.witnesses_checked,
            "horizon": self.horizon,
        }
        if self.witness is not None:
            data["witness"] = {
                "lamps": format_vector(self.witness.lamps),
                "shift": self.witness.shift,
            }
        return data


def certify_convergence(provider, limit, support_radius, shift_bound, horizon):
    """Membership stabilization on a finite ball of witnesses.

    The witness set is every (w, t) with support(w) within
    [-support_radius, support_radius] and |t| <= shift_bound.  Returns the
    least index m0 <= horizon from which every witness's membership in the
    m-th subgroup agrees with its membership in ``limit``, or a failure
    naming the first witness that still disagrees at the horizon, in the
    order of shifts, then of configuration codes with site -support_radius
    of component 0 as the least significant base-p digit.

    The members of a subgroup at one shift form an affine set of
    configurations, so each subgroup is compared with the limit through one
    canonical key per shift (see ``_member_keys``) and no witness is
    enumerated; ``witnesses_checked`` is the size of the certified ball.
    A key set reads one ``_BallResidues``, the ball's residues under the
    y-action, with no Laurent division per monomial.  The limit's is built
    once, at e(U), which divides s, and its keys, the degree gap and the
    quotient test all read it; keys do not depend on the level.

    Every term is read, and checked to be in the limit's group, first.
    The answer depends only on the last term m that disagrees with the
    limit, so the terms are then decided from a start term down to m, with
    no bisection (disagreement is not monotone in m); a failure is named
    from the keys of term H.  The start is H unless every term is one of an
    approach or vanish sequence toward this limit; then it is the last term
    m_B that the ball's degree gap admits, as every later term agrees with
    the limit on the ball (see ``_gap_start``).  Without such records every
    term from the start down to m is keyed: start - m + 2 key sets with the
    limit's.  With them only the start term is keyed, and if it agrees each
    lower term is decided by ``_QuotientTest`` on the limit's ball, with no
    form of the term built; the first that fails is m.  A term whose
    system the test refuses as too large is keyed instead.  So such a
    certificate makes 2 key sets, 1 when the gap admits no term.
    The witness's digits are written by ``_vector_at`` at level 1, the
    digit c of component i at a site k as the term c x^(-k) of that
    component.

    A ball past the budgets of :func:`ball_size` is refused with
    ``ResourceBudgetError`` before anything is built.
    """
    n, p = limit.n, limit.p
    checked = ball_size(n, p, support_radius, shift_bound, horizon)
    shifts = range(-shift_bound, shift_bound + 1)
    terms = [provider(m) for m in range(1, horizon + 1)]
    if any(triple.n != n or triple.p != p for triple in terms):
        raise ContextError("subgroups of different lamplighter groups")
    ball = _BallResidues(limit, support_radius, limit.lamps.minimal_period(), shifts)
    target = _member_keys(ball)
    records = _matching_records(terms, limit, ball)
    start = _gap_start(records, ball, target) if records else horizon
    quotient = None
    for m in range(start, 0, -1):
        differs = quotient.differs(records[m - 1]) if quotient else None
        if differs is None:
            V = terms[m - 1]
            own = _BallResidues(V, support_radius, gcd(V.lamps.period, V.s), shifts)
            keys = _member_keys(own)
            differs = keys != target
            if records and not (differs or quotient):
                quotient = _QuotientTest(ball, target, own, records[: m - 1])
        if differs:
            break
    else:
        m = 0
    if m < horizon:
        return ConvergenceResult(True, max(1, m + 1), None, checked, horizon)
    t, key, limit_key = next(
        (t, a, b) for t, a, b in zip(shifts, keys, target) if a != b
    )
    digits = _least_difference(key, limit_key, len(ball.columns), p)
    sites = [(i, site) for i in range(n) for site in range(-support_radius, support_radius + 1)]
    coords = {(i, SITE_EXPONENT_SIGN * site): c for (i, site), c in zip(sites, digits) if c}
    lamps = _vector_at(coords, n, 1, p)
    return ConvergenceResult(False, None, GroupElement._raw(lamps, t), checked, horizon)


def _gap_start(records, ball, target):
    """The last term that can disagree with the limit on the ball by the
    degree gap: the last with deg f <= max_j (B_j - sigma_j), or 0.

    ``records`` are the terms' ``_gap`` records as ``_matching_records``
    accepts them: each term is U + f*Q, with f*Q in the free (non-pivot)
    columns of U's form at level e over y = x^e, and sigma_j, for each
    column j that Q's generators fill, is the span of the gcd of their
    entries there.  Such a term has the limit's s and v, so its marker
    lamps d_t are the limit's, and a witness (w, t) tells them apart
    exactly when z = w + d_t is in U + f*Q but not in U.  Then z's residue
    modulo U at e (``ball``) is a nonzero f*q in the free columns, q in Q,
    for any period of Q.  Some entry q_j is nonzero, so j is a column Q
    fills, and q_j lies in the ideal of Q's entries there, so f*q_j spans
    at least deg f + sigma_j in y.  That entry lies in the union of the
    supports of M, the ball's columns, and of r_t, the residue of d_t, in
    column j; with B_j the widest y-span of that union over the member
    shifts t (-1 when the column has no entry), a term agrees with the
    limit on the ball unless deg f <= B_j - sigma_j for some column j it
    fills.  Where the limit has members at t (its key in ``target`` is
    not None), r_t is in the span of M, so inside M's support, and widens
    no B_j: only the other member shifts are walked, and once every
    recorded degree is admitted no further r_t is.  The gap is only a
    bound: below its start the terms are decided by ``_QuotientTest``.
    """
    tops = _tops(records)
    widest = {j: hi - lo for j, (lo, hi) in ball.hull.items()}

    def reach(spans):
        return max((widest[j] - sigma for j, sigma in spans if j in widest), default=-1)

    for k in ball.barren(target):
        if all(reach(spans) >= top for spans, top in tops.items()):
            break
        for j, (lo, hi) in _widened(ball.hull, ball.marker(k)).items():
            widest[j] = max(widest.get(j, -1), hi - lo)
    reaches = {spans: reach(spans) for spans in tops}
    return max((m for m, r in enumerate(records, 1) if r[2].degree <= reaches[r[3]]), default=0)


def _tops(records):
    """The greatest deg f of the ``_gap`` records per spans."""
    tops = {}
    for _, _, f, spans, _ in records:
        tops[spans] = max(tops.get(spans, 0), f.degree)
    return tops


def _matching_records(terms, limit, ball):
    """The ``_gap`` records of the terms, when every term has one naming the
    limit's lamps as U and the level of ``ball`` as e, and has the limit's s
    and v; else None."""
    records = [getattr(V.lamps, "_gap", None) for V in terms]
    if not all(r and V.s == limit.s and V.v == limit.v for r, V in zip(records, terms)):
        return None
    base = (limit.lamps.canonical_key(), ball.form.level)
    if any(r[:2] != base for r in records):
        return None
    return records


def ball_size(n, p, radius, shift_bound, horizon):
    """p^(n(2R+1)) * (2S+1), the witnesses of a ball, refused past the budgets.

    The dimension n(2R+1), the columns of the window's residues in
    ``_member_keys``, may not pass ``BALL_DIM_BUDGET``, nor the keys of
    every shift for the limit and the H subgroups, (2S+1)(H+1), pass
    ``ENUMERATION_BUDGET``.  With p below 2^16 the witness count then has
    at most 16 * 128 + 19 bits and prints within ``PRINTABLE_BITS``.
    """
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    if radius < 0 or shift_bound < 0:
        raise DomainError("support_radius and shift_bound must be >= 0")
    dim = n * (2 * radius + 1)
    if dim > BALL_DIM_BUDGET:
        raise ResourceBudgetError("a ball of dimension", dim, BALL_DIM_BUDGET)
    n_shifts = 2 * shift_bound + 1
    if n_shifts * (horizon + 1) > ENUMERATION_BUDGET:
        raise ResourceBudgetError(
            f"a ball of {n_shifts} shifts keyed for {horizon} subgroups and the limit "
            "with key count",
            n_shifts * (horizon + 1),
            ENUMERATION_BUDGET,
        )
    return p**dim * n_shifts


class _BallResidues:
    """A triple's ball, its residues modulo U's form at ``level``, a period
    of U at which x^s is a power of y: ``columns``, those of the site
    monomials on [-radius, radius] in digit order (see ``_member_keys``),
    from ``Submodule.window_residues``; their ``support`` and its y-hull
    per column, ``hull``; the ``shifts`` and the ``members`` among them,
    s | t (t = 0 when s = 0); and, through :meth:`marker`, those of the
    marker lamps d_k, walked once for the call."""

    __slots__ = ("s", "form", "columns", "support", "hull", "shifts", "members", "_v", "_walked")

    def __init__(self, triple, radius, level, shifts):
        n, s, U = triple.n, triple.s, triple.lamps
        self.s, self.form = s, U.form(level)
        window = U.window_residues(-radius, radius, level)
        self.columns = [window[site, i] for i in range(n) for site in range(-radius, radius + 1)]
        self.support = set().union(*self.columns)
        self.hull = _widened({}, self.support)
        self.shifts = shifts
        self.members = [t for t in shifts if (t % s == 0 if s else t == 0)]
        self._v = tuple(self.form.residue(_vector_coordinates(triple.v, level)).items())
        self._walked = {True: [{}], False: [{}]}

    def marker(self, k):
        """The residue of d_k, the lamps of (0, k*s)(v, s)^(-k), walked out
        from d_0 = 0 by d_(k+1) = x^s d_k - v and d_(k-1) = x^(-s) (d_k + v),
        x^(+-s) being y^(+-s/level) on residues."""
        i, walked, form = abs(k), self._walked[k > 0], self.form
        steps = self.s // form.level
        while len(walked) <= i:
            residue = walked[-1]
            if k > 0:
                residue = _add_scaled(form.y_power(residue, steps), self._v, -1, form.p)
            else:
                residue = form.y_power(_add_scaled(dict(residue), self._v, 1, form.p), -steps)
            walked.append(residue)
        return walked[i]

    def reachable(self):
        """{t: r_t} for the member shifts t, in order, whose residue r_t of
        d_t lies inside ``support``.

        A y-step moves every coordinate one exponent up (or down) and
        subtracts pivot rows only at their own exponents (one lower going
        down), and v stays put.  So a coordinate above every exponent of
        the rows, of v and of ``support`` moves on and is never cleared
        going up, nor one below them all going down, and no further d_k is
        walked.
        """
        ks = {t: t // self.s if self.s else 0 for t in self.members}
        exponents = [exp for row in self.form.rows for (_, exp), _ in row]
        exponents += [exp for (_, exp), _ in self._v] + [exp for _, exp in self.support]
        found, far = {0: {}}, {1: max(ks.values()), -1: min(ks.values())}
        for sign in (1, -1):
            edge = max((sign * exp for exp in exponents), default=0)
            for k in range(sign, far[sign] + sign, sign):
                residue = self.marker(k)
                if any(sign * exp > edge for _, exp in residue):
                    break
                if residue.keys() <= self.support:
                    found[k] = residue
        return {t: found[k] for t, k in ks.items() if k in found}

    def barren(self, target):
        """The k = t/s of the member shifts t where ``target``, the keys of
        the ball's shifts, has none, outward from 0: k > 0 first."""
        s = self.s
        ks = [t // s for t, key in zip(self.shifts, target) if key is None and s and t % s == 0]
        return sorted(ks, key=lambda k: (k < 0, abs(k)))


def _widened(hull, keys):
    """A copy of ``hull``, {column: (least, greatest y-exponent)}, widened
    to the coordinates ``keys``, (column, y-exponent) each."""
    out = dict(hull)
    for j, q in keys:
        lo, hi = out.get(j, (q, q))
        out[j] = (min(lo, q), max(hi, q))
    return out


class _QuotientTest:
    """Does a recorded term U + f*Q disagree with the limit on the ball?
    Decided by one linear system over F_p on the limit's ball residues.

    With M the ball's columns and r_t the residue of the marker lamps d_t,
    both modulo U at level e, the term holds (w, t) exactly when
    M c + r_t = f*q for some q in Q, c the digits of w (see
    ``_gap_start``), and the limit exactly when M c + r_t = 0.  At a member
    shift where the limit has members, M c0 = -r_t, so the term has more
    exactly when f*q is in span(M) for some nonzero q in Q; t = 0 is one
    such shift.  At a member shift where the limit has none, the term has
    some exactly when f*q - r_t is in span(M) for some q in Q.  The entry
    f*q_j lies in the y-hull [a_j, b_j] of column j of supp(M) and of the
    supports of those r_t, and f(0) != 0, so q_j lies in [a_j, b_j - deg f].
    Its coefficients there, in the columns Q fills, are the unknowns.

    An unknown's column is f*y^k in column j reduced modulo span(M), by the
    RREF of M, beside the residue of y^k in column j modulo Q's form at Q's
    stored period; each r_t's column is its reduction beside zeros.  The
    term disagrees exactly when the unknowns' columns are dependent or
    some r_t's column lies in their span.  The system is sized, unknowns
    times coordinates, before its matrix is built, and one past ``bound``,
    the rows of the start term's key reduction (``keyed``, its ball) times
    its widest column count, the ball's digits and member shifts, is not
    built: ``differs`` returns None and the term is keyed.  The r_t are
    read from the ball as the degree gap reads them, and once the hull is
    too wide for any recorded term's system none is built.  The residues
    modulo Q are kept for the call; no form of a term is built.
    """

    __slots__ = ("p", "n", "level", "bound", "_pivots", "_hull", "_targets", "_residues")

    def __init__(self, ball, target, keyed, records):
        """``records``: those of the terms below the start term."""
        p = self.p = ball.form.p
        self.n, self.level = ball.form.n, ball.form.level
        self._residues = {}
        support = sorted(ball.support)
        rows, pivots = rref([[col.get(k, 0) for k in support] for col in ball.columns], p)
        # span(M)'s RREF by pivot coordinate: the row's other entries, negated
        self._pivots = {
            support[c]: tuple((support[j], -a % p) for j, a in enumerate(row) if a and j != c)
            for row, c in zip(rows, pivots)
        }
        self.bound = len(keyed.support) * (len(ball.columns) + len(ball.members))
        self._hull = ball.hull
        tops = _tops(records)
        self._targets = []
        for k in ball.barren(target):
            residue = ball.marker(k)
            self._hull = _widened(self._hull, residue)
            self._targets.append(self._reduced(residue))
            if all(len(self._unknowns(sp, top)) ** 2 > self.bound for sp, top in tops.items()):
                self._targets = None
                return

    def differs(self, record):
        """True or False, or None for a system past ``bound``."""
        _, _, f, spans, Q = record
        if self._targets is None:
            return None
        unknowns = self._unknowns(spans, f.degree)
        count = len(unknowns)
        if not count:
            return False
        if count * count > self.bound:
            return None
        terms = [(i, c) for i, c in enumerate(f.coeffs) if c]
        columns = []
        for j, k in unknowns:
            reduced = self._reduced({(j, k + i): c for i, c in terms})
            column = {(0, key): c for key, c in reduced.items()}
            column.update(((1, key), c) for key, c in self._q_residue(Q, j, k).items())
            columns.append(column)
        columns += [{(0, key): c for key, c in r.items()} for r in self._targets]
        coords = set().union(*columns)
        if len(coords) < count:
            return True
        if count * len(coords) > self.bound:
            return None
        rows, pivots = rref([[col.get(key, 0) for col in columns] for key in coords], self.p)
        if sum(c < count for c in pivots) < count:
            return True
        blocked = [row for row, c in zip(rows, pivots) if c >= count]
        return any(not any(row[j] for row in blocked) for j in range(count, len(columns)))

    def _unknowns(self, spans, degree):
        """(column, y-exponent) of each coefficient of q, in the columns of
        ``spans``, that f*q can hold within the hull for f of ``degree``."""
        hull = self._hull
        return [
            (j, k)
            for j, _ in spans
            if j in hull
            for k in range(hull[j][0], hull[j][1] - degree + 1)
        ]

    def _reduced(self, coords):
        """The coordinates ``coords`` reduced modulo span(M)."""
        out = dict(coords)
        for key, c in coords.items():
            row = self._pivots.get(key)
            if row is not None:
                del out[key]
                _add_scaled(out, row, c, self.p)
        return out

    def _q_residue(self, Q, col, k):
        """The residue modulo Q's form at its stored period L of y^k in
        column ``col`` at level e: x^(k*e + col // n) in component col % n."""
        key = (Q, col, k)
        residue = self._residues.get(key)
        if residue is None:
            level, n = Q.period, self.n
            form = Q.form(level)
            q, j = divmod(k * self.level + col // n, level)
            residue = self._residues[key] = form.y_power(form.unit_residue(j * n + col % n), q)
        return residue


def _member_keys(ball):
    """Per shift t of ``ball``, a canonical key of {w on its sites : (w, t) in
    its triple}.

    A configuration w is given by its digits c, component by component,
    site -radius first.  (w, t) is a member exactly when t is a member
    shift and w + d_t is in U, with d_t the lamps of (0, t)(v, s)^(-t/s).
    Reduction modulo U's form is F_p-linear, so with M the ball's columns
    and r_t the residue of d_t the set is {c : M c = -r_t}, empty (key
    None) unless r_t lies in the column span of M, which it cannot when it
    has a coordinate outside M's support (``_BallResidues.reachable``).
    One row reduction of [M | r_t, ...] over the other t gives the set's
    direction, as the RREF of M's row space, and for each consistent t the
    solution whose free coordinates vanish; equal sets get equal keys,
    whatever level the residues are taken at.
    """
    dim = len(ball.columns)
    reachable = ball.reachable()
    columns = ball.columns + list(reachable.values())
    coords = sorted(ball.support)
    rows, pivots = rref([[col.get(k, 0) for col in columns] for k in coords], ball.form.p)
    solved = [row for row, c in zip(rows, pivots) if c < dim]
    blocked = [row for row, c in zip(rows, pivots) if c >= dim]
    direction = tuple(row[:dim] for row in solved)
    keys = dict.fromkeys(ball.shifts)
    for j, t in enumerate(reachable, start=dim):
        if not any(row[j] for row in blocked):
            keys[t] = (direction, tuple(row[j] for row in solved))
    return list(keys.values())


def _least_difference(key_a, key_b, dim, p):
    """Digits of the least code in exactly one of two different keyed sets:
    the lesser of A's least code outside B and B's least code outside A,
    the most significant digit compared first."""
    found = (_least_outside(key_a, key_b, dim, p), _least_outside(key_b, key_a, dim, p))
    return min((c for c in found if c is not None), key=lambda digits: digits[::-1])


def _least_outside(key, other, dim, p):
    """Digits of the least code of a keyed set A outside the keyed set
    ``other``, B, or None when A lies inside B.

    A key's rows are in RREF with the least significant digit first, so
    each row's pivot, its first nonzero digit, is fixed by the free digits
    above it.  Two codes of A then first differ at a free digit, and A's
    codes are ordered by their free digits alone.  The least code a has
    every free digit 0 and pivot digits -x.  If a is in B, A's codes inside
    B form a subspace W in free-digit coordinates.  Let v_f be the unit
    step that sets free digit f to 1, and f the least free digit whose
    step leaves W.  The steps below f span codes in W, so every code
    outside W has a nonzero free digit at f or above, and a + v_f is the
    least of them.  So at most 1 + dim codes are tested.
    """
    if key is None:
        return None
    direction, solution = key
    pivots = [next(j for j, c in enumerate(row) if c) for row in direction]
    least = [0] * dim
    for c, x in zip(pivots, solution):
        least[c] = -x % p
    if not _in_keyed_set(least, other, p):
        return least
    for f in sorted(set(range(dim)) - set(pivots)):
        code = list(least)
        code[f] = 1
        for c, row in zip(pivots, direction):
            code[c] = (least[c] - row[f]) % p
        if not _in_keyed_set(code, other, p):
            return code
    return None


def _in_keyed_set(digits, key, p):
    """Is the code with these digits in the keyed set {c : row.c + x = 0}?"""
    return key is not None and all(
        (sum(a * c for a, c in zip(row, digits)) + x) % p == 0 for row, x in zip(*key)
    )
