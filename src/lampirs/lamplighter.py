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
from itertools import chain, count, islice
from math import gcd

from .algebra import Frozen, LaurentPoly, _set, check_prime, geometric_series
from .errors import ContextError, DomainError, ResourceBudgetError
from .fplinalg import rref
from .submodules import (
    ENUMERATION_BUDGET,
    SITE_EXPONENT_SIGN,
    LaurentVector,
    _add_scaled,
    _by_column,
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

    __slots__ = ("n", "p", "s", "lamps", "v", "_powers")

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
        _set(obj, "_powers", {})
        return obj

    def _marker_power(self, k):
        cached = self._powers.get(k)
        if cached is None:
            cached = power(GroupElement._raw(self.v, self.s), k)
            self._powers[k] = cached
        return cached

    # -- membership and equality ----------------------------------------------

    def contains_element(self, g):
        """Exact membership test for a group element.

        For s | t, (w, t) is a member exactly when the lamps of
        (w, t)(v, s)^(-t/s), w plus x^t times those of the marker power,
        are in U.  They are summed as F_p coordinates at U's stored period,
        the marker power's moved by x^t as they are read; no product is formed.
        :meth:`CanonicalForm.contains` reduces the sum, walking only its span.
        """
        if g.n != self.n or g.p != self.p:
            raise ContextError("element of a different lamplighter group")
        U = self.lamps
        if self.s == 0:
            return g.shift == 0 and U.contains_vector(g.lamps)
        if g.shift % self.s:
            return False
        level = U.period
        marker = self._marker_power(-(g.shift // self.s)).lamps
        coords = _vector_coordinates(g.lamps, level)
        _add_scaled(coords, _vector_coordinates(marker, level, g.shift).items(), 1, self.p)
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
    The residues behind the keys come from the y-action on residues
    (``Submodule.window_residues`` and ``_offset_residues``), with no
    Laurent division per monomial.  The limit's are built once, at e(U),
    which divides s, and both its keys and the degree gap read them
    (``_BallResidues``); keys do not depend on the level.

    Every term is read, and checked to be in the limit's group, first.
    The answer depends only on the last term m that disagrees with the
    limit, so the terms are then keyed from a start term down to m, with no
    bisection (disagreement is not monotone in m): start - m + 2 key sets
    with the limit's, 2 for a failure, named from the keys of term H.  The
    start is H unless every term is one of an approach or vanish sequence
    toward this limit; then it is the last term m_B that the ball's degree
    gap admits, as every later term agrees with the limit on the ball (see
    ``_gap_start``), so min(H, m_B) - m + 2 key sets are made.
    The witness's digits are written by ``_vector_at`` at level 1, the
    digit c of component i at a site k as the term c x^(-k) of that
    component.

    A ball past the budgets of :func:`ball_size` is refused with
    ``ResourceBudgetError`` before anything is built.
    """
    n, p = limit.n, limit.p
    checked = ball_size(n, p, support_radius, shift_bound, horizon)
    dim = n * (2 * support_radius + 1)
    shifts = range(-shift_bound, shift_bound + 1)
    terms = [provider(m) for m in range(1, horizon + 1)]
    if any(triple.n != n or triple.p != p for triple in terms):
        raise ContextError("subgroups of different lamplighter groups")
    ball = _BallResidues(limit, support_radius, limit.lamps.minimal_period())
    target = _member_keys(limit, support_radius, shifts, ball)
    for m in range(_gap_start(terms, limit, ball, shifts), 0, -1):
        keys = _member_keys(terms[m - 1], support_radius, shifts)
        if keys != target:
            break
    else:
        m = 0
    if m < horizon:
        return ConvergenceResult(True, max(1, m + 1), None, checked, horizon)
    t, key, limit_key = next(
        (t, a, b) for t, a, b in zip(shifts, keys, target) if a != b
    )
    digits = _least_difference(key, limit_key, dim, p)
    sites = [(i, site) for i in range(n) for site in range(-support_radius, support_radius + 1)]
    coords = {(i, SITE_EXPONENT_SIGN * site): c for (i, site), c in zip(sites, digits) if c}
    lamps = _vector_at(coords, n, 1, p)
    return ConvergenceResult(False, None, GroupElement._raw(lamps, t), checked, horizon)


def _gap_start(terms, limit, ball, shifts):
    """The last term that can disagree with the limit on the ball: H, or by
    the degree gap the last term with deg f <= max_j (B_j - sigma_j).

    A term of ``approach_sequence`` or ``vanish_sequence`` records that it is
    U + f*Q, with f*Q in the free (non-pivot) columns of U's form at level e
    over y = x^e, and for each column j that Q's generators fill the span
    sigma_j of the gcd of their entries there.  When every term records the
    limit's lamps as U and the level of ``ball``, the limit's residues, as
    e, and has the limit's s and v, the marker lamps d_t are the same for
    both, and a witness (w, t) tells them apart exactly when z = w + d_t is
    in U + f*Q but not in U.  Then z's residue modulo U is a nonzero f*q in
    the free columns, q in Q, for any period of Q.  Some entry q_j is
    nonzero, so j is a column Q fills, and q_j lies in the ideal of the
    entries of Q's generators there, so f*q_j spans at least deg f +
    sigma_j in y.  That entry lies in the union of the supports of the
    residues of the site monomials and of d_t in column j; with B_j the
    widest y-span of that union over the member shifts t (-1 when the
    column has no entry), a term agrees with the limit on the ball unless
    deg f <= B_j - sigma_j for some column j it fills.  d_t's residues are
    walked out from d_0 = 0 both ways by the recurrence of
    ``_offset_residues`` over the shifts -S..S, and once every recorded
    degree is admitted no further d_t is walked.
    """
    s = limit.s
    records = [getattr(V.lamps, "_gap", None) for V in terms]
    if not all(r and V.s == s and V.v == limit.v for r, V in zip(records, terms)):
        return len(terms)
    base = (limit.lamps.canonical_key(), ball.form.level)
    if any(r[:2] != base for r in records):
        return len(terms)
    tops = {}
    for _, _, degree, spans in records:
        tops[spans] = max(tops.get(spans, 0), degree)
    items = [item for r in ball.window.values() for item in r.items()]
    window = {j: (min(qs), max(qs)) for j, qs in _by_column(items).items()}
    widest = {j: hi - lo for j, (lo, hi) in window.items()}

    def reach(spans):
        return max((widest[j] - sigma for j, sigma in spans if j in widest), default=-1)

    residues = [{}]
    if s:
        walks = (ball.offsets(sign) for sign in (1, -1))
        residues = chain(residues, *(islice(walk, shifts[-1] // s) for walk in walks))
    for residue in residues:
        for j, qs in _by_column(residue.items()).items():
            lo, hi = window.get(j, (min(qs), max(qs)))
            widest[j] = max(widest.get(j, -1), max(hi, max(qs)) - min(lo, min(qs)))
        if all(reach(spans) >= top for spans, top in tops.items()):
            break
    reaches = {spans: reach(spans) for spans in tops}
    return max((m for m, r in enumerate(records, 1) if r[2] <= reaches[r[3]]), default=0)


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
    """The residues at ``level`` of a triple's ball, built once and read by
    its member keys and by the degree gap: ``window``, those of the site
    monomials on [-radius, radius] by (site, component), from
    ``Submodule.window_residues``; ``v``, that of the marker lamps; and,
    through :meth:`offsets`, those of the d_k.  ``level`` is a period of U
    at which x^s is a power of y."""

    __slots__ = ("form", "window", "v", "_walks")

    def __init__(self, triple, radius, level):
        U = triple.lamps
        self.form = U.form(level)
        self.window = U.window_residues(-radius, radius, level)
        self.v = self.form.residue(_vector_coordinates(triple.v, level))
        steps = triple.s // level
        self._walks = {
            sign: ([], _marker_walk(self.form, self.v, steps, triple.p, sign)) for sign in (1, -1)
        }

    def offsets(self, sign):
        """The residues of d_sign, d_(2 sign), ..., without end: those of
        :func:`_marker_walk` walked before, then the walk, kept as it goes."""
        walked, walk = self._walks[sign]
        for k in count():
            if k == len(walked):
                walked.append(next(walk))
            yield walked[k]


def _member_keys(triple, radius, shifts, ball=None):
    """Per shift t, a canonical key of {w on sites [-radius, radius] : (w, t) in triple}.

    A configuration w is given by its digits c, component by component,
    site -radius first.  (w, t) is a member exactly when s | t (t = 0 when
    s = 0) and w + d_t is in U, with d_t the lamps of (0, t)(v, s)^(-t/s).
    Reduction modulo U's canonical form is F_p-linear, so with M the
    residues of the site monomials and r_t that of d_t the set is
    {c : M c = -r_t}, empty (key None) unless r_t lies in the column span
    of M, which it cannot when it has a coordinate outside M's rows.  One
    row reduction of [M | r_t, ...] over the other t gives the set's
    direction, as the RREF of M's row space, and for each consistent t the
    solution whose free coordinates vanish; equal sets get equal keys,
    whatever level the residues are taken at.  They are those of ``ball``
    when given, else built at gcd(period, s), a period of U at which x^s is
    a power of y (see ``_offset_residues``).
    """
    n, p, s, U = triple.n, triple.p, triple.s, triple.lamps
    members = [t for t in shifts if (t % s == 0 if s else t == 0)]
    if ball is None:
        ball = _BallResidues(triple, radius, gcd(U.period, s))
    window = ball.window
    columns = [window[site, i] for i in range(n) for site in range(-radius, radius + 1)]
    dim = len(columns)
    support = set().union(*columns)
    offsets = _offset_residues(ball, [t // s if s else 0 for t in members], support)
    reachable = [(t, r) for t, r in zip(members, offsets) if r is not None]
    columns += [r for _, r in reachable]
    rows, pivots = rref([[col.get(k, 0) for col in columns] for k in sorted(support)], p)
    solved = [row for row, c in zip(rows, pivots) if c < dim]
    blocked = [row for row, c in zip(rows, pivots) if c >= dim]
    direction = tuple(row[:dim] for row in solved)
    keys = dict.fromkeys(shifts)
    for j, (t, _) in enumerate(reachable, start=dim):
        if not any(row[j] for row in blocked):
            keys[t] = (direction, tuple(row[j] for row in solved))
    return [keys[t] for t in shifts]


def _offset_residues(ball, ks, support):
    """Residue coordinates of d_k, the lamps of (0, k*s)(v, s)^(-k), read
    from ``ball``, or None for those with a coordinate outside ``support``.

    The d_k come from :func:`_marker_walk`.  A y-step moves every coordinate
    one exponent up (or down) and subtracts pivot rows only at their own
    exponents (one lower going down), and v stays put.  So a coordinate
    above every exponent of the rows, of v and of ``support`` moves on and
    is never cleared going up, nor one below them all going down, and no
    later d_k is read.
    """
    exponents = [exp for row in ball.form.rows for (_, exp), _ in row]
    exponents += [exp for _, exp in [*ball.v, *support]]
    hi, lo = max(exponents, default=0), min(exponents, default=0)
    out = dict.fromkeys(ks)
    out[0] = {}
    for k, residue in zip(range(1, max(ks) + 1), ball.offsets(1)):
        if any(exp > hi for _, exp in residue):
            break
        out[k] = residue if residue.keys() <= support else None
    for k, residue in zip(range(-1, min(ks) - 1, -1), ball.offsets(-1)):
        if any(exp < lo for _, exp in residue):
            break
        out[k] = residue if residue.keys() <= support else None
    return [out[k] for k in ks]


def _marker_walk(form, v, steps, p, sign):
    """The residues under ``form`` of d_sign, d_(2 sign), ..., without end.

    d_k are the lamps of (0, k*s)(v, s)^(-k): d_0 = 0,
    d_(k+1) = x^s d_k - v and d_(k-1) = x^(-s) (d_k + v).  The form's level
    divides s, so x^(+-s) is y^(+-steps), and each step is ``steps`` y-steps
    on residues plus one residue of v, given as ``v``.
    """
    residue = {}
    while True:
        if sign > 0:
            residue = _add_scaled(form.y_power(residue, steps), v.items(), -1, p)
        else:
            residue = form.y_power(_add_scaled(dict(residue), v.items(), 1, p), -steps)
        yield residue


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
