"""Periodic additive subgroups of the rank-n Laurent module and their invariants.

A ``Submodule`` presents an additive subgroup U of R^n (R = F_p[x, x^-1])
that is closed under multiplication by x^{±e} for a stored period e: it is
the span of ``{x^(k*e) * g : g in gens, k in Z}``.  Everything is decided
through the rescaling isomorphism: splitting exponents modulo a level L
(a multiple of e) identifies R^n with a free module of rank n*L over
F_p[y, y^-1] where y acts as x^L, and U becomes a finitely generated
submodule there.  Its canonical form is a Hermite echelon matrix over the
Laurent ring in y, normalized by the unit group: pivots are monic with
nonzero constant term, and entries above a pivot are the unique residues
of degree smaller than the pivot's.  Two presentations describe the same
subgroup exactly when their canonical forms at a common level coincide.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, isqrt
from operator import getitem

from .algebra import (
    ENUMERATION_BUDGET,
    SEQUENCE_BUDGET,
    Frozen,
    LaurentPoly,
    Poly,
    _set,
    check_prime,
    check_term_count,
    enumerate_irreducibles,
    format_laurent,
    geometric_series,
    irreducibles,
    poly_gcd,
)
from .errors import (
    ContextError,
    DomainError,
    PreconditionError,
    ResourceBudgetError,
)

# Largest bit length of a number that must print: one of at most 14,283
# bits prints within Python's default 4,300-digit int-to-str limit.
PRINTABLE_BITS = 14283
# Shift convention (global, fixed once): multiplying a configuration by x
# moves the lamp at site i+1 to site i, so site k is the exponent -k.
SITE_EXPONENT_SIGN = -1
# Largest column count n*L of a canonical form at level L.  Finding a minimal
# period tests every proper divisor of the stored period, so the budget is
# set by the most divisor-rich level below it: 15120, with 80 divisors.
FORM_COLUMN_BUDGET = 2**14
# Largest entry count, rows times n*L columns, of a canonical form at level L.
# The minimal-period scan moves every generator once per divisor: at the most
# divisor-rich level under it, ``invariants`` on the 240 generators of
# ``construct 1 240 240`` takes 0.13 to 0.19 s on a 2-core Xeon, 0.023 s of it
# in ``invariant_report``.
FORM_ENTRY_BUDGET = 2**16
# Largest y-range, from the least exponent or 0 to the greatest or 0, of the
# entries in pivot columns that a residue walks, one y-step per exponent,
# about 1.5 us each on a 2-core Xeon.  It admits every vector whose terms
# lie within a parsed polynomial's span budget, 2^16, of x^0 at level 1.  A
# membership test moves its vector next to y^0 first and walks only its span.
RESIDUE_RANGE_BUDGET = 2**17


class LaurentVector(Frozen):
    """Fixed-length vector of Laurent polynomials (an element of R^n)."""

    __slots__ = ("p", "n", "coords")

    def __new__(cls, p, coords):
        check_prime(p)
        coords = tuple(coords)
        for c in coords:
            if c.p != p:
                raise ContextError("vector coordinate with mismatched modulus")
        return cls._raw(p, coords)

    @classmethod
    def _raw(cls, p, coords):
        """Unchecked: p is prime and ``coords`` a tuple of LaurentPolys over p."""
        obj = object.__new__(cls)
        _set(obj, "p", p)
        _set(obj, "n", len(coords))
        _set(obj, "coords", coords)
        return obj

    @classmethod
    def zero(cls, n, p):
        z = LaurentPoly.zero(p)
        return cls(p, (z,) * n)

    @classmethod
    def unit(cls, n, p, i, exponent=0, coeff=1):
        coords = [LaurentPoly.zero(p)] * n
        coords[i] = LaurentPoly.monomial(p, exponent, coeff)
        return cls(p, coords)

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentVector)
            and self.p == other.p
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.p, self.coords))

    def __add__(self, other):
        self._check(other)
        return LaurentVector._raw(self.p, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return LaurentVector._raw(self.p, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return LaurentVector._raw(self.p, tuple(-a for a in self.coords))

    def scaled(self, f):
        """Multiply every coordinate by a Poly/LaurentPoly/int scalar; the
        Laurent product checks the modulus of a polynomial f."""
        return LaurentVector._raw(self.p, tuple(c * f for c in self.coords))

    def shifted(self, k):
        return LaurentVector._raw(self.p, tuple(c.shifted(k) for c in self.coords))

    def _check(self, other):
        if self.p != other.p or self.n != other.n:
            raise ContextError("vectors from different ambient modules")

    def __repr__(self):
        return f"LaurentVector({self.p}, {format_vector(self)!r})"


def format_vector(v):
    return "[" + ", ".join(format_laurent(c) for c in v.coords) + "]"


# ---------------------------------------------------------------------------
# Rescaling: exponent-splitting between R^n and the rank n*level module.
# Column j*n + i holds the x^j-residue class of coordinate i; y acts as x^level.
# ---------------------------------------------------------------------------


def _vector_coordinates(vec, level, k=0):
    """F_p coordinates {(column, y-exponent): c} of x^k * vec at ``level``.

    The term c x^exp of coordinate i lands in column j*n + i at y^q, for
    q, j = divmod(exp + k, level); no column polynomial is built.
    """
    n, out = vec.n, {}
    for i, poly in enumerate(vec.coords):
        exp = poly.offset + k
        for c in poly.body.coeffs:
            if c:
                q, j = divmod(exp, level)
                out[j * n + i, q] = c
            exp += 1
    return out


def _by_exponent(coords, pivots):
    """The F_p coordinates ``coords`` in a column of the set ``pivots``, by
    y-exponent, {q: [(column, c), ...]}, and the others, {(column, q): c}."""
    by_q, free = {}, {}
    for (j, q), c in coords.items():
        if j in pivots:
            by_q.setdefault(q, []).append((j, c))
        else:
            free[j, q] = c
    return by_q, free


def _by_column(pairs):
    """The F_p coordinates ``pairs``, ((column, y-exponent), c) each, read in
    one pass into {column: {y-exponent: c}}."""
    out = {}
    for (j, q), c in pairs:
        out.setdefault(j, {})[q] = c
    return out


def _body(terms, p):
    """(low, body) of the column entry y^low * body with the nonzero terms
    {y-exponent: c}, c in [1, p), body a Poly with nonzero constant term.
    Its coefficient list runs from the least exponent to the greatest, so it
    ends in a nonzero term and is built unchecked."""
    low = min(terms)
    return low, Poly._raw(p, [terms.get(q, 0) for q in range(low, max(terms) + 1)])


def _vector_at(coords, n, level, p):
    """The LaurentVector with the coordinates ``coords``, each c in [1, p),
    at ``level``: the entry c in column j*n + i at y^q is the term
    c x^(q*level + j) of coordinate i.  Its parts are valid by construction
    and built unchecked."""
    cols = [LaurentPoly.zero(p)] * n
    pairs = (((col % n, q * level + col // n), c) for (col, q), c in coords.items())
    for i, terms in _by_column(pairs).items():
        cols[i] = LaurentPoly._raw(p, *_body(terms, p))
    return LaurentVector._raw(p, tuple(cols))


# ---------------------------------------------------------------------------
# Canonical Hermite form over the Laurent ring F_p[y, y^-1].
# ---------------------------------------------------------------------------


def _add_scaled(out, items, c, p):
    """Add c times the coordinates ``items`` to the coordinate dict ``out``.

    ``items`` are (key, value) pairs; ``out`` is updated in place, dropping
    entries that become zero mod p, and returned.
    """
    for key, b in items:
        value = (out.get(key, 0) + c * b) % p
        if value:
            out[key] = value
        else:
            del out[key]
    return out


class CanonicalForm:
    """Canonical Laurent-Hermite presentation of a subgroup at a fixed level.

    A row is the sorted tuple of its F_p coordinates ((column, y-exponent), c).
    Its pivot's entries come first, from ((pivot, 0), g(0)), the pivot's
    nonzero constant term, up to ((pivot, d), 1) for a pivot of degree d.
    Each row is kept once: the y-steps on residues read the row objects of
    ``rows`` themselves, up and down alike, and keep no shifted copy.
    """

    __slots__ = ("p", "n", "level", "ncols", "rows", "pivots", "_pivot_cols", "_units", "_steps")

    def __init__(self, p, n, level):
        """The form of no rows; :func:`laurent_hermite_form` pushes them."""
        self.p = p
        self.n = n
        self.level = level
        self.ncols = n * level
        self.rows = self.pivots = ()
        self._pivot_cols, self._units, self._steps = set(), {}, []

    @property
    def rank(self):
        return len(self.rows)

    def key(self):
        return (self.p, self.level, self.pivots, self.rows)

    def __eq__(self, other):
        return isinstance(other, CanonicalForm) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def residue(self, coords):
        """F_p coordinates {(column, exponent): c} of the canonical residual
        modulo the row span of the vector with the coordinates ``coords``.

        Vectors of R^n come in through :func:`_vector_coordinates`, moved by
        any power of x, and are reduced by the form's rows, kept in the same
        coordinates; no column polynomial is built.  The map is F_p-linear,
        and the vector is in the row span exactly when the result is empty.
        An entry in a free (non-pivot) column is its own residue, added where
        it lies.  Those in pivot columns are read by Horner in y: from y^q >= 0
        down, one up-step between them, and from y^q < 0 up, one down-step
        after each; every c at y^q in column j enters as c times
        :meth:`unit_residue` of j.  A walk of more than
        ``RESIDUE_RANGE_BUDGET`` y-steps is refused before the first.
        """
        return self._walk(*_by_exponent(coords, self._pivot_cols))

    def contains(self, coords):
        """Is the vector with the coordinates ``coords`` in the row span?

        The span is closed under y^(+-1), so a vector whose pivot-column
        entries lie wholly above y^0 is first moved down until their least
        exponent is 0, and one with them wholly below up until their greatest
        is 0: the walk of :meth:`residue` then covers only their span.
        """
        by_q, free = _by_exponent(coords, self._pivot_cols)
        if by_q:
            low, high = min(by_q), max(by_q)
            shift = low if low > 0 else high if high < 0 else 0
            if shift:
                by_q = {q - shift: terms for q, terms in by_q.items()}
                free = {(j, q - shift): c for (j, q), c in free.items()}
        return not self._walk(by_q, free)

    def _walk(self, by_q, free):
        """The residue of the vector with the coordinates ``by_q`` and
        ``free`` of :func:`_by_exponent`, as :meth:`residue` describes."""
        top, bottom = max(by_q, default=-1), min(by_q, default=0)
        walked = max(top, 0) - min(bottom, 0)
        if walked > RESIDUE_RANGE_BUDGET:
            raise ResourceBudgetError("a residue walk of y-range", walked, RESIDUE_RANGE_BUDGET)
        p, units = self.p, self._units
        up, down = {}, {}
        for q in range(top, -1, -1):
            if up:
                up = self._y_step(up, 1)
            for j, c in by_q.get(q, ()):
                _add_scaled(up, units.get(j, (((j, 0), 1),)), c, p)
        for q in range(bottom, 0):
            for j, c in by_q.get(q, ()):
                _add_scaled(down, units.get(j, (((j, 0), 1),)), c, p)
            down = self._y_step(down, -1)
        for part in (down, free):
            if part:
                _add_scaled(up, part.items(), 1, p)
        return up

    def unit_residue(self, col):
        """Coordinates of the residual of the unit vector y^0 in column ``col``.

        The unit is its own residual unless ``col`` holds a pivot of degree
        0, a constant 1; then it is the unit minus that pivot's row, whose
        entries in later pivot columns are residues already.
        """
        return dict(self._units.get(col, (((col, 0), 1),)))

    def y_power(self, residue, k):
        """Coordinates of the residual of y^k * r, from those of a residual r.

        A residual has degree below d in each pivot column of degree d, so
        y^(+-1) * r leaves that range in at most one coefficient per pivot:
        y^d going up, y^-1 going down (a pivot of degree 0 has a zero entry).
        Taken in pivot order, one scalar multiple of the pivot row clears it,
        as the row's later pivot entries are residues too.  Going down the
        entry is cleared at y^0, before the move, and the scalar is divided
        by g(0), the pivot's constant term.  Each unit step is one pass of
        such subtractions; no division and no powering are done.
        """
        sign = 1 if k > 0 else -1
        for _ in range(abs(k)):
            residue = self._y_step(residue, sign)
        return residue

    def _push(self, row, c):
        """Put a canonical row in front, its pivot c before every other, and
        index it."""
        self.rows = (row,) + self.rows
        self.pivots = (c,) + self.pivots
        self._pivot_cols.add(c)
        self._index_row(row, c)

    def _index_row(self, row, c):
        """Index a row whose pivot column c precedes every indexed one: a
        pivot of degree 0 by its column's unit residue, one of degree d > 0
        by c, d, the row itself, as ``rows`` holds it, and 1/g(0)."""
        p = self.p
        degree = max(q for (j, q), _ in row if j == c)
        if degree:
            self._steps.insert(0, (c, degree, row, pow(row[0][1], p - 2, p)))
        else:
            self._units[c] = tuple((key, -b % p) for key, b in row[1:])

    def _y_step(self, residue, sign):
        """The residue of y^sign * r: going up, every coordinate moves up one
        exponent and each pivot's entry at y^d is cleared; going down, each
        pivot's entry at y^0 is cleared and then every coordinate moves down.
        Both clear with the row as stored, and a row subtraction commutes
        with the move."""
        p = self.p
        if sign > 0:
            out = {(j, exp + 1): c for (j, exp), c in residue.items()}
            for c, d, row, _ in self._steps:
                a = out.get((c, d))
                if a:
                    _add_scaled(out, row, -a, p)
            return out
        out = dict(residue)
        for c, _, row, inv in self._steps:
            a = out.get((c, 0), 0) * inv % p
            if a:
                _add_scaled(out, row, -a, p)
        return {(j, exp - 1): c for (j, exp), c in out.items()}


def laurent_hermite_form(p, n, level, generator_rows):
    """Echelonize rows of F_p coordinates {(column, y-exponent): c}, or the
    pair tuples of a form's rows, into the canonical form described above.

    The rows are read by column and grouped by their first nonzero column.
    In the least such column Euclid runs on Poly bodies: the row whose entry
    is narrowest in y leaves each other row's entry its remainder, and the
    quotient is subtracted term by term in the later columns; a row whose
    entry is cleared joins the group of its next column.  The last row of a
    group holds its pivot.  From the bottom up, a unit makes each pivot
    monic with lowest exponent 0, the row's entries past it become their
    residue modulo the rows below it, which are canonical and indexed
    already, and the row is put in front of them.
    """
    groups, done = {}, []
    for r in generator_rows:
        row = _by_column(dict(r).items())
        if row:
            groups.setdefault(min(row), []).append(row)
    while groups:
        col = min(groups)
        group = groups.pop(col)
        while len(group) > 1:
            best = min(group, key=lambda r: max(r[col]) - min(r[col]))
            low, body = _body(best[col], p)
            for row in group:
                if row is best:
                    continue
                row_low, row_body = _body(row[col], p)
                quo, rem = divmod(row_body, body)
                quo = [(row_low - low + i, a) for i, a in enumerate(quo.coeffs) if a]
                for j, terms in best.items():
                    if j != col:
                        out = row.setdefault(j, {})
                        for s, a in quo:
                            for q, b in terms.items():
                                q += s
                                value = (out.get(q, 0) - a * b) % p
                                if value:
                                    out[q] = value
                                else:
                                    del out[q]
                        if not out:
                            del row[j]
                if rem:
                    row[col] = {row_low + i: c for i, c in enumerate(rem.coeffs) if c}
                else:
                    del row[col]
                    if row:
                        groups.setdefault(min(row), []).append(row)
            group = [row for row in group if col in row]
        done.append((group[0], col))
    form = CanonicalForm(p, n, level)
    for row, col in reversed(done):
        entry = row.pop(col)
        low, inv = min(entry), pow(entry[max(entry)], p - 2, p)
        pivot = tuple(((col, q - low), c * inv % p) for q, c in sorted(entry.items()))
        tail = {(j, q - low): c * inv % p for j, terms in row.items() for q, c in terms.items()}
        if tail:
            tail = form.residue(tail)
        form._push(pivot + tuple(sorted(tail.items())), col)
    return form


def _divisors(m):
    small = [d for d in range(1, isqrt(m) + 1) if m % d == 0]
    return small + [m // d for d in reversed(small) if d * d != m]


def _check_form_size(n, level, rows):
    """Refuse a form of n*level columns past ``FORM_COLUMN_BUDGET``, or of
    rows*n*level entries past ``FORM_ENTRY_BUDGET``."""
    cols = n * level
    if cols > FORM_COLUMN_BUDGET:
        raise ResourceBudgetError(
            f"a form at level {level} (n={n}) with column count", cols, FORM_COLUMN_BUDGET
        )
    if rows * cols > FORM_ENTRY_BUDGET:
        raise ResourceBudgetError(
            f"a form at level {level} (n={n}) of {rows} rows with entry count",
            rows * cols,
            FORM_ENTRY_BUDGET,
        )


class Submodule(Frozen):
    """Additive subgroup of R^n closed under x^{±period}, given by generators."""

    # ``_gap``, (canonical key of U, level e, f, the spans of
    # :func:`_gcd_spans` of Q, Q), is set only on a term U + f*Q of an
    # approach or vanish sequence, for the certificate's degree gap and
    # quotient test, and ``_rank``, the rank at the recorded minimal period
    # ``_e``, only on an approach term, for ``invariant_report``; every
    # other subgroup leaves them unset, at no cost to build.
    __slots__ = ("p", "n", "period", "gens", "_forms", "_e", "_gap", "_rank")

    def __new__(cls, n, p, period, gens=()):
        check_prime(p)
        if n < 1:
            raise DomainError("ambient rank must be >= 1")
        if period < 1:
            raise DomainError("period must be >= 1")
        gens = tuple(g for g in gens if not g.is_zero())
        for g in gens:
            if g.p != p or g.n != n:
                raise ContextError("generator from a different ambient module")
        return cls._raw(n, p, period, gens)

    @classmethod
    def _raw(cls, n, p, period, gens):
        """Unchecked: p is prime, n and period are >= 1, and ``gens`` is a
        tuple of nonzero LaurentVectors of R^n over p."""
        obj = object.__new__(cls)
        _set(obj, "p", p)
        _set(obj, "n", n)
        _set(obj, "period", period)
        _set(obj, "gens", gens)
        _set(obj, "_forms", {})
        _set(obj, "_e", None)
        return obj

    @classmethod
    def zero(cls, n, p):
        return cls(n, p, 1, ())

    @classmethod
    def full(cls, n, p):
        return cls(n, p, 1, tuple(LaurentVector.unit(n, p, i) for i in range(n)))

    def is_zero(self):
        return not self.gens

    # -- canonical forms ----------------------------------------------------

    def form(self, level):
        """Canonical form at a level that is a period of U, built once.

        A multiple of the stored period is one; any other level must be a
        multiple of the minimal period.  With g = gcd(level, period), a
        period of U, the generators moved by x^(k*g) for 0 <= k < level/g
        span U under x^(+-level).  The rows are their coordinates at that
        level, each read by :func:`_vector_coordinates` with its shift k*g;
        no shifted generator and no other Submodule is built.  A form of
        more than ``FORM_COLUMN_BUDGET`` columns, n*level, or
        ``FORM_ENTRY_BUDGET`` entries is refused before any work.
        """
        cached = self._forms.get(level)
        if cached is not None:
            return cached
        g = gcd(level, self.period)
        _check_form_size(self.n, level, len(self.gens) * (level // g))
        if level % self.period and level % self.minimal_period():
            raise DomainError(
                f"level {level} is not a multiple of the stored period "
                f"{self.period} nor of the minimal period {self.minimal_period()}"
            )
        rows = [_vector_coordinates(v, level, k * g) for v in self.gens for k in range(level // g)]
        form = laurent_hermite_form(self.p, self.n, level, rows)
        self._forms[level] = form
        return form

    # -- membership, containment, equality ----------------------------------

    def _is_member(self, w, level, k=0):
        """Is x^k * w in U?  Read on w's coordinates at ``level`` by
        :meth:`CanonicalForm.contains`, which walks only w's span."""
        return self.form(level).contains(_vector_coordinates(w, level, k))

    def _check_vector(self, w):
        if w.p != self.p or w.n != self.n:
            raise ContextError("vector from a different ambient module")

    def contains_vector(self, w):
        self._check_vector(w)
        return self._is_member(w, self.period)

    def window_residues(self, lo, hi, level=None):
        """Residue coordinates of every site monomial on [lo, hi].

        Returns {(site, i): coordinates} for the monomials x^(-site) e_i,
        the coordinates being :meth:`CanonicalForm.residue` of the form at
        ``level`` (default: the stored period).  At level L, x^(q*L + j) e_i
        is y^q in column j*n + i, so the monomials of one column class
        differ by powers of y.  Each class starts from its monomial at y^0,
        :meth:`CanonicalForm.unit_residue`, and reaches its least q in the
        window and every later one by :meth:`CanonicalForm.y_power` steps.
        """
        level = self.period if level is None else level
        form = self.form(level)
        n = self.n
        low, high = sorted((SITE_EXPONENT_SIGN * lo, SITE_EXPONENT_SIGN * hi))
        out = {}
        for j in range(level):
            q_lo, q_hi = -((j - low) // level), (high - j) // level
            if q_lo > q_hi:
                continue
            for i in range(n):
                residue = form.y_power(form.unit_residue(j * n + i), q_lo)
                for q in range(q_lo, q_hi + 1):
                    if q > q_lo:
                        residue = form.y_power(residue, 1)
                    out[SITE_EXPONENT_SIGN * (q * level + j), i] = residue
        return out

    def reduce_vector(self, w):
        """Canonical representative of w modulo this subgroup."""
        self._check_vector(w)
        level = self.period
        residue = self.form(level).residue(_vector_coordinates(w, level))
        return _vector_at(residue, self.n, level, self.p)

    def _common_level(self, other):
        g = gcd(self.period, other.period)
        return self.period // g * other.period

    def contains_submodule(self, other):
        if other.p != self.p or other.n != self.n:
            raise ContextError("subgroups of different ambient modules")
        level = self._common_level(other)
        return all(
            self._is_member(g, level, k * other.period)
            for g in other.gens
            for k in range(level // other.period)
        )

    def equals(self, other):
        if other.p != self.p or other.n != self.n:
            return False
        level = self._common_level(other)
        return self.form(level) == other.form(level)

    def canonical_key(self):
        return self.form(self.minimal_period()).key()

    # -- period manipulation -------------------------------------------------

    def shifted(self, k):
        """x^k * U, presented at the same period."""
        return Submodule._raw(self.n, self.p, self.period, tuple(g.shifted(k) for g in self.gens))

    def scaled(self, f):
        """f * U for a nonzero scalar polynomial f."""
        return Submodule(self.n, self.p, self.period, (g.scaled(f) for g in self.gens))

    def has_period(self, s):
        """Exact check of x^s U = U, by the containment x^s U ⊆ U.

        If U has a period P and x^s U ⊆ U, then U = x^(sP) U ⊆ x^((P-1)s) U
        ⊆ ... ⊆ x^s U ⊆ U, so x^s U = U.  The periods of U are therefore the
        multiples of e(U), and the gcd of two periods is again a period.
        The generators span U under x^(+-L), L the stored period, so
        x^s U ⊆ U exactly when x^s g is in U for every generator g, as
        :meth:`contains_submodule` reads another subgroup's: each g is read
        by :func:`_vector_coordinates` with the shift s and reduced by the
        form at L, whose budgets are checked first.  As x^L U = U, s is
        first reduced modulo L, so a far s costs no more than a near one.
        """
        if s < 1:
            raise DomainError("periods are positive")
        s %= self.period
        if not s:
            return True
        self.form(self.period)
        return all(self._is_member(g, self.period, s) for g in self.gens)

    def _check_period(self, s):
        """Refuse an s with x^s U != U: every entry that takes a period of U
        checks it here."""
        if not self.has_period(s):
            raise PreconditionError(f"x^{s} U != U: {s} is not a period of U")

    def with_period(self, new_period):
        """Re-present at another verified period.

        With g = gcd(new_period, period), a period of U, the generators
        shifted by k*g for 0 <= k < new_period/g span U under x^(+-new_period).
        """
        self._check_period(new_period)
        return self._at_period(new_period)

    def _at_period(self, period):
        """:meth:`with_period` for a period of U already known, unchecked."""
        if period == self.period:
            return self
        g = gcd(period, self.period)
        gens = tuple(v.shifted(k * g) for v in self.gens for k in range(period // g))
        return Submodule._raw(self.n, self.p, period, gens)

    def minimal_period(self, s=None):
        """Least e with x^e U = U, found once per object and kept.

        The periods of U are the multiples of e (see :meth:`has_period`), so
        e is the first proper divisor of the stored period that is a period,
        or the stored period itself.  The tests read the form at the stored
        period, so its budgets are checked before the divisors are listed.  A
        given ``s`` is only checked to be a period; the answer does not
        depend on it.
        """
        if s is not None:
            self._check_period(s)
        if self._e is None:
            _check_form_size(self.n, self.period, len(self.gens))
            proper = _divisors(self.period)[:-1]
            e = next((d for d in proper if self.has_period(d)), self.period)
            _set(self, "_e", e)
        return self._e

    # -- rank invariants ------------------------------------------------------

    def rescaled_rank(self, m):
        """Rank of U as a module where x acts as x^m; requires x^m U = U."""
        self._check_period(m)
        return self.form(m).rank

    def canonical(self):
        """Equivalent presentation at the minimal period, canonical generators.

        It is the same subgroup, so it keeps this one's form and minimal period.
        """
        e = self.minimal_period()
        form = self.form(e)
        gens = tuple(_vector_at(dict(row), self.n, e, self.p) for row in form.rows)
        canon = Submodule._raw(self.n, self.p, e, gens)
        canon._forms[e] = form
        _set(canon, "_e", e)
        return canon


@dataclass(frozen=True)
class InvariantReport:
    """Minimal period e, rank at that period, and the deficiency n*e - rank."""

    e: int
    rank: int
    deficiency: int


def invariant_report(U, s=None):
    """Compute (e, rk_e, n*e - rk_e); a given s is checked to be a period.

    The rank an approach term records at its minimal period (see
    :func:`approach_sequence`) is read in place of building the form.
    """
    e = U.minimal_period(s)
    rk = getattr(U, "_rank", None)
    if rk is None:
        rk = U.form(e).rank
    return InvariantReport(e=e, rank=rk, deficiency=U.n * e - rk)


# ---------------------------------------------------------------------------
# Counting and enumerating finite-codimension submodules of R^k.
# ---------------------------------------------------------------------------


def count_submodules(p, k, codim):
    """Number of submodules of R^k with F_p-codimension ``codim`` (exact)."""
    check_prime(p)
    if k < 1:
        raise DomainError("k must be >= 1")
    if codim < 0:
        raise DomainError("codimension must be >= 0")
    if codim == 0:
        return 1
    # p <= 2^((p-1).bit_length()), so the count is below 2^bits.
    bits = codim * k * (p - 1).bit_length()
    if bits > PRINTABLE_BITS:
        raise ResourceBudgetError(
            f"the count of codimension-{codim} submodules of R^{k} over F_{p} with bit bound",
            bits,
            PRINTABLE_BITS,
        )
    return p ** (codim * k) - p ** ((codim - 1) * k)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _monic_entries(p, d):
    """The monic diagonal entries of degree d with nonzero constant term, as
    ``submodules_of_codimension`` orders them: constant term outermost, then
    the middle coefficients as a base-p number, lowest digit first.  Their
    coefficients are reduced, the constant and the leading one nonzero, and
    p was checked by the caller, so they are built unchecked."""
    if d == 0:
        yield LaurentPoly.one(p)
        return
    for c0 in range(1, p):
        for high in itertools.product(range(p), repeat=d - 1):
            yield LaurentPoly._raw(p, 0, Poly._raw(p, [c0, *high[::-1], 1]))


def _enumerate_submodules(p, k, codim):
    """Yield the subgroups of :func:`submodules_of_codimension`, in its order.

    The budget is checked before the first subgroup is built.  Row i of a
    canonical matrix is its diagonal entry followed by one entry above the
    pivot in each later column, a choice made apart from every other row.
    So per degree shape each row's generators are built once, into a row
    table, and a subgroup is a tuple of rows picked from the tables: rows
    1..k-1 get one table each per shape, and row 0 one per outermost
    diagonal entry, which is iterated and never listed.  A table holds at
    most p^codim rows: row i has at most p^(d_i) diagonal entries and
    p^(d_c) entries in each later column c, and row 0 one diagonal entry.
    The tables live for one shape of one call.

    A table lists its row's choices with column k-1 fastest, so a row's
    index weighs its digits as the order does.  Every digit but the fastest,
    row 0's entry in column k-1, is walked; each of its values picks rows
    1..k-1 and a run of consecutive rows of row 0's table.

    Every part is valid by construction, so the generators and subgroups
    are built by the unchecked constructors ``LaurentVector._raw`` and
    ``Submodule._raw``: p is checked once, here; every row has k
    coordinates, each a LaurentPoly built over p; and the row's diagonal
    entry is monic, so no generator is zero.
    """
    check_prime(p)
    total = count_submodules(p, k, codim)
    if total > ENUMERATION_BUDGET:
        raise ResourceBudgetError("an enumeration with submodule count", total, ENUMERATION_BUDGET)
    zero = LaurentPoly.zero(p)
    vector, submodule = LaurentVector._raw, Submodule._raw
    product = itertools.product
    for degs in _compositions(codim, k):
        # lows[c] for c >= 1: the p^d entries of degree < d = degs[c], the
        # i-th of them with the base-p digits of i, lowest first, as
        # coefficients
        lows = [None] + [
            [LaurentPoly.from_poly(Poly(p, t[::-1])) for t in product(range(p), repeat=d)]
            for d in degs[1:]
        ]
        # weight[c]: the weight of a row's entry in column c in its index
        weight = [1] * k
        for c in range(k - 2, -1, -1):
            weight[c] = weight[c + 1] * len(lows[c + 1])
        # later[i - 1]: the table of row i
        later = [
            [vector(p, (zero,) * i + t) for t in product(_monic_entries(p, degs[i]), *lows[i + 1 :])]
            for i in range(1, k)
        ]
        # (row, weight, count) of each digit but the fastest, outermost
        # first: the diagonal entries, then each column's entries above its
        # pivot, row 0 last
        digits = [(i, weight[i], len(later[i - 1]) // weight[i]) for i in range(1, k)]
        digits += [(i, weight[c], len(lows[c])) for c in range(1, k) for i in range(c - 1, -1, -1)][:-1]
        rows = [i for i, _, _ in digits]
        steps = [range(0, count * w, w) for _, w, count in digits]
        span = len(lows[-1]) if k > 1 else 1
        for first in _monic_entries(p, degs[0]):
            table0 = [vector(p, (first, *t)) for t in product(*lows[1:])]
            for offsets in product(*steps):
                index = [0] * k
                for i, offset in zip(rows, offsets):
                    index[i] += offset
                start = index[0]
                rest = tuple(map(getitem, later, index[1:]))
                for row0 in table0[start : start + span]:
                    yield submodule(k, p, 1, (row0, *rest))


def submodules_of_codimension(p, k, codim):
    """All submodules of R^k of F_p-codimension ``codim``, canonical order.

    Enumerates canonical upper-triangular Laurent-Hermite matrices directly:
    row i is the i-th generator and column c its coordinate c.  The diagonal
    entries are monic with nonzero constant term and their degrees, a
    composition ``degs`` of ``codim`` into k parts, sum to ``codim``; the
    entries above the pivot of degree d are free of degree below d.  The
    compositions come in order, and within one the matrices are numbered by
    these digits, outermost first: the diagonal entry of each column in
    column order (constant term outermost, then the middle coefficients as
    a base-p number, lowest digit first); then for each column in order its
    entries above the pivot, row 0 fastest, the p^d entries of degree < d
    numbered by the base-p digits of their coefficients, lowest first.
    The subgroups share their generators: each row is built once per
    composition into a row table of at most p^codim rows, row 0's once per
    outermost diagonal entry (see :func:`_enumerate_submodules`).
    More than ``ENUMERATION_BUDGET`` submodules are refused before any is.
    """
    return list(_enumerate_submodules(p, k, codim))


# ---------------------------------------------------------------------------
# Constructions: subgroups with prescribed (period, rescaled rank).
# ---------------------------------------------------------------------------


def _exact_period_gens(n, p, b, coords):
    """Generators of U_b on the coordinates ``coords``, a subgroup of R^n.

    With c = coords[0], U_b is spanned under x^(+-b) by (1 + x^b) e_c and
    x^j e_i for 0 <= j < b and i in coords, (j, i) != (0, c), listed with j
    outermost.  Its minimal period is exactly b, and its rescaled rank at
    level b is len(coords)*b.

    Proof, for coords = 0..n-1.  U_b is the kernel of the linear form
    w -> sum_k (-1)^k [x^(kb)] w_0.  Every x^m e_i outside the exponents
    kb of coordinate 0 is a generator shifted by x^(kb); on the rest, a
    Laurent polynomial g(x^b) is a multiple of 1 + x^b exactly when
    g(-1) = 0.  So U_b has codimension 1 at level b and rescaled rank n*b.
    For 0 < d < b, x^d U_b is the kernel of the same form read on the
    exponents congruent to d mod b: it holds e_0, and U_b does not, so
    x^d U_b != U_b and b is the minimal period.  On fewer coordinates the
    same argument runs inside them.
    """
    first = LaurentVector.unit(n, p, coords[0]).scaled(geometric_series(2, b, p))
    return [
        first if (j, i) == (0, coords[0]) else LaurentVector.unit(n, p, i, exponent=j)
        for j in range(b)
        for i in coords
    ]


def construct_with_invariants(n, p, b, r):
    """Additive subgroup U of R^n with minimal period b and rescaled rank r.

    ``0 < r <= n*b``, r at most ``FORM_COLUMN_BUDGET`` and r*n at most
    ``FORM_ENTRY_BUDGET``: about r generators of n coordinates each are
    built, and every form of U has at least r rows of n*b >= r columns, so
    no form of a larger r or r*n could be built; either is refused before
    any generator is.  For b = 1 it is spanned by r coordinate vectors.  For
    r = n*b it is U_b of :func:`_exact_period_gens`; for smaller r, with
    r = full*b + rem, it sums U_b on each coordinate below ``full`` and the
    monomials x^j e_full for j < rem, and rank is additive over coordinates.
    """
    check_prime(p)
    if n < 1:
        raise DomainError(f"lamp rank n must be >= 1, got {n}")
    if b < 1:
        raise DomainError(f"minimal period b must be >= 1, got {b}")
    if not 0 < r <= n * b:
        raise DomainError(f"rescaled rank {r} outside (0, {n * b}]")
    if r > FORM_COLUMN_BUDGET:
        raise ResourceBudgetError(
            f"a subgroup (n={n}, b={b}) of rescaled rank", r, FORM_COLUMN_BUDGET
        )
    if r * n > FORM_ENTRY_BUDGET:
        raise ResourceBudgetError(
            f"a subgroup (n={n}, b={b}) of rescaled rank {r} with generator entry count",
            r * n,
            FORM_ENTRY_BUDGET,
        )
    if b == 1:
        gens = tuple(LaurentVector.unit(n, p, i) for i in range(r))
        return Submodule(n, p, 1, gens)
    full, rem = divmod(r, b)
    if full == n:
        return Submodule(n, p, b, _exact_period_gens(n, p, b, range(n)))
    gens = [g for coord in range(full) for g in _exact_period_gens(n, p, b, [coord])]
    gens += [LaurentVector.unit(n, p, full, exponent=j) for j in range(rem)]
    return Submodule(n, p, b, gens)


def _gcd_spans(gens, level, p):
    """((column, sigma), ...): for each column at ``level`` where some
    generator has a nonzero entry, the y-span sigma of the gcd of the
    generators' entries there.

    Every element of the subgroup the generators span under a power of y
    has each entry in the ideal those entries generate, so a nonzero one
    spans at least sigma in y; a column where every entry is zero holds
    none.
    """
    gcds = {}
    for g in gens:
        for j, terms in _by_column(_vector_coordinates(g, level).items()).items():
            gcds[j] = poly_gcd(gcds.get(j, Poly.zero(p)), _body(terms, p)[1])
    return tuple((j, gcds[j].degree) for j in sorted(gcds))


def vanish_sequence(U, count):
    """U_m = f_m * U along the non-unit irreducibles; tends to the zero subgroup.

    Each term records that it is 0 + f_m * U at level 1, every column free,
    with the key of the zero subgroup, f_m, the gcd spans of U's generators,
    found once, and U as Q (see :func:`approach_sequence`).  A count past
    ``SEQUENCE_BUDGET`` is refused before any term is built.
    """
    key = Submodule.zero(U.n, U.p).canonical_key()
    spans = _gcd_spans(U.gens, 1, U.p)
    out = []
    for f in enumerate_irreducibles(U.p, count):
        term = U.scaled(f)
        _set(term, "_gap", (key, 1, f, spans, U))
        out.append(term)
    return out


def approach_sequence(U, b, r_target, count):
    """Strictly larger subgroups converging to U with prescribed invariants.

    Returns U_m with U ⊂ U_m, minimal period E = e(U)*b, deficiency
    n*e(U_m) - rk(U_m) equal to ``r_target``, and membership of any fixed
    vector outside U eventually failing.  Requires the deficiency of U to be
    positive and ``r_target < deficiency(U) * b``.

    The terms are M + f*Q for successive irreducibles f: M is U at level
    e = e(U), over y = x^e, and Q, in the free (non-pivot) columns R_y^F, has
    minimal period b and rescaled rank r_u*b - r_target.  A term whose
    minimal period is not E is skipped; otherwise ranks add and its
    deficiency is r_target.  Finitely many f are skipped: for a period d < E
    of the term, e | d would give y^(d/e)*Q = Q, against b, as M meets R_y^F
    only in 0.  Otherwise x^d U ⊆ M + f*R_y^F: the residues of x^d U modulo
    U lie in the free columns, and f divides the gcd g_d of their entries,
    nonzero as x^d U ⊄ U.  Periods below E would include some E/q, q a
    prime, and q | b gives e | E/q; so g_d is found once, for d = E/q with
    q | e and q ∤ b, and a term is tested for the period d only when f
    divides g_d.  The residues are those of U's canonical generators, the
    rows of its form at e, each read by :func:`_vector_coordinates` with
    the shift d.  The generators of f*Q come from the ring action: each
    generator t of Q is lifted once per sequence, its entry t_a written into
    the free column j_a*n + i_a at level e, and for each f they are the
    lifted generators times F = f(x^e).  Coordinate i of f*t is
    sum_a x^(j_a)*(t_a*f)(x^e) = (sum_a x^(j_a)*t_a(x^e))*f(x^e), where the
    free columns of coordinate i have distinct residues j_a < e and never
    collide.  No term's form is built here: ``Submodule.form`` builds it
    from the term's generators the first time something reads it, a
    gate's period test, the keys of a certificate or a comparison with the
    limit.  Each kept term records its minimal period E and its rank
    n*E - r_target there, rk*b from U and n_free*b - r_target from f*Q as
    ranks add, which :func:`invariant_report` reads in place of a form; and
    the canonical key of U, e, f, the span of the gcd of the lifted
    generators' entries in each free column they fill (:func:`_gcd_spans`),
    found once per sequence, and Q, the lifted generators at the stored
    period E; :func:`certify_convergence` reads them to skip the terms that
    agree with U on its ball by the degree gap and to decide the others
    by its quotient test.  The terms are built by the unchecked
    ``Submodule._raw``, as every part is valid: U's generators at E are
    its nonzero canonical rows, shifted, and the lifted generators are
    nonzero, so their products with F != 0 are nonzero.  Q is built the
    same way, and its form only when the quotient test reads it.  A count
    past ``SEQUENCE_BUDGET`` is refused before anything is built, and a
    term form past ``FORM_COLUMN_BUDGET`` or ``FORM_ENTRY_BUDGET`` before
    Q or any term is: it has n*E columns and n*E - r_target rows.
    """
    check_term_count(count)
    n, p = U.n, U.p
    canon = U.canonical()
    report = invariant_report(canon)
    e, r_u = report.e, report.deficiency
    if r_u <= 0:
        raise DomainError(
            f"deficiency of U must be positive: n*e - rk = {n}*{e} - {report.rank} = {r_u}"
        )
    if r_target < 0:
        raise DomainError(f"target deficiency must be >= 0, got {r_target}")
    if r_target >= r_u * b:
        raise DomainError(
            f"target deficiency must satisfy r_target < deficiency*b: "
            f"{r_target} >= {r_u}*{b} = {r_u * b}"
        )
    form = canon.form(e)
    ncols, E = n * e, e * b
    _check_form_size(n, E, n * E - r_target)
    free_cols = [c for c in range(ncols) if c not in form.pivots]
    n_free = len(free_cols)  # equals the deficiency r_u
    # Build the prescribed-invariant subgroup in the free quotient coordinates.
    quotient_piece = construct_with_invariants(n_free, p, b, n_free * b - r_target)
    gates = []  # (d, g_d) for each period d = E/q a term may have below E
    for d in [E // q for q in _divisors(e)[1:] if b % q and _divisors(q) == [1, q]]:
        g_d = Poly.zero(p)
        for g in canon.gens:
            residue = form.residue(_vector_coordinates(g, e, d))
            if any(c in form.pivots for c, _ in residue):
                break  # x^d U is not in M + R_y^F, so d is no term's period
            for terms in _by_column(residue.items()).values():
                g_d = poly_gcd(g_d, _body(terms, p)[1])
        else:
            gates.append((d, g_d))
    base_gens = canon._at_period(E).gens
    key = canon.canonical_key()
    lifted = tuple(
        _vector_at(
            {(free_cols[a], q): c for a, entry in enumerate(t.coords) for q, c in entry.terms()},
            n, e, p,
        )
        for t in quotient_piece.gens
    )
    spans = _gcd_spans(lifted, e, p)
    Q = Submodule._raw(n, p, E, lifted)
    out = []
    for f in irreducibles(p):
        spread = [0] * (e * f.degree + 1)
        spread[::e] = f.coeffs
        F = LaurentPoly._raw(p, 0, Poly._raw(p, spread))  # f(x^e); f(0) != 0
        gens = tuple(g.scaled(F) for g in lifted)
        term = Submodule._raw(n, p, E, base_gens + gens)
        if any((g_d % f).is_zero() and term.has_period(d) for d, g_d in gates):
            continue
        _set(term, "_e", E)
        _set(term, "_rank", n * E - r_target)
        _set(term, "_gap", (key, e, f, spans, Q))
        out.append(term)
        if len(out) == count:
            return out
