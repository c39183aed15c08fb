"""Exact arithmetic over F_p[x] and the Laurent ring F_p[x, x^-1].

Coefficients are machine integers reduced modulo a prime p; there is no
floating point anywhere in this package.  Polynomials are stored as
coefficient tuples in ascending degree with no trailing zeros, so equal
polynomials are equal tuples.  A Laurent polynomial is a pair
(offset, body) representing x^offset * body where the body has a nonzero
constant term; this normalizes away the unit group {c * x^k} of the
Laurent ring and makes canonical forms unique.

Every value has one representative, and the public constructors always
return it: ``Poly`` reduces its coefficients mod p and strips trailing
zeros, and ``LaurentPoly`` moves the low zeros of its body into the offset.
Every value type subclasses ``Frozen``, which refuses assignment, and its
public constructor is a checking ``__new__`` that returns ``cls._raw(...)``.
``_raw`` starts from ``object.__new__(cls)``, is the one place the slots are
written (by ``_set``), checks nothing and states in its docstring what its
caller guarantees; input from outside the program never goes through it.

The degree of the zero polynomial is the sentinel ``None``, never a number.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import ConsistencyError, ContextError, DomainError, ResourceBudgetError

PRIME_BOUND = 1 << 16
ENUMERATION_BUDGET = 10**6
# Largest number of terms of an approach sequence or list of irreducibles;
# 1,000 terms toward s=1, U=0 (p=2), each with its canonical form, take
# about 0.1 s on a 2-core Xeon.
SEQUENCE_BUDGET = 1000


@lru_cache(maxsize=None)
def check_prime(p):
    """Validate a modulus: prime and below the documented desk-scale bound."""
    if not isinstance(p, int) or p < 2:
        raise DomainError(f"modulus must be an integer >= 2, got {p!r}")
    if p >= PRIME_BOUND:
        raise DomainError(f"modulus {p} exceeds the supported bound 2^16")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise DomainError(f"modulus {p} is not prime (divisible by {d})")
        d += 1
    return p


_set = object.__setattr__  # the one slot write of a value; see ``Frozen``


class Frozen:
    """Base of the immutable value types.  Only ``Submodule`` keeps what it
    finds later: its lazily kept fields are written by ``_set`` where found."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _trimmed(coeffs):
    """The list ``coeffs`` without its trailing zeros, stripped in place."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _same_p(a, b):
    if a.p != b.p:
        raise ContextError(f"mixed moduli: {a.p} and {b.p}")


class Poly(Frozen):
    """Polynomial over F_p: ``coeffs[i]`` is the coefficient of x^i.

    The constructor checks p and always returns the canonical value: the
    coefficients reduced mod p, with no trailing zero.  :meth:`_raw` is only
    for coefficients valid by construction.
    """

    __slots__ = ("p", "coeffs")

    def __new__(cls, p, coeffs=()):
        check_prime(p)
        return cls._raw(p, _trimmed([c % p for c in coeffs]))

    @classmethod
    def _raw(cls, p, coeffs):
        """Unchecked: p is prime and ``coeffs`` a sequence of coefficients
        in [0, p) whose last one, if any, is nonzero."""
        obj = object.__new__(cls)
        _set(obj, "p", p)
        _set(obj, "coeffs", tuple(coeffs))
        return obj

    @classmethod
    def zero(cls, p):
        return cls(p, ())

    @classmethod
    def one(cls, p):
        return cls(p, (1,))

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def constant(self):
        return self.coeffs[0] if self.coeffs else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __add__(self, other):
        _same_p(self, other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return Poly._raw(self.p, _trimmed(out))

    def __neg__(self):
        return Poly._raw(self.p, [-c % self.p for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        _same_p(self, other)
        if not self.coeffs or not other.coeffs:
            return Poly.zero(self.p)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = (out[i + j] + a * b) % self.p
        return Poly._raw(self.p, out)

    __rmul__ = __mul__

    def scale(self, c):
        c %= self.p
        if c == 0:
            return Poly.zero(self.p)
        if c == 1:
            return self
        return Poly._raw(self.p, [c * a % self.p for a in self.coeffs])

    def shift(self, k):
        """Multiply by x^k, k >= 0."""
        if k < 0:
            raise DomainError("negative shift on Poly; use LaurentPoly")
        if not self.coeffs or k == 0:
            return self
        return Poly._raw(self.p, (0,) * k + self.coeffs)

    def __divmod__(self, other):
        _same_p(self, other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead = other.coeffs[-1]
        if lead == 0:
            raise ConsistencyError(f"divisor {other.coeffs} has a trailing zero coefficient")
        p = self.p
        rem = list(self.coeffs)
        db = other.degree
        inv_lead = pow(lead, p - 2, p)
        q = [0] * max(0, len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c:
                factor = (c * inv_lead) % p
                q[i - db] = factor
                for j, bc in enumerate(other.coeffs):
                    rem[i - db + j] = (rem[i - db + j] - factor * bc) % p
        return Poly._raw(p, q), Poly._raw(p, _trimmed(rem))

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            return self
        lead = self.leading()
        if lead == 1:
            return self
        return self.scale(pow(lead, self.p - 2, self.p))

    def __repr__(self):
        return f"Poly({self.p}, {format_poly_plain(self)!r})"


def format_poly_plain(f):
    """Human-readable form, ascending exponents: ``1+x^2+2x^3``."""
    if f.is_zero():
        return "0"
    terms = []
    for k, c in enumerate(f.coeffs):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            terms.append(f"{head}x" if k == 1 else f"{head}x^{k}")
    return "+".join(terms)


def poly_gcd(a, b):
    """Monic gcd in F_p[x]; gcd(0, 0) = 0."""
    _same_p(a, b)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def geometric_series(t, step, p):
    """1 + x^step + x^(2*step) + ... + x^((t-1)*step), for t, step >= 1."""
    if t < 1 or step < 1:
        raise DomainError("geometric_series requires t >= 1 and step >= 1")
    coeffs = [0] * ((t - 1) * step + 1)
    for i in range(t):
        coeffs[i * step] = 1
    return Poly(p, coeffs)


def base_p_digits(value, p, length):
    """The ``length`` lowest base-p digits of a nonnegative value, lowest first."""
    digits = []
    for _ in range(length):
        value, digit = divmod(value, p)
        digits.append(digit)
    return digits


def _mark_products(marked, g, d, c, powers):
    """Mark in block c of degree d every g*h, h monic of degree m = d - deg g
    with h(0) != 0 and x^(m-1) coefficient c minus that of g.  The free
    coefficients h_0 != 0, h_1 .. h_(m-2) step as an odometer: raising h_j
    by one adds g*x^j, moving only the digits j .. j + deg g < d - 1."""
    p, gc, k = g.p, g.coeffs, g.degree
    h = [1] * (d - k > 1) + [0] * (d - k - 2) + [(c - gc[k - 1]) % p, 1]
    if not h[0]:
        return
    low = list((g * Poly._raw(p, h)).coeffs[: d - 1])
    idx, digits = sum(a * w for a, w in zip(low, powers)), h[: d - k - 1]
    while True:
        marked[idx] = 1
        for j, digit in enumerate(digits):
            step = 2 if j == 0 and digit == p - 1 else 1  # h_0 wraps to 1
            digits[j] = (digit + step) % p
            for i, a in enumerate(gc, j):
                old = low[i]
                low[i] = new = (old + step * a) % p
                idx += (new - old) * powers[i]
            if digit < p - 1:
                break
        else:
            return


# Per prime, the irreducibles read so far by any ``irreducibles(p)`` and the
# index in that list at which degree 1 and each sieved block end.  Extended
# only by a reader past its end, a block at a time.
_SIEVED = {}


def irreducibles(p):
    """The monic irreducibles other than x, lazily, in (degree, encoding) order.

    The polynomial x is excluded: it is a unit in the Laurent ring, so
    multiplying a subgroup by it changes nothing.  Degree 1 is x + c, c != 0.
    Degree d >= 2 is sieved one block at a time, block c holding in encoding
    order the f with x^(d-1) coefficient c: every reducible f with f(0) != 0
    is marked by :func:`_mark_products` as g*h for an irreducible g found
    already with 2 deg g <= d.  A block of p^(d-1) > ``ENUMERATION_BUDGET``
    entries is refused before it is allocated or read.  Every generator
    reads one list per prime and sieves only the blocks no earlier reader
    has reached.
    """
    check_prime(p)
    found, ends = _SIEVED.setdefault(p, ([], [p - 1]))
    for i in range(p - 1):
        if i == len(found):
            found.append(Poly._raw(p, [i + 1, 1]))
        yield found[i]
    block = 0
    for d in itertools.count(2):
        size = p ** (d - 1)
        if size > ENUMERATION_BUDGET:
            raise ResourceBudgetError(
                f"a degree-{d} sieve block of size", size, ENUMERATION_BUDGET
            )
        for c in range(p):
            block += 1
            if block == len(ends):
                found.extend(_sieve_block(found, p, d, c))
                ends.append(len(found))
            yield from found[ends[block - 1] : ends[block]]


def _sieve_block(found, p, d, c):
    """The irreducibles of block c of degree d, the smaller ones all in ``found``."""
    size = p ** (d - 1)
    powers = [p**i for i in range(d - 1)]
    marked = bytearray(size)
    marked[::p] = b"\x01" * (size // p)  # f(0) = 0
    for g in found:
        if 2 * g.degree > d:
            break
        _mark_products(marked, g, d, c, powers)
    out = []
    i = marked.find(0)
    while i >= 0:
        out.append(Poly._raw(p, base_p_digits(i, p, d - 1) + [c, 1]))
        i = marked.find(0, i + 1)
    return out


def check_term_count(count):
    """Refuse a count of sequence terms below 1 or past ``SEQUENCE_BUDGET``."""
    if count < 1:
        raise DomainError("count must be >= 1")
    if count > SEQUENCE_BUDGET:
        raise ResourceBudgetError("a term count", count, SEQUENCE_BUDGET)


def enumerate_irreducibles(p, count):
    """First ``count`` monic irreducibles of :func:`irreducibles`.

    A count past ``SEQUENCE_BUDGET`` is refused before any is built.
    """
    check_prime(p)
    check_term_count(count)
    return list(itertools.islice(irreducibles(p), count))


class LaurentPoly(Frozen):
    """Element x^offset * body of F_p[x, x^-1], body with nonzero constant term.

    The constructor checks p and always returns the canonical value: the
    low zeros of the body move into the offset, and the zero element has
    offset 0.  :meth:`_raw` is only for parts valid by construction.
    """

    __slots__ = ("p", "offset", "body")

    def __new__(cls, p, offset=0, body=None):
        check_prime(p)
        if body is not None and body.p != p:
            raise ContextError(f"a body over {body.p} for a Laurent polynomial over {p}")
        if body is None or body.is_zero():
            return cls._raw(p, 0, Poly.zero(p))
        val = 0
        while body.coeffs[val] == 0:
            val += 1
        if val:
            body = Poly._raw(p, body.coeffs[val:])
        return cls._raw(p, offset + val, body)

    @classmethod
    def _raw(cls, p, offset, body):
        """Unchecked: p is prime and ``body`` a Poly over p, zero with
        offset 0 or else with a nonzero constant term."""
        obj = object.__new__(cls)
        _set(obj, "p", p)
        _set(obj, "offset", offset)
        _set(obj, "body", body)
        return obj

    @classmethod
    def zero(cls, p):
        return cls(p)

    @classmethod
    def one(cls, p):
        return cls(p, 0, Poly.one(p))

    @classmethod
    def from_poly(cls, f):
        return cls(f.p, 0, f)

    @classmethod
    def monomial(cls, p, k, c=1):
        return cls(p, k, Poly(p, (c,)))

    def is_zero(self):
        return self.body.is_zero()

    def __bool__(self):
        return bool(self.body)

    def terms(self):
        """Yield (exponent, coefficient) pairs, ascending, nonzero only."""
        for i, c in enumerate(self.body.coeffs):
            if c:
                yield self.offset + i, c

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.p == other.p
            and self.offset == other.offset
            and self.body == other.body
        )

    def __hash__(self):
        return hash((self.p, self.offset, self.body))

    def __add__(self, other):
        _same_p(self, other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        off = min(self.offset, other.offset)
        a = self.body.shift(self.offset - off)
        b = other.body.shift(other.offset - off)
        return LaurentPoly(self.p, off, a + b)

    def __neg__(self):
        return LaurentPoly._raw(self.p, self.offset, -self.body)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if isinstance(other, Poly):
            other = LaurentPoly.from_poly(other)
        _same_p(self, other)
        return LaurentPoly(self.p, self.offset + other.offset, self.body * other.body)

    __rmul__ = __mul__

    def scale(self, c):
        b = self.body.scale(c)
        if b.is_zero():
            return LaurentPoly.zero(self.p)
        return LaurentPoly._raw(self.p, self.offset, b)

    def shifted(self, k):
        """Multiply by x^k (any sign): offset adjustment only."""
        if self.is_zero() or k == 0:
            return self
        return LaurentPoly._raw(self.p, self.offset + k, self.body)

    def __repr__(self):
        return f"LaurentPoly({self.p}, {format_laurent(self)!r})"


def format_laurent(f):
    """Canonical text: plain body, with an ``x^k*(...)`` prefix if k != 0."""
    if f.is_zero():
        return "0"
    body = format_poly_plain(f.body)
    if f.offset == 0:
        return body
    return f"x^{f.offset}*({body})"
