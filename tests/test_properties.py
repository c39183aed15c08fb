"""Property tests: text formats round-trip, canonical keys ignore presentation,
and the encoding order is strict.

Hypothesis runs derandomized and without an example database, so each run
draws the same examples and writes no files.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from lampirs.algebra import LaurentPoly
from lampirs.cbrank import poset_less
from lampirs.formats import (
    format_laurent,
    format_triple,
    format_vector,
    parse_poly,
    parse_triple,
    parse_vector,
)
from lampirs.lamplighter import SubgroupTriple
from lampirs.submodules import LaurentVector, Submodule

PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True, database=None
)
# 11 and 13 need coefficients of two digits in the text formats.
PRIMES = st.sampled_from([2, 3, 5, 11, 13])


def laurent_polys(p):
    terms = st.dictionaries(st.integers(-6, 6), st.integers(1, p - 1), max_size=4)
    return terms.map(
        lambda t: sum(
            (LaurentPoly.monomial(p, exp, c) for exp, c in t.items()),
            LaurentPoly.zero(p),
        )
    )


def vectors(p, n):
    return st.lists(laurent_polys(p), min_size=n, max_size=n).map(
        lambda coords: LaurentVector(p, coords)
    )


@st.composite
def presentations(draw, primes=PRIMES):
    """(p, n, period, generators) of a small nonzero lamp subgroup."""
    p = draw(primes)
    n = draw(st.integers(1, 2))
    period = draw(st.integers(1, 3))
    gens = draw(
        st.lists(vectors(p, n), min_size=1, max_size=3).filter(
            lambda gs: any(not g.is_zero() for g in gs)
        )
    )
    return p, n, period, gens


@st.composite
def triples(draw):
    p, n, period, gens = draw(presentations())
    U = Submodule(n, p, period, gens)
    s = period * draw(st.integers(0, 2))
    v = U.reduce_vector(draw(vectors(p, n))) if s else None
    return SubgroupTriple(s, U, v)


class TestTextRoundTrip:
    @PROPERTY_SETTINGS
    @given(st.data())
    def test_poly(self, data):
        p = data.draw(PRIMES)
        f = data.draw(laurent_polys(p))
        assert parse_poly(format_laurent(f), p) == f

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_vector(self, data):
        p = data.draw(PRIMES)
        n = data.draw(st.integers(1, 3))
        v = data.draw(vectors(p, n))
        assert parse_vector(format_vector(v), n, p) == v

    @PROPERTY_SETTINGS
    @given(triples())
    def test_triple(self, triple):
        text = format_triple(triple)
        back = parse_triple(text)
        assert (back.s, back.n, back.p) == (triple.s, triple.n, triple.p)
        assert back.lamps.period == triple.lamps.period
        assert back.lamps.gens == triple.lamps.gens
        assert back.v == triple.v
        assert format_triple(back) == text


# Canonical keys are slow for large p; the presentation laws do not depend on it.
SMALL_PRESENTATIONS = presentations(primes=st.sampled_from([2, 3, 5]))


class TestCanonicalKeyIgnoresPresentation:
    @PROPERTY_SETTINGS
    @given(SMALL_PRESENTATIONS, st.randoms(use_true_random=False))
    def test_permuted_generators(self, presentation, rnd):
        p, n, period, gens = presentation
        shuffled = list(gens)
        rnd.shuffle(shuffled)
        assert (
            Submodule(n, p, period, shuffled).canonical_key()
            == Submodule(n, p, period, gens).canonical_key()
        )

    @PROPERTY_SETTINGS
    @given(SMALL_PRESENTATIONS, st.data())
    def test_generator_scaled_by_a_unit(self, presentation, data):
        # The units of F_p[x^period, x^-period] are c * x^(k * period).
        p, n, period, gens = presentation
        i = data.draw(st.integers(0, len(gens) - 1))
        c = data.draw(st.integers(1, p - 1))
        k = data.draw(st.integers(-3, 3))
        scaled = list(gens)
        scaled[i] = gens[i].scaled(LaurentPoly.monomial(p, k * period, c))
        assert (
            Submodule(n, p, period, scaled).canonical_key()
            == Submodule(n, p, period, gens).canonical_key()
        )

    @PROPERTY_SETTINGS
    @given(SMALL_PRESENTATIONS, st.data())
    def test_redundant_sum_joined(self, presentation, data):
        p, n, period, gens = presentation
        i = data.draw(st.integers(0, len(gens) - 1))
        j = data.draw(st.integers(0, len(gens) - 1))
        k = data.draw(st.integers(-2, 2))
        redundant = gens[i] + gens[j].shifted(k * period)
        assert (
            Submodule(n, p, period, [*gens, redundant]).canonical_key()
            == Submodule(n, p, period, gens).canonical_key()
        )


ENCODING_PAIRS = st.tuples(st.integers(1, 64), st.integers(0, 64))


@st.composite
def divisor_chains(draw):
    """Three encoding pairs whose t's divide each other in turn, t <= 64."""
    t1 = draw(st.integers(1, 64))
    t2 = t1 * draw(st.integers(1, 64 // t1))
    t3 = t2 * draw(st.integers(1, 64 // t2))
    return tuple((t, draw(st.integers(0, 64))) for t in (t1, t2, t3))


class TestEncodingOrder:
    # Uniform triples are rarely chains, so divisor chains are drawn as well.
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.tuples(ENCODING_PAIRS, ENCODING_PAIRS, ENCODING_PAIRS), divisor_chains()))
    def test_strict_order(self, triple):
        a, b, c = triple
        assert not poset_less(a, a)
        if poset_less(a, b) and poset_less(b, c):
            assert poset_less(a, c)
