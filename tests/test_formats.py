"""Text and JSON round trips, with strict rejection of malformed input."""

from fractions import Fraction

import pytest

from lampirs.algebra import LaurentPoly, Poly
from lampirs.errors import FormatError, ResourceBudgetError
from lampirs.formats import (
    POLY_SPAN_BUDGET,
    canonical_json,
    canonical_json_pieces,
    format_laurent,
    format_submodule,
    format_triple,
    format_vector,
    measure_from_json,
    parse_poly,
    parse_submodule_lines,
    parse_triple,
    parse_vector,
    triple_to_json,
)
from lampirs.lamplighter import SubgroupTriple
from lampirs.rng import SplitMix64
from lampirs.submodules import LaurentVector, Submodule


def triple_from_json(data):
    """The triple a ``triple_to_json`` object describes."""
    n, p, e = data["n"], data["p"], data["e"]
    U = Submodule(n, p, e, (parse_vector(g, n, p) for g in data["gens"]))
    return SubgroupTriple(data["s"], U, parse_vector(data["v"], n, p))


def rand_poly(rng, p):
    f = LaurentPoly.zero(p)
    for e in range(-3, 4):
        c = rng.below(p)
        if c:
            f = f + LaurentPoly.monomial(p, e, c)
    return f


class TestPolyText:
    def test_zero(self):
        assert format_laurent(LaurentPoly.zero(2)) == "0"
        assert parse_poly("0", 2).is_zero()

    def test_plain_and_offset_forms(self):
        f = LaurentPoly.from_poly(Poly(2, (1, 0, 1)))
        assert format_laurent(f) == "1+x^2"
        g = f.shifted(-3)
        assert format_laurent(g) == "x^-3*(1+x^2)"
        assert parse_poly("x^-3*(1+x^2)", 2) == g

    def test_inline_negative_exponents_accepted(self):
        assert parse_poly("x^-1+1+x", 2) == parse_poly("x^-1*(1+x+x^2)", 2)

    def test_coefficients(self):
        f = parse_poly("2+x^2+2x^3", 3)
        assert format_laurent(f) == "2+x^2+2x^3"
        assert parse_poly("2*x", 5) == LaurentPoly.monomial(5, 1, 2)

    def test_parse_matches_the_sum_of_monomials(self):
        # the body is built once from the terms; it is the sum of their monomials
        rng = SplitMix64(4646)
        for _ in range(200):
            p = (2, 3, 5, 7)[rng.below(4)]
            exps = sorted({rng.below(41) - 20 for _ in range(1 + rng.below(8))})
            coeffs = [rng.below(2 * p) for _ in exps]
            offset = rng.below(9) - 4
            text = "+".join(f"{c}x^{e}" for c, e in zip(coeffs, exps))
            want = LaurentPoly.zero(p)
            for c, e in zip(coeffs, exps):
                want = want + LaurentPoly.monomial(p, e + offset, c)
            assert parse_poly(f"x^{offset}*({text})", p) == want, text

    def test_span_past_the_budget_refused(self):
        assert parse_poly(f"1+x^{POLY_SPAN_BUDGET}", 2).body.degree == POLY_SPAN_BUDGET
        with pytest.raises(ResourceBudgetError):
            parse_poly(f"x^-1+x^{POLY_SPAN_BUDGET}", 2)
        # a lone monomial spans nothing, nor do terms whose coefficient is 0 mod p
        assert parse_poly("x^99999999999", 2) == LaurentPoly.monomial(2, 99999999999)
        assert parse_poly("1+5x^-99999999", 5) == LaurentPoly.one(5)

    def test_duplicate_terms_rejected(self):
        with pytest.raises(FormatError):
            parse_poly("1+1", 2)
        with pytest.raises(FormatError):
            parse_poly("x^2+x^2", 3)

    def test_garbage_rejected(self):
        for bad in ("", "x^", "y+1", "1++x", "x**2"):
            with pytest.raises(FormatError):
                parse_poly(bad, 2)

    def test_roundtrip_random(self):
        rng = SplitMix64(7)
        for p in (2, 3, 5):
            for _ in range(25):
                f = rand_poly(rng, p)
                assert parse_poly(format_laurent(f), p) == f


class TestVectorText:
    def test_roundtrip(self):
        rng = SplitMix64(8)
        for _ in range(20):
            v = LaurentVector(3, (rand_poly(rng, 3), rand_poly(rng, 3)))
            assert parse_vector(format_vector(v), 2, 3) == v

    def test_rank_one_without_brackets(self):
        v = parse_vector("1+x", 1, 2)
        assert v.coords[0] == LaurentPoly.from_poly(Poly(2, (1, 1)))

    def test_wrong_arity(self):
        with pytest.raises(FormatError):
            parse_vector("[1, x]", 3, 2)


class TestBlocks:
    def test_submodule_roundtrip(self):
        U = Submodule(
            2, 2, 2,
            [
                LaurentVector(2, (LaurentPoly.one(2), LaurentPoly.monomial(2, -1))),
                LaurentVector(2, (LaurentPoly.zero(2), LaurentPoly.monomial(2, 2))),
            ],
        )
        text = format_submodule(U)
        parsed, consumed = parse_submodule_lines(text.splitlines())
        assert consumed == 3
        assert parsed.equals(U) and parsed.period == U.period

    def test_triple_roundtrip(self):
        U = Submodule(1, 2, 2, [LaurentVector.unit(1, 2, 0)])
        V = SubgroupTriple(4, U, U.reduce_vector(LaurentVector.unit(1, 2, 0, exponent=1)))
        back = parse_triple(format_triple(V))
        assert back.same_subgroup(V)

    def test_triple_json_roundtrip(self):
        U = Submodule(1, 3, 1, [LaurentVector.unit(1, 3, 0)])
        V = SubgroupTriple(2, U, LaurentVector.zero(1, 3))
        assert triple_from_json(triple_to_json(V)).same_subgroup(V)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_triple("n=1 e=1 p=2\n1\nv=0\n")
        with pytest.raises(FormatError, match="line 2"):
            parse_triple("s=2\nbogus header\n1\nv=0\n")
        with pytest.raises(FormatError):
            parse_triple("s=2\nn=1 e=2 p=2\n1\n")  # missing v=


class TestCanonicalJsonPieces:
    def test_pieces_join_to_canonical_json(self):
        # the list's key before, between and after the other keys, with
        # none of them, and with no items
        rng = SplitMix64(31)
        names = ["a", "m", "marginal", "schema", "tv", "z"]
        for _ in range(300):
            obj = {k: rng.below(5) for k in names if rng.below(2)}
            items = [
                {"m": 2**200 - rng.below(3), "pass": bool(rng.below(2)), "tv": str(rng.below(9))}
                for _ in range(rng.below(4))
            ]
            for key in ("0", "n", "trend", "zz"):
                pieces = canonical_json_pieces(obj, key, iter(items))
                assert "".join(pieces) == canonical_json({**obj, key: items})

    def test_items_are_read_as_the_pieces_are(self):
        read = []
        items = (read.append(i) or i for i in range(3))
        pieces = canonical_json_pieces({"a": 1, "z": 2}, "t", items)
        assert next(pieces) == '{"a":1,"t":['
        assert read == []
        assert next(pieces) == "0"
        assert next(pieces) == ",1"
        assert read == [0, 1]
        assert list(pieces) == [",2", '],"z":2}\n']


class TestWeightExponents:
    # 10^e of a weight's exponent may have up to the 4,300 digits of a
    # literal ``_int`` reads; one more is refused before Fraction expands it.

    @staticmethod
    def measure(first, second):
        atoms = [{"weight": first, "gens": ["1"]}, {"weight": second, "gens": []}]
        return {"n": 1, "p": 2, "atoms": atoms}

    def test_a_weight_near_the_edge_is_parsed(self):
        for e in (4000, 4299):
            mu = measure_from_json(self.measure(f"1e-{e}", "0." + "9" * e))
            assert [w for w, _ in mu.atoms] == [Fraction(1, 10**e), 1 - Fraction(1, 10**e)]

    @pytest.mark.parametrize("weight", ["1e-4300", "1E+4_300", "2.5e-00012345", "1e-" + "9" * 5000])
    def test_a_far_exponent_is_refused_naming_the_weight(self, weight):
        with pytest.raises(FormatError, match="has an exponent past 4299") as raised:
            measure_from_json(self.measure(weight, "1"))
        assert f"weight {weight[:20]!r}"[:-1] in str(raised.value)
