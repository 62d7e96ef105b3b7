"""Ideal-file grammar: parsing, located errors, round-trip printing."""

import pytest
from conftest import mideal, random_monomial_ideal, random_poly_ideal, seeded

from sympow import ParseError, Polynomial, Ring
from sympow.ideal_files import (
    format_generators,
    format_ideal_file,
    format_polynomial,
    monomial_ideal_from_poly,
    parse_ideal_file,
    parse_polynomial,
)

EX31_FILE = """\
# the three-generator ideal in four variables
ring: x y z t
ideal I: x*z, x*t^2, y^2*z
ideal P1: x, y^2
ideal P2: z, t^2
ideal P3: x, z
decomposition D: P1 & P2 & P3
"""


class TestParsing:
    def test_recorded_file(self):
        parsed = parse_ideal_file(EX31_FILE)
        assert parsed.ring.variables == ("x", "y", "z", "t")
        I = monomial_ideal_from_poly(parsed.ideal("I"))
        assert I == mideal(parsed.ring, "x*z", "x*t^2", "y^2*z")
        comps = [monomial_ideal_from_poly(c) for c in parsed.decomposition_components("D")]
        assert len(comps) == 3

    def test_polynomial_generators(self):
        text = "ring: x y z t a b\nideal M: x*(x-y)*y*a, (x-y)*z*t*b, y*z*(x*a-t*b)\n"
        parsed = parse_ideal_file(text)
        M = parsed.ideal("M")
        assert len(M.generators) == 3
        assert all(g.total_degree() == 4 for g in M.generators)
        R = parsed.ring
        x = Polynomial.variable(R, "x")
        y = Polynomial.variable(R, "y")
        a = Polynomial.variable(R, "a")
        assert M.generators[0] == x * (x - y) * y * a

    def test_empty_ideal_is_zero(self):
        parsed = parse_ideal_file("ring: x y\nideal Z:\n")
        assert parsed.ideal("Z").is_zero()

    def test_coefficients_and_signs(self):
        parsed = parse_ideal_file("ring: x y\nideal I: 2*x - 3*y, -x + y, 2x\n")
        R = parsed.ring
        gens = parsed.ideal("I").generators
        x = Polynomial.variable(R, "x")
        y = Polynomial.variable(R, "y")
        assert gens == (2 * x - 3 * y, -x + y, 2 * x)

    def test_integer_constant_term(self):
        parsed = parse_ideal_file("ring: x\nideal I: x - 1\n")
        R = parsed.ring
        assert parsed.ideal("I").generators[0] == Polynomial.variable(R, "x") - 1

    def test_comments_and_blank_lines(self):
        parsed = parse_ideal_file("\n# intro\nring: x  # trailing\n\nideal I: x\n")
        assert parsed.ideal("I").generators

    def test_nested_parens(self):
        parsed = parse_ideal_file("ring: x y\nideal I: ((x - y)) * (x + (y))\n")
        R = parsed.ring
        x = Polynomial.variable(R, "x")
        y = Polynomial.variable(R, "y")
        assert parsed.ideal("I").generators[0] == x * x - y * y


def location(err: ParseError):
    return err.line, err.col


class TestErrors:
    def test_unknown_variable(self):
        with pytest.raises(ParseError) as info:
            parse_ideal_file("ring: x y\nideal I: x*q\n")
        assert "unknown variable" in str(info.value)
        assert location(info.value) == (2, 12)

    def test_malformed_exponent(self):
        with pytest.raises(ParseError) as info:
            parse_ideal_file("ring: x\nideal I: x^0\n")
        assert "exponent" in str(info.value)
        with pytest.raises(ParseError) as info:
            parse_ideal_file("ring: x\nideal I: x^y\n")
        assert "exponent" in str(info.value)

    def test_duplicate_name(self):
        with pytest.raises(ParseError) as info:
            parse_ideal_file("ring: x\nideal I: x\nideal I: x\n")
        assert "duplicate name" in str(info.value)
        assert info.value.line == 3

    def test_reserved_character_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_ideal_file("ring: x\nideal I: @w\n")
        assert "unexpected character" in str(info.value)

    def test_missing_ring(self):
        with pytest.raises(ParseError) as info:
            parse_ideal_file("ideal I: x\n")
        assert "ring" in str(info.value)

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_ideal_file("ring: x\nfoo I: x\n")

    def test_unknown_decomposition_reference(self):
        with pytest.raises(ParseError) as info:
            parse_ideal_file("ring: x\nideal I: x\ndecomposition D: I & J\n")
        assert "unknown ideal" in str(info.value)

    def test_duplicate_ring(self):
        with pytest.raises(ParseError):
            parse_ideal_file("ring: x\nring: y\n")

    def test_adjacent_factors_need_star(self):
        with pytest.raises(ParseError):
            parse_ideal_file("ring: x y\nideal I: x y\n")

    def test_dangling_star_after_coefficient(self):
        with pytest.raises(ParseError):
            parse_ideal_file("ring: x\nideal I: 2*\n")
        with pytest.raises(ParseError):
            parse_ideal_file("ring: x\nideal I: x*\n")

    def test_nesting_limit(self):
        from sympow.ideal_files import _MAX_NESTING

        def nested(depth):
            return "ring: x\nideal I: " + "(" * depth + "x" + ")" * depth + "\n"

        parsed = parse_ideal_file(nested(_MAX_NESTING))
        assert parsed.ideal("I").generators[0] == Polynomial.variable(parsed.ring, "x")
        with pytest.raises(ParseError) as info:
            parse_ideal_file(nested(_MAX_NESTING + 1))
        assert "nested deeper" in str(info.value)
        # located at the first parenthesis past the limit
        assert location(info.value) == (2, len("ideal I: ") + _MAX_NESTING + 1)

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_ideal_file("ring: x\nideal I: " + "(" * 5000 + "x" + ")" * 5000 + "\n")


class TestPrinting:
    def test_monomial_style(self):
        R = Ring(("x", "y"))
        I = mideal(R, "x^2*y", "y^3")
        assert format_generators(I) == "y^3, x^2*y"  # canonical: ascending (degree, exponents)

    def test_polynomial_style(self):
        R = Ring(("x", "y", "z"))
        p = parse_polynomial(R, "x^2*y - 2*x + 1")
        assert format_polynomial(p) == "x^2*y - 2*x + 1"
        # content normalization makes the lex-leading coefficient positive
        assert format_polynomial(parse_polynomial(R, "-x + y")) == "x - y"

    def test_fractional_input_normalized(self):
        from fractions import Fraction

        R = Ring(("x", "y"))
        p = parse_polynomial(R, "2*x - 3*y") * Fraction(1, 6)
        assert format_polynomial(p) == "2*x - 3*y"


class TestRoundTrip:
    def test_recorded_file_round_trip(self):
        parsed = parse_ideal_file(EX31_FILE)
        text = format_ideal_file(parsed)
        again = parse_ideal_file(text)
        assert again.ring == parsed.ring
        assert set(again.ideals) == set(parsed.ideals)
        for name in parsed.ideals:
            assert again.ideals[name].generators == tuple(
                g.content_normalized() for g in parsed.ideals[name].generators
            )
        assert again.decompositions == parsed.decompositions

    def test_random_ideals_round_trip(self):
        rng = seeded(501)
        done = 0
        while done < 100:
            if rng.random() < 0.5:
                I = random_monomial_ideal(rng)
                if I.is_zero():
                    continue
                text = f"ring: {' '.join(I.ring.variables)}\nideal I: {format_generators(I)}\n"
                back = monomial_ideal_from_poly(parse_ideal_file(text).ideal("I"))
                assert back == I
            else:
                I = random_poly_ideal(rng)
                gens = tuple(g.content_normalized() for g in I.generators)
                text = (
                    f"ring: {' '.join(I.ring.variables)}\n"
                    f"ideal I: {', '.join(format_polynomial(g) for g in gens)}\n"
                )
                back = parse_ideal_file(text).ideal("I")
                assert back.generators == gens
            done += 1
