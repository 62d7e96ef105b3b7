"""Ideal-file grammar: parsing, located errors, round-trip printing."""

import re
import sys

import pytest
from conftest import mideal, random_monomial_ideal, random_poly_ideal, seeded

from sympow import ParseError, Polynomial, Ring
from sympow.cli import EXIT_PARSE, main
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


# characters that str.splitlines() breaks at, but an ideal-file line does not
INLINE_SPACES = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineEnds:
    @pytest.mark.parametrize("space", INLINE_SPACES, ids=repr)
    def test_other_whitespace_stays_inside_the_line(self, space):
        with pytest.raises(ParseError) as info:
            parse_ideal_file(f"ring: x{space}y\nideal J: q\n")
        assert info.value.message == "unknown variable 'q'"
        assert location(info.value) == (2, 10)
        parsed = parse_ideal_file(f"ring: x{space}y\nideal J: x*{space}y\n")
        assert parsed.ring.variables == ("x", "y")
        assert len(parsed.ideal("J").generators) == 1

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=repr)
    def test_each_line_end_ends_one_line(self, end):
        text = end.join(["ring: x", "", "# note", "ideal I: y"]) + end
        with pytest.raises(ParseError) as info:
            parse_ideal_file(text)
        assert location(info.value) == (4, 10)

    @pytest.mark.parametrize("text, line", [
        ("", 1), ("# a", 2), ("# a\n", 2), ("# a\r\n\r", 3), ("# a\f# b\n\n", 3), ("# a\u2028\n", 2)])
    def test_missing_ring_is_on_the_line_after_the_last(self, text, line):
        with pytest.raises(ParseError) as info:
            parse_ideal_file(text)
        assert info.value.message == "missing ring declaration"
        assert location(info.value) == (line, 1)

    def test_cli_reads_a_ring_across_a_vertical_tab(self, tmp_path, capsys):
        path = tmp_path / "vt.ideal"
        path.write_text("ring: x\v y\nideal J: q\n", encoding="utf-8")
        assert main(["sympow", "--file", str(path), "--ideal", "J", "--n", "1"]) == EXIT_PARSE
        assert "line 2, col 10: unknown variable 'q'" in capsys.readouterr().err


# Python 3.10 (and a limit of 0) converts integer strings of any length
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_digit_limit = pytest.mark.skipif(
    not INT_DIGIT_LIMIT, reason="int() takes integer strings of any length here")


class TestOverLongLiterals:
    """An integer literal longer than int() accepts is a located parse error."""

    @needs_int_digit_limit
    @pytest.mark.parametrize("template", ["ideal I: {}*x", "ideal I: x + {}", "ideal I: x^{}"],
                             ids=["coefficient", "constant", "exponent"])
    def test_located_at_the_literal(self, template):
        digits = "9" * (INT_DIGIT_LIMIT + 1)
        line = template.format(digits)
        with pytest.raises(ParseError) as info:
            parse_ideal_file(f"ring: x\n{line}\n")
        assert info.value.message == f"integer literal of {len(digits)} digits is too long"
        assert location(info.value) == (2, line.index(digits) + 1)

    @needs_int_digit_limit
    def test_cli_exits_with_the_parse_code(self, tmp_path, capsys):
        path = tmp_path / "long.ideal"
        path.write_text(f"ring: x\nideal I: {'9' * (INT_DIGIT_LIMIT + 1)}*x\n")
        assert main(["sympow", "--file", str(path), "--ideal", "I", "--n", "2"]) == EXIT_PARSE
        assert "line 2, col 10: integer literal of" in capsys.readouterr().err

    def test_literals_below_the_limit_still_parse(self):
        R = Ring(("x",))
        digits = "9" * min(INT_DIGIT_LIMIT or 5000, 5000)
        p = parse_polynomial(R, f"{digits}*x^{digits}")
        assert p.coeffs == {(int(digits),): int(digits)}


class TestLinearParsing:
    @staticmethod
    def count_constructions(monkeypatch):
        built = []
        init = Polynomial.__init__

        def counting(self, *args, **kwargs):
            built.append(None)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Polynomial, "__init__", counting)
        return built

    @pytest.mark.parametrize("head", ["", "(x - y)*(x + z)*y + "], ids=["terms", "parenthesized"])
    def test_polynomials_built_do_not_grow_with_the_terms(self, monkeypatch, head):
        built = self.count_constructions(monkeypatch)
        counts = {}
        for n in (4, 4000):
            text = "ring: x y z\nideal I: " + head + " - ".join(
                f"{k}*x^{k}*y*z^{k % 7 + 1}" for k in range(1, n + 1)) + "\n"
            built.clear()
            (g,) = parse_ideal_file(text).ideal("I").generators
            counts[n] = len(built)
            assert len(g.coeffs) >= n
        assert counts[4] == counts[4000]
        if not head:
            assert counts[4000] == 1

    def test_unknown_variable_after_a_parenthesized_factor(self):
        line = "ideal I: (x + y)*z"
        with pytest.raises(ParseError) as info:
            parse_ideal_file(f"ring: x y\n{line}\n")
        assert info.value.message == "unknown variable 'z'"
        assert location(info.value) == (2, line.index("z") + 1)

    def test_zero_exponent_after_a_parenthesized_factor(self):
        line = "ideal I: (x + y)*x^0"
        with pytest.raises(ParseError) as info:
            parse_ideal_file(f"ring: x y\n{line}\n")
        assert info.value.message == "malformed exponent: must be a positive integer"
        assert location(info.value) == (2, line.index("0") + 1)

    def test_zero_terms_add_nothing(self):
        R = Ring(("x", "y"))
        x = Polynomial.variable(R, "x")
        for text in ("0", "0*x", "-0*x*(x + y)", "x - x", "2*(x - x)*y"):
            assert parse_polynomial(R, text).is_zero(), text
        assert parse_polynomial(R, "0 + x + 0*y - 0").coeffs == x.coeffs
        assert parse_ideal_file("ring: x y\nideal I: 0, 0*x, x - x\n").ideal("I").is_zero()

    def test_repeated_variables_add_their_exponents(self):
        R = Ring(("x", "y"))
        assert parse_polynomial(R, "3*x*y*x^2*y^4").coeffs == {(3, 5): 3}
        assert parse_polynomial(R, "x*(x + y)*x^2 - x^4").coeffs == {(3, 1): 1}


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


class TestLocatedErrors:
    def test_every_file_round_trips_or_fails_inside_a_line(self):
        """Files drawn from the grammar's tokens and stray characters either
        parse and print back to the same file, or raise a ParseError on a line
        the file has, at a column of that line or just past its end."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        from sympow.ideal_files import _MAX_NESTING

        long_literal = "9" * ((INT_DIGIT_LIMIT or 4300) + 1)
        soup = st.lists(st.sampled_from([
            "x", "y", "z", "I", "J", "D", "ring", "ideal", "decomposition", "0", "2", "17",
            ":", ",", "&", "^", "*", "+", "-", "(", ")", " ", "#",
            "@", "\u00e9", "\t", "\f", "((", ")))", "(" * (_MAX_NESTING + 1), "(" * 5000, long_literal,
        ]), max_size=10).map("".join)
        polys = st.lists(st.sampled_from(["x", "y^2", "2*z", "(x - y)", "-x", "3", "x*(y + 1)^1",
                                          f"{long_literal}*x", f"x^{long_literal}"]),
                         min_size=1, max_size=4).map(" + ".join)
        names = st.sampled_from(["I", "J", "D", "x"])
        lines = st.one_of(
            soup,
            st.just("ring: x y z"),
            st.builds("ideal {}: {}".format, names, st.lists(polys, max_size=3).map(", ".join)),
            st.builds("ideal {}: {}".format, names, soup),
            st.builds("decomposition {}: {}".format, names, st.lists(names, max_size=3).map(" & ".join)),
        )
        files = st.lists(st.tuples(lines, st.sampled_from(["\n", "\r\n", "\r", " # note\n", ""])),
                         max_size=6).map(lambda parts: "".join(line + end for line, end in parts))

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(st.tuples(st.booleans(), files))
        @hypothesis.example((True, f"ideal I: 2*{long_literal}*x\n"))
        @hypothesis.example((True, "ideal I: " + "(" * 5000 + "x\n"))
        @hypothesis.example((True, "ideal I: x\f*\ty @\n"))
        @hypothesis.example((False, "ring: x\u00e9\r\n"))
        def check(case):
            text = ("ring: x y z\n" if case[0] else "") + case[1]
            try:
                parsed = parse_ideal_file(text)
            except ParseError as err:
                lines = re.split(r"\r\n|\r|\n", text) + [""]  # and the line after the last
                assert 1 <= err.line <= len(lines)
                assert 1 <= err.col <= len(lines[err.line - 1]) + 1
                return
            again = parse_ideal_file(format_ideal_file(parsed))
            assert again.ring == parsed.ring
            assert again.decompositions == parsed.decompositions
            assert {name: I.generators for name, I in again.ideals.items()} == {
                name: tuple(g.content_normalized() for g in I.generators)
                for name, I in parsed.ideals.items()}

        check()
