"""The built-in degree-9 witness cases and their verification steps."""

from dataclasses import FrozenInstanceError

import pytest
from conftest import poly

import sympow.groebner as gb
from sympow import PolyIdeal, Polynomial, Ring, ideal_equals, ideal_intersect, ideal_power
from sympow.counterexamples import (
    CounterexampleCase,
    builtin_case_A6,
    builtin_case_A7,
    colon_ideal,
    degree_violation_report,
    is_regular_pair,
    symbolic_power_from_primes,
    symbolic_square_generators,
)


def _built_A6():
    """A6 built by polynomial arithmetic: the oracle for the recorded text."""
    R = Ring(("x", "y", "z", "t", "a", "b"))
    x, y, z, t, a, b = (Polynomial.variable(R, v) for v in R.variables)
    ideal = PolyIdeal(R, (
        x * (x - y) * y * a,
        (x - y) * z * t * b,
        y * z * (x * a - t * b),
    ))
    witness = x * y * (x - y) * z * t * a * b * (y * a - t * b)
    primes = tuple(
        PolyIdeal(R, gens)
        for gens in (
            (b, a), (b, x), (y, x), (z, x), (t, x), (b, y),
            (z, y), (t, y), (a, t), (a, z),
            (z, x - y), (x - y, y * a - t * b),
        )
    )
    return CounterexampleCase(
        name="A6",
        ring=R,
        ideal=ideal,
        witness=witness,
        witness_alt=None,
        primes=primes,
        primes_source="recorded",
        expected_colon=PolyIdeal(R, (x, y, z)),
        expected_witness_degree=9,
        generator_degree=4,
    )


def _built_A7():
    """A7 built by polynomial arithmetic: the oracle for the recorded text."""
    R = Ring(("x", "y", "z", "a", "b", "c", "d"))
    x, y, z, a, b, c, d = (Polynomial.variable(R, v) for v in R.variables)
    q = a * b - c * d
    ideal = PolyIdeal(R, (
        x * y * a * b,
        x * z * c * d,
        y * z * q,
    ))
    witness = x * y * z * a * b * c * d * (a * c - b * d)
    witness_alt = x * y * z * a * b * c * d * q
    primes = tuple(
        PolyIdeal(R, gens)
        for gens in (
            (x, y), (x, z), (y, z),
            (y, c), (y, d), (a, z), (b, z),
            (a, c), (a, d), (b, c), (b, d),
            (x, q),
        )
    )
    return CounterexampleCase(
        name="A7",
        ring=R,
        ideal=ideal,
        witness=witness,
        witness_alt=witness_alt,
        primes=primes,
        primes_source="derived",
        expected_colon=PolyIdeal(R, (x, y, z)),
        expected_witness_degree=9,
        generator_degree=4,
    )


def _terms(f):
    """The term dict as a list: key order and coefficient types compared too."""
    return None if f is None else [(e, type(c), c) for e, c in f.coeffs.items()]


def _gens(I):
    return (I.ring, [_terms(g) for g in I.generators])


class TestRecordedTexts:
    @pytest.mark.parametrize("read, built", [(builtin_case_A6, _built_A6), (builtin_case_A7, _built_A7)])
    def test_text_matches_the_arithmetic_build(self, read, built):
        got, want = read(), built()
        assert (got.name, got.ring) == (want.name, want.ring)
        assert _gens(got.ideal) == _gens(want.ideal)
        assert _terms(got.witness) == _terms(want.witness)
        assert _terms(got.witness_alt) == _terms(want.witness_alt)
        assert _gens(got.expected_colon) == _gens(want.expected_colon)
        assert [_gens(p) for p in got.primes] == [_gens(p) for p in want.primes]
        assert ((got.primes_source, got.expected_witness_degree, got.generator_degree)
                == (want.primes_source, want.expected_witness_degree, want.generator_degree))


class TestCaseShapes:
    def test_six_variable_case(self):
        case = builtin_case_A6()
        assert case.witness.total_degree() == 9
        assert len(case.ideal.generators) == 3
        assert all(g.total_degree() == 4 for g in case.ideal.generators)
        assert len(case.primes) == 12
        assert all(len(p.generators) == 2 for p in case.primes)
        assert case.primes_source == "recorded"

    def test_seven_variable_case(self):
        case = builtin_case_A7()
        assert case.witness.total_degree() == 9
        assert case.witness_alt.total_degree() == 9
        assert all(g.total_degree() == 4 for g in case.ideal.generators)
        assert case.expected_witness_degree == 9 > 2 * case.generator_degree
        assert len(case.primes) == 12
        assert all(len(p.generators) == 2 for p in case.primes)
        assert case.primes_source == "derived"

    def test_generators_lie_in_every_prime(self):
        for case in (builtin_case_A6(), builtin_case_A7()):
            for p in case.primes:
                for g in case.ideal.generators:
                    assert p.member(g)

    def test_witness_lies_in_every_squared_prime(self):
        case = builtin_case_A6()
        for p in case.primes:
            assert ideal_power(p, 2).member(case.witness)


class TestStateless:
    def test_case_is_frozen(self):
        case = builtin_case_A6()
        with pytest.raises(FrozenInstanceError):
            case.witness = case.ideal.generators[0]

    def test_each_call_builds_a_fresh_case(self):
        assert builtin_case_A7() is not builtin_case_A7()
        case = builtin_case_A6()
        assert colon_ideal(case, case.witness) is not colon_ideal(case, case.witness)


class TestHeights:
    def test_listed_primes_are_regular_pairs(self):
        assert all(map(is_regular_pair, builtin_case_A6().primes))
        assert all(map(is_regular_pair, builtin_case_A7().primes))

    def test_non_regular_pair_fails(self):
        R = Ring(("x", "y"))
        x, y = (Polynomial.variable(R, v) for v in R.variables)
        # (x) : x*y is the unit ideal, not (x)
        assert not is_regular_pair(PolyIdeal(R, (x, x * y)))
        assert is_regular_pair(PolyIdeal(R, (x, y)))
        assert not is_regular_pair(PolyIdeal(R, (x,)))

    @pytest.mark.parametrize("g1, g2", [("1", "x"), ("x", "1"), ("x + 1", "x")])
    def test_unit_ideal_is_not_a_regular_pair(self, g1, g2):
        # (g1) : g2 = (g1) holds for each, but the pair spans the unit ideal
        R = Ring(("x", "y"))
        assert not is_regular_pair(PolyIdeal(R, (poly(R, g1), poly(R, g2))))


class TestColon:
    def test_six_variable_colon(self):
        case = builtin_case_A6()
        assert ideal_equals(colon_ideal(case, case.witness), case.expected_colon)

    def test_seven_variable_colon_alternate_witness(self):
        case = builtin_case_A7()
        assert ideal_equals(colon_ideal(case, case.witness_alt), case.expected_colon)
        # the transcript's witness does not give (x, y, z); record that fact
        assert not ideal_equals(colon_ideal(case, case.witness), case.expected_colon)

    def test_colon_by_inner_element_is_unit(self):
        from sympow import Polynomial
        from sympow.groebner import ideal_quotient

        case = builtin_case_A6()
        g = case.square().generators[0]
        q = ideal_quotient(case.square(), g)
        one = PolyIdeal(case.ring, (Polynomial.constant(case.ring, 1),))
        assert ideal_equals(q, one)
        assert not ideal_equals(q, case.expected_colon)

    def test_colon_implies_witness_outside_square(self):
        case = builtin_case_A6()
        assert ideal_equals(colon_ideal(case, case.witness), case.expected_colon)
        assert not case.square().member(case.witness)


class TestRadicalIntersection:
    def test_six_variable(self):
        case = builtin_case_A6()
        assert ideal_equals(symbolic_power_from_primes(case.primes, 1), case.ideal)

    def test_monomial_primes_agree_with_lcm_engine(self):
        # ten of the twelve primes are monomial; fold them through the
        # monomial engine, through elimination and through the dispatching
        # ideal_intersect, and compare exactly
        from sympow.ideal_files import monomial_ideal_from_poly

        case = builtin_case_A6()
        monomial_primes = [
            p for p in case.primes if all(g.as_monomial() for g in p.generators)
        ]
        assert len(monomial_primes) == 10
        by_lcm = monomial_ideal_from_poly(monomial_primes[0])
        for q in monomial_primes[1:]:
            by_lcm = by_lcm.intersect(monomial_ideal_from_poly(q))
        for intersect in (gb._eliminate, ideal_intersect):
            kernel_fold = monomial_primes[0]
            for q in monomial_primes[1:]:
                kernel_fold = intersect(kernel_fold, q)
            assert monomial_ideal_from_poly(kernel_fold) == by_lcm

    def test_seven_variable_derived_primes(self):
        case = builtin_case_A7()
        assert ideal_equals(symbolic_power_from_primes(case.primes, 1), case.ideal)

    def test_dropping_a_prime_changes_or_keeps(self):
        case = builtin_case_A6()
        kept = case.primes[:-1]
        inter = kept[0]
        for p in kept[1:]:
            inter = ideal_intersect(inter, p)
        # the intersection of fewer primes contains the full one
        full = case.ideal
        for g in full.generators:
            assert inter.member(g)
        # and here it is strictly larger: the verdict flips
        assert not ideal_equals(inter, full)

    def test_single_prime(self):
        case = builtin_case_A6()
        p = case.primes[0]
        assert ideal_equals(ideal_intersect(p, p), p)


class TestPrimeFold:
    @pytest.mark.parametrize("name, eliminations", [("A6", 2), ("A7", 1)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_only_non_monomial_primes_are_eliminated(self, name, eliminations, n,
                                                     monkeypatch):
        # the monomial primes come first, so the lcm branch folds them and
        # each non-monomial prime costs one elimination
        case = {"A6": builtin_case_A6, "A7": builtin_case_A7}[name]()
        runs = []
        run = gb._eliminate

        def counted(*args):
            runs.append(args)
            return run(*args)

        monkeypatch.setattr(gb, "_eliminate", counted)
        symbolic_power_from_primes(case.primes, n)
        assert len(runs) == eliminations

    def test_progress_reports_every_step(self):
        case = builtin_case_A7()
        lines = []
        inter = symbolic_power_from_primes(case.primes, 2, lines.append)
        assert len(lines) == 11
        assert lines[0].startswith("intersected 2/12 ideals (")
        assert lines[-1] == f"intersected 12/12 ideals ({len(inter.generators)} generators so far)"

    def test_refuses_empty_list_and_nonpositive_n(self):
        case = builtin_case_A6()
        with pytest.raises(ValueError, match="at least one prime"):
            symbolic_power_from_primes([], 2)
        with pytest.raises(ValueError, match="n >= 1"):
            symbolic_power_from_primes(case.primes, 0)


class TestSymbolicSquare:
    def test_six_variable_equality(self):
        case = builtin_case_A6()
        assert ideal_equals(symbolic_power_from_primes(case.primes, 2),
                            symbolic_square_generators(case, case.witness))

    def test_sorted_fold_agrees(self):
        # smallest squared prime first: an independent order for the same fold
        case = builtin_case_A6()
        squares = sorted(
            (ideal_power(p, 2) for p in case.primes),
            key=lambda J: len(J.generators),
        )
        inter = squares[0]
        for sq in squares[1:]:
            inter = ideal_intersect(inter, sq)
        assert ideal_equals(inter, symbolic_square_generators(case, case.witness))

    def test_seven_variable_equality_alternate_witness(self):
        case = builtin_case_A7()
        assert ideal_equals(symbolic_power_from_primes(case.primes, 2),
                            symbolic_square_generators(case, case.witness_alt))

    def test_seven_variable_recorded_witness_fails(self):
        case = builtin_case_A7()
        assert not ideal_equals(symbolic_power_from_primes(case.primes, 2),
                                symbolic_square_generators(case, case.witness))

    def test_degree_audit(self):
        for case in (builtin_case_A6(), builtin_case_A7()):
            rep = degree_violation_report(
                case, case.witness if case.name == "A6" else case.witness_alt
            )
            assert rep.d_in == 9 and rep.bound == 8 and not rep.satisfied

    def test_square_plus_witness_has_seven_generators(self):
        case = builtin_case_A6()
        assert len(symbolic_square_generators(case, case.witness).generators) == 7
