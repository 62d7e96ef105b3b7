"""The built-in degree-9 witness cases and their verification steps."""

from dataclasses import FrozenInstanceError

import pytest

from sympow import PolyIdeal, Polynomial, Ring, ideal_equals, ideal_intersect
from sympow.counterexamples import (
    builtin_case_A6,
    builtin_case_A7,
    colon_ideal,
    degree_violation_report,
    is_regular_pair,
    squared_prime,
    symbolic_square_generators,
    verify_colon,
    verify_prime_heights,
    verify_radical_intersection,
    verify_symbolic_square,
    verify_symbolic_square_containment,
    witness_not_in_square,
)


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
        for i in range(len(case.primes)):
            assert squared_prime(case, i).member(case.witness)


class TestStateless:
    def test_case_is_frozen(self):
        case = builtin_case_A6()
        with pytest.raises(FrozenInstanceError):
            case.witness = case.ideal.generators[0]

    def test_each_call_builds_a_fresh_case(self):
        assert builtin_case_A7() is not builtin_case_A7()
        assert colon_ideal(builtin_case_A6()) is not colon_ideal(builtin_case_A6())


class TestHeights:
    def test_listed_primes_are_regular_pairs(self):
        assert verify_prime_heights(builtin_case_A6())
        assert verify_prime_heights(builtin_case_A7())

    def test_non_regular_pair_fails(self):
        R = Ring(("x", "y"))
        x, y = (Polynomial.variable(R, v) for v in R.variables)
        # (x) : x*y is the unit ideal, not (x)
        assert not is_regular_pair(PolyIdeal(R, (x, x * y)))
        assert is_regular_pair(PolyIdeal(R, (x, y)))
        assert not is_regular_pair(PolyIdeal(R, (x,)))


class TestColon:
    def test_six_variable_colon(self):
        assert verify_colon(builtin_case_A6())

    def test_seven_variable_colon_alternate_witness(self):
        case = builtin_case_A7()
        assert verify_colon(case, "alternate")
        # the transcript's witness does not give (x, y, z); record that fact
        assert not verify_colon(case, "recorded")

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
        assert verify_colon(case)
        assert witness_not_in_square(case)


class TestRadicalIntersection:
    def test_six_variable(self):
        assert verify_radical_intersection(builtin_case_A6())

    def test_monomial_primes_agree_with_lcm_engine(self):
        # ten of the twelve primes are monomial; fold them through the
        # monomial engine, through elimination and through the dispatching
        # ideal_intersect, and compare exactly
        import sympow.groebner as gb
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
        assert verify_radical_intersection(builtin_case_A7())

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


class TestSymbolicSquare:
    def test_containment_half_first(self):
        assert verify_symbolic_square_containment(builtin_case_A6())

    def test_six_variable_equality(self):
        assert verify_symbolic_square(builtin_case_A6())

    def test_sorted_fold_agrees(self):
        # smallest squared prime first: an independent order for the same fold
        case = builtin_case_A6()
        squares = sorted(
            (squared_prime(case, i) for i in range(len(case.primes))),
            key=lambda J: len(J.generators),
        )
        inter = squares[0]
        for sq in squares[1:]:
            inter = ideal_intersect(inter, sq)
        assert ideal_equals(inter, symbolic_square_generators(case))

    def test_seven_variable_equality_alternate_witness(self):
        case = builtin_case_A7()
        assert verify_symbolic_square_containment(case, "alternate")
        assert verify_symbolic_square(case, witness="alternate")

    def test_seven_variable_recorded_witness_fails(self):
        assert not verify_symbolic_square(builtin_case_A7(), witness="recorded")

    def test_degree_audit(self):
        for case in (builtin_case_A6(), builtin_case_A7()):
            rep = degree_violation_report(
                case, "recorded" if case.name == "A6" else "alternate"
            )
            assert rep.d_in == 9 and rep.bound == 8 and not rep.satisfied

    def test_square_plus_witness_has_seven_generators(self):
        case = builtin_case_A6()
        assert len(symbolic_square_generators(case).generators) == 7
