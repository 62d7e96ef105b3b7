"""Degree-bound reports and growth sequences."""

import pytest
from conftest import mideal, mono, random_squarefree_ideal, seeded

from sympow import (
    BOUND_HUNEKE,
    BOUND_LCM,
    BoundReport,
    Ring,
    bound_report,
    degree_sequence,
    per_n_bound,
    symbolic_power_from_decomposition,
    symbolic_power_saturation,
    symbolic_power_squarefree,
)
from sympow import bounds
from sympow.cases import case_ex31, case_ex32
from sympow.groebner import InternalInvariantError


def _max_degree(J):
    return J.degree_stats().max_gen_degree


def _ex31_square_degree():
    case = case_ex31()
    return _max_degree(symbolic_power_from_decomposition(case.components, 2))


class TestHuneke:
    def test_recorded_square_passes_with_equality(self):
        rep = bound_report(case_ex31().ideal, 2, _ex31_square_degree(), BOUND_HUNEKE, D=3)
        assert rep.satisfied and rep.d_in == 6 and rep.bound == 6

    def test_terai_passes(self):
        case = case_ex32()
        d = _max_degree(symbolic_power_squarefree(case.ideal, 2))
        rep = bound_report(case.ideal, 2, d, BOUND_HUNEKE, D=3)
        assert rep.satisfied and (rep.d_in, rep.bound) == (6, 6)

    def test_variable_prime_equality(self):
        R = Ring(("x", "y", "z"))
        P = mideal(R, "x", "y")
        for n in (1, 2, 3):
            d = _max_degree(symbolic_power_squarefree(P, n))
            rep = bound_report(P, n, d, BOUND_HUNEKE)
            assert rep.satisfied and rep.d_in == rep.bound == n

    def test_default_and_invalid_D(self):
        case = case_ex31()
        rep = bound_report(case.ideal, 1, _max_degree(case.ideal), BOUND_HUNEKE)
        assert rep.bound == 3  # default D is the max generator degree
        with pytest.raises(ValueError):
            bound_report(case.ideal, 2, 6, BOUND_HUNEKE, D=2)

    def test_zero_ideal(self):
        zero = mideal(Ring(("x",)))
        for kind in (BOUND_HUNEKE, BOUND_LCM):
            with pytest.raises(ValueError, match="zero ideal"):
                bound_report(zero, 2, 0, kind)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown bound kind"):
            bound_report(case_ex31().ideal, 2, 6, "degree_of_nothing")

    def test_value_report(self):
        rep = bound_report(mideal(Ring(("x",)), "x^4"), 2, 9, BOUND_HUNEKE)
        assert not rep.satisfied and rep.bound == 8
        assert rep.satisfied == (rep.d_in <= rep.bound)
        assert BoundReport(BOUND_HUNEKE, 2, 8, 8).satisfied


class TestLcmBound:
    def test_recorded_case(self):
        case = case_ex31()
        assert case.ideal.lcm_of_generators() == mono(case.ring, "x*y^2*z*t^2")
        assert per_n_bound(case.ideal, BOUND_LCM) == 6
        rep = bound_report(case.ideal, 2, _ex31_square_degree(), BOUND_LCM)
        assert rep.satisfied and rep.d_in == 6 and rep.bound == 12

    def test_terai(self):
        case = case_ex32()
        assert case.ideal.lcm_of_generators() == mono(case.ring, "a*b*c*d*e*f")
        assert per_n_bound(case.ideal, BOUND_LCM) == 6

    def test_principal_attained_exactly(self):
        R = Ring(("x", "y"))
        I = mideal(R, "x^2*y")
        for n in (1, 2, 3):
            d = _max_degree(symbolic_power_saturation(I, n))
            rep = bound_report(I, n, d, BOUND_LCM)
            assert rep.satisfied and rep.d_in == rep.bound == 3 * n


class TestSumDegreeBound:
    # the sum of the generator degrees is never a tighter per-n bound than
    # deg lcm(gens), which is why the library offers only the lcm bound
    def test_lcm_below_sum(self):
        rng = seeded(301)
        for _ in range(50):
            I = random_squarefree_ideal(rng)
            assert per_n_bound(I, BOUND_LCM) <= sum(g.degree for g in I.generators)


class TestGrowth:
    def test_principal(self):
        R = Ring(("x", "y"))
        seq = degree_sequence(mideal(R, "x*y"), 3)
        assert seq.entries == ((1, 2), (2, 4), (3, 6))
        assert seq.complete

    def test_recorded_case(self):
        case = case_ex31()
        seq = degree_sequence(case.ideal, 2)
        assert seq.entries == ((1, 3), (2, 6))

    def test_terai(self):
        case = case_ex32()
        seq = degree_sequence(case.ideal, 2)
        assert seq.entries == ((1, 3), (2, 6))

    def test_square_below_twice_d1(self):
        # here I^(n) = I^n and x^4*y^4 = x*y * x^3*y^3 drops out of the square,
        # so d_2 = 7 falls below 2 * d_1 = 8
        R = Ring(("x", "y"))
        I = mideal(R, "x^3", "y^3", "x^2*y^2")
        assert degree_sequence(I, 2).entries == ((1, 4), (2, 7))

    def test_principal_random(self):
        rng = seeded(302)
        for _ in range(10):
            I = random_squarefree_ideal(rng, max_gens=1)
            d = I.generators[0].degree
            assert degree_sequence(I, 3).entries == ((1, d), (2, 2 * d), (3, 3 * d))

    @pytest.mark.parametrize("gens, message", [((), "zero ideal"), (("1",), "unit ideal")],
                             ids=["zero", "unit"])
    def test_precondition_failure_raises(self, gens, message):
        # the preconditions depend on I alone, so no partial sequence exists
        with pytest.raises(ValueError, match=message):
            degree_sequence(mideal(Ring(("x",)), *gens), 2)

    def test_internal_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise InternalInvariantError("planted")

        monkeypatch.setattr(bounds, "symbolic_power", broken)
        with pytest.raises(InternalInvariantError, match="planted"):
            degree_sequence(case_ex31().ideal, 2)


class TestPropertyCorpus:
    def test_huneke_and_lcm_on_random_squarefree(self):
        rng = seeded(303)
        for _ in range(100):
            I = random_squarefree_ideal(rng)
            d_gen = I.degree_stats().max_gen_degree
            lcm_per_n = per_n_bound(I, BOUND_LCM)
            for n in (1, 2, 3):
                d = symbolic_power_squarefree(I, n).degree_stats().max_gen_degree
                assert d <= d_gen * n
                assert d <= lcm_per_n * n
