"""The squarefree fold against the derivative oracle, which shares no code with it."""

import pytest
from conftest import cycle_ideal
from derivative_oracle import generator_errors, in_symbolic_power

from sympow import minimal_variable_primes, symbolic_power_from_decomposition, symbolic_power_squarefree
from sympow import decomp, ideals, rings
from sympow.cases import case_ex32


def test_twelve_cycle_cube():
    I = cycle_ideal(12)
    power = symbolic_power_squarefree(I, 3)
    assert len(power.exps) == 364
    assert generator_errors(I.exps, power.exps, 3) == []


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_terai(n):
    I = case_ex32().ideal
    assert generator_errors(I.exps, symbolic_power_squarefree(I, n).exps, n) == []


def test_sees_a_missing_prime_and_an_ordinary_power():
    # the meet over all primes but the last is too large, and Terai's ordinary
    # square lies in the symbolic square without spanning it minimally
    I = case_ex32().ideal
    primes = [p.ideal() for p in minimal_variable_primes(I)]
    assert generator_errors(I.exps, symbolic_power_from_decomposition(primes[:-1], 3).exps, 3)
    square = I.power(2).exps
    assert all(in_symbolic_power(I.exps, a, 2) for a in square)
    assert generator_errors(I.exps, square, 2)


def test_uses_no_fold(monkeypatch):
    I = cycle_ideal(8)
    power = symbolic_power_squarefree(I, 3).exps

    def refuse(*args):
        raise AssertionError("the oracle reached a fold")

    for module, name in ((decomp, "_meet_prime_power"), (decomp, "minimal_variable_primes"),
                         (rings, "_packed_meet"), (ideals, "_packed_meet")):
        monkeypatch.setattr(module, name, refuse)
    assert generator_errors(I.exps, power, 3) == []
