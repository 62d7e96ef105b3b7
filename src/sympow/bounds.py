"""Degree-bound predicates and growth sequences for symbolic powers."""

from __future__ import annotations

from dataclasses import dataclass

from .decomp import symbolic_power
from .ideals import MonomialIdeal

BOUND_HUNEKE = "huneke_D_times_n"
BOUND_LCM = "lcm_degree"


@dataclass(frozen=True)
class BoundReport:
    bound_kind: str
    n: int
    d_in: int
    bound: int

    @property
    def satisfied(self) -> bool:
        return self.d_in <= self.bound


def per_n_bound(I: MonomialIdeal, kind: str, D: int | None = None) -> int:
    """The per-n factor of a bound of the given kind on d(I^(n)).

    It is D for BOUND_HUNEKE (D defaults to the max generator degree of I
    and may not lie below it) and deg lcm(gens) for BOUND_LCM.
    """
    d_gen = I.degree_stats().max_gen_degree
    if d_gen is None:
        raise ValueError("the zero ideal has no generator degrees")
    if kind == BOUND_HUNEKE:
        if D is None:
            return d_gen
        if D < d_gen:
            raise ValueError(f"D = {D} is below the max generator degree {d_gen}")
        return D
    if kind == BOUND_LCM:
        return I.lcm_of_generators().degree
    raise ValueError(f"unknown bound kind: {kind!r}")


def bound_report(I: MonomialIdeal, n: int, d_in: int, kind: str, D: int | None = None) -> BoundReport:
    """Judge d_in = d(I^(n)), computed by the caller, against per_n_bound(I, kind, D) * n."""
    return BoundReport(kind, n, d_in, per_n_bound(I, kind, D) * n)


@dataclass(frozen=True)
class GrowthSequence:
    """(n, d(I^(n))) for n = 1..N."""

    entries: tuple
    complete: bool  # always true until a budget stop can cut a sequence short


def degree_sequence(I: MonomialIdeal, N: int) -> GrowthSequence:
    """Degrees of the symbolic powers up to N.

    Cost grows quickly with N (each entry intersects n-th powers of all
    primes); intended for small inputs. The preconditions of
    ``symbolic_power`` depend on I alone, so an input that fails one (the
    zero or the unit ideal) raises its ValueError at n = 1, and every
    sequence returned is complete.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    entries = [(n, symbolic_power(I, n).degree_stats().max_gen_degree)
               for n in range(1, N + 1)]
    return GrowthSequence(tuple(entries), True)
