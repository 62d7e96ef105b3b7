"""Degree-bound predicates and growth sequences for symbolic powers."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .decomp import symbolic_power
from .ideals import MonomialIdeal

BOUND_HUNEKE = "huneke_D_times_n"
BOUND_LCM = "lcm_degree"
BOUND_SUMDEG = "sum_of_degrees"


@dataclass(frozen=True)
class BoundReport:
    bound_kind: str
    n: int
    d_in: int
    bound: int
    satisfied: bool


def _report(kind: str, n: int, d_in: int, bound: int) -> BoundReport:
    return BoundReport(kind, n, d_in, bound, d_in <= bound)


def huneke_value_report(d_in: int, n: int, D: int) -> BoundReport:
    """Judge a precomputed max generator degree against D*n."""
    return _report(BOUND_HUNEKE, n, d_in, D * n)


def _symbolic_degree(I, n, method, components, primes) -> int:
    sym = symbolic_power(I, n, method=method, components=components, primes=primes)
    return sym.degree_stats().max_gen_degree


def huneke_check(
    I: MonomialIdeal,
    n: int,
    D: int | None = None,
    method: str = "saturation",
    components=None,
    primes: str = "min",
) -> BoundReport:
    """Is the n-th symbolic power generated in degrees <= D*n?"""
    d_gen = I.degree_stats().max_gen_degree
    if d_gen is None:
        raise ValueError("the zero ideal has no generator degrees")
    if D is None:
        D = d_gen
    elif D < d_gen:
        raise ValueError(f"D = {D} is below the max generator degree {d_gen}")
    d_in = _symbolic_degree(I, n, method, components, primes)
    return huneke_value_report(d_in, n, D)


def lcm_bound(I: MonomialIdeal):
    """(f, deg f) where f is the lcm of the minimal generators.

    The n-th symbolic power is generated in degrees <= deg(f) * n.
    """
    f = I.lcm_of_generators()
    return f, f.degree


def lcm_check(
    I: MonomialIdeal,
    n: int,
    method: str = "saturation",
    components=None,
    primes: str = "min",
) -> BoundReport:
    _, per_n = lcm_bound(I)
    d_in = _symbolic_degree(I, n, method, components, primes)
    return _report(BOUND_LCM, n, d_in, per_n * n)


def sum_degree_bound(I: MonomialIdeal) -> int:
    """E = sum of the minimal generator degrees; a coarser per-n bound."""
    stats = I.degree_stats()
    if stats.count == 0:
        raise ValueError("the zero ideal has no generator degrees")
    return sum(g.degree for g in I.generators)


def sumdeg_check(
    I: MonomialIdeal,
    n: int,
    method: str = "saturation",
    components=None,
    primes: str = "min",
) -> BoundReport:
    E = sum_degree_bound(I)
    d_in = _symbolic_degree(I, n, method, components, primes)
    return _report(BOUND_SUMDEG, n, d_in, E * n)


@dataclass(frozen=True)
class GrowthSequence:
    """(n, d(I^(n))) for n = 1..N plus linearity diagnostics.

    ``is_linear_within`` holds iff max |d_n - n*d_1| <= slack over the
    computed entries; ``slope_estimate`` is the exact least-squares slope
    of a line through the origin.
    """

    entries: tuple
    slope_estimate: Fraction | None
    is_linear_within: bool
    slack: int
    complete: bool


def degree_sequence(
    I: MonomialIdeal,
    N: int,
    method: str = "saturation",
    slack: int = 0,
    components=None,
    primes: str = "min",
) -> GrowthSequence:
    """Degrees of the symbolic powers up to N.

    Cost grows quickly with N (each entry intersects n-th powers of all
    primes); intended for small inputs. An entry that fails a precondition
    (a ValueError) aborts the loop and flags the partial sequence
    incomplete; any other error propagates.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    entries = []
    complete = True
    for n in range(1, N + 1):
        try:
            d = _symbolic_degree(I, n, method, components, primes)
        except ValueError:
            complete = False
            break
        entries.append((n, d))
    slope = None
    linear = False
    if entries:
        slope = Fraction(sum(n * d for n, d in entries), sum(n * n for n, _ in entries))
        d1 = entries[0][1]
        linear = max(abs(d - n * d1) for n, d in entries) <= slack
    return GrowthSequence(tuple(entries), slope, linear, slack, complete)
