"""A fixed reference loop: how fast the host runs Python at this moment.

The host is shared and its speed drifts: the same pass over a workload
takes a third longer from one minute to the next, for whole minutes at a
time, so neither a median nor a minimum over one run's passes is the same
in the next run. The drift slows this loop as much as it slows sympow.
The benchmark runs the loop between every two jobs (and set-ups) and
scales each job's time by REF_S over the mean of the two loop times
around it: seconds on a host that runs the loop in REF_S.

The loop does the kinds of work sympow does, on fixed inputs that depend
neither on the seed nor on sympow, with code that does not call sympow:
divisibility tests, sorting and products of exponent tuples (the monomial
engine), and dict updates with Fraction arithmetic (the polynomial
kernel). Garbage collection is off while it runs, so its time does not
depend on how much the jobs keep alive.
"""

from __future__ import annotations

import gc
import random
from fractions import Fraction
from time import perf_counter

import checks

# About the loop's time on an idle 2.1 GHz Xeon vCPU with Python 3.11.
REF_S = 0.012
ROUNDS = 8

_rng = random.Random(0)
_MONOMIALS = [tuple(_rng.randint(0, 3) for _ in range(8)) for _ in range(60)]
_TERMS = {m: Fraction(_rng.randint(1, 9), _rng.randint(1, 9)) for m in _MONOMIALS[:12]}
_SHIFTS = _MONOMIALS[12:30]
_FACTOR = Fraction(3, 7)


def _round():
    checks.minimal(_MONOMIALS)
    checks.power(checks.minimal(_MONOMIALS[:8]), 2)
    p = dict(_TERMS)
    for shift in _SHIFTS:
        for e, c in _TERMS.items():
            target = tuple(a + b for a, b in zip(e, shift))
            v = p.get(target, 0) - _FACTOR * c
            if v:
                p[target] = v
            else:
                p.pop(target, None)


def loop() -> float:
    """Run the reference loop once; return its time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(ROUNDS):
            _round()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def normalized(seconds: float, before: float, after: float) -> float:
    """`seconds` timed between two loop times, scaled to a host that runs the loop in REF_S."""
    return seconds * 2 * REF_S / (before + after)
