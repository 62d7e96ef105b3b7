"""Built-in polynomial cases where the symbolic square needs a degree-9 generator.

Two cases over the rationals, one in six variables and one in seven.
Both carry a degree-9 witness polynomial f with (I^2 : f) = (x, y, z),
so f is a new minimal generator of the symbolic square and the naive
"degree D*n" expectation fails at n = 2, D = 4.

The seven-variable case ships two witness candidates: the recorded one,
xyzabcd*(ac - bd), and the alternate xyzabcd*(ab - cd) that matches the
binomial inside the ideal itself. ``colon_ideal`` takes either.

Each case is an ideal-file text read afresh on every call (``I``, the
witnesses ``F`` and ``G``, the colon ``C``, the primes ``P``), and every
helper computes its ideal on every call: nothing outlives the call.
"""

from __future__ import annotations

from .bounds import BOUND_HUNEKE, BoundReport
from .groebner import PolyIdeal, Polynomial, ideal_equals, ideal_intersect, ideal_power, ideal_quotient, ideal_sum
from .ideal_files import parse_ideal_file
from .rings import Ring, _Record


class CounterexampleCase(_Record):
    """``primes`` are the height-2 primes as 2-generator PolyIdeals, and
    ``primes_source`` is "recorded" with the case, or "derived" by factor analysis."""

    __slots__ = ("name", "ring", "ideal", "witness", "witness_alt", "primes", "primes_source", "expected_colon",
                 "expected_witness_degree", "generator_degree")

    def __init__(self, name: str, ring: Ring, ideal: PolyIdeal, witness: Polynomial, witness_alt: Polynomial | None,
                 primes: tuple, primes_source: str, expected_colon: PolyIdeal, expected_witness_degree: int,
                 generator_degree: int):
        self._set(name, ring, ideal, witness, witness_alt, primes, primes_source, expected_colon,
                  expected_witness_degree, generator_degree)

    def square(self) -> PolyIdeal:
        return ideal_power(self.ideal, 2)


A6 = """\
ring: x y z t a b
ideal I: x*(x-y)*y*a, (x-y)*z*t*b, y*z*(x*a-t*b)
ideal F: x*y*(x-y)*z*t*a*b*(y*a-t*b)
ideal C: x, y, z
ideal P0: b, a
ideal P1: b, x
ideal P2: y, x
ideal P3: z, x
ideal P4: t, x
ideal P5: b, y
ideal P6: z, y
ideal P7: t, y
ideal P8: a, t
ideal P9: a, z
ideal P10: z, x-y
ideal P11: x-y, y*a-t*b
decomposition P: P0 & P1 & P2 & P3 & P4 & P5 & P6 & P7 & P8 & P9 & P10 & P11
"""

# The primes are derived, not recorded with the case: a prime over I picks one
# irreducible factor from each generator, and pruning that family to its minimal
# members leaves eleven variable-pair primes plus (x, ab-cd). The ``verify-paper``
# claims check that the list intersects to I.
A7 = """\
ring: x y z a b c d
ideal I: x*y*a*b, x*z*c*d, y*z*(a*b-c*d)
ideal F: x*y*z*a*b*c*d*(a*c-b*d)
ideal G: x*y*z*a*b*c*d*(a*b-c*d)
ideal C: x, y, z
ideal P0: x, y
ideal P1: x, z
ideal P2: y, z
ideal P3: y, c
ideal P4: y, d
ideal P5: a, z
ideal P6: b, z
ideal P7: a, c
ideal P8: a, d
ideal P9: b, c
ideal P10: b, d
ideal P11: x, a*b-c*d
decomposition P: P0 & P1 & P2 & P3 & P4 & P5 & P6 & P7 & P8 & P9 & P10 & P11
"""


def _case(name: str, text: str, **recorded) -> CounterexampleCase:
    parsed = parse_ideal_file(text)
    witness_alt = parsed.ideal("G").generators[0] if "G" in parsed.ideals else None
    return CounterexampleCase(name, parsed.ring, parsed.ideal("I"), parsed.ideal("F").generators[0], witness_alt,
                              tuple(parsed.decomposition_components("P")), expected_colon=parsed.ideal("C"),
                              **recorded)


def builtin_case_A6() -> CounterexampleCase:
    """Six variables: I = (x(x-y)ya, (x-y)ztb, yz(xa-tb)), twelve height-2 primes."""
    return _case("A6", A6, primes_source="recorded", expected_witness_degree=9, generator_degree=4)


def builtin_case_A7() -> CounterexampleCase:
    """Seven variables: I = (xyab, xzcd, yz(ab-cd)) with two witness candidates."""
    return _case("A7", A7, primes_source="derived", expected_witness_degree=9, generator_degree=4)


def colon_ideal(case: CounterexampleCase, f: Polynomial) -> PolyIdeal:
    """(I^2 : f); the claims compare it with the expected colon (x, y, z)."""
    return ideal_quotient(case.square(), f)


def is_regular_pair(p: PolyIdeal) -> bool:
    """p is proper and its two generators g1, g2 form a regular sequence:
    (g1) : g2 = (g1).

    An ideal generated by a regular sequence of length two has height two.
    The colon alone does not see a unit ideal such as (x + 1, x).
    """
    if len(p.generators) != 2 or p.member(Polynomial.constant(p.ring, 1)):
        return False
    g1, g2 = p.generators
    principal = PolyIdeal(p.ring, (g1,))
    return ideal_equals(ideal_quotient(principal, g2), principal)


def symbolic_power_from_primes(primes, n: int, progress=None) -> PolyIdeal:
    """∩ P^n over the primes, folded in list order: I^(n) when they are the
    minimal primes of a radical I, each generated by a regular sequence.

    The order sets only the cost. ``ideal_intersect`` intersects ideals
    spanned by monomials by lcms and eliminates (``_eliminate``) any other
    pair, so primes spanned by monomials must come first; then only the
    rest go through ``_eliminate``. The built-in cases list them that way.
    Each step holds its reduced basis packed and the next reads it as it is:
    no polynomial is built until the result's generators are read, and a
    ``progress`` line counts the basis entries.
    """
    primes = list(primes)
    if not primes:
        raise ValueError("need at least one prime")
    if n < 1:
        raise ValueError("symbolic powers need n >= 1")
    inter = ideal_power(primes[0], n)
    for i, P in enumerate(primes[1:], start=2):
        inter = ideal_intersect(inter, ideal_power(P, n))
        if progress:
            progress(
                f"intersected {i}/{len(primes)} ideals "
                f"({len(inter._entries()[1])} generators so far)"
            )
    return inter


def symbolic_square_generators(case: CounterexampleCase, f: Polynomial) -> PolyIdeal:
    """I^2 + (f), the claimed generator presentation of the symbolic square."""
    return ideal_sum(case.square(), PolyIdeal(case.ring, (f,)))


def degree_violation_report(case: CounterexampleCase, f: Polynomial) -> BoundReport:
    """Feed d(I^2 + (f)) to the D*n bound at n = 2; the report flags violation."""
    target = symbolic_square_generators(case, f)
    d = max(g.total_degree() for g in target.generators)
    return BoundReport(BOUND_HUNEKE, 2, d, 2 * case.generator_degree)
