"""Built-in monomial worked examples with their recorded symbolic squares.

These are the two reference computations the ``verify-paper`` command
replays exactly: a three-generator ideal in four variables and Terai's
ten-generator cubic ideal in six variables. Each case is an ideal-file
text, read afresh on every call: ``I`` is the ideal, ``S`` its recorded
symbolic square and ``D`` a recorded primary decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ideal_files import monomial_ideal_from_poly, parse_ideal_file
from .ideals import MonomialIdeal
from .rings import Ring


@dataclass(frozen=True)
class MonomialCase:
    name: str
    ring: Ring
    ideal: MonomialIdeal
    components: tuple  # a recorded primary decomposition, or ()
    expected_square: MonomialIdeal  # recorded generators of the symbolic square
    expected_beg: int
    expected_max_degree: int
    generator_degree: int  # D for the D*n bound


EX31 = """\
ring: x y z t
ideal I: x*z, x*t^2, y^2*z
ideal S: x^2*z^2, x^2*z*t^2, x*y^2*z^2, x^2*t^4, x*y^2*z*t^2, y^4*z^2
ideal P1: x, y^2
ideal P2: z, t^2
ideal P3: x, z
decomposition D: P1 & P2 & P3
"""

EX32 = (
    "ring: a b c d e f\n"
    "ideal I: a*b*c, a*b*f, a*c*e, a*d*e, a*d*f, b*c*d, b*d*e, b*e*f, c*d*f, c*e*f\n"
    # six generators of degree 5, then 25 of degree 6
    "ideal S: b*c*d*e*f, a*c*d*e*f, a*b*d*e*f, a*b*c*e*f, a*b*c*d*f, a*b*c*d*e,"
    " c^2*e^2*f^2, b*c*e^2*f^2, b^2*e^2*f^2, c^2*d*e*f^2, a*b^2*e*f^2,"
    " c^2*d^2*f^2, a*c*d^2*f^2, a^2*d^2*f^2, a^2*b*d*f^2, a^2*b^2*f^2,"
    " b^2*d*e^2*f, a*c^2*e^2*f, a^2*d^2*e*f, b*c^2*d^2*f, a^2*b^2*c*f,"
    " b^2*d^2*e^2, a*b*d^2*e^2, a^2*d^2*e^2, a^2*c*d*e^2, a^2*c^2*e^2,"
    " b^2*c*d^2*e, a^2*b*c^2*e, b^2*c^2*d^2, a*b^2*c^2*d, a^2*b^2*c^2\n"
)


def _case(name: str, text: str, **recorded) -> MonomialCase:
    parsed = parse_ideal_file(text)
    components = (tuple(map(monomial_ideal_from_poly, parsed.decomposition_components("D")))
                  if "D" in parsed.decompositions else ())
    return MonomialCase(name, parsed.ring, monomial_ideal_from_poly(parsed.ideal("I")), components,
                        monomial_ideal_from_poly(parsed.ideal("S")), **recorded)


def case_ex31() -> MonomialCase:
    """(xz, xt^2, y^2z) over x,y,z,t with its recorded square of 6 generators."""
    return _case("ex31", EX31, expected_beg=4, expected_max_degree=6, generator_degree=3)


def case_ex32() -> MonomialCase:
    """Terai's squarefree cubic ideal; the recorded square has 31 generators."""
    return _case("ex32", EX32, expected_beg=5, expected_max_degree=6, generator_degree=3)
