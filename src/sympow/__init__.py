"""Exact symbolic powers of ideals over the rationals.

A monomial engine (canonical minimal generators, decompositions, three
mutually checking symbolic-power paths), degree-bound audits, a small
exact Groebner kernel, and a CLI that replays the built-in reference
computations bit-exactly.
"""

from .bounds import BOUND_HUNEKE, BOUND_LCM, BoundReport, GrowthSequence, bound_report, degree_sequence, per_n_bound
from .decomp import (Decomposition, NotSquarefreeError, VariablePrime, associated_primes, irreducible_decomposition,
                     minimal_primes, minimal_variable_primes, symbolic_power, symbolic_power_from_decomposition,
                     symbolic_power_saturation, symbolic_power_squarefree)
from .groebner import (InternalInvariantError, PolyIdeal, Polynomial, buchberger, divide_exact, ideal_equals,
                       ideal_intersect, ideal_power, ideal_product, ideal_quotient, ideal_sum)
from .ideal_files import (IdealFile, ParseError, format_generators, format_ideal_file, format_polynomial,
                          monomial_ideal_from_poly, parse_ideal_file, parse_polynomial)
from .ideals import DegreeStats, MonomialIdeal, minimalize
from .rings import DEGREVLEX, BlockElimination, DegRevLex, Monomial, Ring, RingMismatchError

__version__ = "0.1.0"
