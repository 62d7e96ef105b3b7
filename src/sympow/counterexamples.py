"""Built-in polynomial cases where the symbolic square needs a degree-9 generator.

Two cases over the rationals, one in six variables and one in seven.
Both carry a degree-9 witness polynomial f with (I^2 : f) = (x, y, z),
so f is a new minimal generator of the symbolic square and the naive
"degree D*n" expectation fails at n = 2, D = 4.

The seven-variable case ships two witness candidates: the recorded one,
xyzabcd*(ac - bd), and the alternate xyzabcd*(ab - cd) that matches the
binomial inside the ideal itself. ``verify_colon`` runs either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .bounds import BOUND_HUNEKE, BoundReport
from .groebner import (
    PolyIdeal,
    Polynomial,
    ideal_equals,
    ideal_intersect,
    ideal_power,
    ideal_quotient,
    ideal_sum,
)
from .rings import Ring


@dataclass
class CounterexampleCase:
    name: str
    ring: Ring
    ideal: PolyIdeal
    witness: Polynomial
    witness_alt: Polynomial | None
    primes: tuple  # height-2 primes as 2-generator PolyIdeals
    primes_source: str  # "recorded" with the case, or "derived" by factor analysis
    expected_colon: PolyIdeal
    expected_witness_degree: int
    generator_degree: int
    _memo: dict = field(default_factory=dict, repr=False)

    def square(self) -> PolyIdeal:
        if "square" not in self._memo:
            self._memo["square"] = ideal_power(self.ideal, 2)
        return self._memo["square"]

    def pick_witness(self, which: str = "recorded") -> Polynomial:
        if which == "recorded":
            return self.witness
        if which == "alternate":
            if self.witness_alt is None:
                raise ValueError(f"case {self.name} has no alternate witness")
            return self.witness_alt
        raise ValueError(f"unknown witness selector {which!r}")


@lru_cache(maxsize=None)
def builtin_case_A6() -> CounterexampleCase:
    """Six variables: I = (x(x-y)ya, (x-y)ztb, yz(xa-tb)), twelve height-2 primes."""
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


@lru_cache(maxsize=None)
def builtin_case_A7() -> CounterexampleCase:
    """Seven variables: I = (xyab, xzcd, yz(ab-cd)) with two witness candidates.

    The prime list is derived here, not recorded with the case: a prime
    over I picks one irreducible factor from each generator, and pruning
    the resulting family to its minimal members leaves eleven
    variable-pair primes plus (x, ab-cd).
    ``verify_radical_intersection`` checks the list against I.
    """
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


def colon_ideal(case: CounterexampleCase, witness: str = "recorded") -> PolyIdeal:
    key = ("colon", witness)
    if key not in case._memo:
        f = case.pick_witness(witness)
        case._memo[key] = ideal_quotient(case.square(), f)
    return case._memo[key]


def verify_colon(case: CounterexampleCase, witness: str = "recorded") -> bool:
    """(I^2 : f) equals the expected colon ideal (x, y, z)."""
    return ideal_equals(colon_ideal(case, witness), case.expected_colon)


def verify_radical_intersection(case: CounterexampleCase) -> bool:
    """The intersection of the listed primes is I itself."""
    key = "radical_intersection"
    if key not in case._memo:
        inter = case.primes[0]
        for p in case.primes[1:]:
            inter = ideal_intersect(inter, p)
        case._memo[key] = inter
    return ideal_equals(case._memo[key], case.ideal)


def squared_prime(case: CounterexampleCase, i: int) -> PolyIdeal:
    key = ("prime_square", i)
    if key not in case._memo:
        case._memo[key] = ideal_power(case.primes[i], 2)
    return case._memo[key]


def symbolic_square_generators(case: CounterexampleCase, witness: str = "recorded") -> PolyIdeal:
    """I^2 + (f), the claimed generator presentation of the symbolic square."""
    key = ("square_plus_witness", witness)
    if key not in case._memo:
        f = case.pick_witness(witness)
        case._memo[key] = ideal_sum(case.square(), PolyIdeal(case.ring, (f,)))
    return case._memo[key]


def verify_symbolic_square_containment(case: CounterexampleCase, witness: str = "recorded") -> bool:
    """Cheap half: every generator of I^2 + (f) lies in every squared prime."""
    target = symbolic_square_generators(case, witness)
    for i in range(len(case.primes)):
        sq = squared_prime(case, i)
        if not all(sq.member(g) for g in target.generators):
            return False
    return True


def intersection_of_squared_primes(
    case: CounterexampleCase, progress=None, fold: str = "listed"
) -> PolyIdeal:
    """Fold the squared primes through pairwise intersection.

    ``fold="listed"`` follows the case's prime order; ``fold="sorted"``
    goes smallest generator count first.
    """
    key = ("squared_intersection", fold)
    if key not in case._memo:
        squares = [squared_prime(case, i) for i in range(len(case.primes))]
        if fold == "sorted":
            squares.sort(key=lambda J: len(J.generators))
        elif fold != "listed":
            raise ValueError(f"unknown fold order {fold!r}")
        inter = squares[0]
        for i, sq in enumerate(squares[1:], start=2):
            inter = ideal_intersect(inter, sq)
            if progress:
                progress(
                    f"intersected {i}/{len(squares)} squared primes "
                    f"({len(inter.generators)} generators so far)"
                )
        case._memo[key] = inter
    return case._memo[key]


def verify_symbolic_square(
    case: CounterexampleCase,
    witness: str = "recorded",
    progress=None,
    fold: str = "listed",
) -> bool:
    """The intersection of the squared primes equals I^2 + (f)."""
    inter = intersection_of_squared_primes(case, progress=progress, fold=fold)
    return ideal_equals(inter, symbolic_square_generators(case, witness))


def witness_not_in_square(case: CounterexampleCase, witness: str = "recorded") -> bool:
    return not case.square().member(case.pick_witness(witness))


def degree_violation_report(case: CounterexampleCase, witness: str = "recorded") -> BoundReport:
    """Feed d(I^2 + (f)) to the D*n bound at n = 2; the report flags violation."""
    target = symbolic_square_generators(case, witness)
    d = max(g.total_degree() for g in target.generators)
    return BoundReport(BOUND_HUNEKE, 2, d, 2 * case.generator_degree)
