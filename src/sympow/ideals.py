"""Monomial ideals in canonical minimal-generator form.

Every constructor funnels through :func:`minimalize`, so two equal ideals
always carry the identical generator tuple and plain ``==`` is exact
ideal equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import Monomial, Ring, _exp_divides, _exp_lcm, _exp_mul, _minimal, check_same_ring


@dataclass(frozen=True)
class DegreeStats:
    """Generator-degree summary; max/beg are None for the zero ideal."""

    max_gen_degree: int | None
    beg: int | None
    count: int


def minimalize(ring: Ring, monomials) -> tuple:
    """Unique minimal generating set of the ideal the monomials span.

    Divisibility-reduced, deduplicated, sorted ascending by
    (degree, exponent vector). Each input's ring is checked once, and the
    selection runs on bare exponent tuples.
    """
    exps = []
    for m in monomials:
        if m.ring != ring:
            check_same_ring(ring.one(), m)
        exps.append(m.exponents)
    return tuple(Monomial(ring, e) for e in _minimal(exps))


class MonomialIdeal:
    """A monomial ideal held as its canonical minimal generating set."""

    __slots__ = ("ring", "generators")

    def __init__(self, ring: Ring, generators=()):
        self.ring = ring
        self.generators = minimalize(ring, generators)

    @classmethod
    def _from_exponents(cls, ring: Ring, exps) -> MonomialIdeal:
        """The ideal of exponent tuples of the ring, built by the operations:
        a Monomial is made for each minimal tuple only."""
        ideal = cls.__new__(cls)
        ideal.ring = ring
        ideal.generators = tuple(Monomial(ring, e) for e in _minimal(exps))
        return ideal

    @classmethod
    def zero(cls, ring: Ring) -> MonomialIdeal:
        return cls(ring)

    @classmethod
    def unit(cls, ring: Ring) -> MonomialIdeal:
        return cls(ring, (ring.one(),))

    @classmethod
    def from_variables(cls, ring: Ring, indices) -> MonomialIdeal:
        return cls(ring, [ring.variable(ring.variables[i]) for i in indices])

    def is_zero(self) -> bool:
        return not self.generators

    def is_unit(self) -> bool:
        return bool(self.generators) and self.generators[0].degree == 0

    def is_proper(self) -> bool:
        return not self.is_unit()

    def is_squarefree(self) -> bool:
        return all(g.is_squarefree() for g in self.generators)

    def contains(self, u: Monomial) -> bool:
        check_same_ring(self, u)
        e = u.exponents
        return any(_exp_divides(g.exponents, e) for g in self.generators)

    def issubset(self, other: MonomialIdeal) -> bool:
        check_same_ring(self, other)
        return all(other.contains(g) for g in self.generators)

    def intersect(self, other: MonomialIdeal) -> MonomialIdeal:
        """Set-theoretic intersection via pairwise lcms of the generators."""
        check_same_ring(self, other)
        theirs = [v.exponents for v in other.generators]
        return MonomialIdeal._from_exponents(
            self.ring, [_exp_lcm(u.exponents, v) for u in self.generators for v in theirs]
        )

    def __mul__(self, other: MonomialIdeal) -> MonomialIdeal:
        check_same_ring(self, other)
        theirs = [v.exponents for v in other.generators]
        return MonomialIdeal._from_exponents(
            self.ring, [_exp_mul(u.exponents, v) for u in self.generators for v in theirs]
        )

    def power(self, n: int) -> MonomialIdeal:
        """I**n by repeated product; n = 0 gives the unit ideal by convention."""
        if n < 0:
            raise ValueError("ideal powers need n >= 0")
        result = MonomialIdeal.unit(self.ring)
        for _ in range(n):
            result = result * self
        return result

    __pow__ = power

    def quotient(self, u: Monomial) -> MonomialIdeal:
        """(I : u), computed generator by generator: exponentwise max(g - u, 0)."""
        check_same_ring(self, u)
        return MonomialIdeal._from_exponents(
            self.ring,
            [tuple(a - b if a > b else 0 for a, b in zip(g.exponents, u.exponents))
             for g in self.generators],
        )

    def saturate(self, u: Monomial) -> MonomialIdeal:
        """(I : u^inf): each generator with the variables of u set to 0 (u inverted)."""
        check_same_ring(self, u)
        return MonomialIdeal._from_exponents(
            self.ring,
            [tuple(0 if b else a for a, b in zip(g.exponents, u.exponents))
             for g in self.generators],
        )

    def radical(self) -> MonomialIdeal:
        return MonomialIdeal._from_exponents(
            self.ring, [tuple(1 if a else 0 for a in g.exponents) for g in self.generators]
        )

    def degree_stats(self) -> DegreeStats:
        if not self.generators:
            return DegreeStats(None, None, 0)
        degrees = [g.degree for g in self.generators]
        return DegreeStats(max(degrees), min(degrees), len(degrees))

    def lcm_of_generators(self) -> Monomial:
        if not self.generators:
            raise ValueError("the zero ideal has no generator lcm")
        out = self.generators[0]
        for g in self.generators[1:]:
            out = out.lcm(g)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.ring == other.ring
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.ring, self.generators))

    def __str__(self):
        if not self.generators:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.generators) + ")"

    def __repr__(self):
        return f"MonomialIdeal{self}"
