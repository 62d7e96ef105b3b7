"""Monomial ideals in canonical minimal-generator form.

A `MonomialIdeal` holds its ring and its minimal exponent tuples, ascending
by (degree, exponents), so two equal ideals carry the identical tuple and
plain ``==`` is exact ideal equality. Every operation works on the tuples and
ends in `rings._minimal`, but `intersect` runs both engines' one kernel
`rings._packed_meet` on packed ints. `Monomial`s are built only at the
boundary: by `minimalize`, which the public constructor runs on its
monomials, by the `generators` property and by `lcm_of_generators`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .rings import (DEGREVLEX, Monomial, Ring, _ascending, _exp_lcm, _exp_mul, _has_divisor, _Layout,
                    _minimal, _packed_meet, _support, check_same_ring)


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
    """A monomial ideal held as its minimal exponent tuples, `exps`."""

    __slots__ = ("ring", "exps")

    def __init__(self, ring: Ring, generators=()):
        self.ring = ring
        self.exps = tuple(g.exponents for g in minimalize(ring, generators))

    @classmethod
    def _from_minimal(cls, ring: Ring, exps) -> MonomialIdeal:
        """The ideal of exponent tuples that are already minimal and in order."""
        ideal = cls.__new__(cls)
        ideal.ring = ring
        ideal.exps = tuple(exps)
        return ideal

    @property
    def generators(self) -> tuple:
        """The minimal generators as `Monomial`s, built on each access."""
        return tuple(Monomial(self.ring, e) for e in self.exps)

    @classmethod
    def zero(cls, ring: Ring) -> MonomialIdeal:
        return cls._from_minimal(ring, ())

    @classmethod
    def unit(cls, ring: Ring) -> MonomialIdeal:
        return cls._from_minimal(ring, ((0,) * ring.nvars,))

    @classmethod
    def from_variables(cls, ring: Ring, indices) -> MonomialIdeal:
        exps = []
        for i in indices:
            if not (isinstance(i, int) and 0 <= i < ring.nvars):  # a non-integer index matches no variable
                raise ValueError("variable index out of range")
            exps.append(tuple(int(j == i) for j in range(ring.nvars)))
        return cls._from_minimal(ring, _minimal(exps))

    def is_zero(self) -> bool:
        return not self.exps

    def is_unit(self) -> bool:
        return bool(self.exps) and not any(self.exps[0])

    def is_squarefree(self) -> bool:
        return all(x <= 1 for e in self.exps for x in e)

    def contains(self, u: Monomial) -> bool:
        check_same_ring(self, u)
        return _has_divisor(u.exponents, [(e, _support(e)) for e in self.exps])

    def issubset(self, other: MonomialIdeal) -> bool:
        check_same_ring(self, other)
        theirs = [(e, _support(e)) for e in other.exps]
        return all(_has_divisor(e, theirs) for e in self.exps)

    def intersect(self, other: MonomialIdeal) -> MonomialIdeal:
        """Intersection by the shared kernel `rings._packed_meet`; every lcm fits its layout."""
        check_same_ring(self, other)
        top = sum(sum(K.exps[-1]) for K in (self, other) if K.exps)
        L = _Layout(DEGREVLEX, self.ring.nvars, top.bit_length() + 1)
        a, b = ([L.pack(e) ^ L.unit for e in K.exps] for K in (self, other))
        return MonomialIdeal._from_minimal(self.ring, _ascending(_packed_meet(a, b, L), L))

    def __mul__(self, other: MonomialIdeal) -> MonomialIdeal:
        check_same_ring(self, other)
        return MonomialIdeal._from_minimal(
            self.ring, _minimal([_exp_mul(u, v) for u in self.exps for v in other.exps])
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
        return MonomialIdeal._from_minimal(
            self.ring,
            _minimal([tuple(a - b if a > b else 0 for a, b in zip(g, u.exponents))
                      for g in self.exps]),
        )

    def saturate(self, u: Monomial) -> MonomialIdeal:
        """(I : u^inf): each generator with the variables of u set to 0 (u inverted)."""
        check_same_ring(self, u)
        return MonomialIdeal._from_minimal(
            self.ring,
            _minimal([tuple(0 if b else a for a, b in zip(g, u.exponents)) for g in self.exps]),
        )

    def radical(self) -> MonomialIdeal:
        return MonomialIdeal._from_minimal(
            self.ring, _minimal([tuple(1 if a else 0 for a in g) for g in self.exps])
        )

    def degree_stats(self) -> DegreeStats:
        if not self.exps:
            return DegreeStats(None, None, 0)
        # ascending by degree, so the first and the last tuple give beg and max
        return DegreeStats(sum(self.exps[-1]), sum(self.exps[0]), len(self.exps))

    def lcm_of_generators(self) -> Monomial:
        if not self.exps:
            raise ValueError("the zero ideal has no generator lcm")
        return Monomial(self.ring, reduce(_exp_lcm, self.exps))

    def __eq__(self, other):
        return isinstance(other, MonomialIdeal) and (self.ring, self.exps) == (other.ring, other.exps)

    def __hash__(self):
        return hash((self.ring, self.exps))

    def __str__(self):
        if not self.exps:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.generators) + ")"

    def __repr__(self):
        return f"MonomialIdeal{self}"
