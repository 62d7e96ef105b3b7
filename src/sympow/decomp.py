"""Decompositions of monomial ideals and the symbolic-power paths.

Symbolic powers can be computed two independent ways that must agree:

* ``symbolic_power_from_decomposition`` -- intersect the n-th powers of
  primary components by the shared kernel `rings._intersection`;
  ``symbolic_power_squarefree`` runs it over the minimal primes (squarefree input only);
* ``symbolic_power_saturation`` -- saturate I**n at the product of the
  variables outside each prime, then intersect.

``symbolic_power`` takes the squarefree path on squarefree input and the
saturation path otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ideals import MonomialIdeal
from .rings import Monomial, Ring, _exp_lcm, _minimal, check_same_ring


class NotSquarefreeError(ValueError):
    """The operation needs a squarefree ideal."""


@dataclass(frozen=True)
class VariablePrime:
    """Prime ideal generated by a set of variables (given by index)."""

    ring: Ring
    variables: tuple

    def __post_init__(self):
        if not self.variables:
            raise ValueError("a variable prime needs at least one variable")
        if list(self.variables) != sorted(set(self.variables)):
            raise ValueError("variable indices must be sorted and distinct")
        if self.variables[-1] >= self.ring.nvars or self.variables[0] < 0:
            raise ValueError("variable index out of range")

    @property
    def names(self) -> tuple:
        return tuple(self.ring.variables[i] for i in self.variables)

    def ideal(self) -> MonomialIdeal:
        return MonomialIdeal.from_variables(self.ring, self.variables)

    def outside_product(self) -> Monomial:
        """Product of the variables not in the prime."""
        inside = set(self.variables)
        exps = tuple(0 if i in inside else 1 for i in range(self.ring.nvars))
        return Monomial(self.ring, exps)

    def __str__(self):
        return "(" + ", ".join(self.names) + ")"


@dataclass(frozen=True)
class Decomposition:
    """Ordered list of components whose intersection is the input ideal."""

    components: tuple

    def __post_init__(self):
        if not self.components:
            raise ValueError("need at least one decomposition component")

    def intersection(self) -> MonomialIdeal:
        return _intersect_fold(list(self.components))


def _require_proper_nonzero(I: MonomialIdeal):
    if I.is_zero():
        raise ValueError("the zero ideal has no decomposition")
    if I.is_unit():
        raise ValueError("the unit ideal has no decomposition")


def _intersect_fold(ideals, meet=MonomialIdeal.intersect) -> MonomialIdeal:
    # ascending generator count keeps the intermediate ideals small
    parts = sorted(
        ideals,
        key=lambda J: (len(J.generators), [g.sort_key for g in J.generators]),
    )
    result = parts[0]
    for J in parts[1:]:
        result = meet(result, J)
    return result


def _all_lcms(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """I ∩ J by all pairwise lcms: `_drop_redundant` uses it until the bench stops leaking."""
    theirs = [v.exponents for v in J.generators]
    lcms = [_exp_lcm(u.exponents, v) for u in I.generators for v in theirs]
    return MonomialIdeal._from_minimal(I.ring, _minimal(lcms))


def minimal_variable_primes(I: MonomialIdeal) -> list:
    """Minimal primes of a squarefree ideal, sorted by (size, indices).

    By Alexander duality they are the supports of the minimal generators
    of the intersection of the primes spanned by each generator's support
    (Miller-Sturmfels, Combinatorial Commutative Algebra, Ch. 1 and 5).
    """
    _require_proper_nonzero(I)
    if not I.is_squarefree():
        raise NotSquarefreeError(
            "minimal primes need a squarefree ideal; pass radical() "
            "or use the irreducible decomposition"
        )
    dual = _intersect_fold([MonomialIdeal.from_variables(I.ring, g.support()) for g in I.generators])
    primes = [VariablePrime(I.ring, g.support()) for g in dual.generators]
    return sorted(primes, key=lambda p: (len(p.variables), p.variables))


def minimal_primes(I: MonomialIdeal) -> Decomposition:
    primes = minimal_variable_primes(I)
    return Decomposition(tuple(p.ideal() for p in primes))


def irreducible_decomposition(I: MonomialIdeal) -> Decomposition:
    """Irredundant decomposition into ideals generated by pure variable powers.

    Splits any generator u*v with coprime u, v into the two ideals where
    one factor replaces the generator, then drops redundant components.
    """
    _require_proper_nonzero(I)
    ring = I.ring
    components = set()
    seen = set()
    stack = [I.generators]
    while stack:
        gens = stack.pop()
        target = next((g for g in gens if len(g.support()) >= 2), None)
        if target is None:
            components.add(gens)
            continue
        i = target.support()[0]
        left_exps = [0] * ring.nvars
        left_exps[i] = target.exponents[i]
        right_exps = list(target.exponents)
        right_exps[i] = 0
        rest = tuple(g for g in gens if g != target)
        for piece in (Monomial(ring, tuple(left_exps)), Monomial(ring, tuple(right_exps))):
            new = MonomialIdeal(ring, rest + (piece,)).generators
            if new not in seen:
                seen.add(new)
                stack.append(new)
    ideals = [MonomialIdeal(ring, gens) for gens in components]
    ideals = _drop_redundant(ideals)
    ideals.sort(key=lambda J: (len(J.generators), [g.sort_key for g in J.generators]))
    return Decomposition(tuple(ideals))


def _drop_redundant(components):
    comps = sorted(
        set(components),
        key=lambda J: (len(J.generators), [g.sort_key for g in J.generators]),
    )
    i = 0
    while i < len(comps):
        others = comps[:i] + comps[i + 1 :]
        if others and _intersect_fold(others, _all_lcms).issubset(comps[i]):
            comps.pop(i)
            continue
        i += 1
    return comps


def associated_primes(I: MonomialIdeal) -> list:
    """Radicals of the irredundant irreducible components, deduplicated."""
    dec = irreducible_decomposition(I)
    primes = set()
    for comp in dec.components:
        support = set()
        for g in comp.generators:
            support.update(g.support())
        primes.add(VariablePrime(I.ring, tuple(sorted(support))))
    return sorted(primes, key=lambda p: (len(p.variables), p.variables))


def symbolic_power_squarefree(I: MonomialIdeal, n: int) -> MonomialIdeal:
    """The decomposition path over the computed minimal primes."""
    if n < 1:
        raise ValueError("symbolic powers need n >= 1")
    return symbolic_power_from_decomposition(minimal_primes(I).components, n)


def symbolic_power_from_decomposition(components, n: int) -> MonomialIdeal:
    """Intersection of the n-th powers of caller-supplied components."""
    components = Decomposition(tuple(components)).components
    if n < 1:
        raise ValueError("symbolic powers need n >= 1")
    for c in components[1:]:
        check_same_ring(components[0], c)
    return _intersect_fold([c.power(n) for c in components])


def symbolic_power_saturation(I: MonomialIdeal, n: int, primes: str = "min") -> MonomialIdeal:
    """Saturation form of the definition: intersect (I**n : u_p^inf) over primes p.

    ``primes="min"`` uses the minimal primes of radical(I) (every worked
    example in the suite); ``primes="ass"`` uses the associated primes
    from the irreducible decomposition.
    """
    _require_proper_nonzero(I)
    if n < 1:
        raise ValueError("symbolic powers need n >= 1")
    if primes == "min":
        plist = minimal_variable_primes(I.radical())
    elif primes == "ass":
        plist = associated_primes(I)
    else:
        raise ValueError(f"unknown prime selector: {primes!r}")
    power = I.power(n)
    return _intersect_fold([power.saturate(p.outside_product()) for p in plist])


def symbolic_power(I: MonomialIdeal, n: int) -> MonomialIdeal:
    """The squarefree path when I is squarefree, the saturation path otherwise."""
    if I.is_squarefree():
        return symbolic_power_squarefree(I, n)
    return symbolic_power_saturation(I, n)
