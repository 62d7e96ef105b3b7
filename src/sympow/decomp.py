"""Decompositions of monomial ideals and the symbolic-power paths.

Symbolic powers can be computed three independent ways that must agree:

* ``symbolic_power_squarefree`` -- squarefree input only: fold
  `_meet_prime_power`, the exact meet with the n-th power of a variable
  prime, over the minimal primes in `_local_order`, which keeps the
  intermediate ideals small; the meet is commutative and the result
  sorted, so the order leaves the result as it is;
* ``symbolic_power_from_decomposition`` -- intersect the n-th powers of
  caller-supplied components by the shared kernel `rings._packed_meet`;
* ``symbolic_power_saturation`` -- saturate I**n at the product of the
  variables outside each prime, then intersect by the same kernel.

The minimal primes come from the Alexander-dual fold of `_meet_prime_power`
at n = 1. So the squarefree path never runs `rings._packed_meet`, and the
decomposition path and the saturation path over the associated primes never
run `_meet_prime_power`; over the minimal primes the saturation path shares
only the dual fold that finds them. Both kernels end in `rings._packed_scan`,
and the tests check each against its definition.

``symbolic_power`` takes the squarefree path on squarefree input and the
saturation path otherwise.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations_with_replacement

from .ideals import MonomialIdeal
from .rings import (DEGREVLEX, Monomial, Ring, _ascending, _exp_lcm, _Layout, _minimal, _packed_scan, _Record,
                    check_same_ring)


class NotSquarefreeError(ValueError):
    """The operation needs a squarefree ideal."""


class VariablePrime(_Record):
    """Prime ideal generated by a set of variables (given by index)."""

    __slots__ = ("ring", "variables")

    def __init__(self, ring: Ring, variables: tuple):
        if not variables:
            raise ValueError("a variable prime needs at least one variable")
        if list(variables) != sorted(set(variables)):
            raise ValueError("variable indices must be sorted and distinct")
        # a float or Fraction index makes the sum a non-int
        if not isinstance(sum(variables), int) or variables[0] < 0 or variables[-1] >= ring.nvars:
            raise ValueError("variable index out of range")
        self._set(ring, variables)

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


class Decomposition(_Record):
    """Ordered list of components whose intersection is the input ideal."""

    __slots__ = ("components",)

    def __init__(self, components: tuple):
        if not components:
            raise ValueError("need at least one decomposition component")
        self._set(components)

    def intersection(self) -> MonomialIdeal:
        return _intersect_fold(list(self.components))


def _require_proper_nonzero(I: MonomialIdeal):
    if I.is_zero():
        raise ValueError("the zero ideal has no decomposition")
    if I.is_unit():
        raise ValueError("the unit ideal has no decomposition")


def _require_squarefree(I: MonomialIdeal):
    _require_proper_nonzero(I)
    if not I.is_squarefree():
        raise NotSquarefreeError(
            "minimal primes need a squarefree ideal; pass radical() "
            "or use the irreducible decomposition"
        )


def _ideal_order(J: MonomialIdeal):
    # the order of the folds and of a decomposition's components: generator
    # count, then the generators' (degree, exponents) keys
    return (len(J.exps), [(sum(e), e) for e in J.exps])


def _intersect_fold(ideals) -> MonomialIdeal:
    # ascending generator count keeps the intermediate ideals small
    parts = sorted(ideals, key=_ideal_order)
    result = parts[0]
    for J in parts[1:]:
        result = result.intersect(J)
    return result


def _all_lcms(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """I ∩ J by all pairwise lcms: `_drop_redundant` uses it until the bench stops leaking."""
    return MonomialIdeal._from_minimal(I.ring, _minimal([_exp_lcm(u, v) for u in I.exps for v in J.exps]))


def _meet_prime_power(us, variables, n, L):
    """The minimal tuples spanning I ∩ P^n, in no fixed order, for I spanned
    by the minimal tuples us and P the prime of the given variable indices (on
    non-minimal input the result can keep redundant tuples). Every tuple is an
    int in the exponent form u ^ L.unit of a degrevlex `rings._Layout` L whose
    top bounds the degrees of the result.

    A monomial lies in P^n when its P-degree is at least n, so I ∩ P^n =
    Σ_u u·P^max(0, n - deg_P u) (Miller-Sturmfels, Combinatorial Commutative
    Algebra, Ch. 1). A u with deg_P u > n is minimal: a product v·p dividing it
    makes v a proper divisor of u. Any other product has P-degree n and divides
    another only if both have the same P-part q and its rest (P's coordinates
    set to 0) divides the other's. So each u is split once, `_packed_scan`
    keeps the minimal rests under each q, and a product is built only for a
    survivor. The P-degree is the sum of the P-part's fields, formed in the
    degree field by the multiplier of L.sums, as `_Layout.lcm` forms a degree;
    the degree comes first in the int order, so sorted rests list divisors
    first.
    """
    shifts, (dshift,), ((_, ones, dmask),) = L.shifts, L.dshifts, L.sums
    bits = [1 << shifts[i] for i in variables]
    pfields = L.top * sum(bits)
    parts, groups, powers, out = {}, {}, {}, []
    for u in us:
        parts.setdefault(u & pfields, []).append(u)
    for part, group in parts.items():
        d = (part * ones & dmask) >> dshift
        if d > n:
            out += group
            continue
        cut = part + (d << dshift)
        rests = [u - cut for u in group]
        if d not in powers:
            powers[d] = [s + (n << dshift) for s in map(sum, combinations_with_replacement(bits, n - d))]
        for p in powers[d]:
            groups.setdefault(part + p, []).extend(rests)
    for q, rests in groups.items():
        rests.sort()
        out += [r + q for r in _packed_scan(rests, L.guard)]
    return out


def minimal_variable_primes(I: MonomialIdeal) -> list:
    """Minimal primes of a squarefree ideal, sorted by (size, indices).

    By Alexander duality they are the supports of the minimal generators
    of the intersection of the primes spanned by each generator's support
    (Miller-Sturmfels, Combinatorial Commutative Algebra, Ch. 1 and 5),
    folded from the unit ideal by `_meet_prime_power` at n = 1.
    """
    _require_squarefree(I)
    L = _Layout(DEGREVLEX, I.ring.nvars, I.ring.nvars.bit_length() + 1)
    dual = [0]  # the unit ideal: the zero tuple's exponent form is 0
    for g in I.exps:
        dual = _meet_prime_power(dual, [i for i, x in enumerate(g) if x], 1, L)
    primes = [VariablePrime(I.ring, tuple(i for i, x in enumerate(L.unpack(u ^ L.unit)) if x)) for u in dual]
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
    components = set()
    seen = set()
    stack = [I.exps]
    while stack:
        gens = stack.pop()
        target = next((g for g in gens if sum(map(bool, g)) >= 2), None)
        if target is None:
            components.add(gens)
            continue
        i = next(i for i, x in enumerate(target) if x)
        left = tuple(x if j == i else 0 for j, x in enumerate(target))
        right = target[:i] + (0,) + target[i + 1 :]
        rest = [g for g in gens if g != target]
        for piece in (left, right):
            new = tuple(_minimal(rest + [piece]))
            if new not in seen:
                seen.add(new)
                stack.append(new)
    ideals = _drop_redundant([MonomialIdeal._from_minimal(I.ring, gens) for gens in components])
    return Decomposition(tuple(ideals))


def _drop_redundant(components):
    comps = sorted(components, key=_ideal_order)
    i = 0
    while i < len(comps):
        others = comps[:i] + comps[i + 1 :]
        if others and reduce(_all_lcms, others).issubset(comps[i]):
            comps.pop(i)
            continue
        i += 1
    return comps


def associated_primes(I: MonomialIdeal) -> list:
    """Radicals of the irredundant irreducible components, deduplicated."""
    primes = set()
    for comp in irreducible_decomposition(I).components:
        support = reduce(_exp_lcm, comp.exps)  # the lcm has the union of the supports
        primes.add(VariablePrime(I.ring, tuple(i for i, x in enumerate(support) if x)))
    return sorted(primes, key=lambda p: (len(p.variables), p.variables))


def _local_order(primes):
    """The primes in the order the squarefree fold meets them: each next one
    adds the fewest variables not yet met, a tie goes to the one that shares the
    most variables with the one before, then to the earlier in the input."""
    count, span = len(primes), primes[0].ring.nvars + 1
    masks = {k: sum(1 << i for i in p.variables) for k, p in enumerate(primes)}
    met, last, order = 0, 0, []
    while masks:
        free, best = ~met, span * span * count  # one int key: (new variables, -shared ones, input position)
        for k, m in masks.items():
            key = ((m & free).bit_count() * span - (m & last).bit_count()) * count + k
            if key < best:
                best = key
        last = masks.pop(best % count)
        met |= last
        order.append(primes[best % count])
    return order


def symbolic_power_squarefree(I: MonomialIdeal, n: int) -> MonomialIdeal:
    """The meet of the n-th powers of the minimal primes, folded from the
    unit ideal by `_meet_prime_power` in `_local_order`. The meet is
    commutative and the result is sorted, so the order changes only the size
    of the intermediate ideals; a squarefree ideal is radical, so n = 1 gives I."""
    if n < 1:
        raise ValueError("symbolic powers need n >= 1")
    if n == 1:
        _require_squarefree(I)
        return I
    # every exponent stays at most n
    L = _Layout(DEGREVLEX, I.ring.nvars, (n * I.ring.nvars).bit_length() + 1)
    us = [0]
    for p in _local_order(minimal_variable_primes(I)):
        us = _meet_prime_power(us, p.variables, n, L)
    return MonomialIdeal._from_minimal(I.ring, _ascending(us, L))


def symbolic_power_from_decomposition(components, n: int) -> MonomialIdeal:
    """Intersection of the n-th powers of caller-supplied components."""
    components = Decomposition(tuple(components)).components
    if n < 1:
        raise ValueError("symbolic powers need n >= 1")
    for c in components:
        check_same_ring(components[0], c)
        _require_proper_nonzero(c)
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
