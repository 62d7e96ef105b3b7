"""Rings of named variables, exponent-vector monomials over them, and the
exponent-tuple helpers the monomial engine and the Groebner kernel share."""

from __future__ import annotations

from operator import add, le


def _exp_mul(a, b):
    return tuple(map(add, a, b))


def _exp_divides(a, b):
    return all(map(le, a, b))


def _exp_lcm(a, b):
    return tuple(map(max, a, b))


def _minimal(exps):
    """The distinct exponent tuples that no other one divides, in ascending
    (degree, exponents) order. A proper divisor has a smaller degree, so each
    tuple is tested only against the survivors before it, by the masked test
    of `_has_divisor` inlined (a call per tuple costs about 5 %)."""
    out = []
    for e in sorted(set(exps), key=lambda e: (sum(e), e)):
        outside = ~_support(e)
        for m, mask in out:
            if not mask & outside and all(map(le, m, e)):
                break
        else:
            out.append((e, ~outside))
    return [m for m, _ in out]


def _has_divisor(e, masked):
    """Whether a tuple of ``masked``, (tuple, support mask) pairs, divides e.
    Exponents are compared only when the tuple's support lies inside e's;
    a divisor's support lies inside its multiple's, so the prefilter is exact."""
    outside = ~_support(e)
    for m, mask in masked:
        if not mask & outside and all(map(le, m, e)):
            return True
    return False


def _intersection(a, b):
    """The minimal exponent tuples spanning the intersection of the ideals the
    tuples a and b span. A tuple of one side that a tuple of the other side
    divides lies in both ideals, and every lcm it would form is its multiple,
    so it is kept as it is; lcms are formed only among the tuples that remain
    (the pairwise-lcm formula, Miller-Sturmfels, Prop. 1.14)."""
    sides = [[(e, _support(e)) for e in side] for side in (a, b)]
    kept, rest = [], ([], [])
    for i in (0, 1):
        for e, _ in sides[i]:
            (kept if _has_divisor(e, sides[1 - i]) else rest[i]).append(e)
    return _minimal(kept + [_exp_lcm(u, v) for u in rest[0] for v in rest[1]])


def _support(exps):
    """Bitmask of the variables with a positive exponent."""
    mask = 0
    for i, x in enumerate(exps):
        if x:
            mask |= 1 << i
    return mask


class RingMismatchError(ValueError):
    """Two operands live in different rings."""


class Ring:
    """Fixed, ordered tuple of variable names.

    The order chosen at construction is used for every canonical ordering
    in the library: generator sorting, lex comparisons, printing.
    """

    __slots__ = ("variables", "_index")

    def __init__(self, variables):
        names = tuple(variables)
        if not names:
            raise ValueError("a ring needs at least one variable")
        seen = set()
        for name in names:
            if not name or not name.isascii() or any(ch.isspace() for ch in name):
                raise ValueError(f"invalid variable name: {name!r}")
            if name in seen:
                raise ValueError(f"duplicate variable name: {name!r}")
            seen.add(name)
        self.variables = names
        self._index = {name: i for i, name in enumerate(names)}

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable: {name!r}") from None

    def one(self) -> Monomial:
        return Monomial(self, (0,) * self.nvars)

    def variable(self, name: str) -> Monomial:
        exps = [0] * self.nvars
        exps[self.index(name)] = 1
        return Monomial(self, tuple(exps))

    def monomial(self, exponents) -> Monomial:
        return Monomial(self, tuple(exponents))

    def __eq__(self, other):
        return isinstance(other, Ring) and self.variables == other.variables

    def __hash__(self):
        return hash(self.variables)

    def __repr__(self):
        return f"Ring({', '.join(self.variables)})"


def check_same_ring(a, b):
    """Refuse two objects (monomials, polynomials, ideals) whose ``.ring`` differ."""
    if a.ring != b.ring:
        raise RingMismatchError(
            f"operands live in different rings: {a.ring!r} vs {b.ring!r}"
        )


class Monomial:
    """Exponent vector in a fixed ring; the degree is the exponent sum."""

    __slots__ = ("ring", "exponents", "degree")

    def __init__(self, ring: Ring, exponents: tuple):
        if len(exponents) != ring.nvars:
            raise ValueError(
                f"expected {ring.nvars} exponents, got {len(exponents)}"
            )
        if any(e < 0 for e in exponents):
            raise ValueError(f"negative exponent in {exponents}")
        degree = sum(exponents)
        # a float or Fraction entry makes the sum a non-int
        if not isinstance(degree, int):
            raise ValueError(f"non-integer exponent in {exponents}")
        self.ring = ring
        self.exponents = exponents
        self.degree = degree

    @property
    def sort_key(self):
        # canonical order: ascending degree, then exponent-vector lex
        return (self.degree, self.exponents)

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)

    def support(self) -> tuple:
        return tuple(i for i, e in enumerate(self.exponents) if e)

    def radical(self) -> Monomial:
        return Monomial(self.ring, tuple(min(e, 1) for e in self.exponents))

    def divides(self, other: Monomial) -> bool:
        check_same_ring(self, other)
        return _exp_divides(self.exponents, other.exponents)

    def lcm(self, other: Monomial) -> Monomial:
        check_same_ring(self, other)
        return Monomial(self.ring, _exp_lcm(self.exponents, other.exponents))

    def __mul__(self, other: Monomial) -> Monomial:
        check_same_ring(self, other)
        return Monomial(self.ring, _exp_mul(self.exponents, other.exponents))

    def __eq__(self, other):
        return (
            isinstance(other, Monomial)
            and self.ring == other.ring
            and self.exponents == other.exponents
        )

    def __hash__(self):
        return hash((self.ring, self.exponents))

    def __str__(self):
        if self.degree == 0:
            return "1"
        parts = []
        for name, e in zip(self.ring.variables, self.exponents):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __repr__(self):
        return f"Monomial({self})"
