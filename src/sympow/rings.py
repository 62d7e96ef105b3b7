"""Rings of named variables, exponent-vector monomials over them, the
exponent-tuple helpers, the block monomial orders, and `_Layout`, the one
packed-int form of exponent vectors, which the Groebner kernel, the squarefree
folds of `decomp` and `_packed_meet`, both engines' one intersection kernel, run on."""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, le, mul, neg


def _exp_mul(a, b):
    return tuple(map(add, a, b))


def _exp_divides(a, b):
    return all(map(le, a, b))


def _exp_lcm(a, b):
    return tuple(map(max, a, b))


def _minimal(exps):
    """The distinct exponent tuples no other one divides, ascending by (degree, exponents).
    A proper divisor has a smaller degree, so each tuple is tested only against
    the survivors before it, by the support-mask prefilter and exponent
    comparison of `_has_divisor`, inlined here."""
    out = []
    for _, e, mask in sorted((sum(e), e, _support(e)) for e in set(exps)):
        outside = ~mask
        for m, mmask in out:
            if not mmask & outside and all(map(le, m, e)):
                break
        else:
            out.append((e, mask))
    return [m for m, _ in out]


def _packed_scan(packed, guard):
    """The ints of ``packed``, listed divisors first, that no int before them
    divides; a repeat is dropped. Each holds plain exponent fields whose top
    bits, ``guard``, are clear: m | e exactly when (e - m) & guard == 0, as the
    lowest field where m exceeds e borrows and so sets its guard bit."""
    kept = []
    for r in packed:
        for m in kept:
            if not (r - m) & guard:
                break
        else:
            kept.append(r)
    return kept


class _Overflow(Exception):
    """A packed monomial left the fields of its `_Layout`: a Groebner kernel
    run restarts at double width."""


class MonomialOrder:
    """Total, multiplicative well-order on exponent vectors, given as
    ``blocks``: (kind, size) pairs, most significant first, the last size
    None for the remaining variables. A "grevlex" block compares degrees,
    then the smaller last exponent wins; a "lex" block compares exponents in
    turn. ``key`` maps an exponent tuple to a tuple of ints that compares the
    same way. The Groebner kernel packs by the blocks, so an order that
    defines only ``key`` raises TypeError there."""

    blocks = None

    def spans(self, nvars):
        """(kind, start, stop) of each block over nvars variables."""
        if self.blocks is None:
            raise TypeError(f"{self!r} lists no blocks; the Groebner kernel needs them")
        out, lo = [], 0
        for kind, size in self.blocks:
            hi = nvars if size is None else min(lo + size, nvars)
            out.append((kind, lo, hi))
            lo = hi
        return out

    def key(self, exps):
        out = []
        for kind, lo, hi in self.spans(len(exps)):
            part = exps[lo:hi]
            out += (sum(part), *map(neg, reversed(part))) if kind == "grevlex" else part
        return tuple(out)


@dataclass(frozen=True)
class DegRevLex(MonomialOrder):
    blocks = (("grevlex", None),)


@dataclass(frozen=True)
class BlockElimination(MonomialOrder):
    """Degrevlex on the first ``first_k`` variables, then on the rest: an
    element whose lead avoids the first block is free of it (elimination)."""

    first_k: int

    def __post_init__(self):
        if self.first_k < 1:
            raise ValueError("the first block needs at least one variable")

    @property
    def blocks(self):
        return (("grevlex", self.first_k), ("grevlex", None))


DEGREVLEX = DegRevLex()


class _Layout:
    """Exponent vectors packed into ints whose int order is the term order
    (Bachmann and Schönemann, ISSAC 1998). A field has ``width`` bits, the top
    one a guard bit, and holds 0..top. Blocks go most significant first: a
    grevlex block stores its degree, then top - e_i, the last variable
    highest; a lex block stores e_i, the first highest. Packing is affine
    (``unit`` packs 0): a product is a + b - unit, x^(e - d)·t is t + e - d.
    Each field of such a sum of valid ints lies in -top..2·top and the lowest
    one out of range sets its guard bit, so the sum is valid exactly when it
    has no bit of ``guard``. In the exponent form u ^ unit every field is
    plain (the zero vector is 0, a product one addition) and a divisor's int is
    at most its multiple's: d | e exactly when ((e ^ unit) - (d ^ unit)) &
    guard == 0, the test of `_packed_scan`, or when (((e ^ unit) | guard) -
    (d ^ unit)) & guard == guard, the kernel's. Each ``sums``
    entry (variable fields, multiplier, degree field) of a grevlex block sums
    the block's fields into its degree field by one product."""

    def __init__(self, order, nvars, width):
        self.order, self.width, self.top = order, width, (1 << width - 1) - 1
        top, s = self.top, 0
        self.shifts, self.coefs, self.dshifts, self.sums = [0] * nvars, [0] * nvars, [], []
        self.unit = self.vguard = 0
        for kind, lo, hi in reversed(order.spans(nvars)):
            graded, base = kind == "grevlex", s
            for i in range(lo, hi) if graded else range(hi - 1, lo - 1, -1):  # lowest first
                self.shifts[i], self.coefs[i] = s, -(1 << s) if graded else 1 << s
                self.unit += top << s if graded else 0
                self.vguard |= 1 << s + width - 1
                s += width
            if graded:  # the degree field
                for i in range(lo, hi):
                    self.coefs[i] += 1 << s
                self.dshifts.append(s)
                self.sums.append((self.unit >> base << base,
                                  sum(1 << j * width for j in range(1, hi - lo + 1)), top << s))
                s += width
        self.bits, self.guard = s, sum(1 << f + width - 1 for f in range(0, s, width))

    def pack(self, e):
        if sum(e) > self.top:  # a degree within top bounds every field
            raise _Overflow
        return self.unit + sum(map(mul, e, self.coefs))

    def unpack(self, u):
        u ^= self.unit
        return tuple(u >> s & self.top for s in self.shifts)

    def pack_terms(self, terms):
        return {self.pack(e): c for e, c in terms.items()}

    def unpack_terms(self, terms):
        return {self.unpack(u): c for u, c in terms.items()}

    def lcm(self, a, b):
        """In exponent form, the field-wise max of the variable fields, and
        each grevlex degree raised by its variables' rise over b."""
        unit = self.unit
        a ^= unit
        b ^= unit
        take_a = (((a | self.guard) - b) & self.vguard) >> self.width - 1
        m = b ^ (a ^ b) & take_a * self.top
        rise = m - b
        for vmask, ones, dmask in self.sums:
            m += (rise & vmask) * ones & dmask
        if m & self.guard:
            raise _Overflow
        return m ^ unit


def _has_divisor(e, masked):
    """Whether a tuple of ``masked``, (tuple, support mask) pairs, divides e.
    Exponents are compared only when the tuple's support lies inside e's;
    a divisor's support lies inside its multiple's, so the prefilter is exact."""
    outside = ~_support(e)
    for m, mask in masked:
        if not mask & outside and all(map(le, m, e)):
            return True
    return False


def _packed_meet(a, b, L):
    """The minimal exponent-form ints, ascending, spanning the intersection of
    the ideals the exponent-form ints a and b of the degrevlex layout L span,
    by pairwise lcms (Miller-Sturmfels, Prop. 1.14). An int of one side that one
    of the other divides lies in both and divides every lcm it would form, so it
    is kept; lcms, which raise _Overflow past L's fields, are formed among the rest."""
    guard, kept, rest = L.guard, [], ([], [])
    for i, (side, other) in enumerate(((a, b), (b, a))):
        for u in side:
            (kept if any(not (u - v) & guard for v in other) else rest[i]).append(u ^ L.unit)
    kept += [L.lcm(u, v) for u in rest[0] for v in rest[1]]  # `_Layout.lcm` takes and gives packed ints
    return _packed_scan(sorted({u ^ L.unit for u in kept}), guard)


def _ascending(us, L):
    """The tuples of the exponent-form ints us of the layout L, ascending by (degree, exponents)."""
    return sorted(sorted(L.unpack(u ^ L.unit) for u in us), key=sum)  # stable, so exponents break ties


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
        return Monomial(self, exps)

    def monomial(self, exponents) -> Monomial:
        return Monomial(self, exponents)

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

    def __init__(self, ring: Ring, exponents):
        exponents = tuple(exponents)
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

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)

    def support(self) -> tuple:
        return tuple(i for i, e in enumerate(self.exponents) if e)

    def radical(self) -> Monomial:
        return Monomial(self.ring, (min(e, 1) for e in self.exponents))

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
