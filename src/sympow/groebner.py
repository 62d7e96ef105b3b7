"""Exact Groebner-basis kernel over the rationals.

Sparse polynomials with Fraction coefficients, monomial orders
(degrevlex, lex, block elimination), multivariate division, Buchberger
with the Gebauer-Moeller pair update, reduced bases, and the ideal
operations built on them: membership, sum, product, power, intersection
by elimination, colon by a polynomial, equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm

from .rings import Monomial, Ring, RingMismatchError, check_same_ring

AUX_VARIABLE = "@w"  # reserved for elimination; the file grammar rejects it


class InternalInvariantError(RuntimeError):
    """A computation violated one of its own invariants (a bug, not bad input)."""


# ---------------------------------------------------------------------------
# monomial orders


class MonomialOrder:
    """Total, multiplicative well-order on exponent vectors.

    ``key`` maps an exponent tuple to a flat tuple of ints that compares
    the same way the order does (bigger key = bigger monomial).
    """

    def key(self, exps):
        raise NotImplementedError


@dataclass(frozen=True)
class DegRevLex(MonomialOrder):
    def key(self, exps):
        out = [sum(exps)]
        out.extend(-e for e in reversed(exps))
        return tuple(out)


@dataclass(frozen=True)
class Lex(MonomialOrder):
    def key(self, exps):
        return tuple(exps)


@dataclass(frozen=True)
class BlockElimination(MonomialOrder):
    """Compare the first ``first_k`` exponents (degrevlex) before the rest.

    Any basis element whose leading monomial avoids the first block is
    free of the first block entirely, which is what elimination needs.
    """

    first_k: int

    def __post_init__(self):
        if self.first_k < 1:
            raise ValueError("the first block needs at least one variable")

    def key(self, exps):
        k = self.first_k
        head, tail = exps[:k], exps[k:]
        out = [sum(head)]
        out.extend(-e for e in reversed(head))
        out.append(sum(tail))
        out.extend(-e for e in reversed(tail))
        return tuple(out)


DEGREVLEX = DegRevLex()
LEX = Lex()


# ---------------------------------------------------------------------------
# polynomials


def _exp_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _exp_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _exp_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


class Polynomial:
    """Sparse exact-rational polynomial: a dict from exponent tuple to Fraction.

    Instances are immutable by convention; all arithmetic returns new
    objects. Term order is a presentation concern: printing sorts the
    terms under degrevlex and never changes the stored term multiset.
    """

    __slots__ = ("ring", "coeffs", "_hash")

    def __init__(self, ring: Ring, coeffs=None):
        self.ring = ring
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                if not isinstance(c, Fraction):
                    c = Fraction(c)
                if c:
                    clean[e] = c
        self.coeffs = clean
        self._hash = None

    # -- constructors

    @classmethod
    def zero(cls, ring: Ring) -> Polynomial:
        return cls(ring)

    @classmethod
    def constant(cls, ring: Ring, c) -> Polynomial:
        return cls(ring, {(0,) * ring.nvars: Fraction(c)})

    @classmethod
    def variable(cls, ring: Ring, name: str) -> Polynomial:
        exps = [0] * ring.nvars
        exps[ring.index(name)] = 1
        return cls(ring, {tuple(exps): Fraction(1)})

    @classmethod
    def from_monomial(cls, m: Monomial, c=1) -> Polynomial:
        return cls(m.ring, {m.exponents: Fraction(c)})

    # -- basic queries

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def total_degree(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no degree")
        return max(sum(e) for e in self.coeffs)

    def leading(self, order: MonomialOrder = DEGREVLEX):
        """(exponent tuple, coefficient) of the leading term under order."""
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading term")
        e = max(self.coeffs, key=order.key)
        return e, self.coeffs[e]

    def as_monomial(self):
        """(monomial, coefficient) when the polynomial has exactly one term."""
        if len(self.coeffs) != 1:
            return None
        ((e, c),) = self.coeffs.items()
        return Monomial(self.ring, e), c

    # -- arithmetic

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            check_same_ring(self, other)
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.ring, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial(self.ring)
            return Polynomial(
                self.ring, {e: c * other for e, c in self.coeffs.items()}
            )
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = _exp_mul(e1, e2)
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("polynomial powers need n >= 0")
        result = Polynomial.constant(self.ring, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- normal forms of the object itself

    def content_normalized(self) -> Polynomial:
        """Scale to primitive integer coefficients, lex-leading one positive."""
        if not self.coeffs:
            return self
        g = 0
        l = 1
        for c in self.coeffs.values():
            g = gcd(g, c.numerator)
            l = lcm(l, c.denominator)
        scale = Fraction(l, g)
        if self.coeffs[max(self.coeffs)] < 0:
            scale = -scale
        return Polynomial(self.ring, {e: c * scale for e, c in self.coeffs.items()})

    # -- plumbing

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.coeffs.items())))
        return self._hash

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, key=DEGREVLEX.key, reverse=True):
            m, c = Monomial(self.ring, e), self.coeffs[e]
            mag = abs(c)
            if m.degree == 0:
                body = str(mag)
            elif mag == 1:
                body = str(m)
            else:
                body = f"{mag}*{m}"
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Polynomial({self})"


# ---------------------------------------------------------------------------
# division


def _reduce_dict(p, divisors, order):
    """Remainder of the term dict p modulo the prepared divisors.

    Divisors are (leading exps, leading coeff, coeff dict), tried in list
    order. New monomials introduced by a reduction step are strictly
    smaller than the one cancelled, so a lazy max-heap over the live
    monomials is sound.
    """
    key = order.key
    p = dict(p)
    r = {}
    heap = []
    for e in p:
        heappush(heap, (tuple(-k for k in key(e)), e))
    while heap:
        _, e = heappop(heap)
        c = p.get(e)
        if c is None:
            continue
        for de, dc, dcoeffs in divisors:
            if _exp_divides(de, e):
                factor = c / dc
                shift = tuple(a - b for a, b in zip(e, de))
                del p[e]
                for e2, c2 in dcoeffs.items():
                    if e2 == de:
                        continue
                    tgt = _exp_mul(e2, shift)
                    old = p.get(tgt)
                    v = (old if old is not None else 0) - factor * c2
                    if v:
                        p[tgt] = v
                        if old is None:
                            heappush(heap, (tuple(-k for k in key(tgt)), tgt))
                    elif old is not None:
                        del p[tgt]
                break
        else:
            del p[e]
            r[e] = c
    return r


def _prepare_divisors(G, order):
    out = []
    for g in G:
        if g.is_zero():
            continue
        de, dc = g.leading(order)
        out.append((de, dc, g.coeffs))
    return out


def normal_form(f: Polynomial, G, order: MonomialOrder = DEGREVLEX) -> Polynomial:
    """Remainder of f on division by G (tried in list order).

    f minus the result lies in the ideal spanned by G, and no remainder
    term is divisible by any leading monomial of G.
    """
    divisors = _prepare_divisors(G, order)
    if not divisors:
        return f
    return Polynomial(f.ring, _reduce_dict(f.coeffs, divisors, order))


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder = DEGREVLEX) -> Polynomial:
    ef, cf = f.leading(order)
    eg, cg = g.leading(order)
    L = _exp_lcm(ef, eg)
    sf = tuple(a - b for a, b in zip(L, ef))
    sg = tuple(a - b for a, b in zip(L, eg))
    out = {}
    for e, c in f.coeffs.items():
        out[_exp_mul(e, sf)] = c / cf
    for e, c in g.coeffs.items():
        tgt = _exp_mul(e, sg)
        v = out.get(tgt, 0) - c / cg
        if v:
            out[tgt] = v
        else:
            out.pop(tgt, None)
    return Polynomial(f.ring, out)


def divide_exact(f: Polynomial, d: Polynomial, order: MonomialOrder = DEGREVLEX) -> Polynomial:
    """Quotient f / d when d divides f exactly; anything else is a bug here."""
    if d.is_zero():
        raise ValueError("division by the zero polynomial")
    ed, cd = d.leading(order)
    key = order.key
    p = dict(f.coeffs)
    q = {}
    while p:
        e = max(p, key=key)
        if not _exp_divides(ed, e):
            raise InternalInvariantError(
                "exact division left a remainder; the divisor was expected "
                "to divide every element here"
            )
        c = p[e]
        shift = tuple(a - b for a, b in zip(e, ed))
        factor = c / cd
        q[shift] = factor
        for e2, c2 in d.coeffs.items():
            tgt = _exp_mul(e2, shift)
            v = p.get(tgt, 0) - factor * c2
            if v:
                p[tgt] = v
            else:
                p.pop(tgt, None)
    return Polynomial(f.ring, q)


# ---------------------------------------------------------------------------
# Buchberger


def _check_polynomials(generators):
    """The generators as a list; anything that is not a Polynomial is refused."""
    gens = list(generators)
    for g in gens:
        if not isinstance(g, Polynomial):
            raise TypeError(f"generator {g!r} is not a Polynomial")
    return gens


def _reduced_from_basis(divisors, ring, order):
    """Reduced basis, largest lead first, from the divisor entries of a Groebner basis.

    Each minimal entry's tail is reduced against all minimal entries: its
    own leading monomial is bigger than every tail term, so never divides one.
    """
    key = order.key
    minimal = []
    for entry in sorted(divisors, key=lambda d: key(d[0])):
        if not any(_exp_divides(m[0], entry[0]) for m in minimal):
            minimal.append(entry)
    out = []
    for de, dc, coeffs in reversed(minimal):
        reduced = {de: dc}
        reduced.update(
            _reduce_dict({e: c for e, c in coeffs.items() if e != de}, minimal, order)
        )
        inv = 1 / dc
        out.append(Polynomial(ring, {e: c * inv for e, c in reduced.items()}))
    return tuple(out)


def buchberger(generators, order: MonomialOrder = DEGREVLEX):
    """Reduced Groebner basis of the ideal the generators span.

    Pair selection is by smallest lcm (degree first). Pairs are pruned by
    the Gebauer-Moeller update, run once each time an element joins the
    basis: old pairs fall to criterion B, and of the new pairs only one per
    minimal lcm stays (criteria M and F), none when a pair with that lcm
    has coprime leading monomials. An element whose leading monomial a
    later one divides forms no more pairs but still reduces. Every
    accepted element is content-normalized to keep the rational arithmetic
    small. Each element's leading term and divisor entry are computed
    once, when it joins the basis, and every reduction reuses them.
    Termination is Dickson's lemma.
    """
    gens = [g for g in _check_polynomials(generators) if not g.is_zero()]
    if not gens:
        return ()
    ring = gens[0].ring
    for g in gens:
        check_same_ring(gens[0], g)

    key = order.key
    G = []
    lms = []
    divisors = []  # (leading exps, leading coeff, coeffs), in basis order
    active = []  # elements that still form pairs: no later lead divides theirs
    pending = {}  # (i, j) -> lcm of the leads, for i < j
    heap = []  # (degree, order key, i, j); a pair no longer pending is skipped

    def append(poly):
        de, dc = poly.leading(order)
        degree = sum(de)
        new = len(G)
        # criterion B: the new lead divides L but neither lcm with it equals L
        for (i, j), L in list(pending.items()):
            if (
                _exp_divides(de, L)
                and L != _exp_lcm(lms[i], de)
                and L != _exp_lcm(lms[j], de)
            ):
                del pending[i, j]
        # new pairs, grouped by lcm: (first member, any member coprime);
        # leads are coprime exactly when their lcm has the degree of their product
        groups = {}
        for j in active:
            L = _exp_lcm(lms[j], de)
            first, coprime = groups.get(L, (j, False))
            groups[L] = (first, coprime or sum(L) == sum(lms[j]) + degree)
        # criterion M keeps the minimal lcms; F keeps one pair of each
        minimal = []
        for L in sorted(groups, key=sum):
            if not any(_exp_divides(m, L) for m in minimal):
                minimal.append(L)
        for L in minimal:
            j, coprime = groups[L]
            if not coprime:
                pending[j, new] = L
                heappush(heap, (sum(L), key(L), j, new))
        active[:] = [j for j in active if not _exp_divides(de, lms[j])]
        active.append(new)
        G.append(poly)
        lms.append(de)
        divisors.append((de, dc, poly.coeffs))

    def reduce(f):
        return Polynomial(ring, _reduce_dict(f.coeffs, divisors, order))

    # light interreduction of the inputs: one pass, keeps the pair queue small
    for g in gens:
        r = reduce(g)
        if not r.is_zero():
            append(r.content_normalized())

    while heap:
        _, _, i, j = heappop(heap)
        if pending.pop((i, j), None) is None:
            continue
        r = reduce(s_polynomial(G[i], G[j], order))
        if not r.is_zero():
            append(r.content_normalized())

    return _reduced_from_basis(divisors, ring, order)


# ---------------------------------------------------------------------------
# polynomial ideals


class PolyIdeal:
    """Generator list plus its reduced degrevlex Groebner basis, computed once."""

    __slots__ = ("ring", "generators", "_basis", "_is_basis")

    def __init__(self, ring: Ring, generators=()):
        self.ring = ring
        gens = _check_polynomials(generators)
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError("generator from a different ring")
        self.generators = tuple(g for g in gens if not g.is_zero())
        self._basis = None
        self._is_basis = False

    @classmethod
    def from_basis(cls, ring: Ring, basis) -> PolyIdeal:
        """The ideal of a degrevlex Groebner basis.

        Its reduced degrevlex basis is derived from the generators on first
        use, without running Buchberger.
        """
        ideal = cls(ring, basis)
        ideal._is_basis = True
        return ideal

    @classmethod
    def zero(cls, ring: Ring) -> PolyIdeal:
        return cls(ring)

    def is_zero(self) -> bool:
        return not self.generators

    def groebner_basis(self):
        """The reduced degrevlex basis; a reduced basis is canonical for its order."""
        if self._basis is None:
            if self._is_basis:
                self._basis = _reduced_from_basis(
                    _prepare_divisors(self.generators, DEGREVLEX), self.ring, DEGREVLEX
                )
            else:
                self._basis = buchberger(self.generators)
        return self._basis

    def member(self, f: Polynomial) -> bool:
        check_same_ring(f, self)
        if f.is_zero():
            return True
        return normal_form(f, self.groebner_basis()).is_zero()

    def __str__(self):
        if not self.generators:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.generators) + ")"

    def __repr__(self):
        return f"PolyIdeal{self}"


def _check_rings(I: PolyIdeal, J: PolyIdeal):
    if I.ring != J.ring:
        raise RingMismatchError("ideals live in different rings")


def ideal_sum(I: PolyIdeal, J: PolyIdeal) -> PolyIdeal:
    _check_rings(I, J)
    gens = list(I.generators)
    for g in J.generators:
        if g not in gens:
            gens.append(g)
    return PolyIdeal(I.ring, gens)


def ideal_product(I: PolyIdeal, J: PolyIdeal) -> PolyIdeal:
    _check_rings(I, J)
    gens = []
    for f in I.generators:
        for g in J.generators:
            fg = f * g
            if fg not in gens:
                gens.append(fg)
    return PolyIdeal(I.ring, gens)


def ideal_power(I: PolyIdeal, n: int) -> PolyIdeal:
    """I**n at generator level; n = 0 gives the unit ideal by convention."""
    if n < 0:
        raise ValueError("ideal powers need n >= 0")
    if n == 0:
        return PolyIdeal(I.ring, (Polynomial.constant(I.ring, 1),))
    result = I
    for _ in range(n - 1):
        result = ideal_product(result, I)
    return result


def _extended_ring(ring: Ring) -> Ring:
    if AUX_VARIABLE in ring.variables:
        raise InternalInvariantError("the auxiliary variable is already in use")
    return Ring((AUX_VARIABLE,) + ring.variables)


def _lift(f: Polynomial, ext: Ring) -> Polynomial:
    return Polynomial(ext, {(0,) + e: c for e, c in f.coeffs.items()})


def _drop_aux(f: Polynomial, ring: Ring) -> Polynomial:
    return Polynomial(ring, {e[1:]: c for e, c in f.coeffs.items()})


def ideal_intersect(I: PolyIdeal, J: PolyIdeal) -> PolyIdeal:
    """I ∩ J by elimination: adjoin w, take w*I + (1-w)*J, drop w.

    The w-free part of the reduced block-order basis, in the same order,
    is the reduced degrevlex basis of the intersection; the result keeps
    it and has its content-normalized elements as generators.
    """
    _check_rings(I, J)
    if I.is_zero() or J.is_zero():
        return PolyIdeal.zero(I.ring)
    ext = _extended_ring(I.ring)
    w = Polynomial.variable(ext, AUX_VARIABLE)
    one_minus_w = Polynomial.constant(ext, 1) - w
    gens = [w * _lift(g, ext) for g in I.generators]
    gens += [one_minus_w * _lift(g, ext) for g in J.generators]
    basis = buchberger(gens, BlockElimination(1))
    keep = []
    for g in basis:
        e, _ = g.leading(BlockElimination(1))
        if e[0] == 0:
            if any(e2[0] for e2 in g.coeffs):
                raise InternalInvariantError(
                    "w-free leading monomial but a w-bearing tail term"
                )
            keep.append(_drop_aux(g, I.ring))
    result = PolyIdeal(I.ring, [g.content_normalized() for g in keep])
    result._basis = tuple(keep)
    return result


def ideal_quotient(I: PolyIdeal, f: Polynomial) -> PolyIdeal:
    """(I : f) = the exact quotient by f of I intersected with (f)."""
    if f.is_zero():
        raise ValueError("cannot take a colon by the zero polynomial")
    check_same_ring(f, I)
    inter = ideal_intersect(I, PolyIdeal(I.ring, (f,)))
    gens = [divide_exact(g, f) for g in inter.generators]
    # dividing a Groebner basis of I ∩ (f) by f keeps it a Groebner basis
    return PolyIdeal.from_basis(I.ring, gens)


def ideal_equals(I: PolyIdeal, J: PolyIdeal) -> bool:
    """The reduced degrevlex bases coincide exactly."""
    _check_rings(I, J)
    return I.groebner_basis() == J.groebner_basis()
