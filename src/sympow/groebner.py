"""Exact Groebner-basis kernel over the rationals.

Sparse polynomials with Fraction coefficients, monomial orders
(degrevlex, block elimination), multivariate division, Buchberger
with the Gebauer-Moeller pair update, reduced bases, and the ideal
operations built on them: membership, sum, product, power, intersection
(by lcms for monomial ideals, by elimination otherwise), colon by a
polynomial, equality. Division runs on integer term dicts inside the
module; public polynomials keep Fraction coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import neg, sub

from .rings import Monomial, Ring, _exp_divides, _exp_lcm, _exp_mul, _intersection, _minimal, _support, check_same_ring

AUX_VARIABLE = "@w"  # reserved for elimination; the file grammar rejects it


class InternalInvariantError(RuntimeError):
    """A computation violated one of its own invariants (a bug, not bad input)."""


# ---------------------------------------------------------------------------
# monomial orders


class MonomialOrder:
    """Total, multiplicative well-order on exponent vectors.

    ``key`` maps an exponent tuple to a flat tuple of ints that compares
    the same way the order does (bigger key = bigger monomial).
    ``heap_key`` is the negated key, so a min-heap pops the biggest
    monomial first; an order may build it in one step.
    """

    def key(self, exps):
        raise NotImplementedError

    def heap_key(self, exps):
        return tuple(map(neg, self.key(exps)))


@dataclass(frozen=True)
class DegRevLex(MonomialOrder):
    def key(self, exps):
        return (sum(exps), *map(neg, exps[::-1]))

    def heap_key(self, exps):
        return (-sum(exps), *exps[::-1])


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
        return (sum(head), *map(neg, head[::-1]), sum(tail), *map(neg, tail[::-1]))

    def heap_key(self, exps):
        k = self.first_k
        head, tail = exps[:k], exps[k:]
        return (-sum(head), *head[::-1], -sum(tail), *tail[::-1])


DEGREVLEX = DegRevLex()


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Sparse exact-rational polynomial: a dict from exponent tuple to Fraction.

    Each exponent tuple holds one non-negative int per ring variable
    (ValueError otherwise); coefficients are ints or Fractions, and a
    float raises TypeError rather than being stored as its binary value.
    Instances are immutable by convention; all arithmetic returns new
    objects. Term order is a presentation concern: printing sorts the
    terms under degrevlex and never changes the stored term multiset.
    """

    __slots__ = ("ring", "coeffs", "_hash")

    def __init__(self, ring: Ring, coeffs=None):
        self.ring = ring
        clean = {}
        if coeffs:
            n = ring.nvars
            for e, c in coeffs.items():
                # a float or Fraction entry makes the sum a non-int
                if len(e) != n or min(e) < 0 or not isinstance(sum(e), int):
                    raise ValueError(
                        f"exponent vector {e!r} is not {n} non-negative integers"
                    )
                if isinstance(c, float):
                    raise TypeError(f"inexact coefficient {c!r}; use an int or a Fraction")
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
        return cls(ring, {(0,) * ring.nvars: c})

    @classmethod
    def variable(cls, ring: Ring, name: str) -> Polynomial:
        return cls.from_monomial(ring.variable(name))

    @classmethod
    def from_monomial(cls, m: Monomial, c=1) -> Polynomial:
        return cls(m.ring, {m.exponents: c})

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
        return Polynomial(self.ring, _primitive(_integer_terms(self.coeffs)[0]))

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


def _integer_terms(coeffs):
    """(integer term dict, d) where the dict is d times the Fraction term dict
    and d > 0 is the lcm of its denominators."""
    den = lcm(*(c.denominator for c in coeffs.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()}, den


def _primitive(terms):
    """A nonzero integer term dict divided by its content, lex-leading term positive."""
    g = gcd(*terms.values())
    if terms[max(terms)] < 0:
        g = -g
    return {e: c // g for e, c in terms.items()}


def _entry(terms, order):
    """Divisor entry of a nonzero integer term dict:
    (leading exps, leading coeff, terms, support mask of the leading exps)."""
    de = max(terms, key=order.key)
    return de, terms[de], terms, _support(de)


def _reduce_dict(p, divisors, order, first=None):
    """Remainder of the integer term dict p modulo the divisor entries, and its scale.

    Divisors are entries ``(leading exps, leading coeff, integer coeff dict,
    support mask)``, tried in list order; a support mask that is not a
    subset of the term's own rules a divisor out before its exponents are
    compared. Each step cancels the largest reducible term c*x^e by a
    divisor d with leading term dc*x^de, fraction-free: with g = gcd(c, dc)
    signed like dc, p <- (dc/g)*p - (c/g)*x^(e - de)*d. Returns (r, s):
    s > 0 is the product of the multipliers dc/g, r is s times the
    remainder of exact division in the same order, and s*p - r lies in the
    ideal of the divisors. New monomials introduced by a step are strictly
    smaller than the one cancelled, so a lazy max-heap over the live
    monomials is sound.

    ``first`` maps a term to the index of its first divisor, or to the list
    length at which its search failed; the search for a term starts there.
    A caller may share one dict across calls only while the divisor list
    is append-only between them: then a found divisor stays the first, and
    a failed search resumes at the old end. Without one, a fresh dict is
    used.
    """
    if first is None:
        first = {}
    heap_key = order.heap_key
    p = dict(p)
    heap = [(heap_key(e), e) for e in p]
    heapify(heap)
    n = len(divisors)
    scale = 1
    moved = {}  # remainder term -> (coeff, scale when it was moved)
    while heap:
        _, e = heappop(heap)
        c = p.pop(e, None)
        if c is None:
            continue
        k = first.get(e, 0)
        if k < n:
            emask = _support(e)
            for k in range(k, n):
                de, _, _, dmask = divisors[k]
                if not dmask & ~emask and _exp_divides(de, e):
                    break
            else:
                k = n
            first[e] = k
        if k == n:
            moved[e] = (c, scale)
            continue
        de, dc, dcoeffs, _ = divisors[k]
        g = gcd(c, dc)
        if dc < 0:
            g = -g
        m, f = dc // g, c // g
        if m != 1:
            scale *= m
            for t in p:
                p[t] *= m
        shift = tuple(map(sub, e, de))
        for e2, c2 in dcoeffs.items():
            if e2 == de:
                continue
            tgt = _exp_mul(e2, shift)
            old = p.get(tgt)
            v = (old if old is not None else 0) - f * c2
            if v:
                p[tgt] = v
                if old is None:
                    heappush(heap, (heap_key(tgt), tgt))
            elif old is not None:
                del p[tgt]
    return {e: c * (scale // s) for e, (c, s) in moved.items()}, scale


def _prepare_divisors(G, order):
    return [_entry(_integer_terms(g.coeffs)[0], order) for g in G if g]


def _s_terms(a, b, L):
    """Integer S-polynomial of two divisor entries whose leads have lcm L:
    (cb/g)*x^(L - ea)*a - (ca/g)*x^(L - eb)*b with g = gcd(ca, cb)."""
    ea, ca, ta, _ = a
    eb, cb, tb, _ = b
    g = gcd(ca, cb)
    ma, mb = cb // g, ca // g
    sa = tuple(map(sub, L, ea))
    sb = tuple(map(sub, L, eb))
    out = {_exp_mul(e, sa): c * ma for e, c in ta.items()}
    for e, c in tb.items():
        tgt = _exp_mul(e, sb)
        v = out.get(tgt, 0) - c * mb
        if v:
            out[tgt] = v
        else:
            out.pop(tgt, None)
    return out


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
        shift = tuple(map(sub, e, ed))
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


def _monic(ring, entry):
    """The monic Fraction polynomial of a divisor entry."""
    _, dc, terms, _ = entry
    return Polynomial(ring, {e: Fraction(c, dc) for e, c in terms.items()})


def _reduced_entries(divisors, order):
    """Reduced basis, largest lead first, from the divisor entries of a Groebner basis.

    Each minimal entry's tail is reduced against all minimal entries: its
    own leading monomial is bigger than every tail term, so never divides one.
    The lead, at the kernel's scale, rejoins the reduced tail and the sum is
    made primitive, so each entry's term dict is canonical. The leads of a
    basis are pairwise distinct, so selecting the entries by lead is exact.
    """
    key = order.key
    leads = set(_minimal(d[0] for d in divisors))
    minimal = sorted((d for d in divisors if d[0] in leads), key=lambda d: key(d[0]))
    out = []
    first = {}  # `minimal` is fixed, so all tail reductions share the memo
    for de, dc, terms, dmask in reversed(minimal):
        tail, scale = _reduce_dict(
            {e: c for e, c in terms.items() if e != de}, minimal, order, first
        )
        tail[de] = scale * dc
        terms = _primitive(tail)
        out.append((de, terms[de], terms, dmask))
    return out


def buchberger(generators, order: MonomialOrder = DEGREVLEX):
    """Reduced Groebner basis of the ideal the generators span: monic
    elements, largest leading monomial first."""
    gens = [g for g in _check_polynomials(generators) if not g.is_zero()]
    if not gens:
        return ()
    for g in gens:
        check_same_ring(gens[0], g)
    entries = _reduced_entries(_groebner_entries(gens, order), order)
    return tuple(_monic(gens[0].ring, e) for e in entries)


def _groebner_entries(gens, order):
    """Divisor entries of a Groebner basis of nonzero polynomials of one ring,
    in the order they joined it; ``_reduced_entries`` makes it reduced.

    Pair selection is by smallest lcm (degree first). Pairs are pruned by
    the Gebauer-Moeller update, run once each time an element joins the
    basis: old pairs fall to criterion B, and of the new pairs only one per
    minimal lcm stays (criteria M and F), none when a pair with that lcm
    has coprime leading monomials. Each lead and each pending lcm carries
    its support mask, so the update rules most candidates in or out by a
    mask test before comparing exponents. An element whose leading monomial
    a later one divides forms no more pairs but still reduces. Elements are
    primitive integer term dicts: each remainder is content-normalized as
    it joins the basis, S-polynomials are integer cross-multiples of two
    divisor entries, and each element's divisor entry is built once, when
    it joins, and reused by every reduction. The divisor list only grows,
    so all reductions share one first-divisor memo. Termination is
    Dickson's lemma.
    """
    key = order.key
    lms = []
    masks = []  # support mask of each lead
    divisors = []  # divisor entries, in basis order
    active = []  # elements that still form pairs: no later lead divides theirs
    pending = {}  # (i, j) -> (lcm of the leads, its support mask), for i < j
    heap = []  # (degree, order key, i, j); a pair no longer pending is skipped
    first = {}  # first-divisor memo of every reduction; `divisors` only grows

    def append(terms):
        entry = _entry(terms, order)
        de, dmask = entry[0], entry[3]
        new = len(divisors)
        # criterion B: the new lead divides L but neither lcm with it equals L;
        # a mask test settles most pairs before any exponent is compared
        for (i, j), (L, Lmask) in list(pending.items()):
            if (
                not dmask & ~Lmask
                and _exp_divides(de, L)
                and L != _exp_lcm(lms[i], de)
                and L != _exp_lcm(lms[j], de)
            ):
                del pending[i, j]
        # new pairs, grouped by lcm: (first member, any member coprime);
        # leads are coprime exactly when their supports are disjoint
        groups = {}
        for j in active:
            L = _exp_lcm(lms[j], de)
            first, coprime = groups.get(L, (j, False))
            groups[L] = (first, coprime or not masks[j] & dmask)
        # criterion M keeps the minimal lcms; F keeps one pair of each
        for L in _minimal(groups):
            j, coprime = groups[L]
            if not coprime:
                pending[j, new] = L, masks[j] | dmask
                heappush(heap, (sum(L), key(L), j, new))
        active[:] = [
            j for j in active if dmask & ~masks[j] or not _exp_divides(de, lms[j])
        ]
        active.append(new)
        lms.append(de)
        masks.append(dmask)
        divisors.append(entry)

    def reduce_and_append(terms):
        r, _ = _reduce_dict(terms, divisors, order, first)
        if r:
            append(_primitive(r))

    # light interreduction of the inputs: one pass, keeps the pair queue small
    for g in gens:
        reduce_and_append(_integer_terms(g.coeffs)[0])

    while heap:
        _, _, i, j = heappop(heap)
        pair = pending.pop((i, j), None)
        if pair is not None:
            reduce_and_append(_s_terms(divisors[i], divisors[j], pair[0]))

    return divisors


# ---------------------------------------------------------------------------
# polynomial ideals


class PolyIdeal:
    """Generator list plus its reduced degrevlex Groebner basis, held as divisor
    entries, largest lead first. The operation that made the ideal sets it,
    or Buchberger does on first use."""

    __slots__ = ("ring", "generators", "_basis")

    def __init__(self, ring: Ring, generators=()):
        self.ring = ring
        gens = _check_polynomials(generators)
        for g in gens:
            check_same_ring(self, g)
        self.generators = tuple(g for g in gens if not g.is_zero())
        self._basis = None

    @classmethod
    def zero(cls, ring: Ring) -> PolyIdeal:
        return cls(ring)

    def is_zero(self) -> bool:
        return not self.generators

    def _entries(self):
        if self._basis is None:
            self._basis = _reduced_entries(
                _groebner_entries(self.generators, DEGREVLEX), DEGREVLEX
            )
        return self._basis

    def groebner_basis(self):
        """The reduced degrevlex basis; a reduced basis is canonical for its order."""
        return tuple(_monic(self.ring, e) for e in self._entries())

    def member(self, f: Polynomial) -> bool:
        check_same_ring(f, self)
        if f.is_zero():
            return True
        remainder, _ = _reduce_dict(_integer_terms(f.coeffs)[0], self._entries(), DEGREVLEX)
        return not remainder

    def __str__(self):
        if not self.generators:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.generators) + ")"

    def __repr__(self):
        return f"PolyIdeal{self}"


def ideal_sum(I: PolyIdeal, J: PolyIdeal) -> PolyIdeal:
    """The generators of I, then the first occurrence of each generator of J
    that I lacks."""
    check_same_ring(I, J)
    extra = dict.fromkeys(J.generators)
    for g in I.generators:
        extra.pop(g, None)
    return PolyIdeal(I.ring, I.generators + tuple(extra))


def ideal_product(I: PolyIdeal, J: PolyIdeal) -> PolyIdeal:
    """The first occurrence of each pairwise product, in generator order."""
    check_same_ring(I, J)
    return PolyIdeal(I.ring, dict.fromkeys(f * g for f in I.generators for g in J.generators))


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
        raise ValueError(f"the variable name {AUX_VARIABLE!r} is reserved for elimination")
    return Ring((AUX_VARIABLE,) + ring.variables)


def _lift(f: Polynomial, ext: Ring) -> Polynomial:
    return Polynomial(ext, {(0,) + e: c for e, c in f.coeffs.items()})


def ideal_intersect(I: PolyIdeal, J: PolyIdeal) -> PolyIdeal:
    """I ∩ J. When every generator of both ideals has one term, the kernel
    `rings._intersection` gives the minimal tuples spanning it, whose monic
    entries are its reduced degrevlex basis; any other input is eliminated."""
    check_same_ring(I, J)
    if I.is_zero() or J.is_zero():
        return PolyIdeal.zero(I.ring)
    if any(len(g.coeffs) != 1 for g in I.generators + J.generators):
        return _eliminate(I, J)
    a, b = ([e for g in K.generators for e in g.coeffs] for K in (I, J))
    minimal = sorted(_intersection(a, b), key=DEGREVLEX.key, reverse=True)
    basis = [(L, 1, {L: 1}, _support(L)) for L in minimal]
    result = PolyIdeal(I.ring, [Polynomial(I.ring, terms) for _, _, terms, _ in basis])
    result._basis = basis
    return result


def _eliminate(I: PolyIdeal, J: PolyIdeal) -> PolyIdeal:
    """I ∩ J of nonzero ideals by elimination: adjoin w, take w*I + (1-w)*J,
    drop w. The w-free entries of a block-order basis are a basis of I ∩ J.
    Only they are reduced: a w-bearing lead divides no w-free term, and the
    w-free leads sort first, so they reduce to exactly the w-free entries,
    in the same order, of the reduced block-order basis, which are the
    reduced degrevlex basis of I ∩ J. The result keeps them, and their
    primitive term dicts are its generators."""
    ext = _extended_ring(I.ring)
    w = Polynomial.variable(ext, AUX_VARIABLE)
    one_minus_w = Polynomial.constant(ext, 1) - w
    gens = [w * _lift(g, ext) for g in I.generators]
    gens += [one_minus_w * _lift(g, ext) for g in J.generators]
    order = BlockElimination(1)
    kept = []
    for entry in _groebner_entries(gens, order):
        if entry[0][0] == 0:
            if any(e[0] for e in entry[2]):
                raise InternalInvariantError(
                    "w-free leading monomial but a w-bearing tail term"
                )
            kept.append(entry)
    basis = [
        (de[1:], dc, {e[1:]: c for e, c in terms.items()}, dmask >> 1)
        for de, dc, terms, dmask in _reduced_entries(kept, order)
    ]
    result = PolyIdeal(I.ring, [Polynomial(I.ring, terms) for _, _, terms, _ in basis])
    result._basis = basis
    return result


def ideal_quotient(I: PolyIdeal, f: Polynomial) -> PolyIdeal:
    """(I : f) = the exact quotient by f of I intersected with (f)."""
    if f.is_zero():
        raise ValueError("cannot take a colon by the zero polynomial")
    check_same_ring(f, I)
    inter = ideal_intersect(I, PolyIdeal(I.ring, (f,)))
    result = PolyIdeal(I.ring, [divide_exact(g, f) for g in inter.generators])
    # dividing a Groebner basis of I ∩ (f) by f keeps it a Groebner basis
    result._basis = _reduced_entries(
        _prepare_divisors(result.generators, DEGREVLEX), DEGREVLEX
    )
    return result


def ideal_equals(I: PolyIdeal, J: PolyIdeal) -> bool:
    """The reduced degrevlex bases coincide exactly. Their entries are
    canonical: primitive, lex-leading term positive, largest lead first."""
    check_same_ring(I, J)
    return I._entries() == J._entries()
