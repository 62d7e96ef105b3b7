"""Exact Groebner-basis kernel over the rationals.

Sparse polynomials with Fraction coefficients, multivariate division,
Buchberger with the Gebauer-Moeller pair update, reduced bases, and the ideal
operations built on them: membership, sum, product, power, intersection (by
lcms for monomial ideals, by elimination otherwise), colon by a polynomial,
equality, under the block monomial orders of `rings`. The kernel runs on
packed monomials (`rings._Layout`) and integer coefficients; public
polynomials keep exponent tuples and Fraction coefficients. An ideal the
library makes stays packed between kernel runs, and builds its generators as
polynomials only when they are read.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .rings import (DEGREVLEX, BlockElimination, Monomial, MonomialOrder, Ring, _exp_mul, _Layout, _Overflow,
                    _packed_meet, _packed_scan, check_same_ring)

AUX_VARIABLE = "@w"  # reserved for elimination; the file grammar rejects it
_WIDTH = 16  # bits per packed field, guard bit included, as a kernel run starts


class InternalInvariantError(RuntimeError):
    """A computation violated one of its own invariants (a bug, not bad input)."""


def _widen(run, L):
    """run(L); after an overflow anywhere in it, the whole run again at double width."""
    while True:
        try:
            return run(L)
        except _Overflow:
            L = _Layout(L.order, len(L.shifts), 2 * L.width)


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
    Polynomials the library builds itself skip these checks (`_trusted`).
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

    @classmethod
    def _trusted(cls, ring: Ring, coeffs) -> Polynomial:
        """A polynomial the library built: ``coeffs`` maps valid tuples to nonzero Fractions."""
        p = object.__new__(cls)
        p.ring, p.coeffs, p._hash = ring, coeffs, None
        return p

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
        return Polynomial._trusted(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._trusted(self.ring, {e: -c for e, c in self.coeffs.items()})

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
            return Polynomial._trusted(self.ring, {e: c * other for e, c in self.coeffs.items()})
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
        return Polynomial._trusted(self.ring, out)

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
        out = ""
        for e in sorted(self.coeffs, key=DEGREVLEX.key, reverse=True):
            m, c = Monomial(self.ring, e), self.coeffs[e]
            mag = abs(c)
            if m.degree == 0:
                body = str(mag)
            elif mag == 1:
                body = str(m)
            else:
                body = f"{mag}*{m}"
            out += f" {'-' if c < 0 else '+'} {body}"
        return out[3:] if out[1] == "+" else "-" + out[3:]

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
    """A nonzero integer term dict divided by its content, the largest key's
    term positive: lex-leading for exponent tuples, leading for packed ones."""
    g = gcd(*terms.values())
    if terms[max(terms)] < 0:
        g = -g
    return {e: c // g for e, c in terms.items()}


def _entry(terms, L):
    """Divisor entry of a nonzero packed integer term dict: (lead, its
    coefficient, terms, the lead in exponent form)."""
    de = max(terms)
    return de, terms[de], terms, de ^ L.unit


def _reduce_dict(p, divisors, L, first=None):
    """(r, s): the remainder of the packed integer term dict p modulo the
    divisor entries of the layout L, tried in list order, and its scale.

    Each step cancels the largest reducible term c*x^e by a divisor d with
    lead dc*x^de, fraction-free: with g = gcd(c, dc) signed like dc,
    p <- (dc/g)*p - (c/g)*x^(e - de)*d. s > 0 is the product of the dc/g, r
    is s times the remainder of exact division, and s*p - r lies in the
    ideal of the divisors. ``first`` maps a term to the index of its first
    divisor, or to the list length at which its search failed, and the
    search starts there; callers share one only while the list only grows."""
    first = {} if first is None else first
    unit, guard = L.unit, L.guard
    p = dict(p)
    heap = [-e for e in p]
    heapify(heap)
    n = len(divisors)
    scale = 1
    moved = {}  # remainder term -> (coeff, scale when it was moved)
    while heap:
        e = -heappop(heap)
        c = p.pop(e, None)
        if c is None:
            continue
        k = first.get(e, 0)
        if k < n:
            eu = e ^ unit
            for k in range(k, n):
                if not (eu - divisors[k][3]) & guard:
                    break
            else:
                k = n
            first[e] = k
        if k == n:
            moved[e] = (c, scale)
            continue
        de, dc, dterms, _ = divisors[k]
        g = gcd(c, dc)
        if dc < 0:
            g = -g
        m, f = dc // g, c // g
        if m != 1:
            scale *= m
            for t in p:
                p[t] *= m
        shift = e - de
        new = 0  # the monomials this step adds; an existing key is valid
        for e2, c2 in dterms.items():
            if e2 == de:
                continue
            tgt = e2 + shift
            old = p.get(tgt)
            v = (old if old is not None else 0) - f * c2
            if v:
                p[tgt] = v
                if old is None:
                    new |= tgt
                    heappush(heap, -tgt)
            elif old is not None:
                del p[tgt]
        if new & guard:
            raise _Overflow
    return {e: c * (scale // s) for e, (c, s) in moved.items()}, scale


def _packed(g, L):
    """The packed integer term dict of the nonzero polynomial g: the kernel's input form."""
    return L.pack_terms(_integer_terms(g.coeffs)[0])


def _prepare_divisors(G, L):
    return [_entry(_packed(g, L), L) for g in G if g]


def _subtract(p, f, shift, terms, guard):
    """p -= f*x^shift*terms in place, on packed keys; an overflowing new
    monomial raises _Overflow."""
    new = 0
    for e, c in terms.items():
        tgt = e + shift
        new |= tgt
        v = p.get(tgt, 0) - f * c
        if v:
            p[tgt] = v
        else:
            p.pop(tgt, None)
    if new & guard:
        raise _Overflow


def _s_terms(a, b, lcm, L):
    """Integer S-polynomial of two divisor entries whose leads have the packed
    lcm: (cb/g)*x^(lcm - ea)*a - (ca/g)*x^(lcm - eb)*b with g = gcd(ca, cb)."""
    (ea, ca, ta, _), (eb, cb, tb, _) = a, b
    g = gcd(ca, cb)
    out = {}
    _subtract(out, -cb // g, lcm - ea, ta, L.guard)
    _subtract(out, ca // g, lcm - eb, tb, L.guard)
    return out


def _packed_minimal(us, L):
    """The distinct packed monomials of us that no other one divides, ascending."""
    return [v ^ L.unit for v in _packed_scan([u ^ L.unit for u in sorted(us)], L.guard)]


def divide_exact(f: Polynomial, d: Polynomial) -> Polynomial:
    """Quotient f / d when d divides f exactly (the same in every term order); anything else is a bug here."""
    if d.is_zero():
        raise ValueError("division by the zero polynomial")

    def run(L):
        dterms, p, q = L.pack_terms(d.coeffs), L.pack_terms(f.coeffs), {}
        de = max(dterms)
        while p:
            e = max(p)
            if ((e ^ L.unit) - (de ^ L.unit)) & L.guard:
                raise InternalInvariantError("exact division left a remainder; the divisor was "
                                             "expected to divide every element here")
            q[e - de + L.unit] = factor = p[e] / dterms[de]
            _subtract(p, factor, e - de, dterms, L.guard)
        return Polynomial._trusted(f.ring, L.unpack_terms(q))

    return _widen(run, _Layout(DEGREVLEX, f.ring.nvars, _WIDTH))


# ---------------------------------------------------------------------------
# Buchberger


def _check_polynomials(generators):
    """The generators as a list; anything that is not a Polynomial is refused."""
    gens = list(generators)
    for g in gens:
        if not isinstance(g, Polynomial):
            raise TypeError(f"generator {g!r} is not a Polynomial")
    return gens


def _monic(ring, L, entry):
    """The monic Fraction polynomial of a divisor entry of the layout L."""
    _, dc, terms, _ = entry
    return Polynomial._trusted(ring, {L.unpack(e): Fraction(c, dc) for e, c in terms.items()})


def _reduced_entries(divisors, L):
    """Reduced basis, largest lead first, from the divisor entries of a Groebner
    basis (distinct leads): each minimal entry's tail reduced against them all,
    the lead rejoined at the kernel's scale, the sum made primitive (canonical)."""
    leads = set(_packed_minimal([d[0] for d in divisors], L))
    minimal = sorted((d for d in divisors if d[0] in leads), key=lambda d: d[0])
    out = []
    first = {}  # `minimal` is fixed, so all tail reductions share the memo
    for de, dc, terms, word in reversed(minimal):
        tail, scale = _reduce_dict({e: c for e, c in terms.items() if e != de}, minimal, L, first)
        tail[de] = scale * dc
        terms = _primitive(tail)
        out.append((de, terms[de], terms, word))
    return out


def buchberger(generators, order: MonomialOrder = DEGREVLEX):
    """Reduced Groebner basis of the ideal the generators span: monic
    elements, largest leading monomial first."""
    gens = [g for g in _check_polynomials(generators) if not g.is_zero()]
    if not gens:
        return ()
    ring = gens[0].ring
    for g in gens:
        check_same_ring(gens[0], g)
    L, entries = _basis(lambda L: [_packed(g, L) for g in gens], order, ring.nvars)
    return tuple(_monic(ring, L, e) for e in entries)


def _basis(terms_at, order, nvars):
    """(layout, reduced entries largest lead first) of the ideal spanned by
    terms_at(L), nonzero integer term dicts packed by the layout L."""
    return _widen(lambda L: (L, _reduced_entries(_groebner_entries(terms_at(L), L), L)), _Layout(order, nvars, _WIDTH))


def _groebner_entries(gens, L):
    """Divisor entries, packed by L, of a Groebner basis of the nonzero packed
    integer term dicts gens, in the order they joined it. Pairs go smallest
    lcm first, grevlex degrees first, and are pruned by the Gebauer-Moeller
    update as each element joins: old pairs fall to criterion B, and of the
    new pairs one per minimal lcm stays (M and F), none when a pair with that
    lcm has coprime leads (lcm = product). An element whose lead a later one
    divides forms no more pairs but still reduces. The divisor list only
    grows, so all reductions share one memo."""
    unit, guard, top, lcm = L.unit, L.guard, L.top, L.lcm
    lms = []
    divisors = []  # divisor entries, in basis order
    active = []  # elements that still form pairs: no later lead divides theirs
    pending = {}  # (i, j) -> packed lcm of the leads, for i < j
    heap = []  # (degree, lcm, i, j); a pair no longer pending is skipped
    first = {}  # first-divisor memo of every reduction; `divisors` only grows

    def append(terms):
        entry = _entry(terms, L)
        de, word = entry[0], entry[3]
        new = len(divisors)
        # criterion B: the new lead divides the lcm but neither lcm with it equals it
        for (i, j), P in list(pending.items()):
            if not ((P ^ unit) - word) & guard and lcm(lms[i], de) != P != lcm(lms[j], de):
                del pending[i, j]
        # new pairs, grouped by lcm: (first member, any member coprime)
        groups = {}
        for j in active:
            P = lcm(lms[j], de)
            member, coprime = groups.get(P, (j, False))
            groups[P] = (member, coprime or P == lms[j] + de - unit)
        # criterion M keeps the minimal lcms; F keeps one pair of each
        for P in _packed_minimal(groups, L):
            j, coprime = groups[P]
            if not coprime:
                pending[j, new] = P
                heappush(heap, (sum(P >> s & top for s in L.dshifts), P, j, new))
        active[:] = [j for j in active if ((lms[j] ^ unit) - word) & guard]
        active.append(new)
        lms.append(de)
        divisors.append(entry)

    def reduce_and_append(terms):
        r, _ = _reduce_dict(terms, divisors, L, first)
        if r:
            append(_primitive(r))

    for terms in gens:  # light interreduction of the inputs: one pass, keeps the pair queue small
        reduce_and_append(terms)

    while heap:
        *_, i, j = heappop(heap)
        P = pending.pop((i, j), None)
        if P is not None:
            reduce_and_append(_s_terms(divisors[i], divisors[j], P, L))

    return divisors


# ---------------------------------------------------------------------------
# polynomial ideals


class PolyIdeal:
    """Generators plus their reduced degrevlex Groebner basis, held as
    (layout, divisor entries largest lead first): the operation that made the
    ideal sets it, or Buchberger does on first use. An ideal the library
    makes holds its generators packed, as (layout, term dicts, signed), and
    builds their `Polynomial`s on first read: an intersection's are its basis
    entries, the lex-leading term made positive (signed); a power's are its
    products, exact."""

    __slots__ = ("ring", "_gens", "_held", "_basis")

    def __init__(self, ring: Ring, generators=()):
        self.ring = ring
        gens = _check_polynomials(generators)
        for g in gens:
            check_same_ring(self, g)
        self._gens = tuple(g for g in gens if not g.is_zero())
        self._held = self._basis = None

    @classmethod
    def zero(cls, ring: Ring) -> PolyIdeal:
        return cls(ring)

    @property
    def generators(self) -> tuple:
        """The generators as `Polynomial`s; held ones are built on the first read."""
        if self._gens is None:
            L, terms, signed = self._held
            gens = []
            for t in map(L.unpack_terms, terms):
                s = -1 if signed and t[max(t)] < 0 else 1
                gens.append(Polynomial._trusted(self.ring, {e: Fraction(s * c) for e, c in t.items()}))
            self._gens = tuple(gens)
        return self._gens

    def is_zero(self) -> bool:
        return not (self._held[1] if self._held else self._gens)

    def _entries(self):
        if self._basis is None:
            self._basis = _basis(lambda L: _generator_terms(self, L), DEGREVLEX, self.ring.nvars)
        return self._basis

    def groebner_basis(self):
        """The reduced degrevlex basis; a reduced basis is canonical for its order."""
        L, entries = self._entries()
        return tuple(_monic(self.ring, L, e) for e in entries)

    def member(self, f: Polynomial) -> bool:
        check_same_ring(f, self)
        if f.is_zero():
            return True
        basis, entries = self._entries()

        def run(L):  # the basis is repacked only when f needs a wider layout
            divisors = entries if L is basis else [
                _entry(L.pack_terms(basis.unpack_terms(t)), L) for _, _, t, _ in entries]
            return not _reduce_dict(_packed(f, L), divisors, L)[0]

        return _widen(run, basis)

    def __str__(self):
        if self.is_zero():
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.generators) + ")"

    def __repr__(self):
        return f"PolyIdeal{self}"


def _holding(ring, L, terms, basis=None):
    """The ideal whose generators are the nonzero term dicts packed by the
    degrevlex layout L: the entry terms of its reduced basis (L, entries)
    when that is given, else exact generators."""
    K = object.__new__(PolyIdeal)
    K.ring, K._gens, K._held, K._basis = ring, None, (L, terms, basis is not None), basis
    return K


def _handed_over(ring, basis):
    """The ideal of a (layout, reduced entries) basis, which it holds."""
    return _holding(ring, basis[0], [t for _, _, t, _ in basis[1]], basis)


def _generator_terms(K, L):
    """K's generators as integer term dicts packed by the degrevlex layout L,
    each up to a nonzero rational factor; held ones are repacked only when L
    has another width."""
    if K._held is None:
        return [_packed(g, L) for g in K.generators]
    H, terms, signed = K._held
    if H.width != L.width:
        terms = [L.pack_terms(H.unpack_terms(t)) for t in terms]
    return terms if signed else [_integer_terms(t)[0] for t in terms]


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


def _times(p, q, L):
    """The product of two packed term dicts of the layout L."""
    out = {}
    for e, c in p.items():
        _subtract(out, -c, e - L.unit, q, L.guard)
    return out


def ideal_power(I: PolyIdeal, n: int) -> PolyIdeal:
    """I**n at generator level, ordered as ((I·I)·I)·I by `ideal_product`; n = 0 gives (1). A
    product first occurs at its lex-least index tuple, non-decreasing, whose prefix is its
    factor's: so a factor whose tuple ends in m is multiplied only by generators j >= m.
    Each product is formed once, on packed term dicts with exact coefficients, and held."""
    if n < 0:
        raise ValueError("ideal powers need n >= 0")
    if n == 0:
        return PolyIdeal(I.ring, (Polynomial.constant(I.ring, 1),))
    if n == 1:
        return I

    def run(L):  # integral coefficients go in as ints, which multiply faster
        gens = [{L.pack(e): c.numerator if c.denominator == 1 else c for e, c in g.coeffs.items()}
                for g in I.generators]
        gens = list({frozenset(t.items()): t for t in gens}.values())
        level = [(t, m) for m, t in enumerate(gens)]  # (product, last index of its tuple)
        for _ in range(n - 1):
            nxt = {}
            for f, m in level:
                for j in range(m, len(gens)):
                    p = _times(f, gens[j], L)
                    nxt.setdefault(frozenset(p.items()), (p, j))
            level = nxt.values()
        return _holding(I.ring, L, [p for p, _ in level])

    return _widen(run, _Layout(DEGREVLEX, I.ring.nvars, _WIDTH))


def ideal_intersect(I: PolyIdeal, J: PolyIdeal) -> PolyIdeal:
    """I ∩ J, held as its reduced degrevlex basis. When every generator of
    both ideals has one term, both engines' one kernel `rings._packed_meet`
    runs on the packed monomials, and its minimal lcms, monic and largest
    first, are the reduced basis. Any other input is eliminated."""
    check_same_ring(I, J)
    if I.is_zero() or J.is_zero():
        return PolyIdeal.zero(I.ring)
    if any(len(t) != 1 for K in (I, J) for t in (K._held[1] if K._held else [g.coeffs for g in K.generators])):
        return _eliminate(I, J)

    def run(L):  # the meet's ints ascend in exponent form, which is not the term order
        a, b = ([u ^ L.unit for t in _generator_terms(K, L) for u in t] for K in (I, J))
        return L, [_entry({u: 1}, L) for u in sorted((m ^ L.unit for m in _packed_meet(a, b, L)), reverse=True)]

    return _handed_over(I.ring, _widen(run, I._held[0] if I._held else _Layout(DEGREVLEX, I.ring.nvars, _WIDTH)))


def _eliminate(I: PolyIdeal, J: PolyIdeal) -> PolyIdeal:
    """I ∩ J of nonzero ideals by elimination: adjoin w, take w*I + (1-w)*J,
    drop w. The w-free entries of a block-order basis are a basis of I ∩ J.
    Only they are reduced: a w-bearing lead divides no w-free term, and the
    w-free leads sort first, so they reduce to exactly the w-free entries of
    the reduced block-order basis, the reduced degrevlex basis of I ∩ J.
    Below w's fields, which read (0, top) on a w-free monomial, the block
    layout is the degrevlex layout M of the other variables: packed by M, a
    term u is u + cut w-free, and u + cut + L.coefs[0] times w. M is I's own
    layout when it has the width, so I's held entries go in as they are."""
    if AUX_VARIABLE in I.ring.variables:
        raise ValueError(f"the variable name {AUX_VARIABLE!r} is reserved for elimination")

    def run(L):
        M = I._held[0] if I._held and I._held[0].width == L.width else _Layout(DEGREVLEX, I.ring.nvars, L.width)
        cut, w = L.top << M.bits, L.coefs[0]
        gens = [{u + cut + w: c for u, c in terms.items()} for terms in _generator_terms(I, M)]
        gens += [{u + cut + s: sign * c for s, sign in ((0, 1), (w, -1)) for u, c in terms.items()}
                 for terms in _generator_terms(J, M)]
        kept = []
        for entry in _groebner_entries(gens, L):
            if entry[0] >> M.bits == L.top:
                if any(e >> M.bits != L.top for e in entry[2]):
                    raise InternalInvariantError("w-free leading monomial but a w-bearing tail term")
                kept.append(entry)
        return M, [_entry({e - cut: c for e, c in terms.items()}, M)
                   for _, _, terms, _ in _reduced_entries(kept, L)]

    return _handed_over(I.ring, _widen(run, _Layout(BlockElimination(1), I.ring.nvars + 1, _WIDTH)))


def ideal_quotient(I: PolyIdeal, f: Polynomial) -> PolyIdeal:
    """(I : f) = the exact quotient by f of I intersected with (f)."""
    if f.is_zero():
        raise ValueError("cannot take a colon by the zero polynomial")
    check_same_ring(f, I)
    inter = ideal_intersect(I, PolyIdeal(I.ring, (f,)))
    result = PolyIdeal(I.ring, [divide_exact(g, f) for g in inter.generators])
    # dividing a Groebner basis of I ∩ (f) by f keeps it a Groebner basis
    result._basis = _widen(lambda L: (L, _reduced_entries(_prepare_divisors(result.generators, L), L)),
                           _Layout(DEGREVLEX, I.ring.nvars, _WIDTH))
    return result


def ideal_equals(I: PolyIdeal, J: PolyIdeal) -> bool:
    """The reduced degrevlex bases coincide exactly. Their entries are
    canonical (primitive, leading term positive, largest lead first) and
    compared unpacked, so bases packed at different widths compare exactly."""
    check_same_ring(I, J)
    left, right = ([L.unpack_terms(t) for _, _, t, _ in entries] for L, entries in (I._entries(), J._entries()))
    return left == right
