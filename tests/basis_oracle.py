"""Test oracle: re-check the post-conditions of a reduced Groebner basis.

The division and S-polynomial it uses, and the lex order of the lex tests,
live here: the library itself never calls them. They are Fraction long
division and the textbook S-polynomial on exponent-tuple dicts, so the
oracle shares no code with the packed kernel of ``sympow.groebner``; it
imports only public names.
"""

import random
from dataclasses import dataclass
from itertools import combinations

from sympow.groebner import DEGREVLEX, MonomialOrder, Polynomial, buchberger


@dataclass(frozen=True)
class Lex(MonomialOrder):
    blocks = (("lex", None),)


LEX = Lex()


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _subtract_multiple(p, factor, shift, g, skip=None):
    """p -= factor * x^shift * g in place, on exponent-tuple dicts, skipping
    the term of g at skip."""
    for e, c in g.coeffs.items():
        if e != skip:
            t = tuple(x + y for x, y in zip(e, shift))
            v = p.get(t, 0) - factor * c
            if v:
                p[t] = v
            else:
                p.pop(t, None)


def normal_form(f: Polynomial, G, order: MonomialOrder = DEGREVLEX) -> Polynomial:
    """Remainder of f on division by G (tried in list order), by Fraction long
    division: the largest term first, reduced by the first element whose
    leading monomial divides it. f minus the result lies in the ideal spanned
    by G, and no remainder term is divisible by any leading monomial of G."""
    leads = [(g.leading(order), g) for g in G if g]
    p, r = dict(f.coeffs), {}
    while p:
        e = max(p, key=order.key)
        c = p.pop(e)
        for (le, lc), g in leads:
            if _divides(le, e):
                _subtract_multiple(p, c / lc, tuple(x - y for x, y in zip(e, le)), g, skip=le)
                break
        else:
            r[e] = c
    return Polynomial(f.ring, r)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder = DEGREVLEX) -> Polynomial:
    """lcm/lt(f) * f - lcm/lt(g) * g for the leading terms lt under order."""
    if not f or not g:
        raise ValueError("the zero polynomial has no leading term")
    (ef, cf), (eg, cg) = f.leading(order), g.leading(order)
    L = tuple(map(max, ef, eg))
    out = {}
    _subtract_multiple(out, -1 / cf, tuple(x - y for x, y in zip(L, ef)), f)
    _subtract_multiple(out, 1 / cg, tuple(x - y for x, y in zip(L, eg)), g)
    return Polynomial(f.ring, out)


def verify_basis(generators, basis, order, recompute=True, shuffle_seed=0):
    """Assert that basis is the reduced basis of the generators under order.

    Checks monic elements, no term reducible by another element's leading
    monomial, S-pairs and inputs reducing to zero, and with ``recompute``
    that a shuffled generator list gives the identical basis. Raises
    AssertionError on the first violation.
    """
    basis = [g for g in basis if not g.is_zero()]
    if not basis:
        for g in generators:
            assert g.is_zero(), "zero basis for a nonzero ideal"
        return
    lms = [g.leading(order)[0] for g in basis]
    for i, g in enumerate(basis):
        assert g.leading(order)[1] == 1, f"basis element {i} is not monic"
        for e in g.coeffs:
            for j, lm in enumerate(lms):
                if j != i:
                    assert not _divides(lm, e), (
                        f"basis element {i} has a term reducible by element {j}"
                    )
    for i, j in combinations(range(len(basis)), 2):
        s = s_polynomial(basis[i], basis[j], order)
        assert normal_form(s, basis, order).is_zero(), (
            f"S-polynomial of basis elements {i}, {j} does not reduce to zero"
        )
    for g in generators:
        assert normal_form(g, basis, order).is_zero(), (
            "an input generator does not reduce to zero against the basis"
        )
    if recompute:
        gens = list(generators)
        random.Random(shuffle_seed).shuffle(gens)
        assert tuple(buchberger(gens, order)) == tuple(basis), (
            "reduced basis depends on the generator order"
        )
