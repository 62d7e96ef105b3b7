"""Test oracle: re-check the post-conditions of a reduced Groebner basis.

The division and S-polynomial helpers it uses, and the lex order of the
lex tests, live here: the library itself never calls them.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from sympow.groebner import (
    DEGREVLEX,
    MonomialOrder,
    Polynomial,
    _integer_terms,
    _prepare_divisors,
    _reduce_dict,
    _s_terms,
    buchberger,
)
from sympow.rings import _exp_lcm


@dataclass(frozen=True)
class Lex(MonomialOrder):
    def key(self, exps):
        return tuple(exps)


LEX = Lex()


def normal_form(f: Polynomial, G, order: MonomialOrder = DEGREVLEX) -> Polynomial:
    """Remainder of f on division by G (tried in list order).

    f minus the result lies in the ideal spanned by G, and no remainder
    term is divisible by any leading monomial of G. The division runs on
    integer multiples of f and G; the result is the kernel's remainder
    divided by its scale and by the denominator cleared from f, so it is
    exact.
    """
    divisors = _prepare_divisors(G, order)
    if not divisors:
        return f
    terms, den = _integer_terms(f.coeffs)
    r, scale = _reduce_dict(terms, divisors, order)
    return Polynomial(f.ring, {e: Fraction(c, scale * den) for e, c in r.items()})


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder = DEGREVLEX) -> Polynomial:
    """lcm/lt(f) * f - lcm/lt(g) * g for the leading terms lt under order."""
    if not f or not g:
        raise ValueError("the zero polynomial has no leading term")
    a, b = _prepare_divisors((f, g), order)
    terms = _s_terms(a, b, _exp_lcm(a[0], b[0]))
    scale = Fraction(gcd(a[1], b[1]), a[1] * b[1])
    return Polynomial(f.ring, {e: c * scale for e, c in terms.items()})


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


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
