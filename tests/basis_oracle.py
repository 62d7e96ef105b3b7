"""Test oracle: re-check the post-conditions of a reduced Groebner basis."""

import random
from itertools import combinations

from sympow.groebner import buchberger, normal_form, s_polynomial


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
