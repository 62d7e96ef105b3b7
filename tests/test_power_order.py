"""``ideal_power`` against the nested product it replaces: the same generators
in the same order, on generator lists with repeats, scalar multiples and
monomials whose products collide."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sympow import PolyIdeal, Polynomial, Ring, ideal_power  # noqa: E402


def nested_power(I, n):
    """((I·I)·I)·I as generator lists: every product of a generator of the
    power before by every generator of I, the first occurrence of each kept
    by a list scan; n = 0 is the unit ideal, n = 1 the generators of I."""
    if n == 0:
        return (Polynomial.constant(I.ring, 1),)
    gens = list(I.generators)
    for _ in range(n - 1):
        products = []
        for f in gens:
            for g in I.generators:
                fg = f * g
                if fg not in products:
                    products.append(fg)
        gens = products
    return tuple(gens)


@st.composite
def generator_lists(draw):
    """A ring of 1-3 variables and 1-5 generators, each a new polynomial, a
    new monomial (small exponents, so products of different pairs collide),
    a repeat of an earlier generator or a scalar multiple of one."""
    ring = Ring(("x", "y", "z")[: draw(st.integers(1, 3))])
    exps = st.tuples(*[st.integers(0, 2)] * ring.nvars)
    coeff = st.integers(-3, 3).filter(bool)
    gens = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("polynomial", "monomial", "repeat", "multiple") if gens
                                    else ("polynomial", "monomial")))
        if kind == "polynomial":
            gens.append(Polynomial(ring, draw(st.dictionaries(exps, coeff, min_size=1, max_size=3))))
        elif kind == "monomial":
            gens.append(Polynomial(ring, {draw(exps): draw(coeff)}))
        else:
            g = gens[draw(st.integers(0, len(gens) - 1))]
            gens.append(g if kind == "repeat" else g * Fraction(draw(coeff), draw(st.integers(1, 3))))
    return PolyIdeal(ring, gens)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(generator_lists(), st.integers(0, 4))
def test_power_keeps_the_nested_product_order(I, n):
    assert ideal_power(I, n).generators == nested_power(I, n)
