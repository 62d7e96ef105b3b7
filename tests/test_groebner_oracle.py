"""Differential test: reduced degrevlex bases against sympy's groebner."""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import sympow.groebner as gb  # noqa: E402
from sympow import DEGREVLEX, Polynomial, Ring, buchberger  # noqa: E402

NAMES = ("x", "y", "z")


@st.composite
def small_ideals(draw):
    """(number of variables, generator term dicts): <= 3 each, degree <= 3."""
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * nvars).filter(lambda e: sum(e) <= 3)
    coeff = st.integers(-3, 3).filter(bool)
    term_dict = st.dictionaries(exps, coeff, min_size=1, max_size=4)
    return nvars, draw(st.lists(term_dict, min_size=1, max_size=3))


def monic(terms):
    """Term dict scaled so that its degrevlex-leading coefficient is 1."""
    lead = terms[max(terms, key=DEGREVLEX.key)]
    return frozenset((e, c / lead) for e, c in terms.items())


def sympy_basis(nvars, gens):
    symbols = sympy.symbols(NAMES[:nvars])
    exprs = [
        sum(c * sympy.prod(s**k for s, k in zip(symbols, e)) for e, c in g.items())
        for g in gens
    ]
    G = sympy.groebner(exprs, *symbols, order="grevlex", domain="QQ")
    out = set()
    for expr in G.exprs:
        terms = sympy.Poly(expr, *symbols).terms()
        out.add(monic({e: Fraction(int(c.p), int(c.q)) for e, c in terms}))
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_ideals())
def test_reduced_basis_matches_sympy(ideal):
    nvars, gens = ideal
    ring = Ring(NAMES[:nvars])
    polys = [Polynomial(ring, g) for g in gens]
    basis = buchberger(polys, DEGREVLEX)
    assert {monic(g.coeffs) for g in basis} == sympy_basis(nvars, gens)
    gb.verify_basis(gb.BasisRecord(tuple(polys), basis, DEGREVLEX))
