"""Differential tests: reduced degrevlex bases and intersections against sympy."""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from basis_oracle import verify_basis  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sympow import DEGREVLEX, PolyIdeal, Polynomial, Ring, buchberger, ideal_intersect  # noqa: E402

NAMES = ("x", "y", "z")


def generator_lists(nvars, max_gens, max_degree):
    """Lists of generator term dicts with small integer coefficients."""
    exps = st.tuples(*[st.integers(0, max_degree)] * nvars).filter(
        lambda e: sum(e) <= max_degree
    )
    coeff = st.integers(-3, 3).filter(bool)
    term_dict = st.dictionaries(exps, coeff, min_size=1, max_size=4)
    return st.lists(term_dict, min_size=1, max_size=max_gens)


@st.composite
def small_ideals(draw):
    """(number of variables, generator term dicts): <= 3 each, degree <= 3."""
    nvars = draw(st.integers(1, 3))
    return nvars, draw(generator_lists(nvars, max_gens=3, max_degree=3))


@st.composite
def small_ideal_pairs(draw):
    """(number of variables, I's and J's term dicts): <= 2 generators, degree <= 2."""
    nvars = draw(st.integers(1, 3))
    gens = generator_lists(nvars, max_gens=2, max_degree=2)
    return nvars, draw(gens), draw(gens)


def monic(terms):
    """Term dict scaled so that its degrevlex-leading coefficient is 1."""
    lead = terms[max(terms, key=DEGREVLEX.key)]
    return frozenset((e, c / lead) for e, c in terms.items())


def sympy_expr(symbols, terms):
    return sum(c * sympy.prod(s**k for s, k in zip(symbols, e)) for e, c in terms.items())


def sympy_basis(symbols, exprs):
    """sympy's reduced grevlex basis of the exprs, as monic term dicts."""
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
    symbols = sympy.symbols(NAMES[:nvars])
    assert {monic(g.coeffs) for g in basis} == sympy_basis(
        symbols, [sympy_expr(symbols, g) for g in gens]
    )
    verify_basis(polys, basis, DEGREVLEX)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_ideal_pairs())
def test_intersection_matches_sympy_elimination(pair):
    # reference: the t-free part of a lex basis of t*I + (1 - t)*J, t first
    nvars, I_gens, J_gens = pair
    symbols = sympy.symbols(NAMES[:nvars])
    t = sympy.Symbol("t")
    mixed = [t * sympy_expr(symbols, g) for g in I_gens]
    mixed += [(1 - t) * sympy_expr(symbols, g) for g in J_gens]
    lex = sympy.groebner(mixed, t, *symbols, order="lex", domain="QQ")
    t_free = [g for g in lex.exprs if not g.has(t)]

    ring = Ring(NAMES[:nvars])
    I = PolyIdeal(ring, [Polynomial(ring, g) for g in I_gens])
    J = PolyIdeal(ring, [Polynomial(ring, g) for g in J_gens])
    basis = ideal_intersect(I, J).groebner_basis()
    assert {monic(g.coeffs) for g in basis} == sympy_basis(symbols, t_free)
