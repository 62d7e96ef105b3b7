"""The squarefree fold's result does not depend on the order of the primes.
Folding `decomp._meet_prime_power` over the minimal primes of random graph
and 3-uniform hypergraph edge ideals gives one ideal in `_local_order`, in
the (size, indices) order of `minimal_variable_primes` and in reverse; and
`_local_order` is the greedy order of its definition, ties in input order."""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sympow import Monomial, MonomialIdeal, Ring, minimal_variable_primes, symbolic_power_squarefree  # noqa: E402
from sympow import decomp, rings  # noqa: E402


@st.composite
def edge_ideals(draw):
    """The edge ideal of 1-10 distinct edges of 2 or 3 vertices, on at most 8 vertices."""
    size = draw(st.sampled_from((2, 3)))
    nvars = draw(st.integers(size, 8))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(nvars), size))),
                          min_size=1, max_size=10, unique=True))
    R = Ring(tuple(f"x{i}" for i in range(nvars)))
    return MonomialIdeal(R, [Monomial(R, tuple(int(i in e) for i in range(nvars))) for e in edges])


def greedy_by_definition(primes):
    """Each next prime adds the fewest variables not yet met, then shares the
    most with the one before; `min` keeps the first of equal keys."""
    left, met, last, order = list(primes), set(), set(), []
    while left:
        p = min(left, key=lambda p: (len(set(p.variables) - met), -len(set(p.variables) & last)))
        left.remove(p)
        last = set(p.variables)
        met |= last
        order.append(p)
    return order


def fold(I, primes, n):
    L = rings._Layout(rings.DEGREVLEX, I.ring.nvars, (n * I.ring.nvars).bit_length() + 1)
    us = [0]
    for p in primes:
        us = decomp._meet_prime_power(us, p.variables, n, L)
    return tuple(rings._ascending(us, L))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(I=edge_ideals(), n=st.integers(1, 4))
def test_any_order_gives_the_symbolic_power(I, n):
    primes = minimal_variable_primes(I)
    local = decomp._local_order(primes)
    assert len(local) == len(primes)
    assert sorted(local, key=lambda p: (len(p.variables), p.variables)) == primes
    for given_order in (primes, primes[::-1]):
        assert decomp._local_order(given_order) == greedy_by_definition(given_order)
    expected = symbolic_power_squarefree(I, n).exps  # at n = 1, I itself, with no fold
    for order in (local, primes, primes[::-1]):
        assert fold(I, order, n) == expected
