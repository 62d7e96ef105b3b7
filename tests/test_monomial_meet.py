"""``ideal_intersect``'s monomial branch against the pairwise-lcm definition
on exponent tuples, which shares no code with it, and against
`MonomialIdeal.intersect`. Both run the one kernel `rings._packed_meet`, so
their agreement checks the layouts and orders around it, not the kernel.
Exponents near the top of a 16-bit field make an lcm, or an input,
overflow, so the branch's run widens to 32 bits; `MonomialIdeal.intersect`
sizes its layout so that it never overflows. An elimination whose left
ideal is held at 32 bits but fits 16 repacks its entries."""

from operator import le

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import sympow.groebner as gb  # noqa: E402
from sympow import DEGREVLEX, MonomialIdeal, PolyIdeal, Polynomial, Ring, ideal_intersect  # noqa: E402

TOP = (1 << gb._WIDTH - 1) - 1  # the largest degree a field of the starting width holds


def lcm_definition(a, b):
    """The minimal pairwise lcms of the tuples a and b, largest degrevlex first."""
    lcms = {tuple(map(max, u, v)) for u in a for v in b}
    minimal = [m for m in lcms if not any(d != m and all(map(le, d, m)) for d in lcms)]
    return sorted(minimal, key=DEGREVLEX.key, reverse=True)


@st.composite
def tuple_pairs(draw):
    """Two lists of 1-4 exponent tuples in 1-3 variables; an exponent is
    small or just past half the field top, so two of them overflow."""
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.one_of(st.integers(0, 3), st.integers(TOP // 2 + 1, TOP // 2 + 3))] * nvars)
    return tuple(draw(st.lists(exps, min_size=1, max_size=4)) for _ in "ab")


def ideal_of(ring, tuples, coeffs=(1, -2, 3)):
    """Monomial generators with any coefficients: they take the lcm branch."""
    return PolyIdeal(ring, [Polynomial(ring, {e: coeffs[k % len(coeffs)]}) for k, e in enumerate(tuples)])


def entries_unpacked(K):
    """K's basis entries unpacked, in their order, largest lead first."""
    L, entries = K._basis
    return L, [(L.unpack(de), L.unpack_terms(terms)) for de, _, terms, _ in entries]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tuple_pairs())
# lcm(x^(TOP//2+1), y^(TOP//2+1)) overflows, but x*y^(TOP//2+1) divides it:
# the run widens to 32 bits and every entry still fits 16
@example(([(TOP // 2 + 1, 0, 0), (0, 0, 1), (1, 1, 0)], [(0, TOP // 2 + 1, 0), (0, 0, 1)]))
@example(([(TOP // 2 + 1, 0)], [(0, TOP // 2 + 1)]))  # the only lcm overflows and is kept
@example(([(TOP // 2 + 1, TOP // 2 + 1)], [(1, 0)]))  # an input past the field
def test_monomial_branch_matches_the_definition(pair):
    a, b = pair
    ring = Ring(tuple(f"x{i}" for i in range(len(a[0]))))
    K = ideal_intersect(ideal_of(ring, a), ideal_of(ring, b, (5, -1)))
    expected = lcm_definition(a, b)
    L, entries = entries_unpacked(K)
    assert entries == [(e, {e: 1}) for e in expected]  # monic, largest lead first
    meet = MonomialIdeal(ring, map(ring.monomial, a)).intersect(MonomialIdeal(ring, map(ring.monomial, b)))
    assert sorted(meet.exps, key=DEGREVLEX.key, reverse=True) == expected
    assert K.generators == tuple(Polynomial(ring, {e: 1}) for e in expected)
    if any(sum(e) > TOP for e in a + b + expected):
        assert L.width == 2 * gb._WIDTH
    if L.width > gb._WIDTH and all(sum(map(max, u, v)) + 2 <= TOP for u in expected for v in expected):
        # eliminate against (1 - x0), which is not monomial: every monomial of
        # the run fits 16 bits, so K's entries are repacked from 32 bits
        J = PolyIdeal(ring, [Polynomial(ring, {(0,) * ring.nvars: 1, (1,) + (0,) * (ring.nvars - 1): -1})])
        E = gb._eliminate(K, J)
        plain = gb._eliminate(PolyIdeal(ring, K.generators), J)
        assert E._basis[0].width == gb._WIDTH
        assert entries_unpacked(E)[1] == entries_unpacked(plain)[1]
        assert all(J.member(g) and K.member(g) for g in E.generators)
