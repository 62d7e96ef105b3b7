"""Independent answers for the benchmark's checks, on plain exponent tuples.

Nothing here calls sympow. These are short, direct definitions, slow but
easy to trust, used outside the timed region to check what the library
returned. A monomial is a tuple of exponents; an ideal is a list of them.
"""

from __future__ import annotations

from itertools import combinations
from operator import le


def divides(a, b) -> bool:
    return all(map(le, a, b))


def minimal(monomials) -> list:
    """Minimal generators, sorted by (degree, exponents)."""
    out = []
    for u in sorted(set(monomials), key=lambda m: (sum(m), m)):
        if not any(divides(v, u) for v in out):
            out.append(u)
    return out


def support(m) -> frozenset:
    return frozenset(i for i, e in enumerate(m) if e)


def localize(gens, prime) -> list:
    """Generators of I R_P back in the polynomial ring: set the variables outside P to 1."""
    return minimal(tuple(e if i in prime else 0 for i, e in enumerate(g)) for g in gens)


def power(gens, n: int) -> list:
    out = [(0,) * len(gens[0])]
    for _ in range(n):
        out = minimal(tuple(a + b for a, b in zip(u, v)) for u in out for v in gens)
    return out


def _intersect(a, b) -> list:
    return minimal(tuple(map(max, u, v)) for u in a for v in b)


def _colon_variable(gens, i: int) -> list:
    return minimal(g[:i] + (max(g[i] - 1, 0),) + g[i + 1:] for g in gens)


def minimal_vertex_covers(supports, nvars: int) -> list:
    """Minimal primes of a squarefree ideal, by trying every variable subset."""
    covers = []
    for k in range(1, nvars + 1):
        for c in combinations(range(nvars), k):
            s = frozenset(c)
            if all(s & e for e in supports) and not any(o <= s for o in covers):
                covers.append(s)
    return covers


def socle(gens, prime) -> list:
    """Generators of (J : m_P) outside J, where J = I R_P; empty when P is not associated.

    (J : m_P) is the intersection of the colons by the variables of P. It
    differs from J exactly when P is associated to I, and then each
    generator outside J marks one P-primary irreducible component of I.
    """
    local = localize(gens, prime)
    if not any(local[0]):
        return []  # I R_P is the unit ideal: P does not contain I
    colon = None
    for i in sorted(prime):
        c = _colon_variable(local, i)
        colon = c if colon is None else _intersect(colon, c)
        if colon == local:
            return []  # the colon only shrinks towards J as variables are added
    return [g for g in colon if not any(divides(h, g) for h in local)]


def irreducible_components(gens) -> dict:
    """Associated prime (sorted variable tuple) -> number of its irreducible components."""
    used = sorted(set().union(*(support(g) for g in gens)))
    minimal_primes = minimal_vertex_covers([support(g) for g in gens], len(gens[0]))
    components = {}
    for k in range(1, len(used) + 1):
        for c in combinations(used, k):
            p = frozenset(c)
            if any(q <= p for q in minimal_primes):
                corners = socle(gens, p)
                if corners:
                    components[c] = len(corners)
    return components


def symbolic_power_errors(result, gens, primes, n: int) -> list:
    """Problems with `result` as the minimal generators of ∩_P (I R_P)^n ∩ R.

    Each generator must lie in every localized power, and must leave one
    of them when any of its variables is divided out. Where I R_P is
    generated by the variables of P (a minimal prime of a squarefree
    ideal), membership is "degree at least n in P".
    """
    tests = []
    for p in primes:
        local = localize(gens, p)
        if all(sum(g) == 1 for g in local):
            variables = [g.index(1) for g in local]
            tests.append(lambda m, v=variables: sum(m[i] for i in v) >= n)
        else:
            pw = power(local, n)
            tests.append(lambda m, pw=pw: any(divides(h, m) for h in pw))

    def member(m):
        return all(test(m) for test in tests)

    errors = []
    for g in result:
        if not member(g):
            errors.append(f"{g} is not in the symbolic power")
            continue
        for i in support(g):
            smaller = g[:i] + (g[i] - 1,) + g[i + 1:]
            if member(smaller):
                errors.append(f"{g} is not minimal: {smaller} is also in")
                break
    return errors
