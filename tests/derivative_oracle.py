"""Test oracle: membership in a squarefree monomial ideal's symbolic power
by derivatives, with no prime and no intersection.

For a radical ideal I over the rationals, f lies in I^(n) exactly when every
partial derivative of f of order below n lies in I (Zariski-Nagata; Eisenbud
and Hochster, J. Algebra 1979). For a monomial ideal the derivative of x^a by
x^α is a nonzero multiple of x^(a-α) when α ≤ a, and zero otherwise. So for
squarefree I, x^a ∈ I^(n) exactly when x^(a-α) ∈ I for every α ≤ a with
|α| < n. The check reads only I's generators; the library never calls it.
"""

from itertools import combinations_with_replacement


def _in_ideal(gens, b):
    return any(all(x <= y for x, y in zip(g, b)) for g in gens)


def in_symbolic_power(gens, a, n):
    """Whether x^a lies in I^(n), for I spanned by the squarefree exponent tuples gens."""
    support = [i for i, x in enumerate(a) if x]
    for k in range(n):
        for alpha in combinations_with_replacement(support, k):
            b = list(a)
            for i in alpha:
                b[i] -= 1
            if min(b) >= 0 and not _in_ideal(gens, b):
                return False
    return True


def generator_errors(gens, power, n):
    """What is wrong with ``power`` as the minimal generators of I^(n): each
    tuple must lie in I^(n), and no tuple less one variable may."""
    errors = []
    for a in power:
        if not in_symbolic_power(gens, a, n):
            errors.append(f"{a} is not in I^({n})")
        for i, x in enumerate(a):
            if x and in_symbolic_power(gens, a[:i] + (x - 1,) + a[i + 1:], n):
                errors.append(f"{a} is not minimal in I^({n}): x{i} divides it out")
    return errors
