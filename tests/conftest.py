"""Shared helpers: compact constructors and seeded random generators."""

import random

from sympow import MonomialIdeal, PolyIdeal, Polynomial, Ring
from sympow.ideal_files import parse_polynomial


def mono(ring, text):
    m, _ = parse_polynomial(ring, text).as_monomial()
    return m


def mideal(ring, *texts):
    return MonomialIdeal(ring, [mono(ring, t) for t in texts])


def poly(ring, text):
    return parse_polynomial(ring, text)


def pideal(ring, *texts):
    return PolyIdeal(ring, [poly(ring, t) for t in texts])


def random_monomial(rng, ring, max_degree):
    degree = rng.randint(0, max_degree)
    exps = [0] * ring.nvars
    for _ in range(degree):
        exps[rng.randrange(ring.nvars)] += 1
    return ring.monomial(tuple(exps))


def random_squarefree_monomial(rng, ring, max_degree):
    degree = rng.randint(1, min(max_degree, ring.nvars))
    support = rng.sample(range(ring.nvars), degree)
    exps = [0] * ring.nvars
    for i in support:
        exps[i] = 1
    return ring.monomial(tuple(exps))


def random_squarefree_ideal(rng, max_vars=5, max_gens=5, max_degree=4):
    """Nonzero, proper, squarefree monomial ideal."""
    nvars = rng.randint(2, max_vars)
    ring = Ring(tuple(f"x{i}" for i in range(nvars)))
    while True:
        gens = [
            random_squarefree_monomial(rng, ring, max_degree)
            for _ in range(rng.randint(1, max_gens))
        ]
        ideal = MonomialIdeal(ring, gens)
        if not ideal.is_zero() and not ideal.is_unit():
            return ideal


def random_monomial_ideal(rng, max_vars=5, max_gens=5, max_degree=6):
    """Nonzero monomial ideal, not necessarily squarefree or proper."""
    nvars = rng.randint(1, max_vars)
    ring = Ring(tuple(f"x{i}" for i in range(nvars)))
    gens = [
        random_monomial(rng, ring, max_degree)
        for _ in range(rng.randint(1, max_gens))
    ]
    return MonomialIdeal(ring, gens)


def random_polynomial(rng, ring, max_degree=3, max_terms=3):
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        m = random_monomial(rng, ring, max_degree)
        coeffs[m.exponents] = coeffs.get(m.exponents, 0) + rng.randint(-3, 3)
    return Polynomial(ring, coeffs)


def random_poly_ideal(rng, max_vars=3, max_gens=3, max_degree=3):
    nvars = rng.randint(1, max_vars)
    ring = Ring(tuple(f"x{i}" for i in range(nvars)))
    while True:
        gens = [
            random_polynomial(rng, ring, max_degree)
            for _ in range(rng.randint(1, max_gens))
        ]
        ideal = PolyIdeal(ring, gens)
        if ideal.generators:
            return ideal


def cycle_ideal(k):
    """Edge ideal of the k-cycle x0-x1-...-x(k-1)-x0."""
    R = Ring(tuple(f"x{i}" for i in range(k)))
    x = [R.variable(name) for name in R.variables]
    return MonomialIdeal(R, [x[i] * x[(i + 1) % k] for i in range(k)])


def seeded(seed):
    return random.Random(seed)
