"""Differential tests of the polynomial parser against sympy.

Random polynomial texts in the ideal-file grammar (signs, coefficients
including 0, repeated variables, nested parentheses, many terms) are read
by ``parse_polynomial`` and, with ``^`` spelled ``**``, by sympy; both must
give the same term dict.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sympow import Ring  # noqa: E402
from sympow.ideal_files import parse_polynomial  # noqa: E402

NAMES = ("x", "y", "z")
RING = Ring(NAMES)
SYMBOLS = {name: sympy.Symbol(name) for name in NAMES}

coefficients = st.integers(0, 40).map(str)
variables = st.tuples(st.sampled_from(NAMES), st.integers(0, 4)).map(
    lambda t: t[0] if t[1] == 0 else f"{t[0]}^{t[1]}")


def poly_texts(factors, max_terms):
    term = st.one_of(
        coefficients,
        st.tuples(st.one_of(st.just(""), coefficients.map(lambda c: c + "*")),
                  st.lists(factors, min_size=1, max_size=3)).map(lambda t: t[0] + "*".join(t[1])),
    )
    rest = st.lists(st.tuples(st.sampled_from((" + ", " - ")), term), max_size=max_terms)
    return st.tuples(st.sampled_from(("", "-", "+")), term, rest).map(
        lambda t: t[0] + t[1] + "".join(op + u for op, u in t[2]))


factors = st.recursive(
    variables, lambda inner: st.one_of(inner, poly_texts(inner, 2).map(lambda p: f"({p})")),
    max_leaves=8)


def sympy_terms(text: str) -> dict:
    expr = sympy.parse_expr(text.replace("^", "**"), local_dict=SYMBOLS)
    poly = sympy.Poly(expr, *SYMBOLS.values())
    return {e: int(c) for e, c in poly.as_dict().items()}


@settings(max_examples=60, deadline=None)
@given(poly_texts(factors, 10))
@example("x*x^2 - 0*y + 0")
@example("-(x - (y + z)*x)*(-y + 2*(z - x)) - x*x*(+x)")
@example("0*(x + y) + 3*y*(x - (x - z))*z^2 - 1")
def test_parse_matches_sympy(text):
    assert parse_polynomial(RING, text).coeffs == sympy_terms(text), text


def test_many_terms_match_sympy():
    rng = random.Random(23)
    terms = []
    for _ in range(300):
        coeff = rng.choice(["", f"{rng.randint(0, 9)}*"])
        powers = [f"{v}^{rng.randint(1, 3)}" if rng.random() < 0.5 else v
                  for v in rng.choices(NAMES, k=rng.randint(1, 4))]
        terms.append(coeff + "*".join(powers))
    text = terms[0] + "".join(rng.choice((" + ", " - ")) + t for t in terms[1:])
    assert parse_polynomial(RING, text).coeffs == sympy_terms(text)
