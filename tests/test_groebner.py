"""Groebner kernel: division, Buchberger, ideal operations, self-checks."""

import ast
import hashlib
import re
from itertools import combinations_with_replacement
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import basis_oracle
import pytest
from basis_oracle import LEX, Lex, normal_form, s_polynomial, verify_basis
from conftest import (
    mideal,
    mono,
    pideal,
    poly,
    random_monomial,
    random_monomial_ideal,
    random_poly_ideal,
    random_polynomial,
    seeded,
)

import sympow.decomp as decomp
import sympow.groebner as gb
import sympow.ideals as ideals
import sympow.rings as rings
from sympow.groebner import MonomialOrder
from sympow import (
    DEGREVLEX,
    BlockElimination,
    DegRevLex,
    MonomialIdeal,
    PolyIdeal,
    Polynomial,
    Ring,
    RingMismatchError,
    buchberger,
    divide_exact,
    ideal_equals,
    ideal_intersect,
    ideal_power,
    ideal_product,
    ideal_quotient,
    ideal_sum,
    symbolic_power_from_decomposition,
)
from sympow.counterexamples import builtin_case_A6, builtin_case_A7, colon_ideal, symbolic_power_from_primes
from sympow.ideal_files import monomial_ideal_from_poly


@pytest.fixture
def R3():
    return Ring(("x", "y", "z"))


def poly_ideal_of(I: MonomialIdeal) -> PolyIdeal:
    return PolyIdeal(I.ring, [Polynomial.from_monomial(g) for g in I.generators])


class TestOrders:
    def test_degrevlex_vs_lex(self, R3):
        # x*z^2 vs y^3: degrevlex ranks by degree first, lex by the x-exponent
        a = (1, 0, 2)
        b = (0, 3, 0)
        assert DEGREVLEX.key(a) < DEGREVLEX.key(b)
        assert LEX.key(a) > LEX.key(b)

    def test_degrevlex_tie_break(self):
        # equal degree: the smaller last exponent wins
        assert DEGREVLEX.key((1, 1, 0)) > DEGREVLEX.key((0, 2, 0)) > DEGREVLEX.key((1, 0, 1))

    def test_block_elimination(self):
        # anything with the first variable beats anything without it
        assert BlockElimination(1).key((1, 0, 0)) > BlockElimination(1).key((0, 9, 9))

    def test_multiplicative_random(self, R3):
        rng = seeded(401)
        for order in (DEGREVLEX, LEX, BlockElimination(1)):
            for _ in range(50):
                u = tuple(rng.randint(0, 4) for _ in range(3))
                v = tuple(rng.randint(0, 4) for _ in range(3))
                w = tuple(rng.randint(0, 4) for _ in range(3))
                if order.key(u) < order.key(v):
                    uw = tuple(a + b for a, b in zip(u, w))
                    vw = tuple(a + b for a, b in zip(v, w))
                    assert order.key(uw) < order.key(vw)


def reference_degrevlex_key(exps):
    out = [sum(exps)]
    out.extend(-e for e in reversed(exps))
    return tuple(out)


def reference_block_key(k, exps):
    head, tail = exps[:k], exps[k:]
    out = [sum(head)]
    out.extend(-e for e in reversed(head))
    out.append(sum(tail))
    out.extend(-e for e in reversed(tail))
    return tuple(out)


class TestExponentHelpers:
    """The kernel's exponent helpers, support masks and order keys against
    their definitions, on seeded exponent tuples in 3 to 8 variables."""

    @staticmethod
    def pairs():
        rng = seeded(409)
        for _ in range(400):
            n = rng.randint(3, 8)
            a = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n))
            b = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n))
            if rng.random() < 0.25:  # make a divide b now and then
                b = tuple(x + y for x, y in zip(a, b))
            yield a, b

    def test_helpers_match_definitions(self):
        # one definition each, in rings; the Groebner kernel shares only the
        # tuple product (public polynomials) and the packed meet, and divides,
        # takes lcms and minimalizes on its packed monomials
        assert gb._exp_mul is rings._exp_mul
        for name in ("_exp_divides", "_exp_lcm", "_support", "_minimal"):
            assert not hasattr(gb, name)
        for name in ("_minimal", "_has_divisor"):
            assert getattr(ideals, name) is getattr(rings, name)
        # one pairwise-lcm meet for both engines; the tuple kernel is gone
        assert ideals._packed_meet is rings._packed_meet is gb._packed_meet
        for module in (rings, ideals, gb, decomp):
            assert not hasattr(module, "_intersection")
        # one packed layout, in rings, for the kernel and the squarefree folds
        assert gb._Layout is rings._Layout and not hasattr(decomp, "_Packing")
        for a, b in self.pairs():
            mul = tuple(x + y for x, y in zip(a, b))
            divides = all(x <= y for x, y in zip(a, b))
            lcm = tuple(max(x, y) for x, y in zip(a, b))
            assert rings._exp_mul(a, b) == mul
            assert rings._exp_divides(a, b) == divides
            assert rings._exp_lcm(a, b) == lcm
            assert rings._support(a) == sum(1 << i for i, x in enumerate(a) if x)
            ring = Ring(tuple(f"x{i}" for i in range(len(a))))
            u, v = ring.monomial(a), ring.monomial(b)
            assert u.divides(v) == divides
            assert u.lcm(v) == ring.monomial(lcm)
            assert u * v == ring.monomial(mul)

    def test_masks_agree_with_exponents(self):
        divisible = coprime = 0
        for a, b in self.pairs():
            ma, mb = rings._support(a), rings._support(b)
            if rings._exp_divides(a, b):
                divisible += 1
                assert not ma & ~mb
            disjoint = not ma & mb
            coprime += disjoint
            assert disjoint == (sum(rings._exp_lcm(a, b)) == sum(a) + sum(b))
        assert divisible and coprime  # both branches were exercised

    @staticmethod
    def minimal_by_pairs(exps):
        """The definition: the distinct tuples with no other tuple dividing
        them, in ascending (degree, exponents) order."""
        distinct = set(exps)
        keep = [e for e in distinct
                if not any(d != e and all(x <= y for x, y in zip(d, e)) for d in distinct)]
        return sorted(keep, key=lambda e: (sum(e), e))

    def test_minimal_matches_definition(self):
        rng = seeded(415)
        cases = [
            [], [(0, 0, 0)], [(0, 2), (0, 2), (1, 0)],
            # the support mask and the exponents disagree
            [(1, 2), (2, 1), (2, 2)],  # equal supports
            [(2, 0, 1), (1, 1, 1)], [(2, 0, 1), (1, 1, 2)],  # support inside, no divisor
            [(1, 0, 0), (0, 2, 3), (0, 0, 1)],  # disjoint supports
            [(3, 1), (0, 0), (1, 0)],  # the zero tuple divides all
        ]
        for _ in range(300):
            n = rng.randint(1, 8)
            exps = [tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n))
                    for _ in range(rng.randint(0, 12))]
            if exps and rng.random() < 0.3:  # duplicates and multiples
                e = rng.choice(exps)
                exps += [e, tuple(x + rng.randint(0, 1) for x in e)]
            if rng.random() < 0.1:
                exps.append((0,) * n)
            rng.shuffle(exps)
            cases.append(exps)
        for exps in cases:
            assert rings._minimal(exps) == self.minimal_by_pairs(exps)
            assert rings._minimal(iter(exps)) == self.minimal_by_pairs(exps)
        assert rings._minimal([(2, 0), (0, 0), (0, 3)]) == [(0, 0)]

    @staticmethod
    def intersection_cases():
        """Pairs of tuple lists on which the kernel's shortcut fires on both
        sides: nested ideals either way, variable-prime powers against
        random ideals, the unit tuple, an empty side and repeated tuples."""
        rng = seeded(416)

        def draw(n, count):
            return [tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n)) for _ in range(count)]

        def multiples(exps):
            return [tuple(x + rng.randint(0, 2) for x in rng.choice(exps))
                    for _ in range(rng.randint(1, 6))]

        def prime_power(n, k):
            prime = sorted(rng.sample(range(n), rng.randint(1, n)))
            out = []
            for combo in combinations_with_replacement(prime, k):
                e = [0] * n
                for i in combo:
                    e[i] += 1
                out.append(tuple(e))
            return out

        cases = [([], []), ([(1, 2)], []), ([], [(0, 0)]), ([(0, 0)], [(0, 0)]),
                 ([(0, 0, 0)], [(1, 0, 2), (0, 3, 0)]), ([(2, 1), (2, 1)], [(1, 1), (1, 1)])]
        for _ in range(300):
            n = rng.randint(1, 7)
            a = draw(n, rng.randint(1, 8))
            kind = rng.randrange(5)
            if kind == 0:  # J inside I, plus a few generators of their own
                b = multiples(a) + draw(n, rng.randint(0, 2))
            elif kind == 1:  # I inside J
                b, a = a, multiples(a)
            elif kind == 2:  # a variable prime's power against a random ideal
                b = prime_power(n, rng.randint(1, 4))
            elif kind == 3:  # the unit tuple on one side
                b = draw(n, rng.randint(1, 5)) + [(0,) * n]
            else:
                b = draw(n, rng.randint(0, 8))
            if rng.random() < 0.3:  # repeated tuples
                a = a + a[: rng.randint(1, len(a))]
            if rng.random() < 0.5:
                a, b = b, a
            cases.append((a, b))
        return cases

    def test_intersection_matches_pairwise_lcms(self):
        # the oracle is the plain pairwise-lcm formula with the definition of
        # minimality above: the monomial paths all share the kernel, so their
        # agreement with each other would not check it. The kernel runs on
        # the raw lists, repeats and non-minimal tuples included, in a layout
        # wide enough for every lcm, and through `MonomialIdeal.intersect`
        fired = [0, 0]
        for a, b in self.intersection_cases():
            expected = self.minimal_by_pairs(
                [tuple(max(x, y) for x, y in zip(u, v)) for u in a for v in b])
            nvars = len((a + b + [()])[0]) or 1
            top = sum(max(map(sum, side), default=0) for side in (a, b))
            L = rings._Layout(rings.DEGREVLEX, nvars, top.bit_length() + 1)
            packed = ([L.pack(e) ^ L.unit for e in side] for side in (a, b))
            assert rings._ascending(rings._packed_meet(*packed, L), L) == expected
            ring = Ring(tuple(f"x{i}" for i in range(nvars)))
            I, J = (MonomialIdeal(ring, map(ring.monomial, side)) for side in (a, b))
            assert I.intersect(J).exps == tuple(expected)
            for i, (mine, theirs) in enumerate(((a, b), (b, a))):
                fired[i] += sum(any(all(x <= y for x, y in zip(v, u)) for v in theirs)
                                for u in mine)
        assert min(fired) > 100  # the shortcut keeps tuples of both sides

    def test_has_divisor_matches_definition(self):
        for a, b in self.pairs():
            zero, bumped = (0,) * len(a), tuple(x + 1 for x in a)
            for exps in ([], [a], [bumped], [bumped, a], [zero]):
                masked = [(e, rings._support(e)) for e in exps]
                expected = any(all(x <= y for x, y in zip(e, b)) for e in exps)
                assert rings._has_divisor(b, masked) == expected

    def test_keys_match_reference(self):
        for a, b in self.pairs():
            for e in (a, b):
                assert DEGREVLEX.key(e) == reference_degrevlex_key(e)
                for k in (1, 2, 3):
                    assert BlockElimination(k).key(e) == reference_block_key(k, e)


def reference_fields(order, e, top):
    """The packed fields of e, most significant first, by the layout's
    definition: per block, a grevlex block's degree and then top - e_i from
    the last variable, or a lex block's e_i from the first."""
    k = len(e) if isinstance(order, (DegRevLex, Lex)) else min(order.first_k, len(e))
    blocks = [(0, len(e))] if k == len(e) else [(0, k), (k, len(e))]
    if isinstance(order, Lex):
        return list(e)
    fields = []
    for lo, hi in blocks:
        fields += [sum(e[lo:hi])] + [top - x for x in reversed(e[lo:hi])]
    if len(blocks) == 1 and isinstance(order, BlockElimination):
        fields += [0]  # the empty second block keeps its degree field
    return fields


def reference_pack(order, e, width):
    """The int of e's fields, or None when a field is out of 0..top."""
    top = (1 << width - 1) - 1
    u = 0
    for f in reference_fields(order, e, top):
        if not 0 <= f <= top:
            return None
        u = u << width | f
    return u


class TestLayout:
    """The packed layout of the Groebner kernel and the squarefree folds
    against its definition, on seeded tuples in 1 to 10 variables, under
    degrevlex, lex and block elimination after 1, 2 or 3 variables. The
    narrow widths make many sums leave their fields; tuples of degree exactly
    top, the zero tuple (every complemented field at exactly top) and
    one-variable rings are included."""

    ORDERS = (DEGREVLEX, LEX, BlockElimination(1), BlockElimination(2), BlockElimination(3))

    @staticmethod
    def tuples(rng, n, top):
        """Valid tuples: total degree 0..top, spread over n variables."""
        out = [(0,) * n, (top,) + (0,) * (n - 1), (0,) * (n - 1) + (top,)]
        for _ in range(12):
            total = rng.choice((rng.randint(0, top), top))
            cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
            out.append(tuple(hi - lo for lo, hi in zip([0] + cuts, cuts + [total])))
        return out

    def cases(self, seed):
        rng = seeded(seed)
        for width in (2, 3, 5, 16):  # 2 and 3: the dual fold's layouts on 1-3 variables
            for n in range(1, 11):
                for order in self.ORDERS:
                    L = gb._Layout(order, n, width)
                    yield rng, L, width, self.tuples(rng, n, L.top)

    def test_unpack_inverts_pack(self):
        for rng, L, width, exps in self.cases(431):
            for e in exps:
                assert L.pack(e) == reference_pack(L.order, e, width)
                assert L.unpack(L.pack(e)) == e
            with pytest.raises(gb._Overflow):  # packing refuses a degree past top
                L.pack((L.top + 1,) + (0,) * (len(L.shifts) - 1))

    def test_int_order_is_the_term_order(self):
        for rng, L, width, exps in self.cases(432):
            for a in exps:
                for b in exps:
                    ka, kb = L.order.key(a), L.order.key(b)
                    assert (L.pack(a) < L.pack(b), L.pack(a) == L.pack(b)) == (ka < kb, ka == kb)

    def test_guard_test_is_divisibility(self):
        divisible = 0
        for rng, L, width, exps in self.cases(433):
            for a in exps:
                word = gb._entry({L.pack(a): 1}, L)[3]
                for b in exps + [tuple(x + y for x, y in zip(a, c)) for c in exps]:
                    if sum(b) > L.top:
                        continue
                    test = (((L.pack(b) ^ L.unit) | L.guard) - word) & L.guard == L.guard
                    assert test == rings._exp_divides(a, b)
                    # the borrow form of `_packed_scan` and `_packed_meet` agrees
                    assert (not ((L.pack(b) ^ L.unit) - word) & L.guard) == test
                    # `_packed_scan` needs a divisor's exponent form listed first
                    assert not test or word <= L.pack(b) ^ L.unit
                    divisible += test
        assert divisible > 1000

    def test_products_shifts_and_lcms(self):
        # each result is the packed tuple when every field is in range, and
        # is flagged (guard bit set, or _Overflow) exactly when one is not
        flagged = [0, 0, 0]
        for rng, L, width, exps in self.cases(434):
            for a in exps:
                for b in exps:
                    pa, pb = L.pack(a), L.pack(b)
                    expected = reference_pack(L.order, rings._exp_mul(a, b), width)
                    product = pa + pb - L.unit
                    assert (product & L.guard != 0) == (expected is None)
                    assert expected is None or product == expected
                    flagged[0] += expected is None
                    expected = reference_pack(L.order, rings._exp_lcm(a, b), width)
                    if expected is None:
                        with pytest.raises(gb._Overflow):
                            L.lcm(pa, pb)
                        flagged[1] += 1
                    else:
                        assert L.lcm(pa, pb) == expected
                    # x^(e - d)*t for d = a dividing e = a*b, and t = the next tuple
                    e, t = rings._exp_mul(a, b), rng.choice(exps)
                    if sum(e) <= L.top:
                        shift = L.pack(t) + L.pack(e) - pa
                        expected = reference_pack(L.order, rings._exp_mul(t, b), width)
                        assert (shift & L.guard != 0) == (expected is None)
                        assert expected is None or shift == expected
                        flagged[2] += expected is None
        assert min(flagged) > 100

    def test_key_only_order_is_refused(self, R3):
        class KeyOnly(MonomialOrder):
            def key(self, exps):
                return tuple(exps)

        f = poly(R3, "x - y")
        with pytest.raises(TypeError, match="lists no blocks"):
            buchberger([f], KeyOnly())


class TestPolynomialArithmetic:
    def test_str_and_parse_shapes(self, R3):
        p = poly(R3, "x^2*y - 2*x + 1")
        assert str(p) == "x^2*y - 2*x + 1"
        assert poly(R3, "-x + y") == poly(R3, "y - x")

    def test_product_expands(self, R3):
        p = poly(R3, "(x - y) * (x + y)")
        assert p == poly(R3, "x^2 - y^2")

    def test_pow(self, R3):
        assert poly(R3, "x + y") ** 2 == poly(R3, "x^2 + 2*x*y + y^2")

    def test_exactness_random(self, R3):
        rng = seeded(402)
        for _ in range(50):
            p = random_polynomial(rng, R3)
            q = random_polynomial(rng, R3)
            for c in (p * q + p - q).coeffs.values():
                assert gcd(c.numerator, c.denominator) == 1
                assert c.denominator > 0

    def test_content_normalized(self, R3):
        p = poly(R3, "4*x - 6*y") * Fraction(1, 3)
        q = p.content_normalized()
        assert q == poly(R3, "2*x - 3*y")

    @pytest.mark.parametrize("make", [
        lambda R: Polynomial(R, {(1, 0, 0): 0.1}),
        lambda R: Polynomial.constant(R, 0.5),
        lambda R: Polynomial.from_monomial(R.variable("x"), 2.0),
    ], ids=["dict", "constant", "monomial"])
    def test_float_coefficient_is_refused(self, R3, make):
        # 0.1 would be stored as 3602879701896397/36028797018963968
        with pytest.raises(TypeError, match="inexact coefficient"):
            make(R3)

    @pytest.mark.parametrize("exps", [(1, 0), (1, 0, 0, 0), (1, 0, -1), (Fraction(1, 2), 0, 0)],
                             ids=["short", "long", "negative", "fractional"])
    def test_malformed_exponent_vector_is_refused(self, R3, exps):
        with pytest.raises(ValueError, match="non-negative integers"):
            Polynomial(R3, {exps: 1})


class TestNormalForm:
    def test_self_reduction(self, R3):
        f = poly(R3, "x^2*y - z")
        assert normal_form(f, [f]).is_zero()

    def test_monomial_divisor(self, R3):
        assert normal_form(poly(R3, "x^2"), [poly(R3, "x")]).is_zero()

    def test_no_leading_divisibility(self):
        R = Ring(("x", "y", "a", "b", "t"))
        f = poly(R, "y*a - t*b")
        assert normal_form(f, [poly(R, "x*y*a*b")]) == f

    def test_remainder_terms_irreducible(self, R3):
        rng = seeded(403)
        for _ in range(30):
            f = random_polynomial(rng, R3, max_degree=4, max_terms=4)
            G = [random_polynomial(rng, R3) for _ in range(2)]
            G = [g for g in G if not g.is_zero()]
            r = normal_form(f, G)
            for e in r.coeffs:
                for g in G:
                    le, _ = g.leading(DEGREVLEX)
                    assert not all(a <= b for a, b in zip(le, e))


def test_oracle_shares_no_kernel_code():
    # the oracle re-checks the kernel's bases, so it imports only public names
    # of sympow (no helper of the packed kernel), no sympow module whole, and
    # reads no private attribute
    tree = ast.parse(Path(basis_oracle.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("sympow"):
            imported += [a.name for a in node.names]
            assert not [a.name for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.startswith("sympow")]
        elif isinstance(node, ast.Attribute):
            assert not node.attr.startswith("_"), node.attr
    assert "buchberger" in imported


def long_division(f, G, order):
    """Reference remainder: textbook division with Fraction arithmetic, the
    largest term first, reduced by the first element of G whose leading
    monomial divides it."""
    leads = [(max(g.coeffs, key=order.key), g) for g in G if not g.is_zero()]
    p, r = dict(f.coeffs), {}
    while p:
        e = max(p, key=order.key)
        c = p.pop(e)
        for le, g in leads:
            if all(a <= b for a, b in zip(le, e)):
                factor = c / g.coeffs[le]
                shift = tuple(a - b for a, b in zip(e, le))
                for e2, c2 in g.coeffs.items():
                    if e2 != le:
                        tgt = tuple(a + b for a, b in zip(e2, shift))
                        p[tgt] = p.get(tgt, 0) - factor * c2
                        if not p[tgt]:
                            del p[tgt]
                break
        else:
            r[e] = c
    return Polynomial(f.ring, r)


def rational_polynomial(rng, ring, lead=None, order=DEGREVLEX):
    """Random polynomial with rational coefficients; lead, if given, is put
    on its leading term under order."""
    while True:
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            m = random_monomial(rng, ring, 3)
            coeffs[m.exponents] = Fraction(rng.randint(-7, 7), rng.randint(1, 4))
        f = Polynomial(ring, coeffs)
        if not f.is_zero():
            break
    if lead is not None:
        coeffs = dict(f.coeffs)
        coeffs[f.leading(order)[0]] = lead
        f = Polynomial(ring, coeffs)
    return f


def kernel_normal_form(f, G, order):
    """The packed kernel's remainder of f modulo G as a Fraction polynomial:
    `_reduce_dict`'s remainder divided by its scale and by the denominator
    cleared from f."""
    L = gb._Layout(order, f.ring.nvars, gb._WIDTH)
    terms, den = gb._integer_terms(f.coeffs)
    r, scale = gb._reduce_dict(L.pack_terms(terms), gb._prepare_divisors(G, L), L)
    return Polynomial(f.ring, {e: Fraction(c, scale * den) for e, c in L.unpack_terms(r).items()})


def kernel_s_polynomial(f, g, order):
    """The packed kernel's `_s_terms` of f and g, scaled to lcm/lt(f)*f - lcm/lt(g)*g."""
    L = gb._Layout(order, f.ring.nvars, gb._WIDTH)
    a, b = gb._prepare_divisors((f, g), L)
    terms = gb._s_terms(a, b, L.lcm(a[0], b[0]), L)
    scale = Fraction(gcd(a[1], b[1]), a[1] * b[1])
    return Polynomial(f.ring, {e: c * scale for e, c in L.unpack_terms(terms).items()})


class TestDivisionReference:
    """The packed kernel's reduction and S-polynomial, and the oracle's
    normal_form and s_polynomial, against Fraction arithmetic, with divisors
    whose leading coefficients are not units of the integers (the paper's
    ideals have leading coefficients 1 and -1 only)."""

    LEADS = (Fraction(3, 2), Fraction(-5), Fraction(7, 3))

    @pytest.mark.parametrize("order", [DEGREVLEX, LEX, BlockElimination(1)],
                             ids=["degrevlex", "lex", "block1"])
    def test_normal_form_matches_long_division(self, R3, order):
        rng = seeded(410)
        for _ in range(60):
            G = [rational_polynomial(rng, R3, rng.choice(self.LEADS), order)
                 for _ in range(rng.randint(1, 3))]
            f = rational_polynomial(rng, R3) * rational_polynomial(rng, R3)
            expected = long_division(f, G, order)
            assert kernel_normal_form(f, G, order) == expected
            assert normal_form(f, G, order) == expected

    @pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
    def test_s_polynomial_matches_definition(self, R3, order):
        rng = seeded(411)
        for _ in range(60):
            f = rational_polynomial(rng, R3, rng.choice(self.LEADS), order)
            g = rational_polynomial(rng, R3, rng.choice(self.LEADS), order)
            (ef, cf), (eg, cg) = f.leading(order), g.leading(order)
            L = tuple(max(a, b) for a, b in zip(ef, eg))
            lf = Polynomial(R3, {tuple(a - b for a, b in zip(L, ef)): 1 / cf})
            lg = Polynomial(R3, {tuple(a - b for a, b in zip(L, eg)): 1 / cg})
            assert kernel_s_polynomial(f, g, order) == lf * f - lg * g
            assert s_polynomial(f, g, order) == lf * f - lg * g


class TestBuchberger:
    def test_monomial_input(self, R3):
        basis = buchberger([poly(R3, "2*x*y"), poly(R3, "4*x^2"), poly(R3, "x^2*y")])
        assert set(basis) == {poly(R3, "x*y"), poly(R3, "x^2")}

    def test_two_linear_forms_lex(self, R3):
        basis = buchberger([poly(R3, "x - y"), poly(R3, "y - z")], LEX)
        assert set(basis) == {poly(R3, "x - z"), poly(R3, "y - z")}

    def test_generators_reduce_to_zero(self):
        case = builtin_case_A6()
        basis = case.ideal.groebner_basis()
        for g in case.ideal.generators:
            assert normal_form(g, list(basis)).is_zero()

    def test_spoly_postcondition_random(self):
        rng = seeded(404)
        for _ in range(20):
            I = random_poly_ideal(rng)
            verify_basis(I.generators, buchberger(I.generators), DEGREVLEX, recompute=False)

    def test_canonicity_random(self):
        rng = seeded(405)
        for _ in range(20):
            I = random_poly_ideal(rng)
            gens = list(I.generators)
            basis = buchberger(gens)
            rng.shuffle(gens)
            scaled = [g * rng.choice([1, 2, -1, Fraction(1, 2)]) for g in gens]
            assert buchberger(scaled) == basis

    @pytest.mark.parametrize("make_bad", [lambda R: 5, lambda R: R.variable("y")],
                             ids=["int", "monomial"])
    def test_non_polynomial_generator_is_refused(self, R3, make_bad):
        # (x, 5) is the unit ideal; dropping the 5 would answer (x)
        bad = make_bad(R3)
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            buchberger([poly(R3, "x"), bad])
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            PolyIdeal(R3, [poly(R3, "x"), bad])

    def test_divided_lead_still_reduces(self, R3):
        # xy - z^2 joins after x^2*y + z^3 and its lead divides x^2*y: the
        # first element forms no new pairs, yet the ideal needs it
        first, second = poly(R3, "x^2*y + z^3"), poly(R3, "x*y - z^2")
        basis = buchberger([first, second])
        verify_basis([first, second], basis, DEGREVLEX)
        assert normal_form(first, list(basis)).is_zero()
        assert not normal_form(first, [second]).is_zero()
        # x*z^2 + z^3 = first - x*second is the element the pair contributes
        assert poly(R3, "x*z^2 + z^3") in basis

    def test_zero_generators_are_dropped(self, R3):
        x = poly(R3, "x")
        assert buchberger([x, Polynomial.zero(R3)]) == (x,)
        assert buchberger([Polynomial.zero(R3)]) == ()
        assert PolyIdeal(R3, [Polynomial.zero(R3), x]).generators == (x,)


def prime_power_fold(case, n, intersect):
    """symbolic_power_from_primes with the intersection step to count passed in."""
    inter = ideal_power(case.primes[0], n)
    for p in case.primes[1:]:
        inter = intersect(inter, ideal_power(p, n))
    return inter


CASES = {"A6": builtin_case_A6, "A7": builtin_case_A7}


class ReadCountingList(list):
    """A divisor list that counts its item reads into calls["reads"]."""

    def __init__(self, items, calls):
        super().__init__(items)
        self.calls = calls

    def __getitem__(self, k):
        self.calls["reads"] += 1
        return super().__getitem__(k)


class TestPinnedBases:
    """sha256 of repr(groebner_basis()) for the paper's ideals: a change to the
    pair selection or pruning that alters any basis byte fails here. The
    number of S-polynomials a fold forms, and of divisibility tests it
    makes, is pinned too."""

    @pytest.mark.parametrize("name, n, digest", [
        ("A6", 2, "faac5c18702d80b54973b67f31cf018b4440218b566cfa9dad08d3a13bc5cb7d"),
        ("A6", 3, "0a3b3760b9aabcd61465049b51626359cb2ed7fc1e875d53b2cac61ca6a517d8"),
        ("A6", 4, "3c7276fd32542b3e464429feb8a6492c7447cfb8aafa905eb6f867c87f5c8240"),
        ("A7", 2, "3cb6bfa635070c53290f0a12335e38b66f5a9f0e51dd3e4fd560f85cbf3a8218"),
        ("A7", 3, "7d3f43b29ffb81179ba1167c636ed51f3945d5de4a8f347a09e5f26d325d7c21"),
        ("A7", 4, "eb38d34edc4ac6cc73fb15f351ad084c8b71a84ae4539bf968bebeb149ce0e22"),
        ("A6", 5, "e1d55c3d327b1b13f8fbd87b72d7bd3439eb76caf3b3647ba1d892f351783e1f"),
        ("A7", 6, "2ef5826c61e2377491eaa8ec3a607886426fa9a989035828f1aac0d84f91973b"),
    ], ids=["A6-n2", "A6-n3", "A6-n4", "A7-n2", "A7-n3", "A7-n4", "A6-n5", "A7-n6"])
    def test_prime_power_fold(self, name, n, digest):
        basis = symbolic_power_from_primes(CASES[name]().primes, n).groebner_basis()
        assert hashlib.sha256(repr(basis).encode()).hexdigest() == digest

    @pytest.mark.parametrize("name, digest", [
        ("A6", "ca00ee39bc53d705fc0b066eeac103ecab366e5c575909fe6901a82857fc4e4e"),
        ("A7", "010ee3b938fd63e121c704744ac7d88d5cfc2718fb24d46b3c8de5487e430d22"),
    ], ids=["A6", "A7"])
    def test_colon_by_witness(self, name, digest):
        case = CASES[name]()
        basis = colon_ideal(case, case.witness).groebner_basis()
        assert hashlib.sha256(repr(basis).encode()).hexdigest() == digest

    @pytest.mark.parametrize("name, fold, formed, lcms, reads", [
        ("A6", "_eliminate", 291, 1426, 4268),
        ("A7", "_eliminate", 298, 1497, 2225),
        ("A6", "ideal_intersect", 81, 507, 3046),
        ("A7", "ideal_intersect", 30, 246, 540),
    ], ids=["A6", "A7", "A6-dispatch", "A7-dispatch"])
    def test_s_polynomials_formed_by_the_square_fold(self, name, fold, formed, lcms,
                                                     reads, monkeypatch):
        # a pair criterion that wrongly keeps a pair still ends at the same
        # reduced basis, only slower; the count of S-polynomials shows it.
        # The lcms count the pair candidates, so a stale element that the
        # active filter should have dropped shows there too. Folding through
        # elimination alone runs the kernel on every step; the dispatching
        # fold meets the monomial primes by pairwise lcms of packed monomials,
        # with the kernel's _Layout.lcm, so those lcms are counted too (and so
        # would any tuple lcm be). It forms lcms only between the generators
        # that do not lie in the other ideal, so its count is the smaller one.
        # The reductions' reads of their divisor lists are counted as well
        # (one per guard-bit test, one per divisor used): a reduction that
        # rescans the divisor list from its start, instead of resuming where
        # the first-divisor memo says, adds to them
        calls = {"_s_terms": 0, "lcm": 0, "reads": 0}

        def counting(owner, name, key):
            run = getattr(owner, name)

            def counted(*args):
                calls[key] += 1
                return run(*args)

            monkeypatch.setattr(owner, name, counted)

        counting(gb, "_s_terms", "_s_terms")
        counting(gb._Layout, "lcm", "lcm")
        counting(rings, "_exp_lcm", "lcm")
        reduce_dict = gb._reduce_dict
        monkeypatch.setattr(gb, "_reduce_dict", lambda p, divisors, *rest: reduce_dict(
            p, ReadCountingList(divisors, calls), *rest))
        prime_power_fold(CASES[name](), 2, getattr(gb, fold))
        assert calls == {"_s_terms": formed, "lcm": lcms, "reads": reads}

    def test_memo_resumes_the_divisor_scan(self, R3):
        # x finds no divisor in [y]; once x joins, the shared memo resumes
        # the search at index 1: one read to test x, one to use it. A fresh
        # memo tests y again
        calls = {"reads": 0}
        L = gb._Layout(DEGREVLEX, 3, gb._WIDTH)
        y, x = gb._prepare_divisors([poly(R3, "y"), poly(R3, "x")], L)
        p = L.pack_terms({(1, 0, 0): 1})
        first = {}
        assert gb._reduce_dict(p, ReadCountingList([y], calls), L, first) == (p, 1)
        assert calls["reads"] == 1
        assert gb._reduce_dict(p, ReadCountingList([y, x], calls), L, first) == ({}, 1)
        assert calls["reads"] == 3
        assert gb._reduce_dict(p, ReadCountingList([y, x], calls), L) == ({}, 1)
        assert calls["reads"] == 6


class TestWidening:
    """A kernel run with a packed value past its field width restarts at
    double width and ends at the same exact basis."""

    @staticmethod
    def widths(monkeypatch):
        """The field width of each kernel run, in call order. A run packs its
        inputs before the pair loop starts, so a run whose input overflows
        never reaches the pair loop: the layouts that pack are recorded."""
        runs, layouts, pack = [], [], gb._packed

        def recorded(g, L):
            if not layouts or layouts[-1] is not L:
                layouts.append(L)
                runs.append(L.width)
            return pack(g, L)

        monkeypatch.setattr(gb, "_packed", recorded)
        return runs

    def test_wide_input_reruns_wider(self, R3, monkeypatch):
        # x^40000 - y does not pack into 16-bit fields (top 32767). Reduced by
        # y - z it is x^40000 - z, whose lead is coprime to y: that is the basis
        runs = self.widths(monkeypatch)
        gens = [poly(R3, "x^40000 - y"), poly(R3, "y - z")]
        basis = buchberger(gens)
        assert runs == [16, 32]
        assert basis == (poly(R3, "x^40000 - z"), poly(R3, "y - z"))
        verify_basis(gens, basis, DEGREVLEX)

    def test_lcm_overflow_alone_reruns(self, R3, monkeypatch):
        # x^20000 - z and y^20000 - z pack at 16 bits and neither reduces the
        # other; the lcm of their leads, of degree 40000, is the one value of
        # the first run past its fields
        runs, raised, lcm = self.widths(monkeypatch), [], gb._Layout.lcm

        def recorded_lcm(L, a, b):
            try:
                return lcm(L, a, b)
            except gb._Overflow:
                raised.append(L.width)
                raise

        monkeypatch.setattr(gb._Layout, "lcm", recorded_lcm)
        gens = [poly(R3, "x^20000 - z"), poly(R3, "y^20000 - z")]
        basis = buchberger(gens)
        assert (runs, raised) == ([16, 32], [16])
        assert basis == tuple(gens)
        verify_basis(gens, basis, DEGREVLEX)

    def test_elimination_reruns_wider(self, R3):
        # (x^40000 - y) ∩ (z) is spanned by the product of the two coprime generators
        K = ideal_intersect(pideal(R3, "x^40000 - y"), pideal(R3, "z"))
        assert K._basis[0].width == 32
        assert K.generators == (poly(R3, "x^40000*z - y*z"),)

    def test_bases_at_two_widths_compare_exactly(self, R3):
        # (x - y, x^40000 - y^40000) = (x - y): one basis is packed at 32 bits
        wide = PolyIdeal(R3, [poly(R3, "x - y"), poly(R3, "x^40000 - y^40000")])
        narrow = pideal(R3, "x - y")
        assert ideal_equals(wide, narrow) and ideal_equals(narrow, wide)
        assert (wide._entries()[0].width, narrow._entries()[0].width) == (32, 16)
        assert wide.groebner_basis() == narrow.groebner_basis()
        assert not ideal_equals(wide, pideal(R3, "x - z"))
        # a member wider than the basis is reduced against the basis repacked
        assert narrow.member(poly(R3, "x^40000 - y^40000"))
        assert not narrow.member(poly(R3, "x^40000 - z^40000"))
        assert narrow._entries()[0].width == 16


class TestIdealOps:
    def test_sum_with_zero(self, R3):
        I = pideal(R3, "x*y - z")
        assert ideal_sum(I, PolyIdeal.zero(R3)).generators == I.generators

    def test_product(self, R3):
        K = ideal_product(pideal(R3, "x"), pideal(R3, "y"))
        assert ideal_equals(K, pideal(R3, "x*y"))

    def test_square_of_three_generators(self):
        case = builtin_case_A6()
        assert len(case.square().generators) == 6

    def test_member(self, R3):
        I = pideal(R3, "x^2 - y", "y*z")
        for g in I.generators:
            assert I.member(g)
        assert I.member(Polynomial.zero(R3))
        assert not I.member(poly(R3, "x"))

    def test_witness_outside_square(self):
        case = builtin_case_A6()
        assert not case.square().member(case.witness)

    def test_quotient_hands_over_its_basis(self, R3, monkeypatch):
        I = pideal(R3, "x^2 - y", "x*y - z", "y^2*z")
        x = poly(R3, "x")
        colon = ideal_quotient(I, x)
        scaled = ideal_quotient(I, -2 * x)
        bigger = ideal_quotient(I, x * x)  # also holds y*z
        basis = buchberger(colon.generators)
        assert colon.generators != basis  # the generators are not yet reduced

        def refuse(*args, **kwargs):
            raise AssertionError("Buchberger ran on a handed-over basis")

        monkeypatch.setattr(gb, "buchberger", refuse)
        monkeypatch.setattr(gb, "_groebner_entries", refuse)
        assert colon.groebner_basis() == basis
        assert all(colon.member(g) for g in basis)
        assert not colon.member(x)
        assert ideal_equals(colon, scaled)
        assert not ideal_equals(colon, bigger)


XY, XYZ = Ring(("x", "y")), Ring(("x", "y", "z"))


class TestRingMismatch:
    """Every operation on two objects of different rings raises RingMismatchError."""

    @pytest.mark.parametrize("op", [
        pytest.param(lambda: ideal_sum(pideal(XY, "x"), pideal(XYZ, "y")), id="ideal_sum"),
        pytest.param(lambda: ideal_product(pideal(XY, "x"), pideal(XYZ, "y")), id="ideal_product"),
        pytest.param(lambda: ideal_intersect(pideal(XY, "x"), pideal(XYZ, "y")),
                     id="ideal_intersect"),
        pytest.param(lambda: ideal_intersect(pideal(XY, "x - y"), pideal(XYZ, "y")),
                     id="ideal_intersect-eliminate"),
        pytest.param(lambda: ideal_intersect(PolyIdeal.zero(XY), pideal(XYZ, "y")),
                     id="ideal_intersect-zero"),
        pytest.param(lambda: ideal_quotient(pideal(XY, "x*y"), poly(XYZ, "y")), id="ideal_quotient"),
        pytest.param(lambda: ideal_equals(pideal(XY, "x"), pideal(XYZ, "x")), id="ideal_equals"),
        pytest.param(lambda: pideal(XY, "x").member(poly(XYZ, "x")), id="PolyIdeal.member"),
        pytest.param(lambda: PolyIdeal(XY, [poly(XYZ, "x")]), id="PolyIdeal"),
        pytest.param(lambda: mideal(XY, "x").contains(mono(XYZ, "x*y")), id="MonomialIdeal.contains"),
        pytest.param(lambda: MonomialIdeal.zero(XY).contains(mono(XYZ, "x")),
                     id="MonomialIdeal.contains-zero"),
        pytest.param(lambda: mideal(XY, "x").intersect(mideal(XYZ, "y")), id="MonomialIdeal.intersect"),
        pytest.param(lambda: mideal(XY, "x") * mideal(XYZ, "y"), id="MonomialIdeal.mul"),
        pytest.param(lambda: symbolic_power_from_decomposition([mideal(XY, "x"), mideal(XYZ, "y")], 2),
                     id="symbolic_power_from_decomposition"),
    ])
    def test_operands_from_two_rings(self, op):
        with pytest.raises(RingMismatchError, match="different rings"):
            op()


class TestIntersect:
    def test_principal(self, R3):
        K = ideal_intersect(pideal(R3, "x"), pideal(R3, "y"))
        assert ideal_equals(K, pideal(R3, "x*y"))

    def test_two_planes(self, R3):
        K = ideal_intersect(pideal(R3, "x", "y"), pideal(R3, "x", "z"))
        expected = pideal(R3, "x", "y*z")
        assert ideal_equals(K, expected)
        # both inclusions by brute membership
        for g in K.generators:
            assert pideal(R3, "x", "y").member(g)
            assert pideal(R3, "x", "z").member(g)
        for g in expected.generators:
            assert K.member(g)

    def test_monomial_inputs_match_lcm_formula(self):
        rng = seeded(406)
        for _ in range(50):
            K = random_monomial_ideal(rng, max_vars=5, max_gens=3, max_degree=4)
            L = random_monomial_ideal(rng, max_vars=5, max_gens=3, max_degree=4)
            if K.ring != L.ring or K.is_zero() or L.is_zero():
                continue
            for intersect in (gb._eliminate, ideal_intersect):
                by_kernel = intersect(poly_ideal_of(K), poly_ideal_of(L))
                assert monomial_ideal_from_poly(by_kernel) == K.intersect(L)

    def test_reserved_variable_is_refused(self):
        # a ring may name its variable @w, but elimination adjoins @w itself;
        # that is bad input (ValueError), not a broken invariant
        R = Ring(("@w", "x"))
        w, x = (Polynomial.variable(R, v) for v in R.variables)
        I, J = PolyIdeal(R, (w - x,)), PolyIdeal(R, (x * x,))
        for run in (lambda: ideal_intersect(I, J), lambda: ideal_quotient(J, w - x)):
            with pytest.raises(ValueError, match="'@w' is reserved"):
                run()

    def test_monomial_inputs_skip_the_kernel(self, R3, monkeypatch):
        runs = []
        run = gb._groebner_entries

        def counted(*args):
            runs.append(args)
            return run(*args)

        monkeypatch.setattr(gb, "_groebner_entries", counted)
        ideal_intersect(pideal(R3, "x^2", "3*y*z"), pideal(R3, "x*y", "z^3", "1"))
        assert not runs
        ideal_intersect(pideal(R3, "x^2", "y*z"), pideal(R3, "x*y - z^2"))
        assert runs

    def test_handed_over_basis_is_reduced(self):
        # every step of the A6 fold at n = 2 hands over a reduced basis: the
        # minimal lcms while both sides are monomial, the w-free entries after
        case = builtin_case_A6()
        inter = ideal_power(case.primes[0], 2)
        for p in case.primes[1:]:
            inter = ideal_intersect(inter, ideal_power(p, 2))
            assert inter.groebner_basis() == buchberger(inter.generators)

    def test_soundness_random(self):
        rng = seeded(407)
        for _ in range(10):
            I = random_poly_ideal(rng)
            J = random_poly_ideal(rng)
            if I.ring != J.ring:
                continue
            K = ideal_intersect(I, J)
            for g in K.generators:
                assert I.member(g) and J.member(g)


def eliminate_reducing_everything(I, J):
    """The basis _eliminate used to hand over, as unpacked term dicts: reduce
    the whole block-order basis, then keep its w-free entries with w dropped.
    The generators w*g and (1-w)*g are formed as polynomials of a ring that
    adjoins w, lifted and packed here, not by the kernel's packed path."""
    ext = Ring((gb.AUX_VARIABLE,) + I.ring.variables)

    def lift(g):
        return Polynomial(ext, {(0,) + e: c for e, c in g.coeffs.items()})

    w = Polynomial.variable(ext, gb.AUX_VARIABLE)
    one_minus_w = Polynomial.constant(ext, 1) - w
    gens = [w * lift(g) for g in I.generators]
    gens += [one_minus_w * lift(g) for g in J.generators]
    L = gb._Layout(BlockElimination(1), ext.nvars, gb._WIDTH)

    def packed(g):  # integer multiple of g, then packed: every input the kernel gets is one
        den = lcm(*(c.denominator for c in g.coeffs.values()))
        return {L.pack(e): int(c * den) for e, c in g.coeffs.items()}

    full = gb._reduced_entries(gb._groebner_entries([packed(g) for g in gens], L), L)
    return [{e[1:]: c for e, c in L.unpack_terms(terms).items()}
            for de, _, terms, _ in full if L.unpack(de)[0] == 0]


def assert_handed_over(K, expected):
    """K holds the degrevlex entries packed from the expected term dicts
    (largest lead first), and its generators are those dicts made primitive
    with the lex-leading term positive."""
    L, entries = K._basis
    assert L.order == DEGREVLEX and L.width == gb._WIDTH
    assert entries == [gb._entry(L.pack_terms(t), L) for t in expected]
    assert [L.unpack_terms(t) for _, _, t, _ in entries] == expected
    assert K.generators == tuple(Polynomial(K.ring, gb._primitive(t)) for t in expected)


def sum_by_list_scan(I, J):
    gens = list(I.generators)
    for g in J.generators:
        if g not in gens:
            gens.append(g)
    return tuple(gens)


def product_by_list_scan(I, J):
    gens = []
    for f in I.generators:
        for g in J.generators:
            fg = f * g
            if fg not in gens:
                gens.append(fg)
    return tuple(gens)


def lcm_basis_by_entries(I, J):
    """The lcm branch's basis as it used to be built, unpacked: a divisor
    entry for every pairwise lcm, minimalized and ordered by _reduced_entries."""
    lcms = {rings._exp_lcm(*g.coeffs, *h.coeffs) for g in I.generators for h in J.generators}
    L = gb._Layout(DEGREVLEX, I.ring.nvars, gb._WIDTH)
    entries = gb._reduced_entries([gb._entry({L.pack(e): 1}, L) for e in lcms], L)
    return [L.unpack_terms(t) for _, _, t, _ in entries]


def same_ring_pairs(rng, count, draw):
    pairs = []
    while len(pairs) < count:
        I, J = draw(rng), draw(rng)
        if I.ring == J.ring:
            pairs.append((I, J))
    return pairs


class TestKernelShortcuts:
    """The shortcuts of the intersection and of sum/product give exactly what
    the formulas they replace give, kept here as oracles."""

    def test_eliminate_reduces_only_the_kept_entries_random(self):
        for I, J in same_ring_pairs(seeded(412), 80, random_poly_ideal):
            assert_handed_over(gb._eliminate(I, J), eliminate_reducing_everything(I, J))

    @pytest.mark.parametrize("name", ["A6", "A7"])
    def test_eliminate_reduces_only_the_kept_entries_square_fold(self, name):
        case = CASES[name]()
        inter = ideal_power(case.primes[0], 2)
        for p in case.primes[1:]:
            P = ideal_power(p, 2)
            expected = eliminate_reducing_everything(inter, P)
            inter = gb._eliminate(inter, P)
            assert_handed_over(inter, expected)

    def test_sum_and_product_keep_the_list_scan_order_random(self):
        rng = seeded(413)
        draws = (random_poly_ideal, lambda r: poly_ideal_of(random_monomial_ideal(r, 3, 4, 3)))
        for k, (I, J) in enumerate(same_ring_pairs(rng, 60, lambda r: r.choice(draws)(r))):
            if k % 3 == 0:  # repeated generators, within I and across I and J
                I = PolyIdeal(I.ring, I.generators + J.generators[:1] + I.generators[:1])
            assert ideal_sum(I, J).generators == sum_by_list_scan(I, J)
            assert ideal_product(I, J).generators == product_by_list_scan(I, J)

    def test_product_with_repeated_products(self, R3):
        I, J = pideal(R3, "x", "y", "x"), pideal(R3, "y", "x", "x - y")
        assert ideal_product(I, J).generators == product_by_list_scan(I, J)
        assert len(ideal_product(I, J).generators) == 5

    def test_lcm_branch_matches_the_entry_formula_random(self):
        rng = seeded(414)

        def draw(r):
            K = random_monomial_ideal(r, max_vars=5, max_gens=5, max_degree=4)
            # monomial generators with any coefficient take the lcm branch
            return PolyIdeal(K.ring, [Polynomial.from_monomial(g, r.choice((1, -2, 3)))
                                      for g in K.generators])

        for I, J in same_ring_pairs(rng, 100, draw):
            assert_handed_over(ideal_intersect(I, J), lcm_basis_by_entries(I, J))

    @pytest.mark.parametrize("which, formed", [("prime", 12), ("ideal", 31)])
    def test_power_forms_each_product_once(self, which, formed, monkeypatch):
        # at n = 4 the nested product forms 2*2 + 3*2 + 4*2 = 18 products for
        # the 2-generator prime, 3*3 + 6*3 + 10*3 = 57 for the 3-generator I;
        # one per multiset of generators is 3 + 4 + 5 and 6 + 10 + 15. The
        # products are formed on packed term dicts, by _times
        case = builtin_case_A6()
        I = case.primes[-1] if which == "prime" else case.ideal
        calls, mul = [], gb._times

        def counted(*args):
            calls.append(1)
            return mul(*args)

        monkeypatch.setattr(gb, "_times", counted)
        power = ideal_power(I, 4)
        monkeypatch.undo()
        assert len(calls) == formed
        assert power.generators == product_by_list_scan(ideal_power(I, 3), I)


def library_built(R3):
    """(label, polynomial) for each way the library builds a polynomial itself."""
    rng = seeded(418)
    f, g = random_polynomial(rng, R3), random_polynomial(rng, R3)
    f, g = f or poly(R3, "x - 2*y"), g or poly(R3, "z^2 + 1")
    I = pideal(R3, "x^2 - y", "x*y - z", "2*y^2*z")
    built = [("sum", f + g), ("sum with an int", f + 3), ("difference", f - g),
             ("difference from an int", 1 - f), ("product", f * g),
             ("product by a Fraction", f * Fraction(-2, 3)), ("negation", -f),
             ("power", f ** 3), ("quotient", divide_exact(f * g, g))]
    built += [("monic", b) for b in buchberger(I.generators)]
    for label, K in (("intersection", ideal_intersect(I, pideal(R3, "x - z"))),
                     ("monomial intersection", ideal_intersect(pideal(R3, "x^2", "y"), pideal(R3, "x*z"))),
                     ("colon", ideal_quotient(I, poly(R3, "x")))):
        built += [(label, h) for h in K.generators]
        built += [(label + " basis", h) for h in K.groebner_basis()]
    return built


class TestBuiltPolynomials:
    """Polynomials the library builds skip the public constructor's checks;
    each must be what those checks would have let through."""

    def test_library_built_polynomials_pass_the_public_checks(self, R3):
        for label, p in library_built(R3):
            assert Polynomial(p.ring, dict(p.coeffs)) == p, label
            assert all(type(c) is Fraction and c for c in p.coeffs.values()), label

    def test_packed_elimination_builds_only_its_generators(self, monkeypatch):
        # the elimination forms w*g and (1-w)*g on packed terms: no extended
        # ring and no polynomial is built but the generators it hands over
        case = builtin_case_A6()
        I, P = case.ideal, ideal_power(case.primes[-1], 2)
        built = counting_builds(monkeypatch)
        K = ideal_intersect(I, P)
        assert built == {"Polynomial": len(K.generators), "Ring": 0}
        assert K.generators

    @pytest.mark.parametrize("prepare, text", [
        ("meet_monomials", "(x^2*z^3, y*z^3, x^2*y, x*y^2, x*y*z)"),
        ("eliminate", "(x^2*z^3, x^3*y - x^2*z^2 - x*y^2 + y*z^2, y*z^3, x*y*z)"),
        ("fold_a7_cube", "sha256 44785fde63bd85222a42e799233a628d2e2bef05bc4da580335c83fafd609c21"),
    ])
    def test_library_ideals_build_nothing_until_read(self, prepare, text, monkeypatch):
        # an intersection holds its packed basis entries and a power its packed
        # products, so no polynomial is built until the generators or the text
        # are read, and then the text is the pinned one. The fold's progress
        # lines count the entries
        run = globals()[prepare]()  # the inputs are built before the count starts
        built = counting_builds(monkeypatch)
        K, lines = run()
        assert built == {"Polynomial": 0, "Ring": 0} and not K.is_zero()
        got = str(K)
        assert built["Polynomial"] == len(K.generators)
        if lines is not None:
            got = "sha256 " + hashlib.sha256(got.encode()).hexdigest()
            assert lines == [f"intersected {i}/12 ideals ({k} generators so far)"
                             for i, k in enumerate((4, 6, 8, 8, 10, 10, 20, 17, 27, 14, 13), start=2)]
        assert got == text


def meet_monomials():
    I, J = pideal(XYZ, "x^2", "3*y*z", "-2*x*y^2"), pideal(XYZ, "x*y", "z^3")
    return lambda: (ideal_intersect(I, J), None)


def eliminate():
    I, J = pideal(XYZ, "x^2 - y", "y*z"), pideal(XYZ, "x*y - z^2", "-2*z^3")
    return lambda: (ideal_intersect(I, J), None)


def fold_a7_cube():
    primes, lines = builtin_case_A7().primes, []
    return lambda: (symbolic_power_from_primes(primes, 3, progress=lines.append), lines)


def counting_builds(monkeypatch):
    """A dict that counts the Polynomials (public and trusted) and the Rings
    built from here on, until monkeypatch undoes it."""
    built = {"Polynomial": 0, "Ring": 0}
    init, trusted, ring_init = Polynomial.__init__, Polynomial._trusted.__func__, Ring.__init__

    def counted_init(self, *args):
        built["Polynomial"] += 1
        init(self, *args)

    def counted_trusted(cls, *args):
        built["Polynomial"] += 1
        return trusted(cls, *args)

    def counted_ring(self, *args):
        built["Ring"] += 1
        ring_init(self, *args)

    monkeypatch.setattr(Polynomial, "__init__", counted_init)
    monkeypatch.setattr(Polynomial, "_trusted", classmethod(counted_trusted))
    monkeypatch.setattr(Ring, "__init__", counted_ring)
    return built


class TestPairLoopLeads:
    """_reduced_entries selects the minimal entries by lead, which is exact
    only when the leads it is handed are pairwise distinct."""

    def test_pair_loop_leads_are_distinct_random(self):
        rng = seeded(416)
        for _ in range(40):
            I = random_poly_ideal(rng)
            for order in (DEGREVLEX, BlockElimination(1)):
                L = gb._Layout(order, I.ring.nvars, gb._WIDTH)
                entries = gb._groebner_entries([gb._packed(g, L) for g in I.generators], L)
                assert len({d[0] for d in entries}) == len(entries)

    def test_divided_leads_are_distinct_random(self):
        rng = seeded(417)
        for _ in range(40):
            I = random_poly_ideal(rng)
            f = random_polynomial(rng, I.ring)
            if f.is_zero():
                continue
            gens = ideal_quotient(I, f).generators
            entries = gb._prepare_divisors(gens, gb._Layout(DEGREVLEX, I.ring.nvars, gb._WIDTH))
            assert len({d[0] for d in entries}) == len(entries)


class TestQuotient:
    def test_examples(self, R3):
        x = poly(R3, "x")
        assert ideal_equals(ideal_quotient(pideal(R3, "x^2"), x), pideal(R3, "x"))
        I = pideal(R3, "x*y - z^2", "y^3")
        one = Polynomial.constant(R3, 1)
        assert ideal_equals(ideal_quotient(I, one), I)

    def test_recorded_colon(self):
        case = builtin_case_A6()
        colon = ideal_quotient(case.square(), case.witness)
        assert ideal_equals(colon, case.expected_colon)

    def test_quotient_laws_random(self, R3):
        rng = seeded(408)
        for _ in range(10):
            I = random_poly_ideal(rng, max_vars=3)
            f = random_polynomial(rng, I.ring)
            if f.is_zero():
                continue
            Q = ideal_quotient(I, f)
            for g in Q.generators:
                assert I.member(g * f)
            for g in I.generators:
                assert Q.member(g)

    def test_divide_exact_raises_on_remainder(self, R3):
        with pytest.raises(gb.InternalInvariantError):
            divide_exact(poly(R3, "x^2 + y"), poly(R3, "x"))


class TestEquals:
    def test_permuted_and_scaled(self, R3):
        I = pideal(R3, "x*y - z", "z^2")
        J = PolyIdeal(R3, (poly(R3, "z^2") * 3, poly(R3, "x*y - z") * -2))
        assert ideal_equals(I, J)
        assert ideal_equals(pideal(R3, "x"), PolyIdeal(R3, (poly(R3, "x") * 2,)))

    def test_recorded_square_identity(self):
        from sympow.counterexamples import symbolic_square_generators

        case = builtin_case_A6()
        assert ideal_equals(
            symbolic_power_from_primes(case.primes, 2),
            symbolic_square_generators(case, case.witness),
        )

    def test_order_invariance_random(self):
        rng = seeded(409)
        cases = 0
        while cases < 20:
            I = random_poly_ideal(rng)
            J = random_poly_ideal(rng)
            if I.ring != J.ring:
                continue
            cases += 1
            # equality of reduced lex bases must give the same verdict
            v1 = ideal_equals(I, J)
            v2 = buchberger(I.generators, LEX) == buchberger(J.generators, LEX)
            assert v1 == v2
            # an ideal equals its rescaled self under both orders
            K = PolyIdeal(I.ring, tuple(g * -3 for g in I.generators))
            assert ideal_equals(I, K)
            assert buchberger(I.generators, LEX) == buchberger(K.generators, LEX)
