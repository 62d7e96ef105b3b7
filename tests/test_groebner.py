"""Groebner kernel: division, Buchberger, ideal operations, self-checks."""

import hashlib
import re
from itertools import combinations_with_replacement
from fractions import Fraction
from math import gcd

import pytest
from basis_oracle import LEX, normal_form, s_polynomial, verify_basis
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

import sympow.groebner as gb
import sympow.ideals as ideals
import sympow.rings as rings
from sympow import (
    DEGREVLEX,
    BlockElimination,
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
        # one definition each, in rings, shared by both engines
        for name in ("_exp_mul", "_exp_divides", "_exp_lcm", "_support", "_minimal", "_intersection"):
            assert getattr(gb, name) is getattr(rings, name)
        for name in ("_minimal", "_intersection", "_has_divisor"):
            assert getattr(ideals, name) is getattr(rings, name)
        for a, b in self.pairs():
            mul = tuple(x + y for x, y in zip(a, b))
            divides = all(x <= y for x, y in zip(a, b))
            lcm = tuple(max(x, y) for x, y in zip(a, b))
            assert gb._exp_mul(a, b) == mul
            assert gb._exp_divides(a, b) == divides
            assert gb._exp_lcm(a, b) == lcm
            assert gb._support(a) == sum(1 << i for i, x in enumerate(a) if x)
            ring = Ring(tuple(f"x{i}" for i in range(len(a))))
            u, v = ring.monomial(a), ring.monomial(b)
            assert u.divides(v) == divides
            assert u.lcm(v) == ring.monomial(lcm)
            assert u * v == ring.monomial(mul)

    def test_masks_agree_with_exponents(self):
        divisible = coprime = 0
        for a, b in self.pairs():
            ma, mb = gb._support(a), gb._support(b)
            if gb._exp_divides(a, b):
                divisible += 1
                assert not ma & ~mb
            disjoint = not ma & mb
            coprime += disjoint
            assert disjoint == (sum(gb._exp_lcm(a, b)) == sum(a) + sum(b))
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
        # agreement with each other would not check it
        fired = [0, 0]
        for a, b in self.intersection_cases():
            expected = self.minimal_by_pairs(
                [tuple(max(x, y) for x, y in zip(u, v)) for u in a for v in b])
            assert rings._intersection(a, b) == expected
            assert rings._intersection(iter(a), iter(b)) == expected
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


class TestDivisionReference:
    """normal_form and s_polynomial against Fraction arithmetic, with divisors
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
            assert normal_form(f, G, order) == long_division(f, G, order)

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


class TestPinnedBases:
    """sha256 of repr(groebner_basis()) for the paper's ideals: a change to the
    pair selection or pruning that alters any basis byte fails here. The
    number of S-polynomials a fold forms is pinned too."""

    @pytest.mark.parametrize("name, n, digest", [
        ("A6", 2, "faac5c18702d80b54973b67f31cf018b4440218b566cfa9dad08d3a13bc5cb7d"),
        ("A6", 3, "0a3b3760b9aabcd61465049b51626359cb2ed7fc1e875d53b2cac61ca6a517d8"),
        ("A6", 4, "3c7276fd32542b3e464429feb8a6492c7447cfb8aafa905eb6f867c87f5c8240"),
        ("A7", 2, "3cb6bfa635070c53290f0a12335e38b66f5a9f0e51dd3e4fd560f85cbf3a8218"),
        ("A7", 3, "7d3f43b29ffb81179ba1167c636ed51f3945d5de4a8f347a09e5f26d325d7c21"),
        ("A7", 4, "eb38d34edc4ac6cc73fb15f351ad084c8b71a84ae4539bf968bebeb149ce0e22"),
    ], ids=["A6-n2", "A6-n3", "A6-n4", "A7-n2", "A7-n3", "A7-n4"])
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

    @pytest.mark.parametrize("name, fold, formed, lcms", [
        ("A6", "_eliminate", 291, 1426),
        ("A7", "_eliminate", 298, 1497),
        ("A6", "ideal_intersect", 81, 507),
        ("A7", "ideal_intersect", 30, 246),
    ], ids=["A6", "A7", "A6-dispatch", "A7-dispatch"])
    def test_s_polynomials_formed_by_the_square_fold(self, name, fold, formed, lcms,
                                                     monkeypatch):
        # a pair criterion that wrongly keeps a pair still ends at the same
        # reduced basis, only slower; the count of S-polynomials shows it.
        # The lcms count the pair candidates, so a stale element that the
        # active filter should have dropped shows there too. Folding through
        # elimination alone runs the kernel on every step; the dispatching
        # fold intersects the monomial primes with rings._intersection, whose
        # lcms are counted too. It forms lcms only between the generators
        # that do not lie in the other ideal, so its count is the smaller one
        calls = {"_s_terms": 0, "_exp_lcm": 0}

        def counting(module, name):
            run = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return run(*args)

            monkeypatch.setattr(module, name, counted)

        counting(gb, "_s_terms")
        counting(gb, "_exp_lcm")
        counting(rings, "_exp_lcm")
        prime_power_fold(CASES[name](), 2, getattr(gb, fold))
        assert calls == {"_s_terms": formed, "_exp_lcm": lcms}


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
    """The basis _eliminate used to hand over: reduce the whole block-order
    basis, then keep its w-free entries with w dropped."""
    ext = gb._extended_ring(I.ring)
    w = Polynomial.variable(ext, gb.AUX_VARIABLE)
    one_minus_w = Polynomial.constant(ext, 1) - w
    gens = [w * gb._lift(g, ext) for g in I.generators]
    gens += [one_minus_w * gb._lift(g, ext) for g in J.generators]
    order = BlockElimination(1)
    full = gb._reduced_entries(gb._groebner_entries(gens, order), order)
    return [(de[1:], dc, {e[1:]: c for e, c in terms.items()}, dmask >> 1)
            for de, dc, terms, dmask in full if de[0] == 0]


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
    """The lcm branch's basis as it used to be built: a divisor entry for
    every pairwise lcm, minimalized and ordered by _reduced_entries."""
    lcms = {rings._exp_lcm(*g.coeffs, *h.coeffs) for g in I.generators for h in J.generators}
    return gb._reduced_entries([gb._entry({L: 1}, DEGREVLEX) for L in lcms], DEGREVLEX)


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
            K = gb._eliminate(I, J)
            expected = eliminate_reducing_everything(I, J)
            assert K._basis == expected
            assert K.generators == tuple(Polynomial(I.ring, t) for _, _, t, _ in expected)

    @pytest.mark.parametrize("name", ["A6", "A7"])
    def test_eliminate_reduces_only_the_kept_entries_square_fold(self, name):
        case = CASES[name]()
        inter = ideal_power(case.primes[0], 2)
        for p in case.primes[1:]:
            P = ideal_power(p, 2)
            expected = eliminate_reducing_everything(inter, P)
            inter = gb._eliminate(inter, P)
            assert inter._basis == expected

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
            assert ideal_intersect(I, J)._basis == lcm_basis_by_entries(I, J)


class TestPairLoopLeads:
    """_reduced_entries selects the minimal entries by lead, which is exact
    only when the leads it is handed are pairwise distinct."""

    def test_pair_loop_leads_are_distinct_random(self):
        rng = seeded(416)
        for _ in range(40):
            I = random_poly_ideal(rng)
            for order in (DEGREVLEX, BlockElimination(1)):
                entries = gb._groebner_entries(I.generators, order)
                assert len({d[0] for d in entries}) == len(entries)

    def test_divided_leads_are_distinct_random(self):
        rng = seeded(417)
        for _ in range(40):
            I = random_poly_ideal(rng)
            f = random_polynomial(rng, I.ring)
            if f.is_zero():
                continue
            gens = ideal_quotient(I, f).generators
            entries = gb._prepare_divisors(gens, DEGREVLEX)
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
