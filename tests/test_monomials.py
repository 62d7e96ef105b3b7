"""Monomial and monomial-ideal arithmetic, with brute-force oracles."""

from fractions import Fraction
from operator import le

import pytest
from conftest import mideal, mono, random_monomial, random_monomial_ideal, seeded

from sympow import Monomial, MonomialIdeal, Ring, RingMismatchError, minimalize


@pytest.fixture
def R4():
    return Ring(("x", "y", "z", "t"))


def naive_minimal(gens):
    # independent reduction: keep g unless a different kept/unkept divisor exists
    out = []
    for g in gens:
        if any(h.divides(g) and h != g for h in gens):
            continue
        if g not in out:
            out.append(g)
    return set(out)


class TestConstruction:
    @pytest.mark.parametrize("exps", [(0.5, 0, 0), (Fraction(1, 2), 0, 0)],
                             ids=["float", "fraction"])
    def test_non_integer_exponent_is_refused(self, exps):
        # such a monomial used to be built and print as an empty string
        with pytest.raises(ValueError, match="non-integer exponent"):
            Monomial(Ring(("x", "y", "z")), exps)

    def test_list_exponents_are_stored_as_a_tuple(self):
        # a list used to be stored as given: unhashable, and unequal to the tuple form
        R = Ring(("x", "y", "z"))
        m, t = Monomial(R, [1, 0, 2]), Monomial(R, (1, 0, 2))
        assert m.exponents == (1, 0, 2) and m == t and hash(m) == hash(t)
        assert MonomialIdeal(R, [m]) == MonomialIdeal(R, [t])

    @pytest.mark.parametrize("index", [-1, 3, 0.5])
    def test_from_variables_refuses_an_index_out_of_range(self, index):
        with pytest.raises(ValueError, match="variable index out of range"):
            MonomialIdeal.from_variables(Ring(("x", "y", "z")), [0, index])


class TestLcmDivides:
    def test_lcm_examples(self, R4):
        assert mono(R4, "x*z").lcm(mono(R4, "x*t^2")) == mono(R4, "x*z*t^2")
        u = mono(R4, "x^2*y*t")
        assert u.lcm(u) == u

    def test_lcm_six_vars(self):
        R = Ring(("a", "b", "c", "d", "e", "f"))
        assert mono(R, "a*b*c").lcm(mono(R, "a*b*f")) == mono(R, "a*b*c*f")

    def test_divides(self, R4):
        assert mono(R4, "x").divides(mono(R4, "x^2*y"))
        assert R4.one().divides(mono(R4, "x^2*z*t"))
        assert not mono(R4, "x*z").divides(mono(R4, "x*t^2"))

    def test_ring_mismatch(self, R4):
        other = Ring(("x", "y"))
        with pytest.raises(RingMismatchError):
            mono(R4, "x").lcm(other.variable("x"))
        with pytest.raises(RingMismatchError):
            mono(R4, "x").divides(other.variable("x"))

    def test_lcm_laws_random(self, R4):
        rng = seeded(101)
        for _ in range(100):
            u, v, w = (random_monomial(rng, R4, 6) for _ in range(3))
            assert u.lcm(v) == v.lcm(u)
            assert u.lcm(u) == u
            assert u.lcm(v.lcm(w)) == u.lcm(v).lcm(w)
            assert u.divides(u.lcm(v)) and v.divides(u.lcm(v))


class TestMinimalize:
    def test_divisible_generator_dropped(self, R4):
        I = mideal(R4, "x*z", "x*z*t^2", "x*t^2")
        assert I == mideal(R4, "x*z", "x*t^2")

    def test_empty_is_zero(self, R4):
        assert MonomialIdeal(R4).is_zero()

    def test_recorded_six_generators_with_multiples(self, R4):
        six = ["x^2*z^2", "x^2*z*t^2", "x*y^2*z^2", "x^2*t^4", "x*y^2*z*t^2", "y^4*z^2"]
        padded = six + ["x^3*z^2", "x^2*z^2*t", "x*y^3*z^2*t^3"]
        assert mideal(R4, *padded) == mideal(R4, *six)
        assert len(mideal(R4, *padded).generators) == 6

    @pytest.mark.parametrize("where", ["first", "last", "divisible"])
    @pytest.mark.parametrize("foreign", [Ring(("x", "y")), Ring(("a", "b", "c", "d"))],
                             ids=["fewer-vars", "same-nvars"])
    def test_foreign_ring_monomial_is_refused(self, R4, foreign, where):
        # the ring is checked once per input, not per divisibility test, so a
        # foreign monomial must be caught wherever it sits, even when a
        # same-ring generator divides its exponents and the scan would drop it
        stranger = foreign.monomial((1, 1) + (0,) * (foreign.nvars - 2))
        own = [mono(R4, "x*z"), mono(R4, "y^2"), mono(R4, "z*t")]
        gens = {"first": [stranger] + own, "last": own + [stranger],
                "divisible": [mono(R4, "x")] + own + [stranger]}[where]
        with pytest.raises(RingMismatchError, match="different rings"):
            minimalize(R4, gens)
        with pytest.raises(RingMismatchError, match="different rings"):
            MonomialIdeal(R4, gens)

    def test_idempotent_random(self):
        rng = seeded(102)
        for _ in range(50):
            I = random_monomial_ideal(rng)
            assert MonomialIdeal(I.ring, I.generators) == I

    def test_superset_of_multiples_same_canonical_form(self):
        rng = seeded(103)
        for _ in range(50):
            I = random_monomial_ideal(rng)
            gens = list(I.generators)
            for g in list(gens):
                gens.append(g * random_monomial(rng, I.ring, 3))
            rng.shuffle(gens)
            assert MonomialIdeal(I.ring, gens) == I
            # no divisibility pair survives
            for i, u in enumerate(I.generators):
                for j, v in enumerate(I.generators):
                    assert i == j or not u.divides(v)


class TestIntersect:
    def test_principal(self, R4):
        assert mideal(R4, "x").intersect(mideal(R4, "y")) == mideal(R4, "x*y")

    def test_recorded_decomposition(self, R4):
        got = (
            mideal(R4, "x", "y^2")
            .intersect(mideal(R4, "z", "t^2"))
            .intersect(mideal(R4, "x", "z"))
        )
        assert got == mideal(R4, "x*z", "x*t^2", "y^2*z")

    def test_unit_identity(self, R4):
        K = mideal(R4, "x*y", "z^3")
        assert K.intersect(MonomialIdeal.unit(R4)) == K

    def test_layout_width_edges(self):
        # the packed meet's fields hold the sum of the sides' largest degrees,
        # the largest degree an lcm can reach: sums of 2^k - 1 fill a field to
        # its top, sums of 2^k need the next bit, and exponents near 2^20 go
        # far past the Groebner kernel's starting width; nothing overflows
        R = Ring(("x", "y", "z"))

        def by_definition(a, b):
            lcms = {tuple(map(max, u, v)) for u in a for v in b}
            keep = [m for m in lcms if not any(d != m and all(map(le, d, m)) for d in lcms)]
            return tuple(sorted(keep, key=lambda e: (sum(e), e)))

        ks = (1, 2, 3, 5, 8, 16, 20)
        zero, unit = MonomialIdeal.zero(R), MonomialIdeal.unit(R)
        cases = [(zero, zero), (unit, unit), (unit, zero)]
        cases += [(unit, mideal(R, "x^3", "y*z")), (zero, mideal(R, "x^3", "y*z"))]
        for k in ks:
            for total in (2**k - 1, 2**k):
                da = total // 2
                a = [(da, 0, 0), (0, 0, 1)] if da else [(0, 0, 0)]
                b = [(0, total - da - 1, 1), (0, total - da, 0)]
                cases.append((MonomialIdeal(R, map(R.monomial, a)), MonomialIdeal(R, map(R.monomial, b))))
        near = 1 << 20
        cases.append((MonomialIdeal(R, [R.monomial((near - 1, 0, 1)), R.monomial((0, 2, 0))]),
                      MonomialIdeal(R, [R.monomial((1, near + 1, 0)), R.monomial((0, 0, near))])))
        reached = set()
        for I, J in cases:
            for left, right in ((I, J), (J, I)):
                got = left.intersect(right).exps
                assert got == by_definition(left.exps, right.exps)
                top = sum(sum(K.exps[-1]) for K in (left, right) if K.exps)
                if got and sum(got[-1]) == top:
                    reached.add(top)
        # in every edge case an lcm of the result reaches the summed degree
        assert {t for k in ks for t in (2**k - 1, 2**k)} <= reached

    def test_membership_oracle_random(self):
        rng = seeded(104)
        checked = 0
        while checked < 200:
            K = random_monomial_ideal(rng, max_vars=5)
            L = random_monomial_ideal(rng, max_vars=5)
            if K.ring != L.ring:
                continue
            KL = K.intersect(L)
            for _ in range(5):
                w = random_monomial(rng, K.ring, 8)
                assert KL.contains(w) == (K.contains(w) and L.contains(w))
                checked += 1


class TestProductPower:
    def test_product_examples(self, R4):
        assert mideal(R4, "x") * mideal(R4, "y") == mideal(R4, "x*y")
        K = mideal(R4, "x*y", "z^2")
        assert K * MonomialIdeal.unit(R4) == K
        assert mideal(R4, "x", "y") * mideal(R4, "x", "y") == mideal(
            R4, "x^2", "x*y", "y^2"
        )

    def test_power_examples(self, R4):
        assert mideal(R4, "x", "z").power(2) == mideal(R4, "x^2", "x*z", "z^2")
        I = mideal(R4, "x*z", "x*t^2", "y^2*z")
        assert I.power(1) == I
        assert I.power(0) == MonomialIdeal.unit(R4)

    def test_square_against_bruteforce(self, R4):
        I = mideal(R4, "x*z", "x*t^2", "y^2*z")
        pairs = [u * v for u in I.generators for v in I.generators]
        expected = MonomialIdeal(R4, pairs)
        got = I.power(2)
        assert got == expected
        assert all(g.degree <= 6 for g in got.generators)

    def test_power_law_random(self):
        rng = seeded(105)
        for _ in range(25):
            I = random_monomial_ideal(rng, max_vars=4, max_gens=4, max_degree=3)
            for a, b in ((1, 1), (1, 2), (2, 2)):
                assert I.power(a) * I.power(b) == I.power(a + b)


class TestQuotientSaturate:
    def test_quotient_examples(self, R4):
        assert mideal(R4, "x^2").quotient(mono(R4, "x")) == mideal(R4, "x")
        I = mideal(R4, "x*y", "z^2")
        assert I.quotient(R4.one()) == I
        assert mideal(R4, "x*y", "z").quotient(mono(R4, "x")) == mideal(R4, "y", "z")

    def test_saturate_examples(self, R4):
        assert mideal(R4, "x^2*y").saturate(mono(R4, "y")) == mideal(R4, "x^2")
        # a generator supported inside u saturates to the unit ideal
        assert mideal(R4, "y^2*t").saturate(mono(R4, "y*t")).is_unit()

    def test_saturate_square_bruteforce(self, R4):
        I = mideal(R4, "x*z", "x*t^2", "y^2*z").power(2)
        u = mono(R4, "y*t")
        current = I
        while True:
            nxt = current.quotient(u)
            if nxt == current:
                break
            current = nxt
        assert I.saturate(u) == current
        assert current.contains(mono(R4, "x^2"))

    def test_saturate_matches_iterated_quotient_random(self):
        def iterated_quotient(I, u):
            # the definition: (I : u^k) for k = 1, 2, ... until it stops growing
            current = I
            while True:
                nxt = current.quotient(u)
                if nxt == current:
                    return current
                current = nxt

        rng = seeded(108)
        for _ in range(100):
            I = random_monomial_ideal(rng)
            g = rng.choice(I.generators)
            covering = g.radical() * random_monomial(rng, I.ring, 2)
            for u in (random_monomial(rng, I.ring, 4), I.ring.one(), covering):
                assert I.saturate(u) == iterated_quotient(I, u)
            assert I.saturate(I.ring.one()) == I
            # u covers the support of g, so g becomes a unit
            assert I.saturate(covering).is_unit()

    def test_quotient_law_random(self):
        rng = seeded(106)
        for _ in range(50):
            I = random_monomial_ideal(rng)
            u = random_monomial(rng, I.ring, 4)
            for g in I.quotient(u).generators:
                assert I.contains(u * g)

    def test_saturation_step_bound_random(self):
        rng = seeded(107)
        for _ in range(50):
            I = random_monomial_ideal(rng)
            if I.is_zero():
                continue
            u = random_monomial(rng, I.ring, 3)
            bound = I.lcm_of_generators().degree
            steps = 0
            current = I
            while True:
                nxt = current.quotient(u)
                if nxt == current:
                    break
                current = nxt
                steps += 1
                assert steps <= bound


class TestContainsStatsRadical:
    def test_contains_examples(self, R4):
        I = mideal(R4, "x*z", "x*t^2", "y^2*z")
        assert I.contains(mono(R4, "x*y^2*z"))
        assert not MonomialIdeal.zero(R4).contains(mono(R4, "x"))
        sq = I.power(2)
        for u in I.generators:
            for v in I.generators:
                assert sq.contains(u * v)

    def test_degree_stats(self, R4):
        I = mideal(R4, "x*z", "x*t^2", "y^2*z")
        stats = I.degree_stats()
        assert (stats.max_gen_degree, stats.beg, stats.count) == (3, 2, 3)
        unit = MonomialIdeal.unit(R4).degree_stats()
        assert (unit.max_gen_degree, unit.beg, unit.count) == (0, 0, 1)
        zero = MonomialIdeal.zero(R4).degree_stats()
        assert (zero.max_gen_degree, zero.beg, zero.count) == (None, None, 0)

    def test_radical(self, R4):
        assert mideal(R4, "x^2", "x*y^3").radical() == mideal(R4, "x")
        I = mideal(R4, "x*z", "y*t")
        assert I.radical() == I
        assert mideal(R4, "x", "y^2").power(2).radical() == mideal(R4, "x", "y")


def colon(g, u):
    """Generator-level quotient: exponentwise max(g - u, 0)."""
    return g.ring.monomial(tuple(max(a - b, 0) for a, b in zip(g.exponents, u.exponents)))


def canonical(gens):
    return tuple(sorted(naive_minimal(gens), key=lambda m: (m.degree, m.exponents)))


def assert_canonical(J):
    """J equals, hash included, its generators rebuilt by the public constructor."""
    again = MonomialIdeal(J.ring, J.generators)
    assert J == again and hash(J) == hash(again)


class TestOperationsOnTuples:
    """The ideal operations form candidate exponent tuples directly and hand
    them to the trusted constructor; the Monomial formulas they replace,
    minimalized by the pairwise oracle, are kept here to check them, and
    every result must equal its generators rebuilt through `minimalize`."""

    def test_operations_match_monomial_formulas_random(self):
        rng = seeded(109)
        checked = 0
        while checked < 150:
            I, J = random_monomial_ideal(rng), random_monomial_ideal(rng)
            if I.ring != J.ring:
                continue
            checked += 1
            u = random_monomial(rng, I.ring, 4)
            assert I.intersect(J).generators == canonical(
                [g.lcm(h) for g in I.generators for h in J.generators])
            assert (I * J).generators == canonical(
                [g * h for g in I.generators for h in J.generators])
            assert I.quotient(u).generators == canonical([colon(g, u) for g in I.generators])
            assert I.radical().generators == canonical([g.radical() for g in I.generators])
            for w in (u, *J.generators):  # membership by its definition
                assert I.contains(w) == any(g.divides(w) for g in I.generators)
            assert I.issubset(J) == all(any(h.divides(g) for h in J.generators) for g in I.generators)
            assert I.intersect(J).issubset(I) and (I * J).issubset(J)
            current = I  # saturation by its definition, iterated colons
            while True:
                nxt = MonomialIdeal(I.ring, [colon(g, u) for g in current.generators])
                if nxt == current:
                    break
                current = nxt
            assert I.saturate(u).generators == current.generators
            assert I.power(2).generators == canonical(
                [g * h for g in I.generators for h in I.generators])
            indices = [rng.randrange(I.ring.nvars) for _ in range(rng.randint(0, 3))]
            assert MonomialIdeal.from_variables(I.ring, indices) == MonomialIdeal(
                I.ring, [I.ring.variable(I.ring.variables[i]) for i in indices])
            assert MonomialIdeal.unit(I.ring) == MonomialIdeal(I.ring, [I.ring.one()])
            for result in (I.intersect(J), I * J, I.quotient(u), I.radical(), I.saturate(u),
                           *(I.power(k) for k in range(4)), MonomialIdeal.unit(I.ring),
                           MonomialIdeal.zero(I.ring), MonomialIdeal.from_variables(I.ring, indices)):
                assert_canonical(result)

    @pytest.mark.parametrize("op", ["intersect", "__mul__", "issubset"])
    @pytest.mark.parametrize("theirs", ["zero", "unit", "nonzero"])
    @pytest.mark.parametrize("ours", ["zero", "unit", "nonzero"])
    def test_foreign_ideal_is_refused(self, ours, theirs, op):
        R, S = Ring(("x", "y")), Ring(("a", "b", "c"))
        make = {"zero": MonomialIdeal.zero, "unit": MonomialIdeal.unit,
                "nonzero": lambda ring: MonomialIdeal.from_variables(ring, (0, 1))}
        with pytest.raises(RingMismatchError, match="different rings"):
            getattr(make[ours](R), op)(make[theirs](S))

    @pytest.mark.parametrize("op", ["quotient", "saturate", "contains"])
    @pytest.mark.parametrize("u", ["1", "a", "a*b^2*c"])
    @pytest.mark.parametrize("ours", ["zero", "unit", "nonzero"])
    def test_foreign_monomial_is_refused(self, ours, u, op):
        R, S = Ring(("x", "y")), Ring(("a", "b", "c"))
        I = {"zero": MonomialIdeal.zero(R), "unit": MonomialIdeal.unit(R),
             "nonzero": mideal(R, "x^2", "x*y")}[ours]
        with pytest.raises(RingMismatchError, match="different rings"):
            getattr(I, op)(mono(S, u))


class TestDeterminism:
    def test_shuffled_generators_same_output(self):
        rng = seeded(108)
        for _ in range(25):
            I = random_monomial_ideal(rng)
            gens = list(I.generators)
            rng.shuffle(gens)
            J = MonomialIdeal(I.ring, gens)
            assert J.generators == I.generators
            u = random_monomial(rng, I.ring, 4)
            assert I.quotient(u).generators == J.quotient(u).generators
            assert I.intersect(J).generators == I.generators
