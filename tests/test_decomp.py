"""Decompositions and the three symbolic-power paths, cross-checked."""

from itertools import combinations, combinations_with_replacement, product
from operator import le

import pytest
from conftest import cycle_ideal, mideal, mono, random_monomial_ideal, random_squarefree_ideal, seeded

from sympow import (
    Decomposition,
    MonomialIdeal,
    NotSquarefreeError,
    Ring,
    VariablePrime,
    associated_primes,
    irreducible_decomposition,
    minimal_primes,
    minimal_variable_primes,
    symbolic_power,
    symbolic_power_from_decomposition,
    symbolic_power_saturation,
    symbolic_power_squarefree,
)
from sympow import decomp, ideals, rings
from sympow.cases import case_ex31, case_ex32


def colon_primes(exps):
    """The primes (I : u) over the monomials u outside I with u <= lcm(I)
    exponentwise, by hand from the exponent tuples of I's generators.

    (I : u) has the generators max(g - u, 0); it is the prime spanned by
    V, the variables among them, exactly when it is proper and every
    generator is divisible by a variable of V."""
    primes = set()
    top = [max(col) for col in zip(*exps)]
    for u in product(*(range(a + 1) for a in top)):
        quotient = [tuple(max(g - x, 0) for g, x in zip(e, u)) for e in exps]
        if any(not any(q) for q in quotient):  # u in I
            continue
        V = {q.index(1) for q in quotient if sum(q) == 1}
        if all(any(q[i] for i in V) for q in quotient):
            primes.add(tuple(sorted(V)))
    return primes


def brute_minimal_covers(edges, nvars):
    # raw 2^m enumeration, the independent oracle for the Alexander-dual fold
    covers = []
    for r in range(nvars + 1):
        for subset in combinations(range(nvars), r):
            s = set(subset)
            if all(s & set(e) for e in edges):
                covers.append(frozenset(s))
    minimal = [c for c in covers if not any(d < c for d in covers)]
    return set(minimal)


@pytest.fixture
def R2():
    return Ring(("x", "y"))


class TestMinimalPrimes:
    def test_principal_product(self, R2):
        dec = minimal_primes(mideal(R2, "x*y"))
        assert set(dec.components) == {mideal(R2, "x"), mideal(R2, "y")}

    def test_already_prime(self, R2):
        dec = minimal_primes(mideal(R2, "x", "y"))
        assert dec.components == (mideal(R2, "x", "y"),)

    def test_terai_against_bruteforce(self):
        I = case_ex32().ideal
        primes = minimal_variable_primes(I)
        got = {frozenset(p.variables) for p in primes}
        expected = brute_minimal_covers(
            [g.support() for g in I.generators], I.ring.nvars
        )
        assert got == expected
        # intersecting the primes recovers the ideal
        dec = minimal_primes(I)
        assert dec.intersection() == I

    def test_order_is_pinned(self):
        # sorted by (size, indices): the path x-y-z-t-u, then Terai's ideal
        R = Ring(("x", "y", "z", "t", "u"))
        path = mideal(R, "x*y", "y*z", "z*t", "t*u")
        assert [p.variables for p in minimal_variable_primes(path)] == [
            (1, 3), (0, 2, 3), (0, 2, 4), (1, 2, 4)]
        assert [p.variables for p in minimal_variable_primes(case_ex32().ideal)] == [
            (0, 1, 2), (0, 1, 5), (0, 2, 4), (0, 3, 4), (0, 3, 5),
            (1, 2, 3), (1, 3, 4), (1, 4, 5), (2, 3, 5), (2, 4, 5)]

    @pytest.mark.parametrize("k", [8, 10])
    def test_cycle_against_bruteforce(self, k):
        edges = [(i, (i + 1) % k) for i in range(k)]
        cycle = cycle_ideal(k)
        primes = minimal_variable_primes(cycle)
        assert {frozenset(p.variables) for p in primes} == brute_minimal_covers(edges, k)
        assert len(primes) == len({p.variables for p in primes})
        assert minimal_primes(cycle).intersection() == cycle

    def test_antichain_random(self):
        rng = seeded(201)
        for _ in range(50):
            I = random_squarefree_ideal(rng)
            primes = minimal_variable_primes(I)
            sets = [set(p.variables) for p in primes]
            for a, b in combinations(sets, 2):
                assert not (a <= b or b <= a)
            got = {frozenset(s) for s in sets}
            oracle = brute_minimal_covers(
                [g.support() for g in I.generators], I.ring.nvars
            )
            assert got == oracle
            assert minimal_primes(I).intersection() == I

    def test_rejects_non_squarefree(self):
        R = Ring(("x", "y"))
        with pytest.raises(NotSquarefreeError):
            minimal_primes(mideal(R, "x^2"))
        with pytest.raises(ValueError):
            minimal_primes(MonomialIdeal.zero(R))
        with pytest.raises(ValueError):
            minimal_primes(MonomialIdeal.unit(R))


class TestIrreducible:
    def test_squarefree_split(self, R2):
        dec = irreducible_decomposition(mideal(R2, "x*y"))
        assert set(dec.components) == {mideal(R2, "x"), mideal(R2, "y")}

    def test_mixed_split(self, R2):
        dec = irreducible_decomposition(mideal(R2, "x^2", "x*y"))
        assert set(dec.components) == {mideal(R2, "x"), mideal(R2, "x^2", "y")}
        assert dec.intersection() == mideal(R2, "x^2", "x*y")

    def test_already_irreducible(self, R2):
        dec = irreducible_decomposition(mideal(R2, "x", "y^2"))
        assert dec.components == (mideal(R2, "x", "y^2"),)

    def test_components_are_pure_powers_and_sound(self):
        rng = seeded(202)
        for _ in range(25):
            I = random_squarefree_ideal(rng, max_vars=4, max_gens=4)
            # roughen it: square one generator's ideal into the mix
            J = MonomialIdeal(I.ring, [g * g for g in I.generators[:1]]
            + list(I.generators[1:]))
            if J.is_unit() or J.is_zero():
                continue
            dec = irreducible_decomposition(J)
            for comp in dec.components:
                for g in comp.generators:
                    assert len(g.support()) == 1
            assert dec.intersection() == J
            # irredundant: no component contains another
            for a, b in combinations(dec.components, 2):
                assert not (a.issubset(b) or b.issubset(a))


class TestAssociatedPrimes:
    def test_examples(self, R2):
        assert {p.names for p in associated_primes(mideal(R2, "x*y"))} == {
            ("x",), ("y",)
        }
        P = mideal(R2, "x", "y")
        assert [p.names for p in associated_primes(P)] == [("x", "y")]

    def test_recorded_three_primes(self):
        I = case_ex31().ideal
        names = {p.names for p in associated_primes(I)}
        assert names == {("x", "y"), ("z", "t"), ("x", "z")}

    def test_against_colon_enumeration(self):
        rng = seeded(206)
        checked = 0
        while checked < 40:
            I = random_monomial_ideal(rng, max_vars=4, max_gens=5, max_degree=4)
            if I.ring.nvars < 3 or I.is_squarefree() or I.is_unit():
                continue
            got = {p.variables for p in associated_primes(I)}
            assert got == colon_primes([g.exponents for g in I.generators])
            checked += 1


class TestSymbolicPowerPaths:
    def test_principal_squarefree(self, R2):
        I = mideal(R2, "x*y")
        for n in (1, 2, 3):
            assert symbolic_power_squarefree(I, n) == mideal(R2, f"x^{n}*y^{n}")

    def test_identity_at_one(self):
        # the squarefree path returns I at n = 1 without a fold, so the
        # decomposition path checks the identity by its own fold
        rng = seeded(203)
        for _ in range(20):
            I = random_squarefree_ideal(rng)
            assert symbolic_power_squarefree(I, 1) == I
            assert symbolic_power_from_decomposition(minimal_primes(I).components, 1) == I

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("gens, error, message", [
        ((), ValueError, "the zero ideal has no decomposition"),
        (("1",), ValueError, "the unit ideal has no decomposition"),
        (("x^2", "x*y"), NotSquarefreeError, "minimal primes need a squarefree ideal"),
    ], ids=["zero", "unit", "not-squarefree"])
    def test_refusals_at_one_as_at_two(self, R2, n, gens, error, message):
        with pytest.raises(error, match=message):
            symbolic_power_squarefree(mideal(R2, *gens), n)

    def test_terai_recorded_31(self):
        case = case_ex32()
        sq = symbolic_power_squarefree(case.ideal, 2)
        assert sq == case.expected_square
        by_degree = {}
        for g in sq.generators:
            by_degree.setdefault(g.degree, []).append(g)
        assert len(by_degree[5]) == 6 and len(by_degree[6]) == 25

    def test_decomposition_recorded_square(self):
        case = case_ex31()
        sq = symbolic_power_from_decomposition(case.components, 2)
        assert sq == case.expected_square

    def test_single_component(self):
        R = Ring(("x", "z"))
        sq = symbolic_power_from_decomposition([mideal(R, "x", "z")], 2)
        assert sq == mideal(R, "x^2", "x*z", "z^2")

    @pytest.mark.parametrize("gens, message", [((), "zero ideal"), (("1",), "unit ideal")],
                             ids=["zero", "unit"])
    def test_zero_or_unit_component_refused(self, gens, message):
        R = Ring(("x", "z"))
        with pytest.raises(ValueError, match=message):
            symbolic_power_from_decomposition([mideal(R, "x", "z"), mideal(R, *gens)], 2)

    def test_decomposition_needs_components(self):
        with pytest.raises(ValueError):
            symbolic_power_from_decomposition([], 2)

    def test_empty_decomposition_refused(self):
        with pytest.raises(ValueError, match="need at least one decomposition component"):
            Decomposition(())

    def test_folds_call_the_intersect_method(self, monkeypatch):
        # a fold that bound the method at import would hide its calls from a wrapper
        calls = []
        original = MonomialIdeal.intersect

        def counted(self, other):
            calls.append(other)
            return original(self, other)

        monkeypatch.setattr(MonomialIdeal, "intersect", counted)
        case = case_ex31()
        assert symbolic_power_saturation(case.ideal, 2) == case.expected_square
        assert calls
        calls.clear()
        assert Decomposition(tuple(case.components)).intersection() == case.ideal
        assert calls

    def test_saturation_of_variable_prime_is_power(self):
        R = Ring(("x", "y", "z"))
        P = mideal(R, "x", "y")
        for n in range(1, 5):
            assert symbolic_power_saturation(P, n) == P.power(n)

    def test_saturation_recorded_square(self):
        case = case_ex31()
        assert symbolic_power_saturation(case.ideal, 2, primes="min") == case.expected_square
        assert symbolic_power_saturation(case.ideal, 2, primes="ass") == case.expected_square

    def test_terai_path_equivalence(self):
        case = case_ex32()
        primes = minimal_variable_primes(case.ideal)
        a = symbolic_power_squarefree(case.ideal, 2)
        b = symbolic_power_from_decomposition([p.ideal() for p in primes], 2)
        c = symbolic_power_saturation(case.ideal, 2)
        assert a == b == c == case.expected_square

    def test_path_equivalence_random(self):
        rng = seeded(204)
        for _ in range(30):
            I = random_squarefree_ideal(rng)
            primes = minimal_variable_primes(I)
            for n in (1, 2, 3):
                a = symbolic_power_squarefree(I, n)
                b = symbolic_power_from_decomposition([p.ideal() for p in primes], n)
                c = symbolic_power_saturation(I, n, primes="min")
                d = symbolic_power_saturation(I, n, primes="ass")
                assert a == b == c == d

    @pytest.mark.parametrize("k, count", [(6, 55), (7, 84), (8, 120)])
    def test_cycle_cubes_pinned(self, k, count):
        cycle = cycle_ideal(k)
        sq = symbolic_power_squarefree(cycle, 3)
        assert len(sq.generators) == count
        assert sq.degree_stats().max_gen_degree == 6
        assert sq == symbolic_power_from_decomposition(minimal_primes(cycle).components, 3)

    @pytest.mark.parametrize("k, count", [(10, 220), (12, 364)])
    def test_ten_cycle_cube_pinned(self, k, count):
        # the squarefree path alone: the decomposition path would add seconds
        sq = symbolic_power_squarefree(cycle_ideal(k), 3)
        assert len(sq.generators) == count
        assert sq.degree_stats().max_gen_degree == 6

    def test_dispatch_follows_the_input(self, monkeypatch):
        calls = []
        original = decomp.symbolic_power_saturation

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(decomp, "symbolic_power_saturation", counted)
        terai, ex31 = case_ex32(), case_ex31()
        assert symbolic_power(terai.ideal, 2) == terai.expected_square
        assert calls == []
        assert symbolic_power(ex31.ideal, 2) == ex31.expected_square
        assert len(calls) == 1

    def test_containment_chain_random(self):
        rng = seeded(205)
        for _ in range(20):
            I = random_squarefree_ideal(rng)
            previous = None
            for n in (3, 2, 1):
                sym = symbolic_power_squarefree(I, n)
                assert I.power(n).issubset(sym)
                if previous is not None:
                    assert previous.issubset(sym)
                previous = sym
            assert previous.issubset(I.radical())

    def test_multiplicativity_containment_random(self):
        rng = seeded(206)
        for _ in range(15):
            I = random_squarefree_ideal(rng, max_gens=4)
            for a, b in ((1, 1), (1, 2)):
                lhs = symbolic_power_squarefree(I, a) * symbolic_power_squarefree(I, b)
                assert lhs.issubset(symbolic_power_squarefree(I, a + b))


class TestFoldOrder:
    """The squarefree fold meets the primes in `decomp._local_order`: the
    result is that of any order (`test_fold_order.py`), and the intermediate
    ideals are smaller than in the (size, indices) order of
    `minimal_variable_primes` on cycles and Terai's ideal, and in total on
    random graphs."""

    @staticmethod
    def fold_sizes(monkeypatch, I, n, order=None):
        # the generator count after each meet of the fold (the dual fold runs at n = 1)
        sizes, meet = [], decomp._meet_prime_power

        def counted(us, variables, power, L):
            out = meet(us, variables, power, L)
            if power == n:
                sizes.append(len(out))
            return out

        with monkeypatch.context() as m:
            m.setattr(decomp, "_meet_prime_power", counted)
            if order is not None:
                m.setattr(decomp, "_local_order", order)
            symbolic_power_squarefree(I, n)
        return sizes

    def test_twelve_cycle_cube_sizes_pinned(self, monkeypatch):
        local = self.fold_sizes(monkeypatch, cycle_ideal(12), 3)
        by_size = self.fold_sizes(monkeypatch, cycle_ideal(12), 3, order=list)
        assert (max(local), sum(local)) == (793, 12391)
        assert (max(by_size), sum(by_size)) == (3136, 33560)

    def test_local_order_meets_no_more_than_by_size(self, monkeypatch):
        # on each of Terai's powers and each cycle, but on the graphs only in
        # total (6717 against 6999): on 4 of these 20 the local order meets
        # more, by up to 26 %
        for I, n in [(case_ex32().ideal, n) for n in range(2, 7)] + [(cycle_ideal(k), 3) for k in range(5, 10)]:
            assert sum(self.fold_sizes(monkeypatch, I, n)) <= sum(self.fold_sizes(monkeypatch, I, n, order=list))
        rng, pairs, totals = seeded(209), list(combinations(range(7), 2)), [0, 0]
        R = Ring(tuple(f"x{i}" for i in range(7)))
        for _ in range(20):
            edges = rng.sample(pairs, 9)
            while len(set().union(*edges)) < 7:  # every vertex on an edge
                edges = rng.sample(pairs, 9)
            I = MonomialIdeal(R, [R.variable(f"x{i}") * R.variable(f"x{j}") for i, j in edges])
            totals[0] += sum(self.fold_sizes(monkeypatch, I, 3))
            totals[1] += sum(self.fold_sizes(monkeypatch, I, 3, order=list))
        assert totals[0] <= totals[1]


class TestMeetPrimePower:
    """`decomp._meet_prime_power`, the prime-power identity
    I ∩ P^n = Σ_u u·P^max(0, n - deg_P u), against the plain pairwise-lcm
    formula on the tuples of P^n, minimalized by the definition. The shared
    kernel `rings._packed_meet` is no oracle here: it ends in the meet's own
    `_packed_scan`."""

    @staticmethod
    def by_definition(exps, variables, n):
        power = [tuple(c.count(i) for i in range(len(exps[0])))
                 for c in combinations_with_replacement(variables, n)]
        lcms = {tuple(map(max, u, v)) for u in exps for v in power}
        minimal = [m for m in lcms if not any(d != m and all(map(le, d, m)) for d in lcms)]
        return sorted(minimal, key=lambda e: (sum(e), e))

    @staticmethod
    def meet(exps, variables, n):
        # in the exponent form of a layout wide enough for every product, which
        # adds at most n to a degree; the meet's tuples come in no fixed order;
        # a sorted list, not a set, so that a repeated tuple still fails against
        # the definition
        L = rings._Layout(rings.DEGREVLEX, len(exps[0]), (max(map(sum, exps)) + n).bit_length() + 1)
        out = decomp._meet_prime_power([L.pack(e) ^ L.unit for e in exps], variables, n, L)
        return sorted((L.unpack(u ^ L.unit) for u in out), key=lambda e: (sum(e), e))

    def test_matches_the_kernel(self):
        rng = seeded(207)
        seen = {"in_power": 0, "over": 0, "sizes": set(), "powers": set()}
        for _ in range(600):
            nvars = rng.randint(1, 8)
            # non-squarefree generators, some repeated, minimalized: the meet's precondition
            exps = [tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(nvars))
                    for _ in range(rng.randint(1, 5))]
            exps = rings._minimal(exps + rng.sample(exps, rng.randint(0, len(exps))))
            variables = tuple(sorted(rng.sample(range(nvars), rng.randint(1, nvars))))
            n = rng.randint(1, 4)
            for e in exps:
                degree = sum(e[i] for i in variables)
                seen["in_power"] += degree >= n
                seen["over"] += degree > n
            seen["sizes"].add((nvars, len(variables)))
            seen["powers"].add(n)
            for given in (exps, [(0,) * nvars]):
                assert self.meet(given, variables, n) == self.by_definition(given, variables, n)
        assert seen["in_power"] and seen["over"] and seen["powers"] == {1, 2, 3, 4}
        assert seen["sizes"] == {(v, p) for v in range(1, 9) for p in range(1, v + 1)}

    def test_equal_rests_give_one_product(self):
        # x1·y and x2·y have the rest y; both reach x1·x2 in P^2, and the
        # product x1·x2·y appears once
        exps = [(0, 1, 1), (1, 0, 1)]
        assert self.meet(exps, (0, 1), 2) == [(0, 2, 1), (1, 1, 1), (2, 0, 1)]
        assert self.meet(exps, (0, 1), 2) == self.by_definition(exps, (0, 1), 2)

    def test_below_at_and_above_n_in_one_meet(self):
        # I = (z, x·y, x^3), P = (x, y), n = 2: z is below n and reaches x^2·z,
        # x·y·z and y^2·z; x·y is at n and divides x·y·z; x^3 is above n
        exps = [(0, 0, 1), (1, 1, 0), (3, 0, 0)]
        expected = [(1, 1, 0), (0, 2, 1), (2, 0, 1), (3, 0, 0)]
        assert self.meet(exps, (0, 1), 2) == expected
        assert self.by_definition(exps, (0, 1), 2) == expected

    def test_p_degree_below_at_and_above_n(self):
        # generators built around n in P-degree, so that a generator at n divides
        # another's products and products of one P-part divide each other
        rng = seeded(208)
        seen = {"below": 0, "at": 0, "above": 0, "at_divides_a_product": 0}
        for _ in range(150):
            nvars = rng.randint(2, 8)
            variables = tuple(sorted(rng.sample(range(nvars), rng.randint(1, nvars - 1))))
            outside = [i for i in range(nvars) if i not in variables]
            n = rng.randint(1, 5)
            exps = []
            for _ in range(rng.randint(1, 8)):
                e = [0] * nvars
                for _ in range(max(0, n + rng.choice((-2, -1, -1, 0, 0, 1)))):
                    e[rng.choice(variables)] += 1
                for _ in range(rng.randint(0, 3)):
                    e[rng.choice(outside)] += 1
                exps.append(tuple(e))
            exps = rings._minimal(exps)
            degrees = [sum(e[i] for i in variables) for e in exps]
            seen["below"] += sum(d < n for d in degrees)
            seen["at"] += sum(d == n for d in degrees)
            seen["above"] += sum(d > n for d in degrees)
            assert self.meet(exps, variables, n) == self.by_definition(exps, variables, n)
            # e at n divides a product u·p exactly when e matches or exceeds u on P
            # and u matches or exceeds e off P (then p is e's P-part less u's)
            seen["at_divides_a_product"] += any(
                all(e[i] >= u[i] for i in variables) and all(e[i] <= u[i] for i in outside)
                for e, d in zip(exps, degrees) if d == n
                for u, du in zip(exps, degrees) if du < n)
        assert all(seen.values()), seen

    def test_minimal_runs_on_one_p_part_at_a_time(self, monkeypatch):
        # the packed scan sees the rests of one P-part group at a time: one
        # scan over every product is quadratic in the meet's size
        reaches, calls = [], []
        meet, scan = decomp._meet_prime_power, decomp._packed_scan

        def tracked_meet(us, variables, n, L):
            # each rest (P's coordinates set to 0) and the P-parts its products have
            reach = {}
            for u in (L.unpack(v ^ L.unit) for v in us):
                k = n - sum(u[i] for i in variables)
                rest = tuple(0 if i in variables else x for i, x in enumerate(u))
                for c in combinations_with_replacement(variables, k) if k >= 0 else ():
                    reach.setdefault(rest, set()).add(tuple(u[i] + c.count(i) for i in variables))
            reaches.append((reach, n, L))
            return meet(us, variables, n, L)

        def tracked_scan(rests, guard):
            reach, _, L = reaches[-1]
            # every item is a rest of the meet's input, and all reach one P-part
            common = set.intersection(*(reach.get(L.unpack(r ^ L.unit), set()) for r in rests))
            assert common
            calls.append(len(rests))
            return scan(rests, guard)

        monkeypatch.setattr(decomp, "_meet_prime_power", tracked_meet)
        monkeypatch.setattr(decomp, "_packed_scan", tracked_scan)
        assert len(symbolic_power_squarefree(cycle_ideal(8), 3).exps) == 120
        assert max(calls) > 1 and {n for _, n, _ in reaches} == {1, 3}

    def test_paths_stay_independent(self, monkeypatch):
        # the three-path agreement is a cross-check only while the paths share no fold
        case = case_ex32()
        components = [p.ideal() for p in minimal_variable_primes(case.ideal)]

        def refuse(*args):
            raise AssertionError("a symbolic-power path reached another path's fold")

        with monkeypatch.context() as m:
            for module, name in ((decomp, "_intersect_fold"), (rings, "_packed_meet"),
                                 (ideals, "_packed_meet")):
                m.setattr(module, name, refuse)
            assert symbolic_power_squarefree(case.ideal, 2) == case.expected_square
        monkeypatch.setattr(decomp, "_meet_prime_power", refuse)
        assert symbolic_power_from_decomposition(components, 2) == case.expected_square
        assert symbolic_power_saturation(case.ideal, 2, primes="ass") == case.expected_square
        ex31 = case_ex31()
        assert symbolic_power_saturation(ex31.ideal, 2, primes="ass") == ex31.expected_square


class TestVariablePrime:
    def test_outside_product(self):
        R = Ring(("x", "y", "z"))
        P = VariablePrime(R, (1,))
        assert P.outside_product() == mono(R, "x*z")

    @pytest.mark.parametrize("variables", [(0.5,), (0, 3), (-1, 0)])
    def test_refuses_an_index_out_of_range(self, variables):
        # a non-integer index names no variable; taken as one, (0.5,) would span (1)
        with pytest.raises(ValueError, match="variable index out of range"):
            VariablePrime(Ring(("x", "y", "z")), variables)
