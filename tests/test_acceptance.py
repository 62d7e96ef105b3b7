"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <n> ... PASS`` line (visible with
``pytest -s`` or in captured output on failure). A module fixture wraps
the Buchberger pair loop ``_groebner_entries`` (every run of it, public or
internal, the eliminations included), ``ideal_intersect`` and
``ideal_quotient`` (whose results carry their bases) so that every Groebner
basis criteria 3-6 compute is recorded; criterion 8 re-verifies each record
with the test oracle in ``basis_oracle``.
"""

import json
import time

import jsonschema
import pytest
from basis_oracle import verify_basis
from conftest import (
    random_monomial_ideal,
    random_poly_ideal,
    random_squarefree_ideal,
    seeded,
)

import sympow.counterexamples as cx
import sympow.groebner as gb
from sympow import (
    DEGREVLEX,
    NotSquarefreeError,
    PolyIdeal,
    BOUND_HUNEKE,
    BOUND_LCM,
    Polynomial,
    Ring,
    bound_report,
    buchberger,
    ideal_equals,
    ideal_intersect,
    minimal_variable_primes,
    per_n_bound,
    symbolic_power_from_decomposition,
    symbolic_power_saturation,
    symbolic_power_squarefree,
)
from sympow.cases import case_ex31, case_ex32
from sympow.cli import main
from sympow.counterexamples import (
    builtin_case_A6,
    builtin_case_A7,
    colon_ideal,
    degree_violation_report,
    symbolic_power_from_primes,
    symbolic_square_generators,
)
from sympow.ideal_files import format_generators, monomial_ideal_from_poly, parse_ideal_file
from sympow.schemas import BOUNDS_SCHEMA, GROWTH_SCHEMA, SYMPOW_SCHEMA, VERIFY_SCHEMA


@pytest.fixture(scope="module", autouse=True)
def basis_log():
    """(path, generators, basis, order) of every Groebner basis the module computes."""
    log = []
    run_kernel = gb._groebner_entries
    run_intersect = gb.ideal_intersect
    run_quotient = gb.ideal_quotient

    def recording_kernel(generators, layout):
        # the pair loop returns a basis that is not yet reduced, and an
        # elimination reduces only its w-free part; reduce all of it here so
        # that every run is checked as the reduced basis of its generators
        # (a run that overflows its layout raises before it is logged). The
        # kernel takes packed integer term dicts; they are logged unpacked,
        # as polynomials of a ring with one variable per field of the layout
        generators = tuple(generators)
        entries = run_kernel(generators, layout)
        reduced = gb._reduced_entries(entries, layout)
        ring = Ring(tuple(f"v{i}" for i in range(len(layout.shifts))))
        basis = tuple(gb._monic(ring, layout, e) for e in reduced)
        inputs = tuple(Polynomial(ring, layout.unpack_terms(t)) for t in generators)
        log.append(("buchberger", inputs, basis, layout.order))
        return entries

    def recording(path, run):
        # the result holds its reduced degrevlex basis, handed over, not recomputed
        def recorded(*args):
            result = run(*args)
            log.append((path, result.generators, result.groebner_basis(), DEGREVLEX))
            return result

        return recorded

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gb, "_groebner_entries", recording_kernel)
        for module in (gb, cx):
            mp.setattr(module, "ideal_intersect", recording("ideal_intersect", run_intersect))
            mp.setattr(module, "ideal_quotient", recording("ideal_quotient", run_quotient))
        yield log


def report(number, name, elapsed=None):
    stamp = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {number} {name}: PASS{stamp}")


def test_criterion_1_ex31_reproduction():
    t0 = time.monotonic()
    case = case_ex31()
    expected = case.expected_square

    by_decomposition = symbolic_power_from_decomposition(case.components, 2)
    by_saturation_min = symbolic_power_saturation(case.ideal, 2, primes="min")
    by_saturation_ass = symbolic_power_saturation(case.ideal, 2, primes="ass")
    assert by_decomposition == expected  # exact set equality
    assert by_saturation_min == expected
    assert by_saturation_ass == expected
    # the squarefree path refuses this non-squarefree input, as documented
    with pytest.raises(NotSquarefreeError):
        symbolic_power_squarefree(case.ideal, 2)

    stats = expected.degree_stats()
    assert stats.beg == 4 and stats.max_gen_degree == 6
    rep = bound_report(case.ideal, 2, stats.max_gen_degree, BOUND_HUNEKE, D=3)
    assert rep.satisfied and rep.d_in == rep.bound == 6

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, "ex31: symbolic square, degrees, D*n bound", elapsed)


def test_criterion_2_terai_reproduction():
    t0 = time.monotonic()
    case = case_ex32()
    sq = symbolic_power_squarefree(case.ideal, 2)
    assert sq == case.expected_square  # exact equality against the recorded lists
    by_degree = {}
    for g in sq.generators:
        by_degree.setdefault(g.degree, []).append(g)
    assert sorted(by_degree) == [5, 6]
    assert len(by_degree[5]) == 6 and len(by_degree[6]) == 25
    assert sq.degree_stats().beg == 5

    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(2, "ex32: Terai symbolic square, 31 generators", elapsed)


def test_criterion_3_colon_equality():
    t0 = time.monotonic()
    case = builtin_case_A6()
    # (M^2 : f) = (x, y, z), exact ideal equality
    assert ideal_equals(colon_ideal(case, case.witness), case.expected_colon)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(3, "six-variable colon (M^2 : f) = (x, y, z)", elapsed)


def test_criterion_4_squared_prime_intersection():
    case = builtin_case_A6()
    t0 = time.monotonic()
    assert ideal_equals(symbolic_power_from_primes(case.primes, 2),
                        symbolic_square_generators(case, case.witness))  # exact
    elapsed = time.monotonic() - t0
    assert elapsed < 900.0
    report(4, "twelve squared primes intersect to M^2 + (f)", elapsed)


def test_criterion_5_degree_violation():
    case = builtin_case_A6()
    assert not case.square().member(case.witness)
    assert case.witness.total_degree() == 9
    rep = degree_violation_report(case, case.witness)
    assert rep.d_in == 9 and rep.bound == 8 and not rep.satisfied
    report(5, "f outside M^2; degree 9 beats the 2*4 bound")


def test_criterion_6_seven_variable_colon():
    t0 = time.monotonic()
    case = builtin_case_A7()
    verdicts = {
        which: ideal_equals(colon_ideal(case, f), case.expected_colon)
        for which, f in (("recorded", case.witness), ("alternate", case.witness_alt))
    }
    assert any(verdicts.values())
    chosen = next(w for w, ok in verdicts.items() if ok)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(6, f"seven-variable colon = (x, y, z); witness: {chosen}, "
              f"verdicts {verdicts}", elapsed)


def test_criterion_7_oracle_equivalence():
    t0 = time.monotonic()
    rng = seeded(700)
    for i in range(100):
        I = random_squarefree_ideal(rng, max_vars=5, max_gens=5, max_degree=4)
        primes = minimal_variable_primes(I)
        components = [p.ideal() for p in primes]
        d_gen = I.degree_stats().max_gen_degree
        lcm_per_n = per_n_bound(I, BOUND_LCM)
        for n in (1, 2, 3):
            a = symbolic_power_squarefree(I, n)
            b = symbolic_power_from_decomposition(components, n)
            c = symbolic_power_saturation(I, n, primes="min")
            assert a == b == c  # exact equality
            assert I.power(n).issubset(a)
            assert a.issubset(I)
            d = a.degree_stats().max_gen_degree
            assert d <= d_gen * n
            assert d <= lcm_per_n * n
        if i % 10 == 0:
            d = symbolic_power_squarefree(I, 2).degree_stats().max_gen_degree
            assert bound_report(I, 2, d, BOUND_HUNEKE).satisfied
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(7, "100 random squarefree ideals: path equality, chains, bounds", elapsed)


def test_criterion_8_groebner_self_checks(basis_log):
    # bases recorded while criteria 3-6 ran
    recorded = list(basis_log)
    paths = [path for path, *_ in recorded]
    assert {"buchberger", "ideal_quotient", "ideal_intersect"} <= set(paths), (
        "criteria 3-6 must run before this check"
    )
    # the eliminations' kernel runs are recorded too, whole block-order bases
    assert any(isinstance(order, gb.BlockElimination) for *_, order in recorded)
    for _, generators, basis, order in recorded:
        verify_basis(generators, basis, order, recompute=True)

    t0 = time.monotonic()
    rng = seeded(800)
    for _ in range(20):
        I = random_poly_ideal(rng, max_vars=3, max_gens=3, max_degree=3)
        verify_basis(I.generators, buchberger(I.generators), DEGREVLEX, recompute=True)

    checked = 0
    while checked < 50:
        K = random_monomial_ideal(rng, max_vars=5, max_gens=3, max_degree=4)
        L = random_monomial_ideal(rng, max_vars=5, max_gens=3, max_degree=4)
        if K.ring != L.ring or K.is_zero() or L.is_zero():
            continue
        pk = PolyIdeal(K.ring, [Polynomial.from_monomial(g) for g in K.generators])
        pl = PolyIdeal(L.ring, [Polynomial.from_monomial(g) for g in L.generators])
        # exact match with the monomial engine's lcm formula, by elimination
        # and by the dispatching intersection
        for intersect in (gb._eliminate, ideal_intersect):
            assert monomial_ideal_from_poly(intersect(pk, pl)) == K.intersect(L)
        checked += 1
    corpora_elapsed = time.monotonic() - t0
    assert corpora_elapsed < 60.0
    report(8, f"{len(recorded)} recorded bases re-verified "
              f"({paths.count('ideal_quotient')} from a colon, "
              f"{paths.count('ideal_intersect')} from an intersection); random corpus "
              f"and 50 pairs, elimination and dispatch vs lcm", corpora_elapsed)


def test_criterion_9_cli_contract(capsys, tmp_path):
    code = main(["verify-paper", "--case", "all", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, VERIFY_SCHEMA)
    assert payload["all_pass"] and not payload["budget_exhausted"]
    assert [c["case"] for c in payload["cases"]] == [
        "ex31", "ex32", "lemma41", "lemma42", "ex43", "ex44",
    ]

    # parse/print round-trip on 100 random monomial ideals through the grammar
    rng = seeded(900)
    done = 0
    while done < 100:
        I = random_monomial_ideal(rng)
        if I.is_zero():
            continue
        text = f"ring: {' '.join(I.ring.variables)}\nideal I: {format_generators(I)}\n"
        assert monomial_ideal_from_poly(parse_ideal_file(text).ideal("I")) == I
        done += 1

    # the other documented schemas, exercised through the real commands
    path = tmp_path / "ex31.ideal"
    path.write_text("ring: x y z t\nideal I: x*z, x*t^2, y^2*z\n")
    for argv, schema in (
        (["sympow", "--file", str(path), "--ideal", "I", "--n", "2",
          "--format", "json"], SYMPOW_SCHEMA),
        (["bounds", "--file", str(path), "--ideal", "I", "--n", "2",
          "--format", "json"], BOUNDS_SCHEMA),
        (["growth", "--file", str(path), "--ideal", "I", "--N", "2",
          "--format", "json"], GROWTH_SCHEMA),
    ):
        assert main(argv) == 0
        jsonschema.validate(json.loads(capsys.readouterr().out), schema)

    report(9, "verify-paper all PASS, round-trip, JSON schemas")
