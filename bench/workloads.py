"""The three workloads: seeded inputs, job lists and the checks on each result.

A set-up (`Setup`) imports sympow afresh, draws the seeded inputs, writes
them as ideal files under the work directory, parses them back and builds
the reference cases. Every pass runs on a set-up of its own, so no pass
reuses the case caches (`builtin_case_A6/A7` and their `_memo`), the
`PolyIdeal` bases or the parsed inputs of an earlier one. Jobs call the
library through module attributes at call time, so a tracer installed in
the modules sees every call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import random
import sys
from pathlib import Path

import checks

SYMPOW_MODULES = ("rings", "ideals", "decomp", "bounds", "groebner",
                  "ideal_files", "cases", "counterexamples", "cli")

TERAI_COUNTS = {2: 31, 3: 71, 4: 131, 5: 221}
CYCLE_COUNTS = {6: 55, 7: 84}  # C_k at n = 3
GROWTH_N = 3
GROWTH_DEGREES = [[1, 3], [2, 6], [3, 9]]
RANDOM_GRAPHS = 2  # 7 vertices, 9 edges
RANDOM_IDEALS = 24  # 8 variables, 4 two-variable generators and 6-8 pure powers
POLY_POWERS = (2, 3, 4)
VARIABLE_NAMES = [f"{c}{i}" for c in "uvw" for i in range(10)]


def import_sympow(src: Path):
    """Import sympow afresh (dropping any loaded copy); return its modules by short name."""
    for key in [k for k in sys.modules if k == "sympow" or k.startswith("sympow.")]:
        del sys.modules[key]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("sympow")
    if Path(package.__file__).resolve().parent != (src / "sympow").resolve():
        raise ImportError(f"sympow was imported from {package.__file__}, not from {src}")
    return {name: importlib.import_module(f"sympow.{name}") for name in SYMPOW_MODULES}


def monomial_text(names, exps) -> str:
    parts = [v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e]
    return "*".join(parts) or "1"


def monomial_file(names, ideals: dict) -> str:
    lines = ["ring: " + " ".join(names)]
    for label, gens in ideals.items():
        lines.append(f"ideal {label}: " + ", ".join(monomial_text(names, g) for g in gens))
    return "\n".join(lines) + "\n"


def exponents(ideal) -> list:
    return [g.exponents for g in ideal.generators]


def _cli_key(result):
    """Exit code and output, without the per-claim timings verify-paper prints."""
    code, text = result
    try:
        payload = json.loads(text)
    except ValueError:
        return code, text
    for case in payload.get("cases", ()):
        for claim in case["claims"]:
            claim.pop("seconds", None)
    return code, json.dumps(payload, sort_keys=True)


class Job:
    """One timed call, a key for its result and a full check of that result."""

    def __init__(self, name, call, key, check):
        self.name = name
        self.call = call
        self.key = key  # result -> hashable summary, compared across passes
        self.check = check  # result -> list of problems (empty when correct)


# ---------------------------------------------------------------------------
# seeded inputs
#
# The seed renames the variables of every ring and shuffles the order in
# which generators are listed: the same seed gives the same files, and
# different seeds give different files for the same work. Variables keep
# their positions, so the term order and every sorted generator list, and
# with them the library's work, are those of the unrenamed ideal. The
# random graphs and ideals come from fixed streams. A seeded permutation
# of the variables, or seeded draws, would change the work itself: by
# 15-30 % (Terai), a factor of two (A6 folds) or several-fold (graphs).


def seeded_names(rng, nvars: int) -> list:
    return rng.sample(VARIABLE_NAMES, nvars)


def shuffled(rng, items) -> list:
    items = list(items)
    return rng.sample(items, len(items))


def cycle(k: int) -> list:
    return [tuple(1 if i in (j, (j + 1) % k) else 0 for i in range(k)) for j in range(k)]


def random_graph(rng) -> list:
    """Edge ideal of 9 random edges on 7 vertices, all vertices used."""
    pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)]
    while True:
        edges = rng.sample(pairs, 9)
        if len(frozenset().union(*edges)) == 7:
            return [tuple(1 if i in e else 0 for i in range(7)) for e in edges]


def random_ideal(rng) -> list:
    """Minimal generators of a non-squarefree ideal in 8 variables, 10-12 of them.

    Four generators on two variables (exponents 1-2) and pure powers
    (exponents 2-3) of 6-8 of the variables.
    """
    while True:
        gens = set()
        while len(gens) < 4:
            exps = [0] * 8
            for i in rng.sample(range(8), 2):
                exps[i] = rng.randint(1, 2)
            gens.add(tuple(exps))
        for i in rng.sample(range(8), rng.randint(6, 8)):
            gens.add(tuple(rng.randint(2, 3) if j == i else 0 for j in range(8)))
        minimal = checks.minimal(gens)
        if len(minimal) == len(gens):
            return minimal


@functools.cache
def associated_primes(gens: tuple) -> list:
    return sorted(checks.irreducible_components(gens), key=lambda p: (len(p), p))


# ---------------------------------------------------------------------------
# workloads


class Setup:
    """Inputs of one workload for one seed, written to and parsed from files."""

    def __init__(self, workload: str, seed: int, src: Path, workdir: Path, tracer=None):
        self.m = import_sympow(src)
        if tracer is not None:
            tracer.install(self.m)
        self.workload = workload
        self.workdir = workdir
        rng = random.Random(f"{workload}:{seed}")
        self.files = getattr(self, "_inputs_" + workload.replace("-", "_"))(rng)
        workdir.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        m = self.m
        self.parsed = {
            name: m["ideal_files"].parse_ideal_file((self.workdir / name).read_text(encoding="utf-8"))
            for name in self.files
        }
        self.terai_square = exponents(m["cases"].case_ex32().expected_square)
        m["counterexamples"].builtin_case_A6()
        m["counterexamples"].builtin_case_A7()

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def monomial_ideal(self, file: str, label: str = "I"):
        m = self.m
        return m["ideal_files"].monomial_ideal_from_poly(self.parsed[file].ideal(label))

    def jobs(self) -> list:
        return getattr(self, "_jobs_" + self.workload.replace("-", "_"))()

    # -- sqfree-ladder ------------------------------------------------------

    def _terai_file(self, rng) -> str:
        terai = self.m["cases"].case_ex32().ideal
        return monomial_file(seeded_names(rng, terai.ring.nvars), {"I": shuffled(rng, exponents(terai))})

    def _inputs_sqfree_ladder(self, rng):
        files = {"terai.txt": self._terai_file(rng)}
        for k in CYCLE_COUNTS:
            files[f"c{k}.txt"] = monomial_file(seeded_names(rng, k), {"I": shuffled(rng, cycle(k))})
        pool = random.Random("sqfree-ladder graphs")
        for g in range(RANDOM_GRAPHS):
            files[f"graph{g}.txt"] = monomial_file(seeded_names(rng, 7),
                                                   {"I": shuffled(rng, random_graph(pool))})
        return files

    def _squarefree_job(self, name, ideal, n, expected_count=None, expected=None):
        decomp = self.m["decomp"]
        gens = exponents(ideal)
        nvars = ideal.ring.nvars

        def check(result):
            got = exponents(result)
            problems = []
            if expected_count is not None and len(got) != expected_count:
                problems.append(f"{len(got)} generators, expected {expected_count}")
            if expected is not None and got != expected:
                problems.append("generators differ from the recorded symbolic square")
            primes = checks.minimal_vertex_covers([checks.support(g) for g in gens], nvars)
            return problems + checks.symbolic_power_errors(got, gens, primes, n)

        return Job(name, lambda: decomp.symbolic_power_squarefree(ideal, n),
                   lambda r: tuple(exponents(r)), check)

    def _jobs_sqfree_ladder(self):
        terai = self.monomial_ideal("terai.txt")
        jobs = [self._squarefree_job(f"terai.n{n}", terai, n, count,
                                     self.terai_square if n == 2 else None)
                for n, count in TERAI_COUNTS.items()]
        jobs += [self._squarefree_job(f"c{k}.n3", self.monomial_ideal(f"c{k}.txt"), 3, count)
                 for k, count in CYCLE_COUNTS.items()]
        jobs += [self._squarefree_job(f"graph{g}.n3", self.monomial_ideal(f"graph{g}.txt"), 3)
                 for g in range(RANDOM_GRAPHS)]
        return jobs

    # -- saturation-ass -----------------------------------------------------

    def _inputs_saturation_ass(self, rng):
        pool = random.Random("saturation-ass ideals")
        ideals = {f"J{k}": shuffled(rng, random_ideal(pool)) for k in range(RANDOM_IDEALS)}
        return {"terai.txt": self._terai_file(rng),
                "random.txt": monomial_file(seeded_names(rng, 8), ideals)}

    def _cli_job(self, name, argv, check):
        cli = self.m["cli"]

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue()

        def full_check(result):
            code, text = result
            if code != 0:
                return [f"exit code {code}"]
            return check(json.loads(text))

        return Job(name, call, _cli_key, full_check)

    def _jobs_saturation_ass(self):
        decomp = self.m["decomp"]

        def growth_check(payload):
            if payload["entries"] != GROWTH_DEGREES or not payload["complete"]:
                return [f"growth entries {payload['entries']}, complete {payload['complete']}"]
            return []

        jobs = [self._cli_job(
            f"growth.terai.N{GROWTH_N}",
            ["growth", "--file", self.path("terai.txt"), "--ideal", "I", "--N", str(GROWTH_N),
             "--format", "json"],
            growth_check)]
        for k in range(RANDOM_IDEALS):
            ideal = self.monomial_ideal("random.txt", f"J{k}")
            gens = tuple(exponents(ideal))

            def ass_check(result, gens=gens):
                got, expected = [p.variables for p in result], associated_primes(gens)
                return [] if got == expected else [f"associated primes {got}, expected {expected}"]

            def sat_check(result, gens=gens):
                return checks.symbolic_power_errors(exponents(result), gens,
                                                    associated_primes(gens), 2)

            jobs.append(Job(f"J{k}.ass", lambda I=ideal: decomp.associated_primes(I),
                            lambda r: tuple(p.variables for p in r), ass_check))
            jobs.append(Job(f"J{k}.sat2",
                            lambda I=ideal: decomp.symbolic_power_saturation(I, 2, primes="ass"),
                            lambda r: tuple(exponents(r)), sat_check))
        return jobs

    # -- groebner-paper -----------------------------------------------------

    def _inputs_groebner_paper(self, rng):
        m = self.m
        files = {}
        for case in (m["counterexamples"].builtin_case_A6(), m["counterexamples"].builtin_case_A7()):
            # the recorded seven-variable witness does not give (x, y, z);
            # verify-paper reports that and uses the alternate, as here
            witness = case.witness_alt if case.witness_alt is not None else case.witness
            ring = m["rings"].Ring(seeded_names(rng, case.ring.nvars))

            def fmt(polys):
                polys = [m["groebner"].Polynomial(ring, p.coeffs) for p in polys]
                return ", ".join(m["ideal_files"].format_polynomial(p) for p in shuffled(rng, polys))

            lines = ["ring: " + " ".join(ring.variables),
                     "ideal I: " + fmt(case.ideal.generators),
                     "ideal F: " + fmt([witness]),
                     "ideal C: " + ", ".join(ring.variables[:3])]  # x, y, z
            lines += [f"ideal P{i}: " + fmt(p.generators) for i, p in enumerate(case.primes)]
            files[f"{case.name}.txt"] = "\n".join(lines) + "\n"
        return files

    def _jobs_groebner_paper(self):
        g = self.m["groebner"]

        def verify_check(payload):
            if not payload["all_pass"] or payload["budget_exhausted"]:
                return ["verify-paper did not pass every claim"]
            return []

        jobs = [self._cli_job("verify-paper", ["verify-paper", "--case", "all", "--format", "json"],
                              verify_check)]
        for file, parsed in self.parsed.items():
            label = file[: -len(".txt")]
            primes = [parsed.ideal(f"P{i}")
                      for i in range(sum(1 for k in parsed.ideals if k.startswith("P")))]
            ideal = parsed.ideal("I")
            for n in POLY_POWERS:
                def fold(primes=primes, n=n):
                    inter = g.ideal_power(primes[0], n)
                    for p in primes[1:]:
                        inter = g.ideal_intersect(inter, g.ideal_power(p, n))
                    return inter

                def fold_check(result, ideal=ideal, primes=primes, n=n):
                    # I^n lies in the intersection, which lies in every P^n
                    problems = [f"{h} of I^{n} is not in the intersection"
                                for h in g.ideal_power(ideal, n).generators
                                if not result.member(h)]
                    for i, p in enumerate(primes):
                        pn = g.ideal_power(p, n)
                        if not all(pn.member(h) for h in result.generators):
                            problems.append(f"the intersection is not inside P{i}^{n}")
                    return problems

                jobs.append(Job(f"{label}.n{n}", fold, str, fold_check))
            f = parsed.ideal("F").generators[0]
            expected = parsed.ideal("C")
            jobs.append(Job(f"{label}.colon",
                            lambda ideal=ideal, f=f: g.ideal_quotient(g.ideal_power(ideal, 2), f),
                            str,
                            lambda r, e=expected: [] if g.ideal_equals(r, e) else
                            [f"(I^2 : f) = {r}, expected (x, y, z)"]))
        return jobs
