"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest bench

Each workload test sets up with one seed and makes two traced passes
(about half a minute in all).
"""

import json
import time

import pytest

import reference
import run
import tracing
import workloads


def _setup(workload, tracer=None, seed=7):
    return workloads.Setup(workload, seed, run.SRC, run.WORKDIR / f"test-{workload}", tracer)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_two_passes_make_the_same_counts(workload):
    tracer = tracing.Tracer()
    first = run.run_pass(_setup(workload, tracer), tracer)
    second = run.run_pass(_setup(workload, tracer), tracer)
    good = {}
    assert run.check_pass(first, 1, good) + run.check_pass(second, 2, good) == 0
    for span in ("groebner.buchberger", "ideals.minimalize"):
        assert first.layers.get(span, {}).get("calls") == second.layers.get(span, {}).get("calls")
    # every count, not only those two, repeats: no pass hits a memo of the one before
    values, mismatches = run.layer_values([first, second])
    assert mismatches == 0
    assert values["ideals.minimalize.calls"] > 0


def test_tracer_patches_every_binding_and_restores_it():
    setup = _setup("groebner-paper")
    m = setup.m
    originals = (m["groebner"].ideal_intersect, m["decomp"].symbolic_power,
                 m["ideals"].MonomialIdeal.__pow__)
    tracer = tracing.Tracer()
    tracer.install(m)
    try:
        assert m["counterexamples"].ideal_intersect is m["groebner"].ideal_intersect
        assert m["groebner"].ideal_intersect is not originals[0]
        assert m["bounds"].symbolic_power is m["cli"].symbolic_power is not originals[1]
        assert m["ideals"].MonomialIdeal.__pow__ is m["ideals"].MonomialIdeal.power
    finally:
        tracer.uninstall()
    assert (m["groebner"].ideal_intersect, m["decomp"].symbolic_power,
            m["ideals"].MonomialIdeal.__pow__) == originals
    assert m["counterexamples"].ideal_intersect is originals[0]


def test_wrong_results_and_errors_count_as_failures(capsys):
    def boom():
        raise ValueError("boom")

    p = run.Pass([workloads.Job("right", lambda: 1, lambda r: r, lambda r: []),
                  workloads.Job("wrong", lambda: 2, lambda r: r, lambda r: ["not 1"]),
                  workloads.Job("raises", boom, lambda r: r, lambda r: [])], False)
    for job in p.jobs:
        try:
            p.outcomes.append((job.call(), None))
        except ValueError as exc:
            p.outcomes.append((None, repr(exc)))
    assert run.check_pass(p, 1, {}) == 2
    err = capsys.readouterr().err
    assert "job wrong: not 1" in err and "job raises: raised" in err


def test_seeds_rename_the_same_inputs():
    one, two = _setup("saturation-ass", seed=1), _setup("saturation-ass", seed=2)
    assert one.files == _setup("saturation-ass", seed=1).files
    assert one.files["terai.txt"] != two.files["terai.txt"]
    for label in ("I", "J0", "J1"):
        name = "terai.txt" if label == "I" else "random.txt"
        ideals = [setup.monomial_ideal(name, label) for setup in (one, two)]
        assert ideals[0].ring.variables != ideals[1].ring.variables
        assert workloads.exponents(ideals[0]) == workloads.exponents(ideals[1])


def test_times_are_scaled_by_the_reference_loop(monkeypatch):
    # on a host that runs the loop in twice REF_S, a second counts as half a second
    monkeypatch.setattr(reference, "loop", lambda: 2 * reference.REF_S)

    def busy():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.05:
            pass

    p = run.run_pass(_Jobs([workloads.Job("busy", busy, lambda r: r, lambda r: [])]))
    assert 0.05 <= p.job_s[0] < 0.2
    assert p.norm_s[0] == pytest.approx(p.job_s[0] / 2)
    monkeypatch.undo()
    assert reference.loop() > 0


class _Jobs:
    def __init__(self, jobs):
        self._jobs = jobs

    def jobs(self):
        return self._jobs


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
