#!/usr/bin/env python3
"""Benchmark of sympow: three workloads, checked results, an optional traced run.

    python3 bench/run.py --workload sqfree-ladder --seed 1 --seconds 36 --trace 0

Run from the root of the repository (sympow is imported from `src/`).
Whole passes over the workload's job list run one after another, in this
one process and thread, while another still fits in `--seconds`. Every
pass runs on a set-up of its own (import, inputs, files, parsing), made
SETUP_REPS times and timed each time. Results are checked after each
pass, outside the timed region.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` passes alternate between untraced
and traced, and the JSON holds the per-layer metrics instead. The lines
before it give the host, each pass and every metric with its unit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import reference
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKDIR = BENCH / "_work"
WORKLOADS = ("sqfree-ladder", "saturation-ass", "groebner-paper")
SETUP_REPS = 3

END_TO_END = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; "s" and "self_s" are times, the rest counts
PER_LAYER = {
    "ideals.minimalize.calls": "count",
    "ideals.minimalize.self_s": "s",
    "ideals.minimalize.in": "count",
    "ideals.minimalize.out": "count",
    "ideals.minimalize.survival": "ratio",
    "ideals.intersect.calls": "count",
    "ideals.intersect.s": "s",
    "ideals.intersect.pairs": "count",
    "ideals.intersect.peak_gens": "count",
    "ideals.mul.calls": "count",
    "ideals.mul.s": "s",
    "ideals.saturate.calls": "count",
    "ideals.saturate.s": "s",
    "ideals.quotient.calls": "count",
    "decomp.minimal_variable_primes.calls": "count",
    "decomp.minimal_variable_primes.s": "s",
    "decomp.minimal_variable_primes.primes": "count",
    "decomp.irreducible_decomposition.calls": "count",
    "decomp.irreducible_decomposition.s": "s",
    "decomp.irreducible_decomposition.components": "count",
    "decomp.associated_primes.calls": "count",
    "decomp.associated_primes.s": "s",
    "decomp.symbolic_power_squarefree.calls": "count",
    "decomp.symbolic_power_squarefree.s": "s",
    "decomp.symbolic_power_squarefree.self_s": "s",
    "decomp.symbolic_power_saturation.calls": "count",
    "decomp.symbolic_power_saturation.s": "s",
    "decomp.symbolic_power_saturation.self_s": "s",
    "bounds.degree_sequence.calls": "count",
    "bounds.degree_sequence.s": "s",
    "groebner.buchberger.calls": "count",
    "groebner.buchberger.s": "s",
    "groebner.buchberger.self_s": "s",
    "groebner.buchberger.basis_out": "count",
    "groebner.normal_form.calls": "count",
    "groebner.normal_form.s": "s",
    "groebner.normal_form.zero_ratio": "ratio",
    "groebner.s_polynomial.calls": "count",
    "groebner.ideal_intersect.calls": "count",
    "groebner.ideal_intersect.s": "s",
    "groebner.ideal_quotient.calls": "count",
    "groebner.ideal_quotient.s": "s",
    "groebner.ideal_equals.calls": "count",
    "groebner.ideal_equals.s": "s",
    "ideal_files.parse_ideal_file.calls": "count",
    "ideal_files.parse_ideal_file.s": "s",
    "cli.main.s": "s",
    "trace.overhead_s": "s",
}
TIME_FIELDS = ("s", "self_s")


class Pass:
    """One pass over the job list: outcomes, times and, when traced, the layer totals."""

    def __init__(self, jobs, traced):
        self.jobs = jobs
        self.traced = traced
        self.outcomes = []  # (result, traceback text or None) per job, until checked
        self.failed = 0
        self.setup_s = []  # the set-ups made for this pass, the last one used
        self.setup_norm_s = []  # the same, normalized by the reference loop
        self.job_s = []
        self.norm_s = []  # job_s, normalized by the reference loop
        self.wall_s = self.cpu_s = 0.0
        self.elapsed_s = 0.0  # set-ups, pass, reference loops and checks
        self.layers = {}


def run_pass(setup, tracer=None) -> Pass:
    """Time every job of a fresh set-up once; a raised error is kept, not rethrown.

    The reference loop runs before the first job and after each one,
    outside the jobs' times, and the pass's wall and CPU time are the sums
    of the jobs' own.

    With a tracer, it must have been installed in the set-up's modules
    (`workloads.Setup(..., tracer=...)`); it is uninstalled here.
    """
    try:
        p = Pass(setup.jobs(), tracer is not None)
        gc.collect()
        refs = [reference.loop()]
        for job in p.jobs:
            t0, cpu0 = perf_counter(), process_time()
            try:
                p.outcomes.append((job.call(), None))
            except Exception:
                p.outcomes.append((None, traceback.format_exc()))
            p.job_s.append(perf_counter() - t0)
            p.cpu_s += process_time() - cpu0
            refs.append(reference.loop())
        p.wall_s = sum(p.job_s)
        p.norm_s = [reference.normalized(t, a, b) for t, a, b in zip(p.job_s, refs, refs[1:])]
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        p.layers = tracer.layer_metrics()
        tracer.reset()
    return p


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Closed loop: set-up and pass, back to back, while the next pair is expected to fit.

    Every pass gets SETUP_REPS fresh set-ups, each timed, and runs on the
    last, so no pass reuses a module, cache or parsed input of the one
    before. Untraced passes only, or with tracing alternating untraced and
    traced passes with at least one of each. Each pass is checked when it
    ends and its results then dropped, so later passes do not run with
    the results of earlier ones alive.
    """
    good = {}
    tracer = tracing.Tracer() if trace else None
    reference.loop()  # warm-up
    passes = []
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        need = 2 if trace else 1
        longest = max((p.elapsed_s for p in passes), default=0.0)
        if len(passes) >= need and perf_counter() - start + longest > seconds:
            return passes
        began = perf_counter()
        setup_s, setup_norm_s = [], []
        setup = None  # let the previous set-up's modules and inputs be freed first
        gc.collect()
        before = reference.loop()
        for rep in range(SETUP_REPS):
            t0 = perf_counter()
            setup = workloads.Setup(workload, seed, SRC, WORKDIR / workload,
                                    tracer if traced and rep == SETUP_REPS - 1 else None)
            setup_s.append(perf_counter() - t0)
            after = reference.loop()
            setup_norm_s.append(reference.normalized(setup_s[-1], before, after))
            before = after
        p = run_pass(setup, tracer if traced else None)
        setup = None
        p.setup_s, p.setup_norm_s = setup_s, setup_norm_s
        p.failed = check_pass(p, len(passes) + 1, good)
        p.outcomes.clear()
        p.elapsed_s = perf_counter() - began
        print(f"pass {len(passes) + 1}{' traced' if traced else ''}: wall {p.wall_s:.4f} s, "
              f"cpu {p.cpu_s:.4f} s, normalized {sum(p.norm_s):.4f} s, {len(p.jobs)} jobs; "
              f"set-up median {statistics.median(setup_s):.4f} s of {len(setup_s)}", flush=True)
        passes.append(p)


def check_pass(p, number: int, good: dict) -> int:
    """Check every job outcome of pass `number`; return how many failed. Problems go to stderr.

    The first correct result of a job is checked in full and its key kept
    in `good`; a later result with the same key is taken as correct
    without checking it again.
    """
    failed = 0
    for job, (result, error) in zip(p.jobs, p.outcomes):
        problems = [f"raised:\n{error}"] if error else None
        if problems is None:
            try:
                key = job.key(result)
                if job.name in good and good[job.name] == key:
                    continue
                problems = job.check(result)
            except Exception:
                problems = [f"check raised:\n{traceback.format_exc()}"]
            if not problems:
                good[job.name] = key
                continue
        failed += 1
        print(f"FAIL pass {number} job {job.name}: " + "; ".join(problems), file=sys.stderr)
    return failed


def layer_values(traced) -> tuple:
    """Per-layer metrics of the traced passes, and how many count metrics disagreed.

    Counts come from the first traced pass and must repeat exactly in the
    others; times are medians over the traced passes.
    """
    values, mismatches = {}, 0
    for metric in PER_LAYER:
        span, field = metric.rsplit(".", 1)
        if span == "trace":
            continue
        per_pass = [p.layers.get(span, {}).get(field, 0) for p in traced]
        if field in TIME_FIELDS:
            values[metric] = statistics.median(per_pass)
        else:
            values[metric] = per_pass[0]
            if any(v != per_pass[0] for v in per_pass[1:]):
                mismatches += 1
                print(f"FAIL count {metric} differs between traced passes: {per_pass}",
                      file=sys.stderr)
    return values, mismatches


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print(f"host: python {platform.python_version()}, nproc {nproc()}, "
          f"{platform.machine()}, workload {args.workload}, seed {args.seed}", flush=True)
    passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = sum(p.failed for p in passes)
    attempted = sum(len(p.jobs) for p in passes)
    print(f"fail_ratio = {failed / attempted:.4f} ratio ({failed} of {attempted} jobs)")

    if args.trace:
        traced = [p for p in passes if p.traced]
        values, mismatches = layer_values(traced)
        failed += mismatches
        # normalized: raw pass times drift with the host by more than the overhead
        values["trace.overhead_s"] = (
            statistics.median(sum(p.norm_s) for p in traced)
            - statistics.median(sum(p.norm_s) for p in passes if not p.traced))
        units, notes = PER_LAYER, {}
    else:
        job_s = [t for p in passes for t in p.job_s]
        setup_s = [t for p in passes for t in p.setup_s]
        # raw times, printed but not gated: a busy host slows whole runs by a third
        print(f"wall_s = {statistics.median(p.wall_s for p in passes):.6g} s "
              f"(median of {len(passes)} passes)")
        print(f"job_s.p50 = {statistics.median(job_s):.6g} s (median of {len(job_s)} jobs = "
              f"{len(passes[0].jobs)} x {len(passes)} passes)")
        print(f"raw setup_s = {statistics.median(setup_s):.6g} s (median of {len(setup_s)} set-ups)")
        # each job at its median over the passes, then summed
        per_job = [statistics.median(times) for times in zip(*(p.norm_s for p in passes))]
        setup_norm_s = [t for p in passes for t in p.setup_norm_s]
        values = {
            "wall_norm_s": sum(per_job),
            "setup_s": statistics.median(setup_norm_s),
            "peak_rss_mb": peak_rss_mb,
        }
        units, notes = END_TO_END, {
            "wall_norm_s": f"sum over {len(per_job)} jobs of each one's median normalized "
                           f"time over {len(passes)} passes",
            "setup_s": f"median of {len(setup_norm_s)} normalized set-ups",
            "peak_rss_mb": "ru_maxrss after the last pass",
        }
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}" + (f" ({notes[name]})" if name in notes else ""))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
