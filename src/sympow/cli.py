"""Command-line front end.

Subcommands: ``sympow`` (symbolic power of a monomial ideal from a
file), ``bounds`` (degree-bound reports), ``growth`` (degree sequence),
``verify-paper`` (replay the built-in reference cases).

Exit codes: 0 success; 2 parse/lookup error; 3 method precondition
failure; 4 internal invariant violation; 5 a verify-paper claim failed;
6 the verify-paper time budget ran out. Only the report goes to stdout;
progress and diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import counterexamples as cx
from .bounds import BOUND_HUNEKE, BOUND_LCM, BoundReport, bound_report, degree_sequence, per_n_bound
from .cases import case_ex31, case_ex32
from .decomp import (NotSquarefreeError, irreducible_decomposition, symbolic_power, symbolic_power_from_decomposition,
                     symbolic_power_saturation, symbolic_power_squarefree)
from .groebner import InternalInvariantError, ideal_equals
from .ideal_files import ParseError, format_generators, monomial_ideal_from_poly, parse_ideal_file

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4
EXIT_VERIFY_FAIL = 5
EXIT_BUDGET = 6

VERIFY_CASES = ("ex31", "ex32", "lemma41", "lemma42", "ex43", "ex44")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0  # not an integer: refused below with the same message
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _budget_seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # not a number: refused below with the same message
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError("must be a finite number of seconds >= 0")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympow",
        description="Exact symbolic powers of ideals and degree-bound audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sympow", help="symbolic power of a monomial ideal")
    p.add_argument("--file", required=True)
    p.add_argument("--ideal", required=True)
    p.add_argument("--n", required=True, type=_positive_int)
    p.add_argument("--primes", choices=("min", "ass"))
    p.add_argument("--decomposition")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("bounds", help="degree-bound reports for a monomial ideal")
    p.add_argument("--file", required=True)
    p.add_argument("--ideal", required=True)
    p.add_argument("--n", required=True, type=_positive_int)
    p.add_argument("--D", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("growth", help="degree sequence of symbolic powers")
    p.add_argument("--file", required=True)
    p.add_argument("--ideal", required=True)
    p.add_argument("--N", required=True, type=_positive_int)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify-paper", help="replay the built-in reference cases")
    p.add_argument("--case", choices=VERIFY_CASES + ("all",), default="all")
    p.add_argument("--time-budget", type=_budget_seconds, default=None, metavar="SECONDS")
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _load_ideal(args):
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{args.file} is not UTF-8 text: {exc.reason} at byte {exc.start}", 0, 0) from exc
    parsed = parse_ideal_file(text)
    return parsed, parsed.ideal(args.ideal)


def _cmd_sympow(args) -> int:
    parsed, poly = _load_ideal(args)
    ideal = monomial_ideal_from_poly(poly)
    if args.decomposition is not None:
        if args.primes:
            raise ValueError("--primes does not go with --decomposition: the components define the power")
        components = [
            monomial_ideal_from_poly(c)
            for c in parsed.decomposition_components(args.decomposition)
        ]
        # the first symbolic power of a decomposition is its intersection
        if symbolic_power_from_decomposition(components, 1) != ideal:
            raise ValueError(f"the components of decomposition {args.decomposition} "
                             f"do not intersect to ideal {args.ideal}")
        result = symbolic_power_from_decomposition(components, args.n)
    elif args.primes == "ass":
        result = symbolic_power_saturation(ideal, args.n, primes="ass")
    else:
        result = symbolic_power(ideal, args.n)
    stats = result.degree_stats()
    if args.format == "json":
        payload = {"ideal": args.ideal, "n": args.n, "generators": [str(g) for g in result.generators],
                   "degrees": {"max": stats.max_gen_degree, "beg": stats.beg, "count": stats.count}}
        print(json.dumps(payload, indent=2))
    else:
        print(f"ideal {args.ideal}, n = {args.n}")
        print(f"generators ({stats.count}):")
        for g in result.generators:
            print(f"  {g}")
        print(f"degrees: beg = {stats.beg}, max = {stats.max_gen_degree}, count = {stats.count}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    _, poly = _load_ideal(args)
    ideal = monomial_ideal_from_poly(poly)
    # an invalid --D is refused before the power is computed
    per_n = {kind: per_n_bound(ideal, kind, args.D) for kind in (BOUND_HUNEKE, BOUND_LCM)}
    d_in = symbolic_power(ideal, args.n).degree_stats().max_gen_degree
    reports = [BoundReport(kind, args.n, d_in, bound * args.n) for kind, bound in per_n.items()]
    extras = {"lcm_monomial": str(ideal.lcm_of_generators()), "lcm_degree": per_n[BOUND_LCM]}
    if args.format == "json":
        payload = {"ideal": args.ideal, "n": args.n,
                   "reports": [{"bound_kind": r.bound_kind, "n": r.n, "d_In": r.d_in, "bound": r.bound,
                                "satisfied": r.satisfied} for r in reports], **extras}
        print(json.dumps(payload, indent=2))
    else:
        print(f"ideal {args.ideal}, n = {args.n}")
        for key, value in extras.items():
            print(f"{key} = {value}")
        for r in reports:
            verdict = "pass" if r.satisfied else "VIOLATED"
            print(f"{r.bound_kind}: d(I^({r.n})) = {r.d_in} vs bound {r.bound} -> {verdict}")
    return EXIT_OK


def _cmd_growth(args) -> int:
    _, poly = _load_ideal(args)
    ideal = monomial_ideal_from_poly(poly)
    seq = degree_sequence(ideal, args.N)
    if args.format == "json":
        payload = {"ideal": args.ideal, "N": args.N, "entries": [[n, d] for n, d in seq.entries],
                   "complete": seq.complete}
        print(json.dumps(payload, indent=2))
    else:
        print(f"ideal {args.ideal}, N = {args.N}")
        for n, d in seq.entries:
            print(f"  n = {n}: d = {d}")
        print(f"complete: {seq.complete}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-paper claims


def _claims_ex31():
    case = case_ex31()
    sq = symbolic_power_from_decomposition(case.components, 2)
    yield ("decomposition path reproduces the 6 recorded generators",
           sq == case.expected_square, format_generators(sq))
    sat = symbolic_power_saturation(case.ideal, 2)
    yield ("saturation path (minimal primes) agrees", sat == case.expected_square, "")
    sat_ass = symbolic_power_saturation(case.ideal, 2, primes="ass")
    yield ("saturation path (associated primes) agrees", sat_ass == case.expected_square, "")
    stats = sq.degree_stats()
    yield (f"beg = {case.expected_beg} and max degree = {case.expected_max_degree}",
           (stats.beg, stats.max_gen_degree) == (case.expected_beg, case.expected_max_degree),
           f"beg = {stats.beg}, max = {stats.max_gen_degree}")
    rep = bound_report(case.ideal, 2, stats.max_gen_degree, BOUND_HUNEKE, D=case.generator_degree)
    yield (f"generated in degrees <= {case.generator_degree}*2 with equality",
           rep.satisfied and rep.d_in == rep.bound,
           f"d = {rep.d_in}, bound = {rep.bound}")


def _claims_ex32():
    case = case_ex32()
    sq = symbolic_power_squarefree(case.ideal, 2)
    yield ("squarefree path reproduces the 31 recorded generators",
           sq == case.expected_square, f"{len(sq.generators)} generators")
    # the irreducible components of a squarefree ideal are its minimal primes,
    # found here by splitting generators rather than by Alexander duality
    components = irreducible_decomposition(case.ideal).components
    dec = symbolic_power_from_decomposition(components, 2)
    yield ("decomposition path (minimal primes) agrees", dec == case.expected_square, "")
    sat = symbolic_power_saturation(case.ideal, 2)
    yield ("saturation path agrees", sat == case.expected_square, "")
    stats = sq.degree_stats()
    yield (f"beg = {case.expected_beg} and max degree = {case.expected_max_degree}",
           (stats.beg, stats.max_gen_degree) == (case.expected_beg, case.expected_max_degree),
           f"beg = {stats.beg}, max = {stats.max_gen_degree}")
    rep = bound_report(case.ideal, 2, stats.max_gen_degree, BOUND_HUNEKE, D=case.generator_degree)
    yield (f"generated in degrees <= {case.generator_degree}*2",
           rep.satisfied, f"d = {rep.d_in}, bound = {rep.bound}")


def _claims_lemma41():
    case = cx.builtin_case_A6()
    colon = cx.colon_ideal(case, case.witness)
    yield ("(M^2 : f) = (x, y, z)", ideal_equals(colon, case.expected_colon),
           "basis: " + ", ".join(str(g) for g in colon.groebner_basis()))
    yield ("the 12 listed primes intersect to M (M is radical)",
           ideal_equals(cx.symbolic_power_from_primes(case.primes, 1), case.ideal), "")
    yield ("all 12 primes have height 2 (generated by a regular sequence)",
           all(map(cx.is_regular_pair, case.primes)), "(g1) : g2 = (g1) for each prime (g1, g2)")


def _claims_lemma42(progress):
    case = cx.builtin_case_A6()
    square = cx.symbolic_power_from_primes(case.primes, 2, progress)
    yield ("intersection of the 12 squared primes equals M^2 + (f)",
           ideal_equals(square, cx.symbolic_square_generators(case, case.witness)), "")


def _claims_ex43():
    case = cx.builtin_case_A6()
    yield ("f is not in M^2", not case.square().member(case.witness), "")
    deg = case.witness.total_degree()
    yield ("deg f = 9", deg == case.expected_witness_degree, f"deg f = {deg}")
    rep = cx.degree_violation_report(case, case.witness)
    yield ("d(M^(2)) = 9 > 8 = 2*4: the D*n bound fails at n = 2",
           not rep.satisfied and rep.d_in == 9 and rep.bound == 8,
           f"d = {rep.d_in}, bound = {rep.bound}")


def _claims_ex44():
    case = cx.builtin_case_A7()
    chosen = f = None
    details = []
    for which, candidate in (("recorded", case.witness), ("alternate", case.witness_alt)):
        ok = ideal_equals(cx.colon_ideal(case, candidate), case.expected_colon)
        details.append(f"{which} witness {candidate}: {'colon = (x, y, z)' if ok else 'colon differs'}")
        if ok and chosen is None:
            chosen, f = which, candidate
    yield ("(I^2 : f) = (x, y, z) for at least one witness candidate",
           chosen is not None,
           f"chosen witness: {chosen}; " + "; ".join(details))
    if chosen is not None:
        deg = f.total_degree()
        yield ("the working witness has degree 9", deg == 9, f"deg = {deg}")
        rep = cx.degree_violation_report(case, f)
        yield ("d(I^(2)) = 9 > 8 = 2*4: the D*n bound fails at n = 2",
               not rep.satisfied and rep.d_in == 9 and rep.bound == 8,
               f"d = {rep.d_in}, bound = {rep.bound}")
        yield ("intersection of the 12 squared primes equals I^2 + (f)",
               ideal_equals(cx.symbolic_power_from_primes(case.primes, 2),
                            cx.symbolic_square_generators(case, f)), "")
    yield ("the derived height-2 primes intersect to I (I is radical)",
           ideal_equals(cx.symbolic_power_from_primes(case.primes, 1), case.ideal),
           "derived prime list, 12 entries")
    yield ("the 12 derived primes have height 2 (generated by a regular sequence)",
           all(map(cx.is_regular_pair, case.primes)), "(g1) : g2 = (g1) for each prime (g1, g2)")


_EX44_NOTES = (
    "binomiality and Cohen-Macaulayness of the 7-variable ideal are not "
    "verified here (out of scope); the radical claim is evidenced only by "
    "the derived prime intersection",
)


def _cmd_verify_paper(args) -> int:
    selected = VERIFY_CASES if args.case == "all" else (args.case,)
    start = time.monotonic()
    budget = args.time_budget

    def progress(message):
        print(f"[{time.monotonic() - start:7.1f}s] {message}", file=sys.stderr)

    claim_sources = {"ex31": _claims_ex31, "ex32": _claims_ex32, "lemma41": _claims_lemma41,
                     "lemma42": lambda: _claims_lemma42(progress), "ex43": _claims_ex43, "ex44": _claims_ex44}

    results = []
    all_pass = True
    exhausted = False
    for name in selected:
        if budget is not None and time.monotonic() - start > budget:
            exhausted = True
            break
        case_entry = {"case": name, "claims": []}
        if name == "ex44":
            case_entry["notes"] = list(_EX44_NOTES)
        t0 = time.monotonic()
        for claim, passed, detail in claim_sources[name]():
            seconds = round(time.monotonic() - t0, 3)
            case_entry["claims"].append({"claim": claim, "pass": bool(passed), "seconds": seconds, "detail": detail})
            all_pass = all_pass and bool(passed)
            if budget is not None and time.monotonic() - start > budget:
                exhausted = True
                break
            t0 = time.monotonic()
        results.append(case_entry)
        if exhausted:
            break

    payload = {"cases": results, "all_pass": all_pass, "budget_exhausted": exhausted}
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for entry in results:
            print(f"case {entry['case']}:")
            for claim in entry["claims"]:
                mark = "PASS" if claim["pass"] else "FAIL"
                line = f"  {mark}  {claim['claim']}  ({claim['seconds']:.2f}s)"
                if claim["detail"]:
                    line += f"  [{claim['detail']}]"
                print(line)
            for note in entry.get("notes", ()):
                print(f"  NOTE  {note}")
        if exhausted:
            print("time budget exhausted; partial report")
        print("result: " + ("ALL PASS" if all_pass and not exhausted else
                            "BUDGET EXHAUSTED" if exhausted else "FAILURES"))
    if exhausted:
        return EXIT_BUDGET
    return EXIT_OK if all_pass else EXIT_VERIFY_FAIL


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"sympow": _cmd_sympow, "bounds": _cmd_bounds, "growth": _cmd_growth, "verify-paper": _cmd_verify_paper}
    try:
        return handlers[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (NotSquarefreeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
