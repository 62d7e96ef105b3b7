"""CLI contract: flags, report shapes, JSON schemas, exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import sympow
from sympow import monomial_ideal_from_poly, parse_ideal_file
from sympow.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_VERIFY_FAIL,
    _build_parser,
    main,
)
from sympow.schemas import BOUNDS_SCHEMA, GROWTH_SCHEMA, SYMPOW_SCHEMA, VERIFY_SCHEMA

EX31_FILE = """\
ring: x y z t
ideal I: x*z, x*t^2, y^2*z
ideal P1: x, y^2
ideal P2: z, t^2
ideal P3: x, z
ideal M: x*(x - y), y
decomposition D: P1 & P2 & P3
"""

TERAI_FILE = """\
ring: a b c d e f
ideal T: a*b*c, a*b*f, a*c*e, a*d*e, a*d*f, b*c*d, b*d*e, b*e*f, c*d*f, c*e*f
"""


@pytest.fixture
def ex31_path(tmp_path):
    path = tmp_path / "ex31.ideal"
    path.write_text(EX31_FILE)
    return str(path)


@pytest.fixture
def terai_path(tmp_path):
    path = tmp_path / "terai.ideal"
    path.write_text(TERAI_FILE)
    return str(path)


class TestSympowCommand:
    def test_decomposition_method(self, ex31_path, capsys):
        code = main(["sympow", "--file", ex31_path, "--ideal", "I", "--n", "2",
                     "--decomposition", "D", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, SYMPOW_SCHEMA)
        assert len(payload["generators"]) == 6
        assert payload["degrees"] == {"max": 6, "beg": 4, "count": 6}

    def test_saturation_default(self, ex31_path, capsys):
        code = main(["sympow", "--file", ex31_path, "--ideal", "I", "--n", "2",
                     "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["degrees"]["count"] == 6

    def test_associated_primes_selector(self, ex31_path, capsys):
        code = main(["sympow", "--file", ex31_path, "--ideal", "I", "--n", "2",
                     "--primes", "ass", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["degrees"] == {"max": 6, "beg": 4, "count": 6}

    def test_terai_squarefree(self, terai_path, capsys):
        code = main(["sympow", "--file", terai_path, "--ideal", "T", "--n", "2",
                     "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, SYMPOW_SCHEMA)
        assert len(payload["generators"]) == 31
        assert payload["degrees"] == {"max": 6, "beg": 5, "count": 31}

    def test_n1_echoes_squarefree_input(self, terai_path, capsys):
        code = main(["sympow", "--file", terai_path, "--ideal", "T", "--n", "1",
                     "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["degrees"] == {"max": 3, "beg": 3, "count": 10}

    @pytest.mark.parametrize("nvars, edges", [(48, [(2 * i, 2 * i + 1) for i in range(24)]),
                                              (60, [(i, i + 1) for i in range(59)])],
                             ids=["matching-24", "path-60"])
    def test_n1_needs_no_minimal_primes(self, tmp_path, nvars, edges):
        # 2^24 and 20,330,163 minimal primes: a squarefree ideal is radical, so
        # its first symbolic power is itself, with no fold
        text = (f"ring: {' '.join(f'x{i}' for i in range(nvars))}\n"
                f"ideal I: {', '.join(f'x{i}*x{j}' for i, j in edges)}\n")
        path = tmp_path / "graph.ideal"
        path.write_text(text)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(sympow.__file__).parent.parent),
                                                           os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-m", "sympow", "sympow", "--file", str(path), "--ideal", "I",
                              "--n", "1", "--format", "json"], env=env, capture_output=True, text=True, timeout=10)
        assert out.returncode == EXIT_OK
        ideal = monomial_ideal_from_poly(parse_ideal_file(text).ideal("I"))
        assert json.loads(out.stdout)["generators"] == [str(g) for g in ideal.generators]
        assert len(ideal.exps) == len(edges)

    def test_text_format(self, ex31_path, capsys):
        code = main(["sympow", "--file", ex31_path, "--ideal", "I", "--n", "2"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "ideal I, n = 2"
        assert "generators (6):" in out and "beg = 4" in out

    @pytest.mark.parametrize("ideal, flags, taken, squarefree", [
        ("I", [], ["symbolic_power"], 0),
        ("I", ["--primes", "min"], ["symbolic_power"], 0),
        ("I", ["--primes", "ass"], ["symbolic_power_saturation primes=ass"], 0),
        # the intersection check at n = 1, then the power
        ("I", ["--decomposition", "D"], ["symbolic_power_from_decomposition"] * 2, 0),
        ("T", [], ["symbolic_power"], 1),
    ], ids=["default", "primes-min", "primes-ass", "decomposition", "squarefree-input"])
    def test_path_rule(self, ex31_path, terai_path, capsys, monkeypatch, ideal, flags, taken, squarefree):
        import sympow.cli as cli
        import sympow.decomp as decomp

        calls = []
        for name in ("symbolic_power", "symbolic_power_saturation", "symbolic_power_from_decomposition"):
            def recorded(*args, name=name, original=getattr(cli, name), **kwargs):
                calls.append(" ".join([name] + [f"{k}={v}" for k, v in kwargs.items()]))
                return original(*args, **kwargs)
            monkeypatch.setattr(cli, name, recorded)
        squarefree_calls = []
        original_squarefree = decomp.symbolic_power_squarefree
        monkeypatch.setattr(decomp, "symbolic_power_squarefree",
                            lambda *args: squarefree_calls.append(args) or original_squarefree(*args))
        code = main(["sympow", "--file", ex31_path if ideal == "I" else terai_path,
                     "--ideal", ideal, "--n", "2", *flags, "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["degrees"]["count"] == (6 if ideal == "I" else 31)
        assert calls == taken
        # symbolic_power takes the squarefree path on squarefree input only
        assert len(squarefree_calls) == squarefree


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ideal"
        path.write_text("ring: x\nideal I: x*q\n")
        code = main(["sympow", "--file", str(path), "--ideal", "I", "--n", "1"])
        assert code == EXIT_PARSE
        assert "unknown variable" in capsys.readouterr().err

    def test_deep_nesting_is_2(self, tmp_path, capsys):
        path = tmp_path / "deep.ideal"
        path.write_text("ring: x\nideal I: " + "(" * 5000 + "x" + ")" * 5000 + "\n")
        code = main(["sympow", "--file", str(path), "--ideal", "I", "--n", "1"])
        assert code == EXIT_PARSE
        assert "nested deeper" in capsys.readouterr().err

    def test_non_utf8_file_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ideal"
        path.write_bytes(b"ring: x y\nideal I: x*y \xff\n")
        code = main(["sympow", "--file", str(path), "--ideal", "I", "--n", "2"])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path} is not UTF-8 text" in captured.err

    def test_missing_file_is_2(self, tmp_path):
        code = main(["sympow", "--file", str(tmp_path / "nope"), "--ideal", "I", "--n", "1"])
        assert code == EXIT_PARSE

    def test_missing_ideal_name_is_2(self, ex31_path):
        code = main(["sympow", "--file", ex31_path, "--ideal", "Q", "--n", "1"])
        assert code == EXIT_PARSE

    def test_method_flag_is_gone(self, ex31_path, capsys):
        code = main(["sympow", "--file", ex31_path, "--ideal", "I", "--n", "2",
                     "--method", "saturation"])
        assert code == EXIT_PARSE
        assert "unrecognized arguments: --method" in capsys.readouterr().err

    def test_non_monomial_ideal_is_3(self, ex31_path, capsys):
        code = main(["sympow", "--file", ex31_path, "--ideal", "M", "--n", "2"])
        assert code == EXIT_PRECONDITION
        assert "monomial" in capsys.readouterr().err

    def test_usage_error_is_2(self, capsys):
        code = main(["sympow", "--n", "2"])
        assert code == 2
        capsys.readouterr()

    def test_budget_exhaustion_is_6(self, capsys):
        code = main(["verify-paper", "--case", "all", "--time-budget", "0"])
        assert code == EXIT_BUDGET
        out = capsys.readouterr().out
        assert "budget" in out.lower()

    @pytest.mark.parametrize("budget", ["-1", "nan", "inf", "-inf"])
    def test_bad_time_budget_is_2(self, capsys, budget):
        code = main(["verify-paper", "--case", "ex31", f"--time-budget={budget}"])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite number of seconds" in captured.err

    @pytest.mark.parametrize("argv, rule", [
        (["growth", "--file", "f", "--ideal", "I", "--N", "x"],
         "argument --N: must be a positive integer"),
        (["sympow", "--file", "f", "--ideal", "I", "--n", "2.5"],
         "argument --n: must be a positive integer"),
        (["verify-paper", "--time-budget", "abc"],
         "argument --time-budget: must be a finite number of seconds >= 0"),
    ], ids=["growth-N", "sympow-n", "time-budget"])
    def test_malformed_number_is_2(self, capsys, argv, rule):
        code = main(argv)
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert rule in err
        # no Python helper name such as _positive_int leaks into the message
        assert not re.search(r"\b_[a-z]", err)

    def test_failing_claim_is_5(self, capsys, monkeypatch):
        import sympow.cli as cli

        def bad_claims():
            yield ("intentionally failing claim", False, "")

        monkeypatch.setitem(cli._cmd_verify_paper.__globals__, "_claims_ex31", bad_claims)
        code = main(["verify-paper", "--case", "ex31"])
        assert code == cli.EXIT_VERIFY_FAIL
        assert "FAIL" in capsys.readouterr().out

    def test_zero_ideal_is_3(self, tmp_path, capsys):
        path = tmp_path / "zero.ideal"
        path.write_text("ring: x\nideal Z:\n")
        code = main(["sympow", "--file", str(path), "--ideal", "Z", "--n", "2"])
        assert code == EXIT_PRECONDITION

    @pytest.mark.parametrize("primes", ["min", "ass"])
    def test_primes_with_decomposition_is_3(self, ex31_path, capsys, monkeypatch, primes):
        import sympow.cli as cli

        calls = []
        monkeypatch.setattr(cli, "symbolic_power_from_decomposition", lambda *args: calls.append(args))
        code = main(["sympow", "--file", ex31_path, "--ideal", "I", "--n", "2",
                     "--decomposition", "D", "--primes", primes])
        assert code == EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--primes does not go with --decomposition" in captured.err
        assert calls == []  # refused before any power is computed

    @pytest.mark.parametrize("name, message", [("Z", "zero ideal"), ("U", "unit ideal")])
    def test_decomposition_of_zero_or_unit_ideal_is_3(self, tmp_path, capsys, name, message):
        path = tmp_path / "zu.ideal"
        path.write_text(f"ring: x y\nideal Z:\nideal U: 1\ndecomposition D: {name}\n")
        code = main(["sympow", "--file", str(path), "--ideal", name, "--n", "2",
                     "--decomposition", "D"])
        assert code == EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_decomposition_of_another_ideal_is_3(self, tmp_path, capsys):
        # (x) ∩ (z) = (x*z), but I = (x*y, y*z) = (y) ∩ (x, z)
        path = tmp_path / "mismatch.ideal"
        path.write_text("ring: x y z\nideal I: x*y, y*z\nideal A: x\nideal B: z\n"
                        "decomposition D: A & B\n")
        code = main(["sympow", "--file", str(path), "--ideal", "I", "--n", "2",
                     "--decomposition", "D"])
        assert code == EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "do not intersect to ideal I" in captured.err


class TestBoundsCommand:
    def test_all_bounds_json(self, ex31_path, capsys):
        code = main(["bounds", "--file", ex31_path, "--ideal", "I", "--n", "2",
                     "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, BOUNDS_SCHEMA)
        kinds = {r["bound_kind"]: r for r in payload["reports"]}
        assert kinds["huneke_D_times_n"]["satisfied"]
        assert kinds["huneke_D_times_n"]["d_In"] == 6
        assert kinds["huneke_D_times_n"]["bound"] == 6
        assert kinds["lcm_degree"]["bound"] == 12
        assert payload["lcm_degree"] == 6
        assert payload["lcm_monomial"] == "x*y^2*z*t^2"
        assert list(kinds) == ["huneke_D_times_n", "lcm_degree"]
        assert set(payload) == {"ideal", "n", "reports", "lcm_monomial", "lcm_degree"}

    def test_explicit_D(self, ex31_path, capsys):
        code = main(["bounds", "--file", ex31_path, "--ideal", "I", "--n", "2",
                     "--D", "5", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["reports"][0]["bound"] == 10

    def test_all_bounds_compute_the_power_once(self, terai_path, capsys, monkeypatch):
        import sympow.decomp as decomp

        calls = []
        original = decomp.symbolic_power_squarefree

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(decomp, "symbolic_power_squarefree", counted)
        code = main(["bounds", "--file", terai_path, "--ideal", "T", "--n", "2",
                     "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert [r["d_In"] for r in payload["reports"]] == [6, 6]
        assert len(calls) == 1

    def test_D_below_generators_is_3(self, ex31_path, capsys, monkeypatch):
        import sympow.cli as cli

        calls = []
        monkeypatch.setattr(cli, "symbolic_power", lambda *args: calls.append(args))
        code = main(["bounds", "--file", ex31_path, "--ideal", "I", "--n", "2",
                     "--D", "1"])
        assert code == EXIT_PRECONDITION
        assert "D = 1 is below the max generator degree 3" in capsys.readouterr().err
        assert calls == []  # refused before the power is computed

    def test_bound_flag_is_gone(self, ex31_path, capsys):
        code = main(["bounds", "--file", ex31_path, "--ideal", "I", "--n", "2",
                     "--bound", "lcm"])
        assert code == EXIT_PARSE
        assert "unrecognized arguments: --bound" in capsys.readouterr().err

    def test_D_with_all_bounds(self, ex31_path, capsys):
        code = main(["bounds", "--file", ex31_path, "--ideal", "I", "--n", "2",
                     "--D", "5", "--format", "json"])
        assert code == EXIT_OK
        bounds = {r["bound_kind"]: r["bound"] for r in json.loads(capsys.readouterr().out)["reports"]}
        assert bounds == {"huneke_D_times_n": 10, "lcm_degree": 12}


class TestGrowthCommand:
    def test_principal_growth(self, tmp_path, capsys):
        path = tmp_path / "p.ideal"
        path.write_text("ring: x y\nideal P: x*y\n")
        code = main(["growth", "--file", str(path), "--ideal", "P", "--N", "3",
                     "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, GROWTH_SCHEMA)
        assert payload["entries"] == [[1, 2], [2, 4], [3, 6]]
        assert payload["complete"]
        assert set(payload) == {"ideal", "N", "entries", "complete"}

    def test_principal_growth_text(self, tmp_path, capsys):
        path = tmp_path / "p.ideal"
        path.write_text("ring: x y\nideal P: x*y\n")
        assert main(["growth", "--file", str(path), "--ideal", "P", "--N", "2"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "ideal P, N = 2", "  n = 1: d = 2", "  n = 2: d = 4", "complete: True"]

    def test_recorded_growth(self, ex31_path, capsys):
        code = main(["growth", "--file", ex31_path, "--ideal", "I", "--N", "2",
                     "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == [[1, 3], [2, 6]]

    @pytest.mark.parametrize("name, message", [("Z", "zero ideal"), ("U", "unit ideal")])
    def test_zero_and_unit_ideal_are_3(self, tmp_path, capsys, name, message):
        path = tmp_path / "zu.ideal"
        path.write_text("ring: x y\nideal Z:\nideal U: 1\n")
        code = main(["growth", "--file", str(path), "--ideal", name, "--N", "2"])
        assert code == EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestVerifyPaper:
    def test_single_cheap_case(self, capsys):
        code = main(["verify-paper", "--case", "ex31", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, VERIFY_SCHEMA)
        assert payload["all_pass"] and not payload["budget_exhausted"]
        assert payload["cases"][0]["case"] == "ex31"
        assert all(c["pass"] for c in payload["cases"][0]["claims"])

    def test_ex44_checks_the_squared_prime_intersection(self, capsys):
        code = main(["verify-paper", "--case", "ex44", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, VERIFY_SCHEMA)
        claims = {c["claim"]: c["pass"] for c in payload["cases"][0]["claims"]}
        assert claims["intersection of the 12 squared primes equals I^2 + (f)"]

    def test_ex44_checks_the_derived_prime_heights(self, capsys):
        code = main(["verify-paper", "--case", "ex44", "--format", "json"])
        assert code == EXIT_OK
        claims = {c["claim"]: c["pass"]
                  for c in json.loads(capsys.readouterr().out)["cases"][0]["claims"]}
        assert claims["the 12 derived primes have height 2 (generated by a regular sequence)"]

    @staticmethod
    def report_without_timings(capsys):
        assert main(["verify-paper", "--case", "all", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        for case in payload["cases"]:
            for claim in case["claims"]:
                del claim["seconds"]
        return payload

    def test_repeated_runs_agree(self, capsys):
        assert self.report_without_timings(capsys) == self.report_without_timings(capsys)

    def test_report_is_pinned(self, capsys):
        # every claim, pass flag and detail string of the full report, so a
        # kernel change that alters any computed ideal or its printing fails
        text = json.dumps(self.report_without_timings(capsys), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "37de1b515e322014b8a9ef4ba9970a923e2032d77f5b06172b8443393f98eb49"
        )

    def test_ex32_decomposition_claim_is_independent(self, capsys, monkeypatch):
        import sympow.decomp as decomp

        original = decomp.minimal_variable_primes
        monkeypatch.setattr(decomp, "minimal_variable_primes", lambda I: original(I)[:-1])
        code = main(["verify-paper", "--case", "ex32", "--format", "json"])
        assert code == EXIT_VERIFY_FAIL
        claims = {c["claim"]: c["pass"]
                  for c in json.loads(capsys.readouterr().out)["cases"][0]["claims"]}
        assert not claims["squarefree path reproduces the 31 recorded generators"]
        assert claims["decomposition path (minimal primes) agrees"]

    def test_text_report_only_on_stdout(self, capsys):
        code = main(["verify-paper", "--case", "ex32"])
        assert code == EXIT_OK
        out, err = capsys.readouterr()
        assert "PASS" in out
        assert "PASS" not in err


def readme_synopsis():
    """Flags per subcommand in the ``sh`` block of README's CLI section."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", text, re.S | re.M).group(1)
    flags = {}
    command = None
    for line in block.splitlines():
        match = re.match(r"sympow (\S+)", line)
        if match:
            command = match.group(1)
            flags[command] = set()
        if command is not None:
            flags[command].update(re.findall(r"--[a-zA-Z][\w-]*", line))
    return flags


def test_readme_synopsis_matches_the_parser():
    subparsers = next(a for a in _build_parser()._actions if a.choices and a.dest == "command")
    parser_flags = {
        name: {opt for action in sub._actions for opt in action.option_strings if opt not in ("-h", "--help")}
        for name, sub in subparsers.choices.items()
    }
    assert readme_synopsis() == parser_flags
