import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ctrlinv.cli import run

from conftest import SYSTEMS_DIR

EX1 = str(SYSTEMS_DIR / "ex1.sys")
EX2 = str(SYSTEMS_DIR / "ex2.sys")
EX3 = str(SYSTEMS_DIR / "ex3.sys")
EX4 = str(SYSTEMS_DIR / "ex4.sys")
MISSING = str(SYSTEMS_DIR / "missing.sys")

FAST = ["--trials", "3", "--pieces", "2", "--horizon", "0.5"]


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestExitCodes:
    def test_success(self, capsys):
        assert run(["flag", EX1]) == 0
        capsys.readouterr()

    def test_tiny_coefficient_system_succeeds(self, capsys, tmp_path):
        # once a RankNotConstant exit: x/10^10 fell below a float tolerance
        path = tmp_path / "tiny.sys"
        path.write_text("states: x y z\ncontrol g1: [1, 0, 0]\n"
                        "control g2: [0, x/10000000000, 0]\n")
        assert run(["analyze", str(path)] + FAST) == 0
        capsys.readouterr()

    def test_domain_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.sys"
        bad.write_text("states: x y\ncontrol g1: [1, q]\n")
        assert run(["flag", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_usage_error_unknown_command(self, capsys):
        assert run(["bogus"]) == 2
        capsys.readouterr()

    def test_usage_error_bad_knob(self, capsys):
        assert run(["analyze", EX1, "--trials", "0"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["flag", EX1, "--trials", "3"],
        ["torsion", EX1, "--step", "0.01"],
        ["candidates", EX1, "--dmax", "2"],
        ["analyze", EX1, "--dmax", "2"],
        ["brackets", EX1, "--horizon", "1"],
        ["simulate", EX1, "--x0", "0,1,0", "--control", "0.1:1,0",
         "--trials", "3"],
        ["simulate", EX1, "--x0", "0,1,0", "--control", "0.1:1,0",
         "--format", "text"],
    ], ids=lambda argv: argv[0] + argv[-2])
    def test_unread_option_is_usage_error(self, argv, capsys):
        assert run(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


    @pytest.mark.parametrize("argv", [
        ["analyze", MISSING],
        ["analyze", str(SYSTEMS_DIR)],
        ["simulate", EX1, "--x0", "0,1,0", "--control", "x:1,0"],
        ["simulate", EX1, "--x0", "a,1,0", "--control", "1:1,0"],
        ["simulate", EX1, "--x0", "0,1,0", "--control", "0:1,0"],
        ["simulate", EX1, "--x0", "0,1,0", "--control", "nan:1,0"],
        ["simulate", EX3, "--x0", "0,0,0,0", "--control", "1:1,0",
         "--params", "a=foo"],
        ["simulate", EX3, "--x0", "0,0,0,0", "--control", "1:1,0",
         "--params", "q=1"],
        ["simulate", EX3, "--x0", "0,0,0,0", "--control", "1:1,0",
         "--params", "=3"],
        ["simulate", EX1, "--x0", "0,1,0", "--control", "0.1:1,0",
         "--step", "nan"],
        ["analyze", EX1, "--horizon", "nan"],
        ["analyze", EX1, "--step", "inf"],
        ["brackets", EX1, "--seed", "-1"],
        ["brackets", EX1, "--depth", "0"],
        ["brackets", EX1, "--depth", "-1"],
        # ex4 declares a > 0, b > 0
        ["simulate", EX4, "--x0", "0,0,0,0", "--control", "0.2:1,0",
         "--params", "a=-1,b=-2"],
        ["simulate", EX4, "--x0", "0,0,0,0", "--control", "0.2:1,0",
         "--params", "b=0"],
        # a step longer than the 0.1 s schedule
        ["simulate", EX1, "--x0", "0,1,0", "--control", "0.1:1,0",
         "--step", "1"],
    ])
    def test_malformed_input_is_usage_error(self, argv, capsys):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_uncertified_minor_denominator_is_named_error(self, tmp_path,
                                                          capsys):
        path = tmp_path / "minor.sys"
        path.write_text(
            "states: x y z w\n"
            "control g1: [sin(w), sin(w)*y - 2, 2, w*sin(w) + 1]\n"
            "control g2: [0, -4, y, y*cos(w) + 2]\n"
            "assume_nonzero: cos(w)\n")
        assert run(["candidates", str(path)]) == 1
        assert "is not certified nonzero" in capsys.readouterr().err


class TestJsonOutput:
    def test_flag_payload(self, capsys):
        code, payload = run_json(capsys, ["flag", EX1])
        assert code == 0
        assert payload["schema"] == 1
        assert payload["flag"]["type"] == [1, 0]

    def test_torsion_payload(self, capsys):
        code, payload = run_json(capsys, ["torsion", EX1])
        assert code == 0
        T = payload["torsion"]
        assert len(T["entries"]) == 1 and len(T["entries"][0]) == 1

    def test_candidates_payload(self, capsys):
        code, payload = run_json(capsys, ["candidates", EX1])
        assert code == 0
        assert set(payload["candidates"]) == {"z", "x + 1"}

    def test_verify_generalized(self, capsys):
        code, payload = run_json(
            capsys, ["verify", EX1, "--rho", "z"] + FAST)
        assert code == 0
        entry = payload["verify"]
        assert entry["classification"] == "GeneralizedFirstIntegral"
        assert entry["invariance"]["verdict"] == "Held"
        lc = entry["leaf_controllability"]
        assert lc["leaf_dimension"] == 2 and lc["controllable_on_leaf"]

    def test_verify_coarse_step_holds(self, capsys):
        # horizon/step is 2 attempted steps; the budget's floor still lets
        # the rejected first step of 0.1 shrink and reach the horizon
        code, payload = run_json(
            capsys, ["verify", EX1, "--rho", "z", "--trials", "2",
                     "--horizon", "0.2", "--step", "0.1"])
        assert code == 0
        invariance = payload["verify"]["invariance"]
        assert invariance["verdict"] == "Held"
        assert invariance["errors"] == []

    @pytest.mark.parametrize("seed", ["42", "7", "61"])
    def test_verify_two_linear_functions(self, capsys, seed):
        # {x + y = 0, y + z = 0} is a line that g1 = (1, y, 0) leaves
        code, payload = run_json(
            capsys, ["verify", EX1, "--rho", "x+y", "--rho", "y+z",
                     "--seed", seed] + FAST)
        assert code == 0
        entry = payload["verify"]
        assert entry["classification"] == "Rejected"
        assert entry["escape"]["value"] > 0.1

    def test_verify_empty_locus_is_domain_error(self, capsys):
        # x^2 + 1 has no real zeros, so no start point can be sampled
        assert run(["verify", EX1, "--rho", "x^2+1"] + FAST) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error [verify]: zero-locus sampling")

    def test_verify_rejected(self, capsys):
        code, payload = run_json(
            capsys, ["verify", EX2, "--rho", "y"] + FAST)
        assert code == 0
        entry = payload["verify"]
        assert entry["classification"] == "Rejected"
        assert entry["escape"]["value"] > 0.1

    def test_analyze_payload(self, capsys):
        code, payload = run_json(capsys, ["analyze", EX1] + FAST)
        assert code == 0
        assert payload["conclusion"].startswith("1 isolated")

    def test_brackets_payload(self, capsys):
        code, payload = run_json(capsys, ["brackets", EX1, "--depth", "3"])
        assert code == 0
        assert payload["depth"] == 3
        assert payload["rank_at_sample_point"] == 3


class TestSimulateCommand:
    def test_csv(self, capsys):
        code = run(["simulate", EX1, "--x0", "0,1,0",
                    "--control", "0.1:1,0", "--step", "0.01",
                    "--monitor", "z"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,x,y,z,u1,u2,rho1"
        assert len(lines) == 12

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = run(["simulate", EX1, "--x0", "0,1,0",
                    "--control", "0.1:1,0", "--step", "0.01",
                    "--output", str(out)])
        assert code == 0
        assert out.read_text().startswith("t,x,y,z")
        capsys.readouterr()

    def test_bad_x0_arity(self, capsys):
        assert run(["simulate", EX1, "--x0", "0,1",
                    "--control", "0.1:1,0"]) == 2
        capsys.readouterr()


class TestTextFormat:
    def test_analyze_text(self, capsys):
        code = run(["analyze", EX1, "--format", "text"] + FAST)
        assert code == 0
        out = capsys.readouterr().out
        assert "isolated" in out
        assert "Pfaffian type (1, 0)" in out

    def test_verify_text(self, capsys):
        code = run(["verify", EX1, "--rho", "z", "--format", "text"] + FAST)
        assert code == 0
        assert "GeneralizedFirstIntegral" in capsys.readouterr().out

    def test_brackets_text(self, capsys):
        code = run(["brackets", EX1, "--depth", "2", "--format", "text"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "depth 2, rank 3 at sample point"
        assert lines[1] == "  (1, y, 0)"

    # simulate writes CSV and has no --format
    @pytest.mark.parametrize("argv", [
        ["analyze", EX1, "--format", "text"] + FAST,
        ["flag", EX1, "--format", "text"],
        ["torsion", EX1, "--format", "text"],
        ["candidates", EX1, "--format", "text"],
        ["verify", EX1, "--rho", "z", "--format", "text"] + FAST,
        ["simulate", EX1, "--x0", "0,1,0", "--control", "0.1:1,0",
         "--step", "0.01"],
        ["brackets", EX1, "--depth", "2", "--format", "text"],
    ], ids=lambda argv: argv[0])
    def test_output_file_leaves_stdout_empty(self, argv, tmp_path, capsys):
        out = tmp_path / "out.txt"
        code = run(argv + ["--output", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().strip()


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        outs = []
        for i in range(2):
            path = tmp_path / f"r{i}.json"
            code = run(["analyze", EX1, "--seed", "42", "--output",
                        str(path)] + FAST)
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


# option -> a valid, cheap value, per subcommand
COMMON = {"--seed": "7", "--format": "text", "--output": "out.txt"}
NUMERIC = {"--trials": "2", "--pieces": "2", "--horizon": "0.2",
           "--step": "0.1"}
FUZZ_OPTIONS = {
    "analyze": {**COMMON, **NUMERIC},
    "verify": {**COMMON, **NUMERIC, "--rho": "x"},
    "flag": COMMON,
    "torsion": COMMON,
    "candidates": COMMON,
    "brackets": {**COMMON, "--depth": "3"},
    "simulate": {"--seed": "7", "--output": "out.csv", "--step": "0.05",
                 "--x0": None, "--control": "0.1:1,0", "--params": "a=1",
                 "--monitor": "x"},
}
# settings every argv of a subcommand starts with, so each run stays cheap
CHEAP = {
    "analyze": ["--trials", "2", "--horizon", "0.2", "--step", "0.1"],
    "verify": ["--trials", "2", "--horizon", "0.2", "--step", "0.1",
               "--rho", "z"],
    "brackets": ["--depth", "2"],
    "simulate": ["--x0", None, "--control", "0.1:1,0"],
}
FUZZ_VALUES = ["0", "-1", "nan", "inf", "abc", ""]
# system file -> its number of states
FUZZ_SYSTEMS = {str(SYSTEMS_DIR / f"ex{i}.sys"): n
                for i, n in enumerate((3, 3, 4, 4), start=1)}
FUZZ_SYSTEMS[MISSING] = 3


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
    path = draw(st.sampled_from(sorted(FUZZ_SYSTEMS)))
    # None stands for a start state of the right arity
    x0 = ",".join(["0.5"] * FUZZ_SYSTEMS[path])
    argv = [command, path] + CHEAP.get(command, [])
    options = FUZZ_OPTIONS[command]
    for option in draw(st.lists(st.sampled_from(sorted(options)),
                                max_size=3)):
        argv += [option, draw(st.sampled_from([options[option]]
                                              + FUZZ_VALUES))]
    return [x0 if a is None else a for a in argv]


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_argv())
def test_fuzzed_argv_ends_in_exit_code(argv, tmp_path, monkeypatch):
    # --output values are relative paths: keep them out of the checkout
    monkeypatch.chdir(tmp_path)
    assert run(argv) in (0, 1, 2)


def child_env():
    """The environment of a child Python process that imports ctrlinv from
    this checkout; it does not inherit pytest's pythonpath setting."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + path if path else ""))


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ctrlinv.cli", "flag", EX1],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema"] == 1


def test_analyze_imports_no_scipy():
    # sympy and numpy are the only dependencies: a full default analyze,
    # numeric evidence included, must not load scipy even where it is
    # installed
    script = ("import sys\n"
              "from ctrlinv.cli import run\n"
              f"code = run(['analyze', {EX4!r}, '--output', sys.argv[1]])\n"
              "print(code, sorted(m for m in sys.modules\n"
              "                   if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", script, os.devnull],
                          capture_output=True, text=True, env=child_env())
    assert proc.stdout == "0 []\n", proc.stderr
