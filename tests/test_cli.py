import json
import os
import pathlib
import subprocess
import sys

import pytest

from ctrlinv.cli import run

from conftest import SYSTEMS_DIR

EX1 = str(SYSTEMS_DIR / "ex1.sys")
EX2 = str(SYSTEMS_DIR / "ex2.sys")
EX3 = str(SYSTEMS_DIR / "ex3.sys")

FAST = ["--trials", "3", "--pieces", "2", "--horizon", "0.5"]


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestExitCodes:
    def test_success(self, capsys):
        assert run(["flag", EX1]) == 0
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


def test_console_entry_point():
    # the child process does not inherit pytest's pythonpath setting
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "ctrlinv.cli", "flag", EX1],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema"] == 1
