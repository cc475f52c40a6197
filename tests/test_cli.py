import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
import sympy as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ctrlinv.flag as flag_module
from ctrlinv.cli import render_text, run

from conftest import SYSTEMS_DIR
from test_flag import on_hyperplane_first

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

    # ex1 with the coefficient 1 of g1 raised to 10^400, beyond the double
    # range: each float evaluation writes it as inf
    HUGE = ("states: x y z\ncontrol g1: [10^400, y, 0]\n"
            "control g2: [0, 1, x*z]\n")

    @pytest.mark.parametrize("argv, code, err", [
        (["analyze", "HUGE"] + FAST, 0, ""),
        (["verify", EX1, "--rho", "z-10^400"] + FAST, 0, ""),
        (["simulate", "HUGE", "--x0", "0,0,0", "--control", "1:1,0",
          "--step", "0.5"], 1, "error [simulate]: vector field evaluation "
                               "produced non-finite values\n"),
        (["brackets", "HUGE"], 0, ""),
    ], ids=["analyze", "verify", "simulate", "brackets"])
    def test_coefficient_beyond_double_range(self, argv, code, err, capsys,
                                             tmp_path):
        # once a ValueError from fsum or an OverflowError: a traceback
        path = tmp_path / "huge.sys"
        path.write_text(self.HUGE)
        assert run([str(path) if a == "HUGE" else a for a in argv]) == code
        out = capsys.readouterr()
        assert out.err == err
        if argv[0] == "verify":
            entry = json.loads(out.out)["verify"]
            assert entry["classification"] == "Rejected"
            assert entry["escape"] is None
        if argv[0] == "analyze":  # exact ranks see 10^400 as it is
            lc, = [e["leaf_controllability"]
                   for e in json.loads(out.out)["isolated"]]
            assert (lc["bracket_rank"], lc["leaf_dimension"]) == (2, 2)
        if argv[0] == "brackets":
            assert json.loads(out.out)["rank"] == 3

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
        # values that are not finite; ex3's a is unsigned
        ["simulate", EX1, "--x0", "0,nan,0", "--control", "1:1,0"],
        ["simulate", EX1, "--x0", "0,0,0", "--control", "1:1,nan"],
        ["simulate", EX3, "--x0", "0,0,0,0", "--control", "1:1,0",
         "--params", "a=inf"],
    ])
    def test_malformed_input_is_usage_error(self, argv, capsys):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["analyze", EX1, "--step", "1e-320"],
        ["verify", EX1, "--rho", "x", "--horizon", "1e308"],
        ["simulate", EX1, "--x0", "0,0,0", "--control", "1e308:1,1"],
    ], ids=["analyze-step", "verify-horizon", "simulate-horizon"])
    def test_ratio_beyond_float_range_is_usage_error(self, argv, capsys):
        # once an OverflowError: a step budget or grid of infinitely many
        # steps
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "beyond the float range" in err

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

    def test_verify_small_scale_candidate(self, capsys):
        # z/10^10 has the zero set of z: its gradient 1e-10 lies below the
        # nondegeneracy tolerance until the candidate is scaled to z.  The
        # invariance verdict is not asserted: zero-locus sampling's absolute
        # residual tolerance still accepts starts off {z = 0} at this scale
        code, payload = run_json(capsys,
                                 ["verify", EX1, "--rho", "z/10000000000"])
        assert code == 0
        entry = payload["verify"]
        assert entry["classification"] == "GeneralizedFirstIntegral"
        lc = entry["leaf_controllability"]
        assert (lc["bracket_rank"], lc["leaf_dimension"]) == (2, 2)

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

    @pytest.mark.parametrize("rho", ["x^2+1", "1"])
    def test_verify_empty_locus_rejected_without_escape(self, capsys, rho):
        # no real zeros: rejected as degenerate, and with no start point
        # there is nothing to escape from
        code, payload = run_json(capsys, ["verify", EX1, "--rho", rho] + FAST)
        assert code == 0
        entry = payload["verify"]
        assert entry["classification"] == "Rejected"
        assert entry["evidence"] == {"reason": "NonDegeneracyFailure"}
        assert entry["escape"] is None

    def test_verify_more_functions_than_states_rejected(self, capsys,
                                                        tmp_path):
        # four functions of three states: drho^1 ^ ... ^ drho^4 = 0, though
        # the Jacobian's three singular values are all positive
        path = tmp_path / "planar.sys"
        path.write_text("states: x y z\ncontrol g1: [1, 0, 0]\n"
                        "control g2: [0, 1, 0]\n")
        code, payload = run_json(capsys, [
            "verify", str(path), "--rho", "x", "--rho", "y", "--rho", "z",
            "--rho", "x+y"] + FAST)
        assert code == 0
        entry = payload["verify"]
        assert entry["classification"] == "Rejected"
        assert entry["evidence"] == {"reason": "NonDegeneracyFailure"}

    def test_analyze_reports_candidate_with_empty_locus(self, capsys,
                                                        tmp_path):
        path = tmp_path / "ex1_candidate.sys"
        path.write_text(pathlib.Path(EX1).read_text()
                        + "candidate rho1: x^2 + 1\n")
        code, payload = run_json(capsys, ["analyze", str(path)] + FAST)
        assert code == 0
        rejected = {e["rho"][0]: e for e in payload["rejected"]}
        assert rejected["x**2 + 1"]["escape"] is None
        assert payload["conclusion"] == "1 isolated invariant submanifold(s)"

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
        assert payload["schema"] == 2 and "seed" not in payload
        assert payload["depth"] == 3
        assert payload["rank"] == 3

    def test_brackets_point_avoids_poles(self, capsys, tmp_path, monkeypatch):
        # the first certification point puts x = 0, where g1 = (1/x, 0) has
        # its pole: the rank passes over it
        calls = on_hyperplane_first(monkeypatch, sp.Symbol("x"))
        path = tmp_path / "pole.sys"
        path.write_text("states: x y\ncontrol g1: [1/x, 0]\n"
                        "control g2: [0, 1]\n")
        code, payload = run_json(capsys, ["brackets", str(path)])
        assert code == 0
        assert payload["rank"] == 2
        assert calls[0][0] == 0 and len(calls) == 2

    def test_brackets_rank_with_a_pole_at_every_point(self, capsys,
                                                      tmp_path, monkeypatch):
        real = flag_module._certify_point

        def on_pole(K, k):
            point = real(K, k)
            point[K.symbols.index(sp.Symbol("x"))] = 0
            return point

        monkeypatch.setattr(flag_module, "_certify_point", on_pole)
        path = tmp_path / "pole.sys"
        path.write_text("states: x y\ncontrol g1: [1/x, 0]\n"
                        "control g2: [0, 1]\n")
        code, payload = run_json(capsys, ["brackets", str(path)])
        assert code == 0 and payload["rank"] is None
        assert run(["brackets", str(path), "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("depth 4, rank undetermined\n")

    def test_verify_on_the_rank_zero_annihilator(self, capsys, tmp_path):
        # g1, g2 span the plane: no 1-form annihilates them, so the pivot
        # block is empty and dx, the whole of d(x), is the residue
        path = tmp_path / "plane.sys"
        path.write_text("states: x y\ncontrol g1: [1, 0]\n"
                        "control g2: [0, 1]\n")
        code, payload = run_json(capsys, ["verify", str(path), "--rho", "x"])
        assert code == 0
        entry = payload["verify"]
        assert entry["classification"] == "Rejected"
        assert entry["evidence"]["column"] == "dx"
        assert entry["escape"] is not None

    def test_tiny_coefficient_leaf_is_controllable(self, capsys, tmp_path):
        # g1, g2 span {z = 0} wherever x != 0; x/10^10 once fell below a
        # float rank tolerance and read rank 1/2
        path = tmp_path / "tiny.sys"
        path.write_text("states: x y z\ncontrol g1: [1, y, 0]\n"
                        "control g2: [0, x/10000000000, 0]\n")
        code, payload = run_json(capsys, ["analyze", str(path)] + FAST)
        assert code == 0
        lc, = [e["leaf_controllability"] for e in payload["foliation"]]
        assert (lc["bracket_rank"], lc["leaf_dimension"]) == (2, 2)
        assert lc["controllable_on_leaf"] is True
        code, payload = run_json(capsys, ["brackets", str(path)])
        assert code == 0 and payload["rank"] == 2

    def test_leaf_not_solved_for_a_state_is_undetermined(self, capsys,
                                                         tmp_path):
        # x^2 + y^2 - 1 is linear in no state: no exact point on the circle
        path = tmp_path / "circle.sys"
        path.write_text("states: x y z\n"
                        "control g1: [-y + x*(x^2+y^2-1), "
                        "x + y*(x^2+y^2-1), 0]\ncontrol g2: [0, 0, 1]\n")
        argv = ["verify", str(path), "--rho", "x^2+y^2-1"] + FAST
        code, payload = run_json(capsys, argv)
        assert code == 0
        entry = payload["verify"]
        assert entry["classification"] == "GeneralizedFirstIntegral"
        assert entry["leaf_controllability"] == {
            "leaf_dimension": 2, "bracket_rank": None, "tangent": True,
            "controllable_on_leaf": None}
        assert run(argv + ["--format", "text"]) == 0
        assert capsys.readouterr().out.endswith(
            "controllable-on-leaf: undetermined\n")

    def test_leaf_evidence_does_not_depend_on_seed(self, capsys, tmp_path):
        # the brackets' y entries stay below 1e-8 for |x| <= 1: a float rank
        # at sampled leaf points once read 1 at seed 1 and 2 at seed 2
        path = tmp_path / "small.sys"
        path.write_text("states: x y z\ncontrol g1: [1, 0, 0]\n"
                        "control g2: [0, x^4/3000000000, 0]\n")
        evidence = []
        for seed in ("1", "2"):
            code, payload = run_json(capsys, ["verify", str(path), "--rho",
                                              "z", "--seed", seed] + FAST)
            assert code == 0
            evidence.append(payload["verify"]["leaf_controllability"])
        assert evidence[0] == evidence[1]
        assert evidence[0]["bracket_rank"] == 2
        assert evidence[0]["controllable_on_leaf"] is True


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

    @staticmethod
    def rows(capsys, control):
        """The CSV rows of ex1 from (0, 1, 0) on a grid of 0.1."""
        assert run(["simulate", EX1, "--x0", "0,1,0", "--control", control,
                    "--step", "0.1"]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        return [dict(zip(header.split(","), map(float, line.split(","))))
                for line in lines]

    def test_horizon_off_the_grid_is_reached(self, capsys):
        # the run once stopped at t = 0.2, its horizon snapped to the grid
        rows = self.rows(capsys, "0.25:1,0")
        assert [r["t"] for r in rows] == [0.0, 0.1, 0.2, 0.25]
        assert rows[-1]["x"] == pytest.approx(0.25, abs=1e-12)

    def test_switch_off_the_grid_is_kept(self, capsys):
        # the switch at t = 0.15 once moved to t = 0.1, onto the grid
        rows = self.rows(capsys, "0.15:1,0;0.1:0,1")
        last = rows[-1]
        assert last["t"] == 0.25
        assert last["x"] == pytest.approx(0.15, abs=1e-9)
        assert last["y"] == pytest.approx(math.exp(0.15) + 0.1, abs=1e-9)
        assert (rows[2]["t"], rows[2]["u1"], rows[2]["u2"]) == (0.2, 0, 1)
        assert (rows[1]["u1"], rows[1]["u2"]) == (1, 0)
        # y = e^t before the switch; fixed RK4 steps of 0.1 were off by
        # 8.5e-8 at t = 0.1, a row the sweep reads from its interpolant
        assert rows[1]["t"] == 0.1
        assert abs(rows[1]["y"] - math.exp(0.1)) < 1e-9


    def test_coarse_grid_over_long_horizon(self, capsys, tmp_path):
        # the step budget once followed the grid: 100 steps, too few here
        path = tmp_path / "rotation.sys"
        path.write_text("states: x y\ncontrol g1: [-y, x]\n")
        assert run(["simulate", str(path), "--x0", "1,0", "--control",
                    "20:1", "--step", "1"]) == 0
        t, xv, yv, _ = map(float,
                           capsys.readouterr().out.splitlines()[-1].split(","))
        assert t == 20
        assert abs(xv - math.cos(20)) < 1e-6
        assert abs(yv - math.sin(20)) < 1e-6


class TestTrigOfCommandExpressions:
    """A --rho or --monitor expression may take sin or cos of a symbol that
    no trig atom of the system takes: the command's field gets that pair.
    The expected outputs are those of the full field layout."""

    def test_verify_rho(self, capsys):
        assert run(["verify", EX1, "--rho", "sin(x)"]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert out.out == json.dumps({
            "schema": 1, "seed": 42,
            "verify": {
                "classification": "Rejected",
                "escape": {
                    "schedule": [[5.0, [-0.9383643308641212,
                                        -0.12656522153527527]]],
                    "time": 0.13106519367655334,
                    "value": 0.12267709167855124},
                "evidence": {
                    "coefficient": "cos(x)", "column": "dx",
                    "reason": "membership failure: coefficient not "
                              "divisible by candidate"},
                "provenance": "UserDeclared",
                "rho": ["sin(x)"]}}, indent=2, sort_keys=True) + "\n"

    def test_simulate_monitor(self, capsys):
        assert run(["simulate", EX1, "--x0", "1,0,0", "--control", "1:1,0",
                    "--step", "0.5", "--monitor", "cos(y)"]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert out.out == ("t,x,y,z,u1,u2,rho1\n"
                           "0.0,1.0,0.0,0.0,1.0,0.0,1.0\n"
                           "0.5,1.5,0.0,0.0,1.0,0.0,1.0\n"
                           "1.0,2.0,0.0,0.0,1.0,0.0,1.0\n")


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
        assert lines[0] == "depth 2, rank 3"
        assert lines[1] == "  (1, y, 0)"

    def test_entry_without_rho_prints_its_generator(self, tmp_path, capsys):
        # the radial system's one generator is integrable but not closed:
        # its FromFlag entry is Undetermined and has no rho
        path = tmp_path / "radial.sys"
        path.write_text("states: x y z\ncontrol g1: [x, y, 0]\n"
                        "control g2: [0, 0, 1]\n")
        code = run(["analyze", str(path), "--format", "text"] + FAST)
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].startswith(
            "  [undetermined] generator (y) dx + (-x) dy: Undetermined")

    def test_entry_without_rho_or_generator_prints_its_reason(self):
        entry = {"rho": [], "classification": "Undetermined",
                 "provenance": "FromTorsionMinors",
                 "evidence": {"reason": "denominator x is not known nonzero"}}
        assert render_text({"verify": entry}) == (
            "(denominator x is not known nonzero): Undetermined")

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
