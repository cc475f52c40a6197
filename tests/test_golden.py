"""Analyze reports for the worked systems, byte for byte.

The files under tests/golden/ hold the JSON and text reports of ex1..ex4 at
seed 42 with the determinism config of the acceptance suite, and the
symbolic-only JSON reports (no numerics, seed 61) of the generated systems
poly(3), poly(4) and chained(6), and of trig4, a four-state system with a
signed parameter whose torsion entries have trig denominators.  A change that moves them must regenerate
them deliberately and say why.
"""

import json
import pathlib

import pytest

from ctrlinv.cli import render_text
from ctrlinv.dsl import parse_system
from ctrlinv.integrals import AnalysisConfig, analyze

from conftest import load_system

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
CONFIG = AnalysisConfig(seed=42, trials=10, pieces=3, horizon=1.0)


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4"])
def test_analyze_matches_golden(name):
    report = analyze(load_system(name), CONFIG)
    as_json = json.dumps(report, indent=2, sort_keys=True) + "\n"
    as_text = render_text(report) + "\n"
    assert as_json == (GOLDEN_DIR / f"{name}.json").read_text()
    assert as_text == (GOLDEN_DIR / f"{name}.txt").read_text()


def poly_text(n):
    """poly(n): g1 = [1, x1*x2, ..., x(n-1)*xn], g2 = [0, 1, x1^2+x3, ...]."""
    xs = [f"x{i}" for i in range(1, n + 1)]
    g1 = ["1"] + [f"x{i}*x{i + 1}" for i in range(1, n)]
    g2 = ["0", "1"] + [f"x{i}^2+x{i + 2}" for i in range(1, n - 1)]
    return (f"# poly({n})\nstates: {' '.join(xs)}\n"
            f"control g1: [{', '.join(g1)}]\n"
            f"control g2: [{', '.join(g2)}]\n")


def chained_text(n):
    """The chained form: g1 = [1, 0, x2, ..., x(n-1)], g2 = [0, 1, 0, ...]."""
    xs = [f"x{i}" for i in range(1, n + 1)]
    g1 = ["1", "0"] + [f"x{i}" for i in range(2, n)]
    g2 = ["0", "1"] + ["0"] * (n - 2)
    return (f"# chained({n})\nstates: {' '.join(xs)}\n"
            f"control g1: [{', '.join(g1)}]\n"
            f"control g2: [{', '.join(g2)}]\n")


TRIG4 = """states: x y z w
params: a > 0
control g1: [w + y, 0, z*cos(w) + 2, z]
control g2: [y*cos(w) + z + a*w, -1, 2*w + y*z, -2]
"""


@pytest.mark.parametrize("name, text", [
    ("poly3", poly_text(3)), ("poly4", poly_text(4)),
    ("chained6", chained_text(6)), ("trig4", TRIG4)])
def test_symbolic_analyze_matches_golden(name, text):
    report = analyze(parse_system(text),
                     AnalysisConfig(seed=61, run_numeric=False))
    as_json = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert as_json == (GOLDEN_DIR / f"{name}.json").read_text()
