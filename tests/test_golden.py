"""Analyze reports for the worked systems, byte for byte.

The files under tests/golden/ hold the JSON and text reports of ex1..ex4 at
seed 42 with the determinism config of the acceptance suite.  A change that
moves them must regenerate them deliberately and say why.
"""

import json
import pathlib

import pytest

from ctrlinv.cli import render_text
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
