"""The field of a parsed system against the full layout.

A parsed system's field has a sin/cos pair only for the declared symbols
inside a trig atom of its expressions; a context built with trig=None, the
reference here, has a pair for every declared symbol.  Grlex order ignores
generators no term uses and every certification point draws for every pair,
so both layouts give the same field rows, the same value at each shared
generator of each certification point, the same bracket ranks and the same
reports, on the corpus (tests/corpus.py) and the golden systems.
"""

import json

import pytest
import sympy as sp

from ctrlinv.dsl import parse_system
from ctrlinv.expr import to_text
from ctrlinv.flag import certification_points
from ctrlinv.integrals import AnalysisConfig, analyze
from ctrlinv.numeric import bracket_rank, iterated_brackets

import corpus
from conftest import SYSTEMS_DIR
from test_golden import CONFIG, GOLDEN_DIR, TRIG4, chained_text, poly_text

EXAMPLES = [(f"ex{k}", (SYSTEMS_DIR / f"ex{k}.sys").read_text())
            for k in range(1, 5)]
SYMBOLIC = [("poly3", poly_text(3)), ("poly4", poly_text(4)),
            ("chained6", chained_text(6)), ("trig4", TRIG4)]


def full_layout(system):
    """The system with a sin/cos pair for every declared symbol."""
    return system.with_trig(None)


def rows_text(system):
    return [list(map(to_text, row))
            for row in (system.drift, *system.controls)]


SYSTEMS = corpus.systems() + EXAMPLES + SYMBOLIC


@pytest.mark.parametrize("name, text", SYSTEMS, ids=[n for n, _ in SYSTEMS])
def test_same_rows_points_and_bracket_rank(name, text):
    narrow = parse_system(text)
    full = full_layout(narrow)
    assert rows_text(narrow) == rows_text(full)
    K, L = narrow.ctx.field, full.ctx.field
    shared = [L.symbols.index(g) for g in K.symbols]
    for p, q in zip(certification_points(K), certification_points(L),
                    strict=True):
        assert p == [q[i] for i in shared]
    ranks = [bracket_rank(iterated_brackets(s.controls, s.ctx, depth=3),
                          s.ctx)
             for s in (narrow, full)]
    assert ranks[0] == ranks[1]


def test_pairs_only_for_trig_symbols():
    ex1, ex3 = (parse_system(text) for _, text in EXAMPLES[::2])
    x, y, z, w, a, b = sp.symbols("x y z w a b")
    assert ex1.ctx.field.symbols == (x, y, z)
    assert ex3.ctx.field.symbols == (x, y, z, w, a, b, sp.sin(w), sp.cos(w))
    assert len(full_layout(ex3).ctx.field.symbols) == 18


@pytest.mark.parametrize("name, text, config", [
    *((name, text, CONFIG) for name, text in EXAMPLES),
    *((name, text, AnalysisConfig(seed=61, run_numeric=False))
      for name, text in SYMBOLIC)], ids=[n for n, _ in EXAMPLES + SYMBOLIC])
def test_full_layout_report_matches_golden(name, text, config):
    report = analyze(full_layout(parse_system(text)), config)
    as_json = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert as_json == (GOLDEN_DIR / f"{name}.json").read_text()
