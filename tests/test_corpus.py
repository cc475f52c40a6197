"""The systems of the byte-identity corpus (tests/corpus.py) parse, each
into a field over ZZ, and their exact bracket ranks agree with the float
ranks they replaced."""

from sympy.polys.domains import ZZ

from ctrlinv.dsl import parse_system
from ctrlinv.numeric import bracket_rank, iterated_brackets

import corpus
from conftest import load_system

# each system's depth-3 bracket rank by the float rule the exact rank
# replaced: singular values above 1e-8 of the largest, at the point that
# `brackets --seed 42` drew away from the brackets' poles
FLOAT_RANKS = [3, 4, 2, 2, 3, 2, 2, 2, 4, 1, 1, 2, 2, 2, 2, 4, 4, 4, 2, 3,
               3, 3, 2, 3, 2, 2, 2, 3, 4, 2]


def test_corpus_systems_parse():
    systems = corpus.systems()
    assert len(systems) == corpus.COUNT == 30
    assert len({name for name, _ in systems}) == 30
    for _, text in systems:
        system = parse_system(text)
        assert system.n in (3, 4) and system.m == 2


def test_bracket_rank_matches_float_rank():
    got = []
    for _, text in corpus.systems():
        system = parse_system(text)
        brackets = iterated_brackets(system.controls, system.ctx, depth=3)
        got.append(bracket_rank(brackets, system.ctx))
    assert got == FLOAT_RANKS


def test_every_field_is_over_zz():
    # the one coefficient representation: ex1..ex4 and every corpus system
    systems = [load_system(f"ex{i}") for i in range(1, 5)]
    systems += [parse_system(text) for _, text in corpus.systems()]
    for system in systems:
        assert system.ctx.field.domain == ZZ
        assert system.ctx.field.ring.domain == ZZ
