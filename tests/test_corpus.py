"""The systems of the byte-identity corpus (tests/corpus.py) parse."""

from ctrlinv.dsl import parse_system

import corpus


def test_corpus_systems_parse():
    systems = corpus.systems()
    assert len(systems) == corpus.COUNT == 30
    assert len({name for name, _ in systems}) == 30
    for _, text in systems:
        system = parse_system(text)
        assert system.n in (3, 4) and system.m == 2
