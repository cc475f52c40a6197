"""The per-layer tracer (perfbench/tracing.py) wraps names that exist."""

import importlib
import importlib.util

from conftest import SYSTEMS_DIR

TRACING = SYSTEMS_DIR.parent / "perfbench" / "tracing.py"


def test_traced_names_are_callables_of_their_modules():
    # a traced name deleted from ctrlinv would end a traced run with an
    # AttributeError; the tracer is loaded from its file, not edited
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(module, name) for module, names in tracing.TRACED.items()
             for name in names]
    assert len(names) == 29
    for module, name in names:
        assert callable(getattr(importlib.import_module(f"ctrlinv.{module}"),
                                name, None)), f"ctrlinv.{module}.{name}"
