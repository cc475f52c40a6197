"""Every module-level import of a ctrlinv module is used by that module,
no ctrlinv module has an `assert` statement, none clones a ring to ZZ or
makes a sympy domain of a field, the parser makes no expression, and only
`expr` expands minors.

No linter runs on the sources, so a deletion could leave an import behind.
An import counts as used when the module reads the name it binds anywhere:
as a name, or as the root of an attribute chain.  `__future__` imports and
the re-exports of `__init__` are the exceptions.  Invariants are raised
errors: `python -O` strips an assert.  The system field is over ZZ, the
one coefficient representation: a clone of its ring to ZZ, a domain of
the field (`to_domain`) or a parsed expression turned into an element
(`to_field` in the parser) would be a second one.  Determinants, minors
and the Cramer solve of a linear system come from one kept-minor
`expansion` in `expr`: a call elsewhere would be a second layout of it.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ctrlinv"
SOURCES = sorted(SRC.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source):
    """(line, name) of each module-level import whose name is never read."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "@dataclass\nclass A:\n    x: np.ndarray\n")
    assert unused_imports(source) == [(2, "os"), (4, "field")]


def asserts(source):
    """Line of each assert statement."""
    return [n.lineno for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Assert)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert(path):
    assert asserts(path.read_text()) == []


def test_finds_an_assert():
    source = ("def f(x):\n    if x:\n        assert x > 0, 'positive'\n"
              "    return x\n")
    assert asserts(source) == [3]


def clones_to_zz(source):
    """Line of each call `.clone(domain=ZZ)`: every system field is over
    ZZ already, so such a clone is a second representation of its ring."""
    return [n.lineno for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "clone"
            and any(k.arg == "domain" and isinstance(k.value, ast.Name)
                    and k.value.id == "ZZ" for k in n.keywords)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_clone_to_zz(path):
    assert clones_to_zz(path.read_text()) == []


def test_finds_a_clone_to_zz():
    source = ("def f(R, p):\n    Z = R.clone(domain=ZZ)\n"
              "    Q = R.clone(domain=QQ)\n"
              "    return p.set_ring(R.clone(symbols=R.symbols, domain=ZZ))\n")
    assert clones_to_zz(source) == [2, 4]


def calls(source, name):
    """Line of each call of `name`, as a function or as a method."""
    return [n.lineno for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Call)
            and name in (getattr(n.func, "attr", None),
                         getattr(n.func, "id", None))]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_to_domain(path):
    assert calls(path.read_text(), "to_domain") == []


def test_parser_makes_no_expression():
    assert calls((SRC / "dsl.py").read_text(), "to_field") == []


def test_finds_calls():
    source = ("def f(K, e, ctx):\n    D = K.to_domain()\n"
              "    return to_field(e, ctx), expr.to_field(e, D)\n")
    assert calls(source, "to_domain") == [2]
    assert calls(source, "to_field") == [3, 3]


NOT_EXPR = [p for p in SOURCES if p.name != "expr.py"]


@pytest.mark.parametrize("path", NOT_EXPR, ids=[p.name for p in NOT_EXPR])
def test_only_expr_expands(path):
    assert calls(path.read_text(), "expansion") == []


def test_finds_expansion_calls():
    source = ("def f(rows, expr):\n    expand, _ = expansion(rows)\n"
              "    return expand, expr.expansion(rows[1:]), expansion\n")
    assert calls(source, "expansion") == [2, 3]
