import pathlib
import random

import pytest
import sympy as sp

from ctrlinv.dsl import parse_system
from ctrlinv.expr import to_field

SYSTEMS_DIR = pathlib.Path(__file__).resolve().parent.parent / "systems"


def load_system(name):
    return parse_system((SYSTEMS_DIR / f"{name}.sys").read_text())


@pytest.fixture(scope="session")
def ex1():
    return load_system("ex1")


@pytest.fixture(scope="session")
def ex2():
    return load_system("ex2")


@pytest.fixture(scope="session")
def ex3():
    return load_system("ex3")


@pytest.fixture(scope="session")
def ex4():
    return load_system("ex4")


def random_poly(rng, symbols, terms=3, degree=2, trig_of=None):
    """Small random polynomial over the given symbols (optionally with one
    trig atom), with rational coefficients."""
    atoms = list(symbols)
    if trig_of is not None:
        atoms += [sp.sin(trig_of), sp.cos(trig_of)]
    e = sp.Integer(0)
    for _ in range(terms):
        coeff = sp.Rational(rng.randint(-5, 5), rng.randint(1, 4))
        mono = sp.Integer(1)
        for _ in range(rng.randint(0, degree)):
            mono *= atoms[rng.randrange(len(atoms))]
        e += coeff * mono
    return e


def random_form(rng, ctx, degree, terms=2):
    """Random differential form of the given degree with small polynomial
    coefficients."""
    import itertools

    from ctrlinv.forms import make_form

    n = len(ctx.states)
    keys = list(itertools.combinations(range(n), degree))
    coeffs = {}
    for _ in range(terms):
        key = keys[rng.randrange(len(keys))]
        coeffs[key] = coeffs.get(key, 0) + random_poly(rng, ctx.states)
    return make_form(degree, {k: to_field(c, ctx) for k, c in coeffs.items()},
                     ctx)


def one_form_of(exprs, ctx):
    """1-form whose coefficients are the given expressions."""
    from ctrlinv.forms import one_form

    return one_form([to_field(e, ctx) for e in exprs], ctx)


def field_rows(rows, ctx):
    """Rows of expressions as rows of field elements of ctx.field."""
    return [[to_field(e, ctx) for e in r] for r in rows]
