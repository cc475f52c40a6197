import random

import pytest
import sympy as sp

import ctrlinv.forms as forms_module
from ctrlinv.errors import SingularPivot
from ctrlinv.expr import SymbolContext, from_field, to_field
from ctrlinv.forms import (
    coefficient_vector,
    contract,
    d,
    make_form,
    pivot_solution,
    reduce_mod,
    wedge,
    zero_form,
)

from conftest import one_form_of, random_form, random_poly

x, y, z, w = sp.symbols("x y z w")
a, b = sp.symbols("a b")


def scalar_form(e, ctx):
    return make_form(0, {(): to_field(e, ctx)}, ctx)


def coordinate_differential(i, ctx):
    return make_form(1, {(i,): ctx.field.one}, ctx)


def coefficient_exprs(f):
    return [from_field(c) for c in coefficient_vector(f)]


CTX = SymbolContext(states=(x, y, z))
CTX4 = SymbolContext(states=(x, y, z, w), params=(a, b),
                     param_signs={a: "+", b: "+"},
                     nonzero=(sp.cos(w),))


def field_vector(exprs, ctx=CTX):
    return tuple(to_field(e, ctx) for e in exprs)


def dx(i, ctx=CTX):
    return coordinate_differential(i, ctx)


class TestConstruction:
    def test_antisymmetric_key_canonicalization(self):
        f = make_form(2, {(1, 0): to_field(x, CTX)}, CTX)
        assert from_field(f.coeff((0, 1))) == -x

    def test_repeated_index_drops(self):
        assert make_form(2, {(1, 1): to_field(x, CTX)}, CTX).is_zero_form

    def test_zero_coefficients_pruned(self):
        X = to_field(x, CTX)
        assert make_form(1, {(0,): X - X}, CTX).is_zero_form

    def test_addition_cancels(self):
        f = one_form_of([x, y, 0], CTX)
        assert (f - f).is_zero_form

    def test_coefficient_vector(self):
        f = one_form_of([x * y * z, -x * z, 1], CTX)
        assert coefficient_exprs(f) == [x * y * z, -x * z, 1]


class TestWedge:
    def test_one_forms_anticommute(self):
        f = wedge(dx(0), dx(1))
        g = wedge(dx(1), dx(0))
        assert (f + g).is_zero_form

    def test_square_is_zero(self):
        f = one_form_of([x, y, z], CTX)
        assert wedge(f, f).is_zero_form

    def test_graded_commutativity(self):
        rng = random.Random(31)
        for _ in range(20):
            p = rng.choice([0, 1, 2])
            q = rng.choice([0, 1])
            f = random_form(rng, CTX, p)
            g = random_form(rng, CTX, q)
            sign = (-1) ** (p * q)
            lhs = wedge(f, g)
            rhs = wedge(g, f).scale(sign)
            assert (lhs - rhs).is_zero_form

    def test_associativity(self):
        rng = random.Random(32)
        for _ in range(15):
            f = random_form(rng, CTX, 1)
            g = random_form(rng, CTX, 1)
            h = random_form(rng, CTX, 1)
            assert (wedge(wedge(f, g), h) - wedge(f, wedge(g, h))).is_zero_form

    def test_top_degree_overflow(self):
        f = random_form(random.Random(1), CTX, 2)
        g = random_form(random.Random(2), CTX, 2)
        assert wedge(f, g).is_zero_form


class TestExteriorDerivative:
    def test_d_of_function(self):
        df = d(scalar_form(x * y * z, CTX))
        assert coefficient_exprs(df) == [y * z, x * z, x * y]

    def test_d_squared_zero(self):
        rng = random.Random(41)
        for _ in range(30):
            k = rng.choice([0, 1])
            f = random_form(rng, CTX, k)
            assert d(d(f)).is_zero_form

    def test_leibniz(self):
        rng = random.Random(42)
        for _ in range(20):
            p = rng.choice([0, 1])
            f = random_form(rng, CTX, p)
            g = random_form(rng, CTX, 1)
            lhs = d(wedge(f, g))
            rhs = wedge(d(f), g) + wedge(f, d(g)).scale((-1) ** p)
            assert (lhs - rhs).is_zero_form

    def test_annihilator_derivative(self):
        # d(xyz dx - xz dy + dz) = -(xz+z) dx^dy - xy dx^dz + x dy^dz
        theta = one_form_of([x * y * z, -x * z, 1], CTX)
        dtheta = d(theta)
        assert dtheta.coeff((0, 1)) == to_field(-x * z - z, CTX)
        assert from_field(dtheta.coeff((0, 2))) == -x * y
        assert from_field(dtheta.coeff((1, 2))) == x


class TestContract:
    def test_annihilation(self):
        theta = one_form_of([x * y * z, -x * z, 1], CTX)
        assert contract(theta, field_vector((1, y, 0))) == 0
        assert contract(theta, field_vector((0, 1, x * z))) == 0

    def test_nonzero_pairing(self):
        f = one_form_of([1, 0, 0], CTX)
        assert from_field(contract(f, field_vector((y, 0, 0)))) == y

    def test_requires_one_form(self):
        with pytest.raises(ValueError):
            contract(zero_form(2, CTX), field_vector((0, 0, 0)))


class TestReduceMod:
    def test_generators_reduce_to_zero(self):
        theta = [one_form_of([x * y * z, -x * z, 1], CTX)]
        r = reduce_mod(theta[0], pivot_solution(theta, [2]))
        assert r.is_zero_form

    def test_idempotent(self):
        theta = [one_form_of([x * y * z, -x * z, 1], CTX)]
        sol = pivot_solution(theta, [2])
        rng = random.Random(51)
        for _ in range(10):
            f = random_form(rng, CTX, 2)
            once = reduce_mod(f, sol)
            twice = reduce_mod(once, sol)
            assert (once - twice).is_zero_form

    def test_torsion_reduction(self):
        # dtheta mod theta collapses to a single dx^dy term: -z(1+x) dx^dy
        theta = one_form_of([x * y * z, -x * z, 1], CTX)
        r = reduce_mod(d(theta), pivot_solution([theta], [2]))
        assert r.terms == (((0, 1), to_field(-z * (1 + x), CTX)),)

    def test_singular_pivot(self):
        theta = [one_form_of([x, y, 0], CTX)]
        with pytest.raises(SingularPivot):
            pivot_solution(theta, [2])

    def test_singular_pivot_only_through_trig_identity(self):
        # det = sin(w)**2 - (1 - cos(w))*(1 + cos(w)) vanishes only by
        # sin**2 + cos**2 = 1
        theta = [one_form_of([sp.sin(w), 1 - sp.cos(w), 0, 0], CTX4),
                 one_form_of([1 + sp.cos(w), sp.sin(w), 0, 0], CTX4)]
        with pytest.raises(SingularPivot):
            pivot_solution(theta, [0, 1])

    def test_two_generator_reduction(self):
        # theta1 = b dx - a dz reduced mod itself via pivot x
        theta = one_form_of([b, 0, -a, 0], CTX4)
        r = reduce_mod(d(theta) + wedge(theta, one_form_of([0, 1, 0, 0], CTX4)),
                       pivot_solution([theta], [0]))
        # dtheta = 0, and theta itself vanishes after substitution
        assert r.is_zero_form

    def test_normalizes_once(self, monkeypatch):
        # one make_form call, however many wedge products the substitution
        # of dz expands into
        theta = [one_form_of([x * y * z, -x * z, 1], CTX)]
        sol = pivot_solution(theta, [2])
        f = make_form(2, {(0, 1): to_field(1, CTX), (0, 2): to_field(x, CTX),
                          (1, 2): to_field(y * z, CTX)}, CTX)
        calls = []
        real = forms_module.make_form

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(forms_module, "make_form", counting)
        reduce_mod(f, sol)
        assert len(calls) == 1
