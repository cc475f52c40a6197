import random

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlinv.errors import (
    DivisionByZeroExpr,
    EvalSingular,
    NotPolynomial,
    SamplingFailed,
    UnknownSymbol,
)
from ctrlinv.expr import (
    SymbolContext,
    Verdict,
    differentiate,
    divide_exact,
    evaluate,
    factor,
    from_field,
    is_zero,
    normalize,
    random_point,
    reduce_fraction,
    to_field,
    to_text,
)

from conftest import random_poly

x, y, z, w = sp.symbols("x y z w")
a, b, c = sp.symbols("a b c")

CTX = SymbolContext(states=(x, y, z), params=(c,))
CTX4 = SymbolContext(states=(x, y, z, w), params=(a, b),
                     param_signs={a: "+", b: "+"},
                     nonzero=(sp.cos(w),))


class TestNormalize:
    def test_commutativity(self):
        assert normalize(x * y - y * x, CTX) == 0

    def test_pythagorean(self):
        assert normalize(sp.sin(w) ** 2 + sp.cos(w) ** 2, CTX4) == 1

    def test_annihilation_coefficient(self):
        # theta(g1) for the first worked system
        assert normalize(x * y * z * 1 - x * z * y, CTX) == 0

    def test_quotient_single_fraction(self):
        e = 1 / x + 1 / y
        n = normalize(e, CTX)
        num, den = sp.fraction(n)
        assert sp.expand(num * x * y - den * (x + y)) == 0

    def test_division_by_zero_expr(self):
        with pytest.raises(DivisionByZeroExpr):
            normalize(1 / (x - x), CTX)

    def test_unexpanded_zero_denominator(self):
        with pytest.raises(DivisionByZeroExpr):
            normalize(1 / ((x + 1) ** 2 - x**2 - 2 * x - 1), CTX)

    def test_quotient_outside_class_is_named(self):
        with pytest.raises(UnknownSymbol):
            normalize(x / sp.Symbol("q"), CTX)
        with pytest.raises(NotPolynomial):
            normalize(sp.sqrt(x) / y, CTX)

    def test_sin_powers_eliminated(self):
        n = normalize(sp.sin(w) ** 4, CTX4)
        assert sp.degree(sp.Poly(n, sp.sin(w)), sp.sin(w)) == 0


def F(e, ctx=CTX):
    return to_field(sp.sympify(e), ctx)


def derivative(e, v, ctx=CTX):
    """Reduced derivative of an expression, as an expression."""
    return from_field(reduce_fraction(differentiate(F(e, ctx), v, ctx)))


class TestDifferentiate:
    def test_product(self):
        assert normalize(derivative(x * y * z, x) - y * z, CTX) == 0

    def test_trig(self):
        got = derivative(b * sp.cos(w) * y, w, CTX4)
        assert normalize(got + b * sp.sin(w) * y, CTX4) == 0

    def test_parameter_is_constant(self):
        assert not differentiate(F(c), x, CTX)

    def test_undeclared(self):
        with pytest.raises(UnknownSymbol):
            differentiate(F(x), sp.Symbol("q"), CTX)

    def test_param_not_state(self):
        with pytest.raises(UnknownSymbol):
            differentiate(F(c * x), c, CTX)


class TestIsZero:
    def test_pythagorean_zero(self):
        assert is_zero(F(sp.sin(w) ** 2 + sp.cos(w) ** 2 - 1, CTX4),
                       CTX4).is_zero

    def test_torsion_nonzero(self):
        v = is_zero(F(-z * (1 + x)), CTX, seed=5)
        assert v.is_nonzero
        assert abs(evaluate(-z * (1 + x), v.witness)) > 1e-9

    def test_trivial_zero(self):
        assert is_zero(F(x) - F(x), CTX).is_zero

    def test_consistent_across_normalization(self):
        rng = random.Random(11)
        for _ in range(30):
            e = random_poly(rng, (x, y, z))
            v1 = is_zero(F(e), CTX, seed=3)
            v2 = is_zero(F(normalize(e, CTX)), CTX, seed=3)
            assert not (v1.is_zero and v2.is_nonzero)
            assert not (v1.is_nonzero and v2.is_zero)


def factor_exprs(e, ctx=CTX):
    return [(from_field(f), m) for f, m in factor(F(e, ctx))]


class TestFactor:
    def test_torsion_example_one(self):
        fs = factor_exprs(-z * (1 + x))
        assert set(fs) == {(z, 1), (x + 1, 1)}

    def test_torsion_example_two(self):
        fs = factor_exprs(-y * (1 + 2 * x))
        assert set(fs) == {(y, 1), (2 * x + 1, 1)}

    def test_difference_of_squares(self):
        fs = factor_exprs(x**2 - y**2)
        assert set(fs) == {(x - y, 1), (x + y, 1)}

    def test_product_reconstruction(self):
        rng = random.Random(4)
        for _ in range(25):
            e = random_poly(rng, (x, y, z), terms=3)
            if normalize(e, CTX) == 0:
                continue
            prod = sp.Integer(1)
            for f, m in factor_exprs(e):
                prod *= f**m
            ratio = sp.cancel(normalize(e, CTX) / prod)
            assert ratio.is_Rational and ratio != 0

    def test_rejects_quotient(self):
        with pytest.raises(NotPolynomial):
            factor(F(1 / x))


class TestDivideExact:
    def test_multiple(self):
        alpha = x**2 + y + 1
        rho = z
        assert divide_exact(F(rho * alpha), F(rho)) == F(alpha)

    def test_remainder(self):
        assert divide_exact(F(x * y + 1), F(x)) is None

    def test_zero_numerator(self):
        assert divide_exact(F(0), F(x)) == 0

    def test_random_products(self):
        rng = random.Random(9)
        for _ in range(25):
            p = random_poly(rng, (x, y, z))
            q = random_poly(rng, (x, y, z))
            if normalize(q, CTX) == 0:
                continue
            got = divide_exact(F(p * q), F(q))
            assert got == F(p)


class TestEvaluate:
    def test_direct(self):
        assert evaluate(-z * (1 + x), {x: 1, z: 2}) == -4

    def test_first_integral_zero_locus(self):
        assert evaluate(b * x - a * z, {a: 1, b: 1, x: 3, z: 3}) == 0

    def test_trig(self):
        assert evaluate(sp.sin(w), {w: 0}) == 0

    def test_missing_symbol(self):
        with pytest.raises(UnknownSymbol):
            evaluate(x + y, {x: 1})

    def test_singular_denominator(self):
        with pytest.raises(EvalSingular):
            evaluate(1 / x, {x: 1e-14})

    def test_negative_one(self):
        assert evaluate(sp.S.NegativeOne, {}) == -1.0


def test_random_point_unsatisfiable_raises_named_error():
    ctx = SymbolContext(states=(x,), nonzero=(x - x,))
    with pytest.raises(SamplingFailed):
        random_point(ctx, np.random.default_rng(0))


class TestProperties:
    def test_mul_commutes_and_additive_inverse(self):
        rng = random.Random(21)
        for _ in range(30):
            e1 = random_poly(rng, (x, y, z))
            e2 = random_poly(rng, (x, y, z))
            assert normalize(e1 * e2, CTX) == normalize(e2 * e1, CTX)
            assert normalize(e1 + (-e1), CTX) == 0

    def test_derivative_linear_product_rule(self):
        rng = random.Random(22)
        for _ in range(30):
            e1 = random_poly(rng, (x, y, z), trig_of=None)
            e2 = random_poly(rng, (x, y, z))
            got = derivative(e1 * e2, x)
            want = derivative(e1, x) * e2 + e1 * derivative(e2, x)
            assert normalize(got - want, CTX) == 0
            lin = derivative(e1 + 3 * e2, x)
            assert normalize(
                lin - derivative(e1, x) - 3 * derivative(e2, x), CTX) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_normalize_idempotent(self, seed):
        rng = random.Random(seed)
        e = random_poly(rng, (x, y, z), trig_of=w)
        n = normalize(e, CTX4)
        assert normalize(n, CTX4) == n


# --- differential test of normalize against the Expr-tree kernel -----------
#
# _reference_normalize and _reference_trig_reduce are the earlier
# implementation of normalize (sp.cancel(sp.together(...)) on sympy trees),
# kept verbatim as an independent oracle for the rational-function-field
# kernel.

def _gens_for(ctx, *exprs):
    """States, parameters, then (sin, cos) pairs of the variables that occur
    under a trig atom in the expressions."""
    used_trig = {f.args[0] for e in exprs
                 for f in sp.sympify(e).atoms(sp.sin, sp.cos)}
    trig = []
    for v in ctx.symbols:
        if v in used_trig:
            trig += [sp.sin(v), sp.cos(v)]
    return ctx.states + ctx.params + tuple(trig)


def _reference_trig_reduce(poly_expr, gens):
    """Rewrite sin(v)**2 -> 1 - cos(v)**2 everywhere in a polynomial."""
    relations = []
    for g in gens:
        if isinstance(g, sp.sin):
            relations.append(g**2 + sp.cos(g.args[0]) ** 2 - 1)
    if not relations or not poly_expr.atoms(sp.sin):
        return sp.expand(poly_expr)
    _, rem = sp.reduced(poly_expr, relations, gens, order="grlex")
    return sp.expand(rem)


def _reference_normalize(e, ctx: SymbolContext):
    e = sp.sympify(e)
    if e.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
        raise DivisionByZeroExpr("denominator normalizes to zero")
    if not e.has(sp.sin) and all(
            p.exp.is_Integer and p.exp > 0 for p in e.atoms(sp.Pow)):
        return sp.expand(e)
    e = sp.cancel(sp.together(e))
    num, den = sp.fraction(e)
    gens = _gens_for(ctx, num, den)
    num = _reference_trig_reduce(sp.expand(num), gens)
    den = _reference_trig_reduce(sp.expand(den), gens)
    if den == 0:
        raise DivisionByZeroExpr("denominator normalizes to zero")
    if num == 0:
        return sp.Integer(0)
    if den.free_symbols or den.atoms(sp.sin, sp.cos):
        g = sp.cancel(num / den)
        num, den = sp.fraction(g)
        num = _reference_trig_reduce(sp.expand(num), gens)
        den = _reference_trig_reduce(sp.expand(den), gens)
    if den == 0:
        raise DivisionByZeroExpr("denominator normalizes to zero")
    if not (den.free_symbols or den.atoms(sp.sin, sp.cos)):
        return sp.expand(num / den)
    lc = sp.Poly(den, *_gens_for(ctx, den)).LC(order="grlex")
    num = sp.expand(num / lc)
    den = sp.expand(den / lc)
    return num / den


PYTHAGORAS = sp.sin(w) ** 2 + sp.cos(w) ** 2 - 1


def _random_expression(rng):
    """A random member of the expression class over CTX4: sums, products and
    quotients of small polynomials in states, params, sin(w) and cos(w),
    some with a common factor to cancel, a few with a zero denominator."""
    syms = (x, y, z, a, b)

    def poly():
        return random_poly(rng, syms, terms=rng.randint(1, 2),
                           degree=rng.randint(1, 2), trig_of=w)

    kind = rng.randrange(7)
    if kind == 0:
        return poly() * poly()
    if kind == 1:
        return poly() / poly()
    if kind == 2:
        common = poly()
        return poly() * common / (poly() * common)
    if kind == 3:
        return poly() / poly() + poly() / poly()
    if kind == 4:
        return poly() / (poly() * PYTHAGORAS + poly())
    if kind == 5:
        return (poly() + PYTHAGORAS * poly()) / poly() ** rng.randint(1, 2)
    # a denominator that vanishes by the trig relation or by cancellation
    p = poly()
    return poly() / (PYTHAGORAS if rng.random() < 0.5 else p - p)


def _outcome(fn, e):
    try:
        return fn(e, CTX4)
    except DivisionByZeroExpr as exc:
        return type(exc)


def test_normalize_matches_reference_kernel():
    rng = random.Random(20260)
    kinds = set()
    for _ in range(500):
        e = _random_expression(rng)
        want = _outcome(_reference_normalize, e)
        got = _outcome(normalize, e)
        assert got == want, e
        if isinstance(want, type):
            kinds.add("raises")
        else:
            assert to_text(got) == to_text(want), e
            kinds.add("fraction" if sp.fraction(want)[1] != 1 else "poly")
    assert kinds == {"raises", "fraction", "poly"}
