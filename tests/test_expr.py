import gc
import itertools
import math
import random
import weakref

import numpy as np
import pytest
import sympy as sp
from sympy.polys import heuristicgcd
from sympy.polys import rings as sympy_rings
from sympy.polys.domains import QQ, ZZ
from sympy.polys.fields import FracField
from sympy.polys.matrices import DomainMatrix
from sympy.polys.orderings import grlex, lex
from sympy.polys.rings import ring
from hypothesis import given, settings
from hypothesis import strategies as st

import ctrlinv.expr as expr_module
from ctrlinv.errors import (
    DivisionByZeroExpr,
    EvalSingular,
    NotPolynomial,
    SamplingFailed,
    UnknownSymbol,
)
from ctrlinv.expr import (
    EVAL_SINGULAR_TOL,
    SymbolContext,
    Verdict,
    differentiate,
    divide_exact,
    evaluate,
    factor,
    from_field,
    ideal_cofactors,
    is_zero,
    kernels,
    minors,
    normalize,
    random_point,
    reduce_fraction,
    to_field,
    to_text,
)

from ctrlinv.dsl import parse_system
from ctrlinv.integrals import AnalysisConfig, analyze

from conftest import context, random_poly
from test_golden import poly_text

x, y, z, w = sp.symbols("x y z w")
a, b, c = sp.symbols("a b c")

CTX = SymbolContext(states=(x, y, z), params=(c,))
CTX4 = context(states=(x, y, z, w), params=(a, b),
               param_signs={a: "+", b: "+"}, nonzero=(sp.cos(w),))


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

    def test_polynomial_trees_match_expand(self):
        # on a tree with no quotient and no sin atom the fraction and the
        # sin**2 rewrite change nothing: normalize is sympy's expansion,
        # the same expression written the same way
        rng = random.Random(3000)
        for _ in range(3000):
            e = _polynomial_tree(rng, 3)
            got, want = normalize(e, CTX4), sp.expand(e)
            assert got == want, e
            assert sp.sstr(got, order="grlex") == \
                sp.sstr(want, order="grlex"), e

    @pytest.mark.parametrize("e", [sp.zoo, sp.nan, sp.oo, -sp.oo,
                                   x / (x - x)])
    def test_undefined_values_divide_by_zero(self, e):
        with pytest.raises(DivisionByZeroExpr,
                           match="^denominator normalizes to zero$"):
            normalize(e, CTX4)


def _polynomial_tree(rng, depth):
    """A random tree of sums, differences, products and powers 1..3 of
    states, parameters, cos(w) and rationals, as written."""
    if not depth or rng.random() < 0.3:
        return rng.choice([x, y, z, w, a, b, sp.cos(w), sp.Rational(
            rng.randint(-5, 5), rng.randint(1, 3))])
    left = _polynomial_tree(rng, depth - 1)
    op = rng.randrange(4)
    if op == 3:
        return left ** rng.randint(1, 3)
    right = _polynomial_tree(rng, depth - 1)
    return (left + right, left - right, left * right)[op]


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

    def test_trig_atom_not_state(self):
        with pytest.raises(UnknownSymbol):
            differentiate(F(sp.sin(w), CTX4), sp.sin(w), CTX4)


class TestIsZero:
    def test_pythagorean_zero(self):
        assert is_zero(F(sp.sin(w) ** 2 + sp.cos(w) ** 2 - 1, CTX4),
                       CTX4).is_zero

    def test_torsion_nonzero(self):
        v = is_zero(F(-z * (1 + x)), CTX, seed=5)
        assert v.is_nonzero
        assert abs(evaluate(F(-z * (1 + x)), v.witness)) > 1e-9

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
        assert evaluate(F(-z * (1 + x)), {x: 1, z: 2}) == -4

    def test_first_integral_zero_locus(self):
        assert evaluate(F(b * x - a * z, CTX4),
                        {a: 1, b: 1, x: 3, z: 3}) == 0

    def test_trig(self):
        assert evaluate(F(sp.sin(w), CTX4), {w: 0}) == 0

    def test_missing_symbol(self):
        with pytest.raises(UnknownSymbol):
            evaluate(F(x + y), {x: 1})

    def test_singular_denominator(self):
        with pytest.raises(EvalSingular):
            evaluate(F(1 / x), {x: 1e-14})

    def test_negative_one(self):
        assert evaluate(F(sp.S.NegativeOne), {}) == -1.0

    def test_coefficient_beyond_double_range_is_infinite(self):
        # a float literal of 10^400 would not fit: it is written as inf,
        # and `evaluate` takes a value that is not finite as singular
        big = [F(10**400 * x + 1), F(1 - 10**400 * x)]
        out = np.empty((2, 2))
        with np.errstate(invalid="ignore"):
            fill, = kernels([big], CTX, "array")
            fill(np.array([[1.0, 0.0], [0, 0], [0, 0]]), np.ones((1, 2)), out)
        assert out[:, 0].tolist() == [math.inf, -math.inf]
        assert np.isnan(out[:, 1]).all()
        for f in big:
            with pytest.raises(EvalSingular, match="non-finite value"):
                evaluate(f, {x: 1.0})


def _reference_eval(e, point):
    """`evaluate`'s tree walk, kept as the oracle of the generated
    evaluators."""
    if e.is_Number:
        return float(e)
    if e.is_Symbol:
        try:
            return float(point[e])
        except KeyError:
            raise UnknownSymbol(f"no value assigned for {e}") from None
    if e.is_Add:
        return math.fsum(_reference_eval(a, point) for a in e.args)
    if e.is_Mul:
        out = 1.0
        for a in e.args:
            out *= _reference_eval(a, point)
        return out
    if e.is_Pow:
        base = _reference_eval(e.base, point)
        exp = e.exp
        if not exp.is_Integer:
            raise NotPolynomial(f"non-integer exponent: {e}")
        if exp < 0 and abs(base) < EVAL_SINGULAR_TOL:
            raise EvalSingular(f"denominator below threshold in {e}")
        return base ** int(exp)
    if isinstance(e, sp.sin):
        return math.sin(_reference_eval(e.args[0], point))
    if isinstance(e, sp.cos):
        return math.cos(_reference_eval(e.args[0], point))
    raise NotPolynomial(f"node outside expression class: {e!r}")


def _result(fn, *args):
    """fn's value, or the type of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, whatever it is
        return type(exc)


# x y z w with a positive parameter a and an unsigned one c
CTX5 = SymbolContext(states=(x, y, z, w), params=(a, c),
                     param_signs={a: "+"})


def _random_element(rng):
    """A random element of CTX5.field: a quotient of small polynomials in
    the states and parameters and the sin, cos of one or two states, or a
    polynomial, with rational coefficients."""
    syms = (x, y, z, a, c)

    def poly():
        e = random_poly(rng, syms, terms=rng.randint(1, 3),
                        degree=rng.randint(1, 2), trig_of=w)
        if rng.random() < 0.5:  # a second sin, cos pair
            e += random_poly(rng, syms, terms=1, trig_of=x)
        return e

    while True:
        e = poly() / poly() if rng.random() < 0.7 else poly()
        try:
            return to_field(e, CTX5)
        except DivisionByZeroExpr:
            pass


def _parts(p, scale, gens):
    """The fsum of p / scale's terms at the generator values gens, and the
    sum of their absolute values."""
    terms = [float(k / scale) * math.prod(g ** e for g, e in zip(gens, m))
             for m, k in p.terms()]
    return math.fsum(terms), math.fsum(map(abs, terms))


def _magnitude(f, point):
    """The scale of the rounding error of f's value at the point in any
    order of its sums: |terms| of the numerator over |den|, plus |num|
    times |terms| of the denominator over den^2 (num, den as from_field
    writes them)."""
    gens = [math.sin(point[g.args[0]]) if isinstance(g, sp.sin) else
            math.cos(point[g.args[0]]) if isinstance(g, sp.cos) else point[g]
            for g in f.field.symbols]
    lc = f.denom.LC
    num, num_scale = _parts(f.numer, lc, gens)
    den, den_scale = _parts(f.denom, lc, gens)
    return num_scale / abs(den) + abs(num) * den_scale / den ** 2


class TestCompiledEvaluators:
    """The generated kernels against `_reference_eval` of the expression
    `from_field` writes for each field element."""

    def test_random_expressions(self):
        rng = random.Random(20261)
        groups = [[_random_element(rng) for _ in range(rng.randint(1, 4))]
                  for _ in range(60)]
        points = []
        for _ in range(12):
            point = {s: rng.uniform(-2, 2) for s in CTX5.symbols}
            if rng.random() < 0.5:  # a vanishing denominator
                point[rng.choice(CTX5.states)] = 0.0
            points.append(point)
        values = [[[_result(_reference_eval, from_field(f), p) for p in points]
                   for f in group] for group in groups]
        samples = kernels(groups, CTX5)
        fills = kernels(groups, CTX5, "array")
        rows = np.array([[p[s] for s in CTX5.symbols] for p in points])
        args = rows.T
        singular = 0
        for group, sample, fill, want in zip(groups, samples, fills, values):
            # both forms take all points at once: the sampling form gives
            # NaN and the array form a value that is not finite where the
            # reference raises
            out = np.empty((len(group), len(points)))
            with np.errstate(all="ignore"):
                fill(args[:4], args[4:], out)
            for got, undefined in ((sample(rows), math.isnan),
                                   (out, lambda v: not math.isfinite(v))):
                for f, row, values_ in zip(group, want, got):
                    for j, point in enumerate(points):
                        if row[j] is EvalSingular:
                            assert undefined(values_[j]), (f, point)
                        else:
                            assert abs(values_[j] - row[j]) \
                                <= 1e-12 * _magnitude(f, point), (f, point)
            singular += sum(v is EvalSingular for row in want for v in row)
        assert singular > 5

    def test_raises_when_called(self):
        # compiled for every point, singular only where called: the sampling
        # form gives NaN at a vanishing denominator, where x**3 overflows
        # (an inf would make 1/x**3 a finite 0) and at sin of an infinity,
        # and `evaluate` raises there; the array form leaves the infinities
        group = [F(x + 1), F(1 / y), F(c), F(1 / (x * y + y)),
                 F(1 / x**3), F(sp.sin(x) * y)]
        with pytest.raises(KeyError):  # the two forms only
            kernels([group], CTX, "float")
        (sample,), (fill,) = (kernels([group], CTX, form)
                              for form in ("sampling", "array"))
        got = sample(np.array([[0.5, 0.0, 0.0, 1.0], [1.0, 2.0, 0.0, 3.0],
                               [1e200, 1.0, 0.0, 1.0],
                               [math.inf, 1.0, 0.0, 1.0]])).T.tolist()
        assert repr(got[0][:4]) == repr([1.5, math.nan, 1.0, math.nan])
        assert got[1] == [2.0, 0.5, 3.0, 0.25, 1.0, math.sin(1.0) * 2.0]
        assert math.isnan(got[2][4]) and math.isnan(got[3][5])
        with pytest.raises(EvalSingular, match="non-finite value"):
            evaluate(group[1], {y: 0.0})
        out = np.empty((6, 2))
        with np.errstate(divide="ignore"):
            fill(np.array([[0.5, 1.0], [0.0, 2.0], [0.0, 0.0]]),
                 np.array([[1.0, 3.0]]), out)
        assert out[:4, 1].tolist() == [2.0, 0.5, 3.0, 0.25]
        assert out[1, 0] == math.inf and out[3, 0] == math.inf

    def test_functions_freed_without_cyclic_collector(self):
        # each function is freed with its last reference, not by gc
        gc.disable()
        try:
            fns = kernels([[F(x + y)], [F(1 / x), F(c)]], CTX)
            fns += kernels([[F(x + y), F(1 / x)]], CTX, "array")
            refs = [weakref.ref(fn) for fn in fns]
            del fns
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()


def test_random_point_unsatisfiable_raises_named_error():
    ctx = context(states=(x,), nonzero=(x - x,))
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
            assert sp.sstr(got, order="grlex") == \
                sp.sstr(want, order="grlex"), e
            kinds.add("fraction" if sp.fraction(want)[1] != 1 else "poly")
    assert kinds == {"raises", "fraction", "poly"}


# a field with one sin/cos pair: x, y, z, w, sin(w), cos(w), and the clone
# over QQ of its ring, which holds random_poly's rational coefficients
TRIG_GENS = (x, y, z, w, sp.sin(w), sp.cos(w))
TRIG_FIELD = SymbolContext(states=(x, y, z, w), trig=(w,)).field
TRIG_RING = TRIG_FIELD.ring.clone(domain=QQ)


def _cofactors(p, polys, unit=None):
    qs = ideal_cofactors(TRIG_FIELD(p), [TRIG_RING(g) for g in polys],
                         None if unit is None else TRIG_RING(unit))
    return None if qs is None else [q.as_expr() for q in qs]


def _in_ideal_modulo_trig(p, polys, qs):
    """The numerator of p - sum q_i polys_i reduces to zero by
    sin(w)**2 + cos(w)**2 - 1."""
    gap = sp.expand(sp.numer(sp.together(
        p - sum(q * g for q, g in zip(qs, polys)))))
    return sp.reduced(gap, [PYTHAGORAS], *TRIG_GENS, order="grlex")[1] == 0


class TestIdealCofactors:
    def test_member_by_trig_relation(self):
        # cos(w)*sin(w)**2 = (sin(w)*cos(w)) * sin(w), though its reduced
        # form cos(w) - cos(w)**3 is not divisible by sin(w)
        p = sp.cos(w) * sp.sin(w)**2
        qs = _cofactors(p, [sp.sin(w)])
        assert qs == [sp.sin(w) * sp.cos(w)]
        assert _in_ideal_modulo_trig(p, [sp.sin(w)], qs)

    def test_member_beyond_division(self):
        # y leaves division by x, y + x*z unchanged: {x, y + x*z} is not a
        # Groebner basis, yet y = -z*x + 1*(y + x*z)
        qs = _cofactors(y, [x, y + x * z])
        assert qs == [-z, 1]
        assert _in_ideal_modulo_trig(y, [x, y + x * z], qs)

    def test_member_of_saturation(self):
        # z is outside (x, x + y*z) = (x, y*z), but y*z is inside: where
        # y != 0, z = -(1/y)*x + (1/y)*(x + y*z)
        assert _cofactors(z, [x, x + y * z]) is None
        qs = _cofactors(z, [x, x + y * z], unit=y)
        assert qs == [-1 / y, 1 / y]
        assert _in_ideal_modulo_trig(z, [x, x + y * z], qs)

    def test_saturation_matches_groebner_membership(self):
        # ideals (g, a*g + u*h) hold u*h, so h is in their saturation by u;
        # membership agrees with sympy's groebner of the ideal with t*u - 1
        # added, and each member's cofactors reproduce it where u != 0
        rng = random.Random(7)
        t = sp.Dummy("t")
        beyond = nonmembers = 0
        for _ in range(30):
            u = random_poly(rng, (y, z), terms=2, degree=1, trig_of=w)
            g = random_poly(rng, (x, y), terms=2, trig_of=w)
            h = random_poly(rng, (x, z), terms=2, degree=1)
            if sp.expand(g) == 0 or sp.expand(u).is_number:
                continue
            polys = [g, sp.expand(random_poly(rng, (x,), terms=1) * g
                                  + u * h)]
            p = sp.expand(h * random_poly(rng, (x, y), terms=2, degree=1))
            if rng.random() < 0.5:
                p += random_poly(rng, (y, z), terms=1, trig_of=w)
            want = sp.groebner(polys + [PYTHAGORAS, t * u - 1],
                               *TRIG_GENS, t, order="grlex",
                               domain=sp.QQ).contains(sp.expand(p))
            qs = _cofactors(sp.expand(p), polys, unit=u)
            assert (qs is not None) == want, (p, polys, u)
            if want:
                assert _in_ideal_modulo_trig(p, polys, qs)
                beyond += _cofactors(sp.expand(p), polys) is None
            else:
                nonmembers += 1
        # members outside the unsaturated ideal, and non-members
        assert beyond >= 5 and nonmembers >= 3

    @pytest.mark.parametrize("p, polys", [
        (x * y + 1, [x]), (sp.sin(w), [sp.cos(w)]), (x, [x + y, y + z])])
    def test_non_member(self, p, polys):
        assert _cofactors(p, polys) is None

    def test_matches_groebner_membership(self):
        # random ideals of one or two generators and random combinations of
        # them, some with a term added: membership agrees with sympy's
        # groebner, and each member's cofactors reproduce it
        rng = random.Random(31)
        members = nonmembers = 0
        for _ in range(40):
            polys = [random_poly(rng, (x, y, z), terms=2, trig_of=w)
                     for _ in range(rng.randint(1, 2))]
            if any(sp.expand(g) == 0 for g in polys):
                continue
            p = sum(random_poly(rng, (x, y), terms=2, degree=1, trig_of=w) * g
                    for g in polys)
            if rng.random() < 0.5:
                p += random_poly(rng, (x, z), terms=1, trig_of=w)
            p = sp.expand(p)
            want = sp.groebner(polys + [PYTHAGORAS], *TRIG_GENS,
                               order="grlex", domain=sp.QQ).contains(p)
            qs = _cofactors(p, polys)
            assert (qs is not None) == want, (p, polys)
            if want:
                assert _in_ideal_modulo_trig(p, polys, qs)
                members += 1
            else:
                nonmembers += 1
        assert members >= 10 and nonmembers >= 5


# generators declared out of their sort order (x2 before x10, which sorts
# first as a string; an uppercase X), two parameters and two sin/cos pairs
PRINT_CTX = SymbolContext(states=sp.symbols("x2 x10 X v w"), params=(a, b))


def _random_coefficient(rng):
    kind = rng.randrange(8)
    if kind < 3:
        return QQ(rng.choice((1, -1)))
    if kind < 5:
        return QQ(rng.randint(-9, 9) or 1, rng.randint(2, 12))
    if kind < 7:
        return QQ(rng.randint(-6, 6) or 5)
    return QQ(rng.choice((1, -1)) * rng.randint(2**64, 2**90))


def _random_ring_element(rng, R, terms):
    """A sum of random terms in R with each generator in about one term
    in five, a sin generator at most to the first power."""
    sins = {i for i, g in enumerate(R.symbols) if isinstance(g, sp.sin)}
    p = R.zero
    for _ in range(terms):
        m = tuple(rng.choice((1,) if i in sins else (1, 1, 2))
                  if rng.random() < 0.2 else 0 for i in range(R.ngens))
        p += R({m: _random_coefficient(rng)})
    return p


class TestToText:
    """The text of a field element, written from its terms, is sympy's
    sstr of its expression in grlex order."""

    @pytest.mark.parametrize("e, text", [
        (1 / x**2, "x**(-2)"), (-1 / x**2, "-1/x**2"),
        (1 / (2 * x**2), "1/(2*x**2)"), (1 / sp.cos(w), "1/cos(w)"),
        ((a * z - b * x) / sp.cos(w), "(a*z - b*x)/cos(w)"),
        (-a / (b * sp.cos(w)), "-a/(b*cos(w))"), (3 * x / 2, "3*x/2"),
        (x / 2, "x/2"), (-x, "-x"), (sp.Integer(0), "0"),
        (sp.Rational(-3, 2), "-3/2"), (1 / (x + 1), "1/(x + 1)"),
        (sp.Rational(1, 2) / (x + 1), "1/(2*(x + 1))"),
        ((x + 1) / (2 * y), "(x/2 + 1/2)/y"), (y / x**2, "y/x**2"),
        (1 / (x * y), "1/(x*y)"), ((-x - y) / (z + 1), "(-x - y)/(z + 1)")])
    def test_named_cases(self, e, text):
        f = to_field(e, CTX4)
        assert to_text(f) == text
        assert sp.sstr(from_field(f), order="grlex") == text

    def test_matches_sstr_of_expression(self):
        # numerators of zero to three terms over ground, one-term and
        # multi-term denominators
        rng = random.Random(2021)
        K = PRINT_CTX.field
        # the random coefficients are rational: the clone over QQ holds them
        R = K.ring.clone(domain=QQ)
        shapes = set()
        for _ in range(5000):
            num = _random_ring_element(rng, R, rng.choice((0, 1, 1, 2, 3)))
            den = _random_ring_element(rng, R, rng.choice((1, 1, 2, 3)))
            if not den:
                continue
            f = K(num) / K(den)
            assert to_text(f) == sp.sstr(from_field(f), order="grlex"), f
            shapes.add((min(len(f.numer), 2), min(len(f.denom), 2),
                        f.denom.is_ground))
        assert {(0, 1, True), (1, 1, True), (2, 1, True), (1, 1, False),
                (2, 1, False), (1, 2, False), (2, 2, False)} <= shapes


class TestDeterminant:
    """`minors`, a kept-minor expansion over the
    polynomial ring, equal Bareiss elimination over the fraction field
    (sympy's DomainMatrix.det), which shares no code with them."""

    @staticmethod
    def _entry(rng, ctx, kinds=(0, 1, 2, 3)):
        kind = rng.choice(kinds)
        if kind == 0:  # rational constant
            e = sp.Rational(rng.randint(-5, 5), rng.randint(1, 4))
        elif kind == 1:  # polynomial denominator
            e = (random_poly(rng, (x, y), terms=2, trig_of=w)
                 / (z + random_poly(rng, (x, y), terms=2, degree=1)))
        else:
            e = random_poly(rng, (x, y, z), terms=2, trig_of=w)
        return to_field(e, ctx)

    @staticmethod
    def _field_det(rows):
        K = rows[0][0].field
        n = len(rows)
        return reduce_fraction(DomainMatrix(
            [list(r) for r in rows], (n, n), K.to_domain()).det())

    def _rows(self, rng, s, n):
        """s random rows of length n: all rational constants now and then,
        else mixed entries, zeros among them; often a row a combination of
        two others.  Four or more rows have no polynomial denominators:
        field Bareiss takes seconds on a 4 x 4 determinant with them and up
        to a minute on a 5 x 5 one."""
        K = CTX4.field
        kinds = ((0,) if rng.random() < 0.15
                 else (0, 2, 3) if s > 3 else (0, 1, 2, 3))
        rows = [[self._entry(rng, CTX4, kinds) if rng.random() < 0.7
                 else K.zero for _ in range(n)] for _ in range(s)]
        if s > 2 and rng.random() < 0.3:
            c = self._entry(rng, CTX4, kinds)
            rows[-1] = [reduce_fraction(p + c * q)
                        for p, q in zip(rows[0], rows[1])]
        return rows

    def test_matches_field_bareiss(self):
        rng = random.Random(97)
        singular = constant = 0
        for _ in range(60):
            n = rng.choice((1, 2, 2, 3, 3, 4, 4, 5))
            rows = self._rows(rng, n, n)
            want = self._field_det(rows)
            got = minors(rows)(range(n))
            assert (got.numer, got.denom) == (want.numer, want.denom), rows
            singular += not want
            constant += all(e.numer.is_ground and e.denom.is_ground
                            for r in rows for e in r)
        assert singular >= 5 and constant >= 5

    def test_no_perfect_matching(self):
        # two rows nonzero only in one column, and a 3 x 3 upper-left
        # zero block of a 5 x 5 matrix: every term of either determinant
        # has a zero factor
        rng = random.Random(3)
        K = CTX4.field
        for zeros in ([(0, c) for c in range(1, 4)]
                      + [(1, c) for c in range(1, 4)],
                      [(r, c) for r in range(3) for c in range(3)]):
            n = 4 if len(zeros) == 6 else 5
            rows = [[K.zero if (r, c) in zeros else self._entry(rng, CTX4)
                     for c in range(n)] for r in range(n)]
            assert self._field_det(rows) == minors(rows)(range(n)) == K.zero

    def test_minors_match_field_bareiss(self):
        # every column subset of s x n rows, s <= 4 and n <= 6, with two
        # minors functions of the same shape queried in turn: a minor kept
        # by one is never read by the other
        rng = random.Random(41)
        for _ in range(12):
            s = rng.randint(1, 4)
            n = rng.randint(s, 6)
            pair = [self._rows(rng, s, n) for _ in range(2)]
            kept = [minors(rows) for rows in pair]
            for cols in itertools.combinations(range(n), s):
                for rows, minor in zip(pair, kept):
                    want = self._field_det(
                        [[r[c] for c in cols] for r in rows])
                    got = minor(cols)
                    assert (got.numer, got.denom) == \
                        (want.numer, want.denom), (rows, cols)


# --- the field over ZZ against the field over QQ it replaced ---------------

# states x, y, w and the sin/cos pair of w; the reference field over QQ on
# the same generators, in the same order
RATIONAL_CTX = SymbolContext(states=(x, y, w), trig=(w,))
ZZ_FIELD = RATIONAL_CTX.field
QQ_FIELD = FracField(ZZ_FIELD.symbols, QQ, grlex)


def _qq_from_field(f):
    """from_field as it was over QQ: both parts divided by the denominator's
    leading coefficient in their own ring."""
    lc = f.denom.LC
    num = f.numer.quo_ground(lc).as_expr()
    if f.denom.is_ground:
        return num
    return num / f.denom.quo_ground(lc).as_expr()


def _qq_value(f):
    """The kernel expression of an element as it was written over QQ."""
    value = _qq_sum(f.numer, f.denom.LC)
    if not f.denom.is_ground:
        den = f.denom.quo_ground(f.denom.LC)
        value = f"({value}) / den({_qq_sum(den, 1)})"
    return value


def _qq_sum(p, scale):
    text = ""
    for m, c in p.terms():
        c /= scale
        try:
            literal = repr(float(abs(c)))
        except OverflowError:
            literal = "inf"
        term = "*".join(([literal] if literal != "1.0" or not any(m) else [])
                        + [f"pow(_g{i}, {e})" if e > 1 else f"_g{i}"
                           for i, e in enumerate(m) if e])
        text += (" - " if c < 0 else " + ") + term
    return text.lstrip(" +") or "0.0"


def _qq_divide_exact(num, den):
    """divide_exact as it was over QQ, dividing by a constant cofactor with
    quo_ground."""
    _, p, q = (num.numer * den.denom).cofactors(num.denom * den.numer)
    if not q.is_ground:
        return None
    return reduce_fraction(num.field(p.quo_ground(q.LC)))


def _rational_coefficient(rng):
    """An integer, a rational, or a rational beyond the double range."""
    kind = rng.randrange(5)
    if kind == 0:
        return QQ(rng.randint(-9, 9) or 1, rng.randint(2, 12))
    if kind == 1:
        return QQ(rng.choice((1, -1)) * 3**rng.randint(650, 700),
                  rng.randint(1, 4))
    return QQ(rng.randint(-6, 6) or 1)


def _random_pair(rng):
    """A random numerator and nonzero denominator in the clone over QQ of
    the field's ring; the denominator is non-monic and, half the time, has
    a negative leading coefficient."""
    R = QQ_FIELD.ring

    def poly(terms):
        p = R.zero
        for _ in range(terms):
            m = tuple(rng.choice((1,) if isinstance(g, sp.sin) else (1, 2))
                      if rng.random() < 0.3 else 0 for g in R.symbols)
            p += R({m: _rational_coefficient(rng)})
        return p

    num, den = poly(rng.randint(0, 3)), R.zero
    while not den or den.LC == 1:
        den = poly(rng.randint(1, 3))
    if (den.LC > 0) == (rng.random() < 0.5):
        den = -den
    return num, den


def _same_element(fz, fq):
    return (fz.field is ZZ_FIELD and fq.field is QQ_FIELD
            and dict(fz.numer) == dict(fq.numer)
            and dict(fz.denom) == dict(fq.denom))


class TestAgainstRationalField:
    """Elements built alike in the field over ZZ and in a field over QQ are
    the same reduced pairs, and every step that reads a value divided by a
    leading coefficient gives what it gave over QQ."""

    @pytest.fixture(scope="class")
    def elements(self):
        rng = random.Random(2501)
        pairs = []
        for _ in range(300):
            num, den = _random_pair(rng)
            fz = reduce_fraction(ZZ_FIELD(num) / ZZ_FIELD(den))
            fq = reduce_fraction(QQ_FIELD.new(num, den))
            pairs.append((fz, fq))
        return pairs

    def test_same_reduced_pairs(self, elements):
        assert all(_same_element(fz, fq) for fz, fq in elements)
        # rational, huge, non-monic and negative-leading inputs all occur
        big = [fz for fz, _ in elements
               if any(abs(c) > 2**1024 for c in fz.numer.itercoeffs())]
        assert len(big) > 20
        assert sum(not fz.denom.is_ground for fz, _ in elements) > 100

    def test_text_and_expression(self, elements):
        for fz, fq in elements:
            expr = _qq_from_field(fq)
            assert from_field(fz) == expr
            assert to_text(fz) == sp.sstr(expr, order="grlex")

    def test_kernel_values(self, elements, monkeypatch):
        zz, qq = zip(*elements)
        groups = [[f] for f in zz]
        samples = kernels(groups, RATIONAL_CTX)
        arrays = kernels(groups, RATIONAL_CTX, "array")
        monkeypatch.setattr(expr_module, "_value", _qq_value)
        ref_samples = kernels([[f] for f in qq], RATIONAL_CTX)
        ref_arrays = kernels([[f] for f in qq], RATIONAL_CTX, "array")
        rng = np.random.default_rng(5)
        X = rng.uniform(-2, 2, size=(3, 40))
        P = np.empty((0, 40))
        for sample, ref in zip(samples, ref_samples):
            assert np.array_equal(sample(X.T), ref(X.T), equal_nan=True)
        with np.errstate(all="ignore"):
            for fill, ref in zip(arrays, ref_arrays):
                got = fill(X, P, np.empty((1, 40)))
                want = ref(X, P, np.empty((1, 40)))
                assert np.array_equal(got, want, equal_nan=True)

    def test_divide_exact(self, elements):
        rng = random.Random(17)
        exact = 0
        for _ in range(150):
            (az, aq), (bz, bq) = rng.sample(elements, 2)
            if not bz:
                continue
            for num in ((az * bz, aq * bq), (az, aq)):
                got = divide_exact(num[0], bz)
                want = _qq_divide_exact(num[1], bq)
                assert (got is None) == (want is None)
                if got is not None:
                    assert _same_element(got, want)
                    exact += 1
        assert exact > 50

    def test_ideal_cofactors_verdicts(self):
        # membership of p in (polys) modulo sin**2 + cos**2 - 1, against
        # sympy's groebner over QQ, with rational, non-monic generators
        rng = random.Random(23)
        gens = (x, y, w, sp.sin(w), sp.cos(w))
        pythagoras = sp.sin(w)**2 + sp.cos(w)**2 - 1
        members = nonmembers = 0
        for _ in range(20):
            polys = [_random_pair(rng)[1] for _ in range(rng.randint(1, 2))]
            p = sum((_random_pair(rng)[1] * g for g in polys),
                    QQ_FIELD.ring.zero)
            if rng.random() < 0.5:
                p += _random_pair(rng)[1]
            if not p:
                continue
            qs = ideal_cofactors(ZZ_FIELD(p), polys)
            want = sp.groebner([g.as_expr() for g in polys] + [pythagoras],
                               *gens, order="grlex",
                               domain=sp.QQ).contains(p.as_expr())
            assert (qs is not None) == want
            if want:
                gap = p - sum((q.numer.set_ring(QQ_FIELD.ring) * g
                               / q.denom.LC for q, g in zip(qs, polys)),
                              QQ_FIELD.ring.zero)
                assert sp.reduced(gap.as_expr(), [pythagoras], *gens,
                                  order="grlex")[1] == 0
                members += 1
            else:
                nonmembers += 1
        assert members >= 5 and nonmembers >= 3

    def test_known_nonzero_with_declared_factor_two_cos(self):
        # over ZZ, cos(w).div(2*cos(w)) is (0, cos(w)): the known factor is
        # kept primitive, so 3*cos(w)**2 divides out to a constant
        ctx = context(states=(x, w), nonzero=(2 * sp.cos(w),))
        cos = ctx.field.ring.gens[-1]
        assert ctx.known_factors == (cos,)
        assert ctx.known_nonzero(to_field(3 * sp.cos(w)**2, ctx))
        assert not ctx.known_nonzero(to_field(x / (2 * sp.cos(w)), ctx))
        assert ctx.known_nonzero(to_field(sp.Rational(5, 2) / sp.cos(w),
                                          ctx))
        assert not ctx.known_nonzero(to_field(sp.sin(w), ctx))


# --- trig remainder and the field's gcd against sympy's own ----------------

# one and two sin/cos pairs, and none
ONE_PAIR = SymbolContext(states=(x, y, w), trig=(w,)).field.ring
TWO_PAIRS = SymbolContext(states=(x, y, z, w), trig=(z, w)).field.ring
NO_PAIR = SymbolContext(states=(x, y, z), params=(a,), trig=()).field.ring


def _integer_poly(rng, R, terms, degree, sin_degree=2):
    """A sum of random integer multiples of monomials of R, each with up to
    `degree` generator factors and sin exponents up to `sin_degree`."""
    sins = {i for i, g in enumerate(R.symbols) if isinstance(g, sp.sin)}
    p = R.zero
    for _ in range(terms):
        m = [0] * R.ngens
        for _ in range(rng.randint(0, degree)):
            m[rng.randrange(R.ngens)] += 1
        for i in sins:
            if rng.random() < 0.5:
                m[i] = rng.randint(0, sin_degree)
        p += R({tuple(m): rng.choice((-3, -2, -1, 1, 2, 5, 2**70 + 1))})
    return p


class TestTrigRemainder:
    """The one-pass rewrite sin**e -> sin**(e % 2)*(1 - cos**2)**(e // 2)
    is the remainder by the sin/cos relations that sympy's division finds."""

    @pytest.mark.parametrize("R", [ONE_PAIR, TWO_PAIRS], ids=["one", "two"])
    def test_matches_division(self, R):
        rng = random.Random(41)
        relations = expr_module._relations(R)
        rewritten = 0
        for _ in range(150):
            p = _integer_poly(rng, R, rng.randint(1, 5), 3, sin_degree=5)
            r = expr_module._rem(p, relations)
            assert r == p.rem(list(relations[1]))
            rewritten += r is not p
        assert rewritten > 50

    def test_relation_itself_and_identity(self):
        relations = expr_module._relations(TWO_PAIRS)
        for g in relations[1]:
            assert expr_module._rem(g, relations) == 0
            assert expr_module._rem(g**3 + g * TWO_PAIRS.gens[0],
                                    relations) == 0
        # no squared sin: p itself, which reduce_fraction reads by identity
        p = TWO_PAIRS.gens[3] * TWO_PAIRS.gens[4] + TWO_PAIRS.gens[5]**3
        assert expr_module._rem(p, relations) is p

    def test_over_rationals(self):
        # ideal_cofactors reduces in the ring's clone over QQ
        rng = random.Random(43)
        Q = TWO_PAIRS.clone(domain=QQ)
        relations = expr_module._relations(Q)
        for _ in range(40):
            p = _integer_poly(rng, TWO_PAIRS, 4, 3, sin_degree=5).set_ring(Q) / 6
            assert expr_module._rem(p, relations) == p.rem(
                list(relations[1]))


def _sympy_cofactors(f, g):
    """sympy's own `cofactors` of f and g with two or more terms each:
    heugcd on the deflated pair in their grlex ring itself."""
    J, (f, g) = f.deflate(g)
    return tuple(p.inflate(J) for p in heuristicgcd.heugcd(f, g))


def _gcd_pairs(R, seed, count=120):
    """Seeded pairs f = a*c, g = b*c of two or more terms in R, the signs
    of a, b and c random, so leading coefficients of either sign occur."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        a, b, c = (_integer_poly(rng, R, rng.randint(1, 4), 3)
                   * rng.choice((1, -1)) for _ in range(3))
        f, g = a * c, b * c
        if len(f) > 1 and len(g) > 1:
            pairs.append((f, g))
    return pairs


class TestFieldGcd:
    """A field's ring takes its gcd in its lex clone and gets sympy's own
    grlex result back, sign included; other rings keep sympy's path."""

    @pytest.mark.parametrize("R", [NO_PAIR, ONE_PAIR, TWO_PAIRS],
                             ids=["none", "one", "two"])
    def test_cofactors_match_sympy(self, R):
        pairs = _gcd_pairs(R, seed=len(R.symbols))
        wants = [_sympy_cofactors(f, g) for f, g in pairs]
        for (f, g), want in zip(pairs, wants):
            got = f.cofactors(g)
            assert all(p.ring is R for p in got)
            assert got == want
        # negative leading coefficients in, nontrivial gcds, and gcds whose
        # sign sympy took from a cofactor's check (negative h) out
        assert any(f.LC < 0 for f, _ in pairs)
        assert any(not h.is_ground for h, _, _ in wants)
        assert any(h.LC < 0 for h, _, _ in wants)

    @pytest.mark.parametrize("R", [NO_PAIR, TWO_PAIRS], ids=["none", "two"])
    def test_cancel_and_fractions_unchanged(self, R):
        # the same generators in a ring and a field built outside
        # rational_field, which take sympy's own gcd
        K = expr_module.rational_field(R.symbols)
        assert K.ring is R
        S = FracField(R.symbols, ZZ, grlex)
        assert S.ring == R and S.ring is not R
        for f, g in _gcd_pairs(R, seed=5, count=60):
            fs, gs = S.ring.dtype(f), S.ring.dtype(g)
            assert f.cancel(g) == fs.cancel(gs)
            got, want = K.new(f, g), S.new(fs, gs)
            assert (got.numer, got.denom) == (want.numer, want.denom)

    def test_no_grlex_gcd_in_analyze(self, monkeypatch):
        # poly(4): poly(3) takes no gcd of two polynomials of two terms
        orders = _record_heugcd(monkeypatch)
        analyze(parse_system(poly_text(4)),
                AnalysisConfig(seed=61, run_numeric=False))
        assert orders and set(orders) == {lex}

    def test_other_rings_keep_sympy_path(self, monkeypatch):
        orders = _record_heugcd(monkeypatch)
        R, u, v = ring("u,v", ZZ, grlex)
        assert (u**2 - v**2).cofactors(u**2 + 2 * u * v + v**2) == (
            u + v, u - v, u + v)
        assert orders and set(orders) == {grlex}
        # equal to a field's ring, yet not made by rational_field
        orders.clear()
        S = ring(NO_PAIR.symbols, ZZ, grlex)[0]
        assert S == NO_PAIR and S is not NO_PAIR
        f, g = _gcd_pairs(NO_PAIR, seed=9, count=1)[0]
        S.dtype(f).cofactors(S.dtype(g))
        assert orders and set(orders) == {grlex}


def _record_heugcd(monkeypatch):
    """Record the order of the ring of every heuristic gcd: sympy's own
    path calls heugcd through its name in sympy.polys.rings, the field's
    hook and heugcd's recursion through sympy.polys.heuristicgcd."""
    orders = []
    heugcd = heuristicgcd.heugcd

    def recorded(f, g):
        orders.append(f.ring.order)
        return heugcd(f, g)

    monkeypatch.setattr(heuristicgcd, "heugcd", recorded)
    monkeypatch.setattr(sympy_rings, "heugcd", recorded)
    return orders
