"""Exact symbolic scalar engine used as the coefficient ring of the pipeline.

Expressions are sympy trees restricted to a fixed class: exact rational
constants, declared state variables and parameters, sums, products, integer
powers, quotients, and the trig atoms sin(v), cos(v) of a declared variable.
sin(v) and cos(v) are treated as independent indeterminates linked only by the
rewrite sin(v)**2 -> 1 - cos(v)**2.

The exact layer (forms, flag, integrals) computes on field elements: members
of the one sparse rational-function field over QQ of a system,
`SymbolContext.field`, kept reduced by `reduce_fraction`.  Expressions are
built only at three boundaries: parsing in (`to_field`, `normalize`), numeric
evaluation out (`evaluate` and its callers) and report text out
(`from_field`, `to_text`).

All functions here are pure; randomized ones take an explicit seed or a
numpy Generator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dataclass_field, replace
from enum import Enum
from fractions import Fraction

import numpy as np
import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.fields import FracField
from sympy.polys.matrices import DomainMatrix
from sympy.polys.orderings import grlex

from .errors import (
    DivisionByZeroExpr,
    EvalSingular,
    NotPolynomial,
    SamplingFailed,
    UnknownSymbol,
)

NONZERO_WITNESS_TOL = 1e-9
EVAL_SINGULAR_TOL = 1e-12
# what evaluating at a sampled point may raise: a denominator below the
# threshold, overflow, or math.sin / math.fsum of an infinite value
POINT_ERRORS = (EvalSingular, ArithmeticError, ValueError)


@dataclass(frozen=True)
class SymbolContext:
    """Declared symbols of a system: ordered states, parameters, constraints.

    The generator order (states in declaration order, then parameters, then
    trig atoms) fixes the graded-lex term order used for all normal forms.
    """

    states: tuple[sp.Symbol, ...]
    params: tuple[sp.Symbol, ...] = ()
    # parameter -> '+' or '-' for declared sign constraints
    param_signs: dict = dataclass_field(default_factory=dict)
    # expressions the user asserts nonzero on the working domain
    nonzero: tuple = ()

    @property
    def symbols(self):
        return self.states + self.params

    @functools.cached_property
    def field(self):
        """The system's rational-function field (rational_field) on the
        generators: states, then parameters, then sin(v), cos(v) of each.

        Its grlex order restricted to any expression's own generators is
        that expression's grlex order, and sin(v) precedes cos(v), so the
        leading term of sin(v)**2 + cos(v)**2 - 1 is sin(v)**2.
        """
        return rational_field(self.symbols + tuple(
            f(v) for v in self.symbols for f in (sp.sin, sp.cos)))

    @functools.cached_property
    def state_generators(self):
        """Each state v -> the positions in field.symbols of v and of sin(v);
        cos(v) follows sin(v)."""
        index = {g: i for i, g in enumerate(self.field.symbols)}
        return {v: (index[v], index[sp.sin(v)]) for v in self.states}

    @functools.cached_property
    def known_factors(self):
        """Irreducible polynomials of the field's ring known nonzero on the
        working domain: the generator of each sign-constrained parameter, and
        the numerator of each declared-nonzero element that is a constant
        times one irreducible polynomial of multiplicity 1."""
        R = self.field.ring
        known = [R.gens[self.symbols.index(p)]
                 for p, sign in self.param_signs.items() if sign]
        for e in (to_field(c, self) for c in self.nonzero):
            if e.denom.is_ground and [m for _, m in factor(e)] == [1]:
                known.append(e.numer)
        return tuple(known)

    def known_nonzero(self, f):
        """True when the field element f is nonzero and each irreducible
        factor of it is a known factor: dividing them out of its numerator
        and denominator leaves constants (unique factorization in the ring)."""
        if not f:
            return False
        for part in (f.numer, f.denom):
            for p in self.known_factors:
                while not part.is_ground:
                    q, r = part.div(p)
                    if r:
                        break
                    part = q
            if not part.is_ground:
                return False
        return True

    def assuming(self, elements):
        """This context with the field elements also declared nonzero."""
        extra = tuple(e for e in map(from_field, elements)
                      if e not in self.nonzero)
        if not extra:
            return self
        return replace(self, nonzero=self.nonzero + extra)

    def check_symbols(self, e):
        """Raise UnknownSymbol if e mentions an undeclared symbol."""
        e = sp.sympify(e)
        declared = set(self.symbols)
        extra = e.free_symbols - declared
        if extra:
            names = ", ".join(sorted(str(s) for s in extra))
            raise UnknownSymbol(f"undeclared symbol(s): {names}")
        for f in e.atoms(sp.Function):
            if not isinstance(f, (sp.sin, sp.cos)):
                raise NotPolynomial(f"function outside expression class: {f}")
            if f.args[0] not in declared:
                raise UnknownSymbol(f"trig atom of undeclared symbol: {f}")


class Verdict(Enum):
    PROVEN_ZERO = "ProvenZero"
    PROVEN_NONZERO = "ProvenNonzero"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class ZeroVerdict:
    kind: Verdict
    witness: dict | None = None  # symbol -> float, only for PROVEN_NONZERO

    @property
    def is_zero(self):
        return self.kind is Verdict.PROVEN_ZERO

    @property
    def is_nonzero(self):
        return self.kind is Verdict.PROVEN_NONZERO


@functools.lru_cache(maxsize=None)
def rational_field(gens):
    """Sparse rational-function field over QQ in grlex order on `gens`."""
    return FracField(gens, QQ, grlex)


@functools.lru_cache(maxsize=None)
def _relations(K):
    """Indices of K's sin generators, and sin(v)**2 + cos(v)**2 - 1 of each
    (sin, cos) generator pair."""
    R = K.ring
    sins = [i for i, g in enumerate(K.symbols) if isinstance(g, sp.sin)]
    return sins, tuple(R.gens[i]**2 + R.gens[i + 1]**2 - 1 for i in sins)


def _rem(p, relations):
    """p modulo the relations; p itself, found in linear time, when no
    monomial has a squared sin factor."""
    sins, polys = relations
    if all(m[i] < 2 for m in p for i in sins):
        return p
    return p.rem(polys)


def to_field(e, ctx: SymbolContext):
    """Reduced element of the system's field for an expression."""
    try:
        f = ctx.field.from_expr(e)
    except (ZeroDivisionError, ValueError) as exc:
        # ValueError: not a rational function in the field's generators
        if isinstance(exc, ValueError) and not sp.sympify(e).has(
                sp.zoo, sp.nan, sp.oo, -sp.oo):
            ctx.check_symbols(e)
            raise NotPolynomial(f"outside the expression class: {e}") from None
        raise DivisionByZeroExpr("denominator normalizes to zero") from None
    return reduce_fraction(f)


def reduce_fraction(f):
    """f with sin**2 eliminated from numerator and denominator, cancelled
    again when the denominator is not a constant.  Field arithmetic cancels
    but knows nothing of the trig relations: exact results pass here once."""
    relations = _relations(f.field)
    num, den = _rem(f.numer, relations), _rem(f.denom, relations)
    if num is f.numer and den is f.denom:
        return f
    if not den:
        raise DivisionByZeroExpr("denominator normalizes to zero")
    if not num:
        return f.field.zero
    if not den.is_ground:
        f = f.field.new(num, den)
        num, den = _rem(f.numer, relations), _rem(f.denom, relations)
        if not den:
            raise DivisionByZeroExpr("denominator normalizes to zero")
    return f.field.raw_new(num, den)


def determinant(rows):
    """Reduced determinant of a square matrix of field elements.  A row with
    polynomial denominators is first scaled to polynomials by their lcm,
    which spares the elimination its costly cancellations."""
    K = rows[0][0].field
    scale, scaled = K.one, []
    for row in rows:
        L = functools.reduce(lambda a, b: a.lcm(b), [
            e.denom for e in row if not e.denom.is_ground], K.ring.one)
        if L != 1:
            row = [K(e.numer * L.exquo(e.denom)) for e in row]
            scale *= K(L)
        scaled.append(row)
    det = DomainMatrix(scaled, (len(rows),) * 2, K.to_domain()).det()
    return reduce_fraction(det / scale if scale != 1 else det)


def from_field(f):
    """Expression num/den of a field element, the denominator monic in grlex
    order (a constant denominator is divided into the numerator)."""
    lc = f.denom.LC
    num = f.numer.quo_ground(lc).as_expr()
    if f.denom.is_ground:
        return num
    return num / f.denom.quo_ground(lc).as_expr()


def normalize(e, ctx: SymbolContext):
    """Canonical form of an expression: a single reduced fraction num/den.

    The numerator and denominator are expanded polynomials over the context
    generators with sin**2 eliminated; the denominator is monic in grlex
    order (1 for polynomial input).
    """
    e = sp.sympify(e)
    if e.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
        raise DivisionByZeroExpr("denominator normalizes to zero")
    # fast path: no quotients and no sin atoms means the fraction and
    # sin**2-rewrite stages are identities, so expansion alone is canonical
    if not e.has(sp.sin) and all(
            p.exp.is_Integer and p.exp > 0 for p in e.atoms(sp.Pow)):
        return sp.expand(e)
    return from_field(to_field(e, ctx))


def differentiate(f, v, ctx: SymbolContext):
    """Partial derivative of a field element with respect to a declared state
    variable; sin(v) and cos(v) are differentiated by the chain rule.

    The result is not reduced: callers reduce it once, together with
    whatever they add to it (gradient, forms.d)."""
    try:
        i, j = ctx.state_generators[v]
    except KeyError:
        raise UnknownSymbol(f"not a declared state variable: {v}") from None
    K = f.field
    sin, cos = K.ring.gens[j], K.ring.gens[j + 1]

    def D(p):
        return p.diff(i) + cos * p.diff(j) - sin * p.diff(j + 1)

    if f.denom.is_ground:
        return K.new(D(f.numer), f.denom)
    return K.new(D(f.numer) * f.denom - f.numer * D(f.denom), f.denom**2)


def gradient(f, ctx: SymbolContext):
    return [reduce_fraction(differentiate(f, v, ctx)) for v in ctx.states]


def sample_params(ctx: SymbolContext, rng) -> dict:
    """Random parameter values honoring declared sign constraints."""
    vals = {}
    for p in ctx.params:
        v = rng.uniform(0.5, 2.0)
        sign = ctx.param_signs.get(p)
        if sign == "-":
            v = -v
        elif sign is None and rng.random() < 0.5:
            v = -v
        vals[p] = v
    return vals


def _random_rational(rng):
    return Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 21)))


def random_point(ctx: SymbolContext, rng, margin=1e-3):
    """A random point satisfying sign and nonzero constraints: rational
    states and sample_params parameters, drawn from a numpy Generator."""
    for _ in range(200):
        point = {v: _random_rational(rng) for v in ctx.states}
        point.update(sample_params(ctx, rng))
        try:  # each declared-nonzero expression evaluates beyond margin
            if all(not abs(evaluate(c, point, ctx)) <= margin
                   for c in ctx.nonzero):
                return point
        except POINT_ERRORS:
            pass
    raise SamplingFailed("could not sample a point satisfying domain "
                         "constraints")


def is_zero(f, ctx: SymbolContext, seed: int = 0, samples: int = 8) -> ZeroVerdict:
    """Three-valued zero test of a field element: exact, then by evaluating
    at random points."""
    if not f:
        return ZeroVerdict(Verdict.PROVEN_ZERO)
    e = from_field(f)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        point = random_point(ctx, rng)
        try:
            val = evaluate(e, point, ctx)
        except EvalSingular:
            continue
        if abs(val) > NONZERO_WITNESS_TOL:
            witness = {s: float(v) for s, v in point.items()}
            return ZeroVerdict(Verdict.PROVEN_NONZERO, witness)
    return ZeroVerdict(Verdict.UNKNOWN)


def factor(f):
    """Irreducible factors of a polynomial field element with multiplicities,
    up to a rational unit.

    Factors are primitive over ZZ with positive grlex leading coefficient,
    sorted in sympy's default order of their expressions.  Trig atoms are
    treated as opaque indeterminates.
    """
    if not f.denom.is_ground:
        raise NotPolynomial(
            f"not a polynomial after normalization: {from_field(f)}")
    if not f:
        return []
    K = f.field
    out = [(K(-p if p.LC < 0 else p), int(mult))
           for p, mult in f.numer.factor_list()[1]]
    out.sort(key=lambda fm: sp.default_sort_key(from_field(fm[0])))
    return out


def divide_exact(num, den):
    """Exact polynomial quotient num/den of field elements, or None.

    num/den = P/Q with P = num.numer * den.denom, Q = num.denom * den.numer;
    it is a polynomial exactly when Q's cofactor by gcd(P, Q) is constant.
    (The gcd rules a divisor out much faster than sparse division.)
    """
    if not den:
        raise DivisionByZeroExpr("division by zero expression")
    _, p, q = (num.numer * den.denom).cofactors(num.denom * den.numer)
    if not q.is_ground:
        return None
    return reduce_fraction(num.field(p.quo_ground(q.LC)))


def evaluate(e, point, ctx: SymbolContext | None = None) -> float:
    """IEEE-double evaluation; denominators below 1e-12 raise EvalSingular."""
    return _eval(sp.sympify(e), point)


def _eval(e, point):
    if e.is_Number:
        return float(e)
    if e.is_Symbol:
        try:
            return float(point[e])
        except KeyError:
            raise UnknownSymbol(f"no value assigned for {e}") from None
    if e.is_Add:
        return math.fsum(_eval(a, point) for a in e.args)
    if e.is_Mul:
        out = 1.0
        for a in e.args:
            out *= _eval(a, point)
        return out
    if e.is_Pow:
        base = _eval(e.base, point)
        exp = e.exp
        if not exp.is_Integer:
            raise NotPolynomial(f"non-integer exponent: {e}")
        if exp < 0 and abs(base) < EVAL_SINGULAR_TOL:
            raise EvalSingular(f"denominator below threshold in {e}")
        return base ** int(exp)
    if isinstance(e, sp.sin):
        return math.sin(_eval(e.args[0], point))
    if isinstance(e, sp.cos):
        return math.cos(_eval(e.args[0], point))
    raise NotPolynomial(f"node outside expression class: {e!r}")


def compile_evaluators(groups, symbols):
    """Per group of expressions, a function of the float values of
    `symbols` returning the group's values as `evaluate` does: `_eval`'s
    float operations in its order, once per node, raising what it raises
    where it raises (fsum gets a tuple, not `_eval`'s lazy items)."""
    ns = {"fsum": math.fsum, "sin": math.sin, "cos": math.cos, "fail": _fail,
          "EvalSingular": EvalSingular, "NotPolynomial": NotPolynomial,
          "UnknownSymbol": UnknownSymbol}
    args = ", ".join(f"_v{i}" for i in range(len(symbols)))
    source = []
    for g, exprs in enumerate(groups):
        body, names = [], {s: f"_v{i}" for i, s in enumerate(symbols)}
        values = "".join(_emit(sp.sympify(e), body, names) + ", "
                         for e in exprs)
        source += [f"def _f{g}({args}):", *body, f"    return ({values})"]
    exec(compile("\n".join(source), "<ctrlinv evaluator>", "exec"), ns)
    # popped: a function left in its own globals is freed only by gc
    return [ns.pop(f"_f{g}") for g in range(len(groups))]


def _fail(error, message):
    raise error(message)


def _emit(e, body, names):
    """The local holding e's value after body, appended to: `_eval`'s cases."""
    if e in names:
        return names[e]
    if e.is_Number:
        value = float(e)
        code = repr(value) if math.isfinite(value) else f"float('{value}')"
    elif e.is_Symbol:  # not one of the symbols
        code = f"fail(UnknownSymbol, {f'no value assigned for {e}'!r})"
    elif e.is_Add:
        args = "".join(_emit(a, body, names) + ", " for a in e.args)
        code = f"fsum(({args}))"
    elif e.is_Mul:
        code = " * ".join(["1.0"] + [_emit(a, body, names) for a in e.args])
    elif e.is_Pow:
        base = _emit(e.base, body, names)
        code = f"{base} ** {e.exp}"
        if not e.exp.is_Integer:
            code = f"fail(NotPolynomial, {f'non-integer exponent: {e}'!r})"
        elif e.exp < 0:
            message = repr(f"denominator below threshold in {e}")
            body.append(f"    if abs({base}) < {EVAL_SINGULAR_TOL!r}: "
                        f"fail(EvalSingular, {message})")
    elif isinstance(e, (sp.sin, sp.cos)):
        code = f"{type(e).__name__}({_emit(e.args[0], body, names)})"
    else:
        message = repr(f"node outside expression class: {e!r}")
        code = f"fail(NotPolynomial, {message})"
    names[e] = f"_t{len(names)}"
    body.append(f"    {names[e]} = {code}")
    return names[e]


def to_text(e) -> str:
    """Canonical text rendering used in reports and golden tests."""
    return sp.sstr(sp.sympify(e), order="grlex")
