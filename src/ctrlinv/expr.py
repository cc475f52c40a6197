"""Exact symbolic scalar engine used as the coefficient ring of the pipeline.

Expressions are sympy trees restricted to a fixed class: exact rational
constants, declared state variables and parameters, sums, products, integer
powers, quotients, and the trig atoms sin(v), cos(v) of a declared variable.
sin(v) and cos(v) are treated as independent indeterminates linked only by the
rewrite sin(v)**2 -> 1 - cos(v)**2, applied during normalization.
Normalization computes in sympy's sparse rational-function field over QQ
(rational_field) and converts back to a tree only for its result.

All functions here are pure; randomized ones take an explicit seed or a
numpy Generator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np
import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.fields import FracField
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
    param_signs: dict = field(default_factory=dict)
    # expressions the user asserts nonzero on the working domain
    nonzero: tuple = ()

    @property
    def symbols(self):
        return self.states + self.params

    def trig_atoms(self):
        atoms = []
        for v in self.symbols:
            atoms.append(sp.sin(v))
            atoms.append(sp.cos(v))
        return tuple(atoms)

    def gens_for(self, *exprs):
        """Ordered generator list covering the given expressions.

        States first, then parameters, then (sin, cos) pairs of variables
        that actually occur under a trig atom.  sin before cos so that the
        leading term of sin(v)**2 + cos(v)**2 - 1 is sin(v)**2.
        """
        used_trig = set()
        for e in exprs:
            e = sp.sympify(e)
            for f in e.atoms(sp.sin, sp.cos):
                used_trig.add(f.args[0])
        trig = []
        for v in self.symbols:
            if v in used_trig:
                trig.append(sp.sin(v))
                trig.append(sp.cos(v))
        return self.states + self.params + tuple(trig)

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
    """Sparse rational-function field over QQ in grlex order on `gens` (a
    SymbolContext.gens_for tuple), and the relation sin(v)**2 + cos(v)**2 - 1
    of each (sin, cos) pair in it."""
    K = FracField(gens, QQ, grlex)
    R = K.ring
    return K, tuple(s**2 + c**2 - 1
                    for g, s, c in zip(gens, R.gens, R.gens[1:])
                    if isinstance(g, sp.sin))


def to_field(e, K, relations, ctx: SymbolContext):
    """Reduced field element of an expression: see reduce_fraction."""
    try:
        f = K.from_expr(e)
    except (ZeroDivisionError, ValueError) as exc:
        # ValueError: not a rational function in K's generators
        if isinstance(exc, ValueError) and not sp.sympify(e).has(
                sp.zoo, sp.nan, sp.oo, -sp.oo):
            ctx.check_symbols(e)
            raise NotPolynomial(f"outside the expression class: {e}") from None
        raise DivisionByZeroExpr("denominator normalizes to zero") from None
    return reduce_fraction(f, relations)


def _rem(p, relations):
    return p.rem(relations) if relations else p


def reduce_fraction(f, relations):
    """f with sin**2 eliminated from numerator and denominator, cancelled
    again when the denominator is not a constant."""
    num, den = _rem(f.numer, relations), _rem(f.denom, relations)
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
    return from_field(to_field(e, *rational_field(ctx.gens_for(e)), ctx))


def is_polynomial(e, ctx: SymbolContext) -> bool:
    """True when normalize(e) has trivial denominator."""
    _, den = sp.fraction(normalize(e, ctx))
    return not (den.free_symbols or den.atoms(sp.sin, sp.cos))


def differentiate(e, v, ctx: SymbolContext):
    """Partial derivative with respect to a declared state variable."""
    if v not in ctx.states:
        raise UnknownSymbol(f"not a declared state variable: {v}")
    return normalize(sp.diff(sp.sympify(e), v), ctx)


def gradient(e, ctx: SymbolContext):
    return [differentiate(e, v, ctx) for v in ctx.states]


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
        if constraints_ok(point, ctx, margin):
            return point
    raise SamplingFailed("could not sample a point satisfying domain "
                         "constraints")


def constraints_ok(point, ctx: SymbolContext, margin):
    """True when every declared-nonzero expression exceeds margin in
    absolute value at the point and evaluates there."""
    for c in ctx.nonzero:
        try:
            if abs(evaluate(c, point, ctx)) <= margin:
                return False
        except POINT_ERRORS:
            return False
    return True


def is_zero(e, ctx: SymbolContext, seed: int = 0, samples: int = 8) -> ZeroVerdict:
    """Three-valued zero test: symbolic normal form, then random sampling."""
    n = normalize(e, ctx)
    if n == 0:
        return ZeroVerdict(Verdict.PROVEN_ZERO)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        point = random_point(ctx, rng)
        try:
            val = evaluate(n, point, ctx)
        except EvalSingular:
            continue
        if abs(val) > NONZERO_WITNESS_TOL:
            witness = {s: float(v) for s, v in point.items()}
            return ZeroVerdict(Verdict.PROVEN_NONZERO, witness)
    return ZeroVerdict(Verdict.UNKNOWN)


def _positive_leading(e, ctx):
    """Scale by -1 if the grlex leading coefficient is negative."""
    if not (e.free_symbols or e.atoms(sp.sin, sp.cos)):
        return (e, -1) if e.could_extract_minus_sign() else (e, 1)
    lc = sp.Poly(e, *ctx.gens_for(e)).LC(order="grlex")
    if lc.is_negative:
        return sp.expand(-e), -1
    return e, 1


def factor(e, ctx: SymbolContext):
    """Irreducible factors with multiplicities, up to a rational unit.

    Factors are normalized with positive leading coefficient and sorted in a
    deterministic order.  Trig atoms are treated as opaque indeterminates.
    """
    n = normalize(e, ctx)
    if not is_polynomial(n, ctx):
        raise NotPolynomial(f"not a polynomial after normalization: {n}")
    if n == 0:
        return []
    _, factors = sp.factor_list(n, *ctx.gens_for(n))
    out = []
    for base, mult in factors:
        base = sp.expand(base)
        base, _ = _positive_leading(base, ctx)
        out.append((normalize(base, ctx), int(mult)))
    out.sort(key=lambda fm: sp.default_sort_key(fm[0]))
    return out


def divide_exact(num, den, ctx: SymbolContext):
    """Exact polynomial quotient q with normalize(num - q*den) = 0, or None."""
    den_n = normalize(den, ctx)
    if den_n == 0:
        raise DivisionByZeroExpr("division by zero expression")
    num_n = normalize(num, ctx)
    if num_n == 0:
        return sp.Integer(0)
    q = normalize(num_n / den_n, ctx)
    if not is_polynomial(q, ctx):
        return None
    if normalize(num_n - q * den_n, ctx) != 0:
        return None
    return q


def evaluate(e, point, ctx: SymbolContext | None = None) -> float:
    """IEEE-double evaluation; denominators below 1e-12 raise EvalSingular."""
    e = sp.sympify(e)
    lookup = {}
    for k, v in point.items():
        lookup[sp.Symbol(k) if isinstance(k, str) else k] = v
    return _eval(e, lookup)


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


def in_class(e, ctx: SymbolContext) -> bool:
    """True when e is built only from the allowed node types."""
    e = sp.sympify(e)
    try:
        ctx.check_symbols(e)
    except (UnknownSymbol, NotPolynomial):
        return False

    def walk(node):
        if node.is_Rational or node.is_Symbol:
            return True
        if node.is_Add or node.is_Mul:
            return all(walk(a) for a in node.args)
        if node.is_Pow:
            return node.exp.is_Integer and walk(node.base)
        if isinstance(node, (sp.sin, sp.cos)):
            return node.args[0].is_Symbol
        return False

    return walk(e)


def to_text(e) -> str:
    """Canonical text rendering used in reports and golden tests."""
    return sp.sstr(sp.sympify(e), order="grlex")
