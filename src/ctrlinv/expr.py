"""Exact symbolic scalar engine used as the coefficient ring of the pipeline.

Expressions are sympy trees restricted to a fixed class: exact rational
constants, declared state variables and parameters, sums, products, integer
powers, quotients, and the trig atoms sin(v), cos(v) of a declared variable.
sin(v) and cos(v) are treated as independent indeterminates linked only by the
rewrite sin(v)**2 -> 1 - cos(v)**2.

The exact layer (forms, flag, integrals) computes on field elements: members
of the one sparse rational-function field over ZZ of a system,
`SymbolContext.field`, kept reduced by `reduce_fraction`.  Its generators are
the declared symbols and a sin/cos pair only for each declared symbol that
occurs inside a trig atom of the system's texts (`SymbolContext.trig`), so
no exact operation carries exponents of generators the system never uses.
The parser computes on elements directly (`dsl`); an expression becomes an
element only where integration makes one (`to_field`), and `from_field`
turns an element back into an expression only where one is needed
(integration, factor order, error messages).  Report
text is written straight from each element's numerator and denominator
terms, exactly as sympy's sstr writes the element's expression
(`to_text`).  Minors and determinants are expanded over the polynomial
ring with every smaller minor kept, so they take no division until the
row scales divide each minor once (`minors`); a linear system is solved
by Cramer's rule on one such expansion (`solve`).  Float evaluation reads
field elements directly too: one source generator writes a kernel from
each element's numerator and denominator terms, compiled on numpy rows in
two forms: the integrator's array form and the sampling form, Python's
floats with NaN where a value is not defined (`kernels`, `evaluate`).

A reduced element is the canonical pair of an integer-coefficient
numerator and denominator, the denominator with positive leading
coefficient: the pair a field over QQ keeps too, since its arithmetic
clears denominators and cancels by a gcd over ZZ, which is unique up to
sign.  Every gcd in the ring of a field made by `rational_field` (each
field `+`, `*` and `/`, and every `gcd`, `lcm` and `cofactors`) is
sympy's heuristic gcd step for step, with its trial divisions in the
ring's clone in lex order (`_gcd_ZZ`), where each leading term is a
native max over exponent tuples instead of a max under the grlex key; the
result is sympy's own, sign included, so every normal form is unchanged.
Over ZZ, `quo_ground` and `monic` floor-divide and `div` divides only
where leading coefficients divide, so where a value is divided by a
leading coefficient it is read as rationals: per term, QQ(c, lc), in the
text, the expression and the kernel literals, and in the ring's clone
over QQ (`_rational_ring`) where ideal membership divides
(`ideal_cofactors`).

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
from sympy.polys import heuristicgcd
from sympy.polys.domains import QQ, ZZ
from sympy.polys.fields import FracField
from sympy.polys.groebnertools import groebner
from sympy.polys.orderings import grlex, lex
from sympy.polys.polyerrors import HeuristicGCDFailed
from sympy.polys.polyutils import expr_from_dict
from sympy.polys.rings import PolyElement

from .errors import (
    DivisionByZeroExpr,
    EvalSingular,
    NotPolynomial,
    SamplingFailed,
    SingularPivot,
    UnknownSymbol,
)

NONZERO_WITNESS_TOL = 1e-9
EVAL_SINGULAR_TOL = 1e-12
_TRIG = (sp.sin, sp.cos)


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
    # elements of `field` the user asserts nonzero on the working domain
    nonzero: tuple = ()
    # the declared symbols, in declaration order, given a sin/cos pair in
    # the field; None gives every declared symbol one
    trig: tuple | None = None

    @property
    def symbols(self):
        return self.states + self.params

    @functools.cached_property
    def field(self):
        """The system's rational-function field (rational_field) on the
        generators: states, then parameters, then sin(v), cos(v) of each
        symbol v of `trig`.

        Its grlex order restricted to any expression's own generators is
        that expression's grlex order, and sin(v) precedes cos(v), so the
        leading term of sin(v)**2 + cos(v)**2 - 1 is sin(v)**2.  Grlex
        ignores a generator no term uses, so the term order, and every
        normal form, is the same whichever pairs the field has.
        """
        trig = self.symbols if self.trig is None else self.trig
        return rational_field(self.symbols + tuple(
            f(v) for v in trig for f in (sp.sin, sp.cos)))

    @functools.cached_property
    def state_generators(self):
        """Each state v -> the positions in field.symbols of v and of sin(v),
        None when the field has no pair for v; cos(v) follows sin(v)."""
        index = {g: i for i, g in enumerate(self.field.symbols)}
        return {v: (index[v], index.get(sp.sin(v))) for v in self.states}

    @functools.cached_property
    def known_factors(self):
        """Irreducible polynomials of the field's ring known nonzero on the
        working domain: the generator of each sign-constrained parameter, and
        the numerator of each declared-nonzero element that is a constant
        times one irreducible polynomial of multiplicity 1, each primitive:
        over ZZ, `div` by a factor divides only where its leading
        coefficient divides, and cos(w).div(2*cos(w)) is (0, cos(w))."""
        R = self.field.ring
        known = [R.gens[self.symbols.index(p)]
                 for p, sign in self.param_signs.items() if sign]
        for e in self.nonzero:
            if e.denom.is_ground and [m for _, m in factor(e)] == [1]:
                known.append(e.numer.primitive()[1])
        return tuple(known)

    def known_nonzero(self, f):
        """True when the field element f is nonzero and each irreducible
        factor of it is a known factor: dividing them out of its numerator
        and denominator leaves constants (unique factorization in the ring).
        A one-term factor leaves in one pass over the terms: it divides a
        polynomial exactly when every term carries at least its exponents,
        and the quotient, up to a constant, subtracts them."""
        if not f:
            return False
        for part in (f.numer, f.denom):
            for p in self.known_factors:
                if len(p) == 1:
                    part = _monomial_cofactor(part, p.LM)
                    continue
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
        extra = tuple(e for e in elements if e not in self.nonzero)
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
            if not isinstance(f, _TRIG):
                raise NotPolynomial(f"function outside expression class: {f}")
            if f.args[0] not in declared:
                raise UnknownSymbol(f"trig atom of undeclared symbol: {f}")


def _monomial_cofactor(p, e):
    """The nonzero polynomial p divided by the highest power of the monomial
    with exponents e that divides it, up to a constant."""
    k = min(m[i] // e[i] for m in p.itermonoms()
            for i in range(len(e)) if e[i])
    if not k:
        return p
    return p.ring.from_dict({tuple(a - k * b for a, b in zip(m, e)): c
                             for m, c in p.iterterms()})


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


# id -> the ring of each field made by `rational_field`: the gcd hook tells
# these rings by identity, as a ring built elsewhere on the same generators
# compares equal to one
_FIELD_RINGS = {}


@functools.lru_cache(maxsize=None)
def rational_field(gens):
    """Sparse rational-function field over ZZ in grlex order on `gens`.

    Its elements are the reduced pairs of integer-coefficient numerator and
    denominator that a field over QQ keeps too, but its `+`, `*` and `/`
    cancel by the gcd over ZZ directly, with no clone of the ring to ZZ and
    back; that gcd, and every other one in the field's ring, runs in the
    ring's lex clone (`_gcd_ZZ`).  A rational constant is an element with a
    constant denominator."""
    K = FracField(gens, ZZ, grlex)
    _FIELD_RINGS[id(K.ring)] = K.ring
    return K


@functools.lru_cache(maxsize=None)
def _lex_ring(R):
    """The clone in lex order of a field's ring R, made once per ring."""
    return R.clone(order=lex)


def _gcd_ZZ(f, g):
    """`PolyElement._gcd_ZZ` of every ring: sympy's heuristic gcd h of f
    and g with the cofactors f/h and g/h, its trial divisions taken in the
    lex clone of a ring made by `rational_field` (`_heugcd`), and in the
    ring itself otherwise."""
    R = f.ring
    if _FIELD_RINGS.get(id(R)) is not R:
        return heuristicgcd.heugcd(f, g)
    return _heugcd(f, g, _lex_ring(R))


def _heugcd(f, g, L):
    """sympy's `heugcd` of f and g in a field's grlex ring R, step for step,
    with the recursion and every trial division in R's lex clone L.

    The heuristic (Char, Geddes & Gonnet 1989) evaluates f and g at
    x0 = x, takes the gcd of the images and interpolates a candidate gcd,
    then a candidate cofactor of each; each candidate is checked by trial
    division, and each division step finds a leading term by a max over
    the remaining terms: under the grlex key in R, natively on the exponent
    tuples in L.  A division's quotient, and whether it leaves a remainder,
    do not depend on the term order.  What does is taken in R, as sympy
    takes it there: the leading coefficients that bound x and the sign of
    each interpolated polynomial.  The gcd of the images is unique up to
    sign, which the interpolation fixes, so the candidates, the checks and
    the result are sympy's own, sign included (a sign rule applied to
    sympy's result in L misses where a cofactor's check succeeds)."""
    R = f.ring
    x0 = L.gens[0]
    gcd, f, g = f.extract_ground(g)
    f_norm, g_norm = f.max_norm(), g.max_norm()
    B = ZZ(2 * min(f_norm, g_norm) + 29)
    x = max(min(B, 99 * ZZ.sqrt(B)),
            2 * min(f_norm // abs(f.LC), g_norm // abs(g.LC)) + 4)
    f, g = L.dtype(f), L.dtype(g)
    for _ in range(heuristicgcd.HEU_GCD_MAX):
        ff, gg = f.evaluate(x0, x), g.evaluate(x0, x)
        if ff and gg:
            if L.ngens == 1:
                h, cff, cfg = ZZ.cofactors(ff, gg)
            else:
                h, cff, cfg = heuristicgcd.heugcd(ff, gg)
            h = heuristicgcd._gcd_interpolate(h, x, R).primitive()[1]
            hl = L.dtype(h)
            cff_, r = f.div(hl)
            if not r:
                cfg_, r = g.div(hl)
                if not r:
                    return h.mul_ground(gcd), R.dtype(cff_), R.dtype(cfg_)
            cff = heuristicgcd._gcd_interpolate(cff, x, R)
            h, r = f.div(L.dtype(cff))
            if not r:
                cfg_, r = g.div(h)
                if not r:
                    return R.dtype(h).mul_ground(gcd), cff, R.dtype(cfg_)
            cfg = heuristicgcd._gcd_interpolate(cfg, x, R)
            h, r = g.div(L.dtype(cfg))
            if not r:
                cff_, r = f.div(h)
                if not r:
                    return R.dtype(h).mul_ground(gcd), R.dtype(cff_), cfg
        x = 73794 * x * ZZ.sqrt(ZZ.sqrt(x)) // 27011
    raise HeuristicGCDFailed("no luck")


PolyElement._gcd_ZZ = _gcd_ZZ


@functools.lru_cache(maxsize=None)
def _rational_ring(R):
    """The clone over QQ of a field's ring R, made once per ring, for ideal
    membership, which divides by leading coefficients that need not
    divide."""
    return R.clone(domain=QQ)


@functools.lru_cache(maxsize=None)
def _relations(R):
    """Indices of the sin generators of a field's polynomial ring R, and
    sin(v)**2 + cos(v)**2 - 1 of each (sin, cos) generator pair."""
    sins = [i for i, g in enumerate(R.symbols) if isinstance(g, sp.sin)]
    return sins, tuple(R.gens[i]**2 + R.gens[i + 1]**2 - 1 for i in sins)


@functools.lru_cache(maxsize=None)
def _cos_powers(k):
    """(2j, (-1)**j * C(k, j)) for each term cos**(2j) of (1 - cos**2)**k."""
    return tuple((2 * j, (-1)**j * math.comb(k, j)) for j in range(k + 1))


def _rem(p, relations):
    """p modulo the relations; p itself, found in linear time, when no
    monomial has a squared sin factor.

    Each term's sin(v)**e becomes sin(v)**(e % 2) * (1 - cos(v)**2)**(e // 2),
    pair by pair, in one pass over the terms.  The relations' leading terms
    sin(v)**2 are pairwise coprime, so the relations are a Groebner basis
    (Cox, Little, O'Shea, ch. 2) and this is the unique remainder, the one
    `p.rem(relations)` finds by division."""
    sins, _ = relations
    if all(m[i] < 2 for m in p for i in sins):
        return p
    terms = {}
    for m, c in p.iterterms():
        parts = [(m, c)]
        for i in sins:
            if m[i] > 1:
                parts = [(n[:i] + (m[i] % 2, n[i + 1] + d) + n[i + 2:], b * k)
                         for n, b in parts for d, k in _cos_powers(m[i] // 2)]
        for n, b in parts:
            terms[n] = terms.get(n, 0) + b
    return p.new({n: b for n, b in terms.items() if b})


def ideal_cofactors(p, polys, unit=None):
    """Cofactors q_i, field elements reduced modulo the sin/cos relations
    of the polynomials' ring, with p = sum q_i polys_i modulo the relations
    wherever the polynomial `unit` is nonzero, or None when p is not in that
    ideal.  p is a field element with a constant denominator; polys and
    unit are polynomials of the field's ring or of its clone over QQ.

    The division, the Groebner basis and the lift run in the clone over QQ
    (`_rational_ring`): over ZZ, division stops at a leading coefficient
    that does not divide.

    Grlex division by polys, then by the relations, finds the cofactors of
    most members.  A remainder left over is reduced by a Groebner basis of
    the same ideal, which decides membership exactly (Cox, Little,
    O'Shea, ch. 2); only a remainder it reduces to zero is lifted to
    cofactors.  A remainder outside the ideal is tested again in its
    saturation by a non-constant unit: unit**k * r lies in the ideal for
    some k iff r lies in the ideal with t*unit - 1 added in one more
    generator t (ibid., ch. 4, section 4), and t = 1/unit in the lift."""
    K = p.field
    Q = _rational_ring(K.ring)
    relations = _relations(Q)
    polys = [g.set_ring(Q) for g in polys]
    unit = None if unit is None else unit.set_ring(Q)
    qs, r = p.numer.set_ring(Q).quo_ground(p.denom.LC).div(polys)
    qs = [K(q) for q in qs]
    r = _rem(r, relations)
    if r:
        basis = polys + list(relations[1])
        lift = _lift(r, basis)
        if lift is None and unit is not None and not unit.is_ground:
            lift = _lift(r, basis, unit)
        if lift is None:
            return None
        qs = [q + c for q, c in zip(qs, lift)]
    return [reduce_fraction(q) for q in qs]


def _lift(r, basis, unit=None):
    """Field-element coefficients c_j with r = sum c_j basis_j, or None when
    r is not in the ideal of the basis (saturated by unit when given)."""
    S = R = r.ring
    if unit is not None:
        S = R.clone(symbols=R.symbols + (sp.Dummy("t"),))
        basis = [g.set_ring(S) for g in basis] + [
            S.gens[-1] * unit.set_ring(S) - 1]
        r = r.set_ring(S)
    if r.rem(groebner(basis, S)):
        return None
    ideal = QQ.old_poly_ring(*S.symbols, order="grlex").ideal(
        *[g.as_expr() for g in basis])
    lift = [ideal.ring.to_sympy(c)
            for c in ideal.in_terms_of_generators(r.as_expr())]
    if unit is not None:
        lift = [c.subs(S.symbols[-1], 1 / unit.as_expr()) for c in lift]
    K = rational_field(R.symbols)
    return [K.from_expr(c) for c in lift]


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
    relations = _relations(f.field.ring)
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


def common_denominator(row):
    """A common denominator of field elements: the lcm of their constant
    denominators as an int when every one is a constant, else their lcm as
    a polynomial of the field's ring.  The ring is over ZZ, so the lcm has
    integer coefficients and every scaled numerator stays integral."""
    dens = [e.denom for e in row]
    if all(d.is_ground for d in dens):
        return math.lcm(*(int(d.LC) for d in dens))
    return functools.reduce(lambda a, b: a.lcm(b),
                            [d for d in dens if d != 1])


def numerator_over(e, L):
    """The polynomial e * L for a common denominator L of the field element
    e (`common_denominator`): e's numerator as it is when its denominator
    is L, scaled by a constant when its denominator is a constant, and
    multiplied by an exact quotient of polynomials only otherwise."""
    d = e.denom
    if d == L:
        return e.numer
    if d.is_ground:
        if isinstance(L, int):
            return e.numer * (L // int(d.LC))
        return e.numer * L.quo_ground(d.LC)
    return e.numer * L.exquo(d)


def expansion(rows):
    """The minors of s rows of field elements, each row scaled to
    polynomials once by a common denominator, as a function of an
    increasing s-tuple of columns, and the product of the row scales.

    A minor is expanded along its first row into minors of the rows below
    it, and every minor of lower rows is kept, keyed by its columns, for
    the other minors that contain it: the expansion takes only products
    and sums in the polynomial ring, no division and no gcd.  The kept
    minors live as long as the function."""
    R = rows[0][0].field.ring
    s = len(rows)
    scale, scaled = R.one, []
    for row in rows:
        L = common_denominator(row)
        scaled.append([numerator_over(e, L) for e in row])
        scale *= L
    kept = {(): R.one}

    def expand(cols):
        if cols in kept:
            return kept[cols]
        row, total = scaled[s - len(cols)], R.zero
        for j, c in enumerate(cols):
            if row[c]:
                m = expand(cols[:j] + cols[j + 1:])
                if m:
                    total = total - row[c] * m if j % 2 else total + row[c] * m
        kept[cols] = total
        return total

    return expand, scale


def minors(rows):
    """The reduced minors of s rows of field elements, as a function of an
    increasing s-tuple of columns: each its `expansion` divided by the
    product of the row scales once, at the end; a zero minor is K.zero
    unreduced."""
    K = rows[0][0].field
    expand, scale = expansion(rows)

    def minor(cols):
        det = expand(tuple(cols))
        return reduce_fraction(K.new(det, scale)) if det else K.zero

    return minor


def solve(rows):
    """X with A X = C for s rows [A | C] of field elements, A square ([]
    for no rows), by Cramer's rule on one `expansion`: entry (i, q) is the
    unreduced expansion of A with column i replaced by C's column q over
    that of A, cancelled once, so it is the entry in the field (a ratio of
    reduced minors could differ modulo sin**2 + cos**2 - 1).  Raises
    SingularPivot when A's reduced determinant is 0."""
    s = len(rows)
    if not s:
        return []
    K = rows[0][0].field
    expand, _ = expansion(rows)
    det = expand(tuple(range(s)))
    if not reduce_fraction(K(det)):
        raise SingularPivot("pivot determinant is zero")
    # column q, moved from the end to place i, passes the s - 1 - i after it
    return [[K.new(expand((*range(i), *range(i + 1, s), q))
                   * (-1)**(s - 1 - i), det) for q in range(s, len(rows[0]))]
            for i in range(s)]


def from_field(f):
    """Expression num/den of a field element, the denominator monic in grlex
    order (a constant denominator is divided into the numerator)."""
    lc = f.denom.LC
    num = _expr(f.numer, lc)
    if f.denom.is_ground:
        return num
    return num / _expr(f.denom, lc)


def _expr(p, lc):
    """The expression of the polynomial p / lc, written as sympy's as_expr
    writes a polynomial over QQ, each coefficient QQ(c, lc)."""
    return expr_from_dict({m: QQ.to_sympy(QQ(c, lc))
                           for m, c in p.iterterms()}, *p.ring.symbols)


def normalize(e, ctx: SymbolContext):
    """Canonical form of an expression: a single reduced fraction num/den.

    The numerator and denominator are expanded polynomials over the context
    generators with sin**2 eliminated; the denominator is monic in grlex
    order (1 for polynomial input).
    """
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
    if j is None:  # no sin(v), cos(v) in the field
        def D(p):
            return p.diff(i)
    else:
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


def random_point(ctx: SymbolContext, rng, margin=1e-3, tries=200):
    """A random point satisfying sign and nonzero constraints: rational
    states and sample_params parameters, drawn from a numpy Generator."""
    constraints, = kernels([ctx.nonzero], ctx)
    for _ in range(tries):
        point = {v: _random_rational(rng) for v in ctx.states}
        point.update(sample_params(ctx, rng))
        try:  # each declared-nonzero element evaluates beyond margin
            if all(abs(c) > margin for c in _at_row(
                    constraints, [float(point[s]) for s in ctx.symbols])):
                return point
        except EvalSingular:
            pass
    raise SamplingFailed("could not sample a point satisfying domain "
                         "constraints")


def is_zero(f, ctx: SymbolContext, seed: int = 0, samples: int = 8) -> ZeroVerdict:
    """Three-valued zero test of a field element: exact, then by drawing up
    to `samples` domain points for one where |f| exceeds 1e-9."""
    if not f:
        return ZeroVerdict(Verdict.PROVEN_ZERO)
    try:
        point = random_point(ctx.assuming([f]), np.random.default_rng(seed),
                             NONZERO_WITNESS_TOL, samples)
    except SamplingFailed:
        return ZeroVerdict(Verdict.UNKNOWN)
    witness = {s: float(v) for s, v in point.items()}
    return ZeroVerdict(Verdict.PROVEN_NONZERO, witness)


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
    return reduce_fraction(num.field.new(p, q))


def generators(f):
    """Positions in f.field.symbols of the generators f depends on."""
    return {i for p in (f.numer, f.denom) for m in p.itermonoms()
            for i, e in enumerate(m) if e}


def evaluate(f, point) -> float:
    """IEEE-double value of a field element at a point (declared symbol ->
    value), one row of the sampling form of `kernels`."""
    gens = f.field.symbols
    ctx = SymbolContext(
        states=tuple(g for g in gens if not isinstance(g, _TRIG)),
        trig=tuple(g.args[0] for g in gens if isinstance(g, sp.sin)))
    for i in generators(f):
        s, = gens[i].free_symbols  # the symbol, or its trig atom's
        if s not in point:
            raise UnknownSymbol(f"no value assigned for {s}")
    value, = kernels([[f]], ctx)
    return _at_row(value, [float(point.get(s, 0.0)) for s in ctx.symbols])[0]


def _at_row(kernel, values):
    """A sampling kernel's values at one row, EvalSingular if not finite."""
    out = kernel(np.array([values]))[:, 0]
    if not np.isfinite(out).all():
        raise EvalSingular("evaluation produced a non-finite value")
    return out.tolist()


def _each(fn):
    """fn of each entry of an array, on Python floats; NaN where fn raises
    (`pow` overflowing, math.sin of an infinite value): no float operation
    turns NaN back into a number, as it can an infinity."""
    def each(a, *args):
        values = a.tolist()
        for i, v in enumerate(values):
            try:
                values[i] = fn(v, *args)
            except (ArithmeticError, ValueError):
                values[i] = math.nan
        return np.array(values)

    return each


def _nan_below(value):
    return np.where(np.abs(value) < EVAL_SINGULAR_TOL, np.nan, value)


# the names in the generated kernels, per form
_FORMS = {
    "array": {"sin": np.sin, "cos": np.cos, "den": lambda value: value,
              "inf": np.inf},
    "sampling": {"sin": _each(math.sin), "cos": _each(math.cos),
                 "pow": _each(pow), "den": _nan_below, "inf": np.inf},
}


def kernels(groups, ctx: SymbolContext, form="sampling", field=None):
    """Per group of field elements, a kernel compiled from one source: each
    generator read once, each value num / den as `from_field` writes it,
    sums in grlex order, coefficients as float literals (inf beyond the
    double range).  Two forms:

    * "sampling" maps rows of ctx.symbols' values, (N, n + k), to the
      group's values, (len(group), N): Python's floats, bit for bit, its
      powers and trig atoms taken per entry (numpy's power is not libm's
      pow), and NaN at a denominator below 1e-12 and where `pow` overflows
      or math.sin raises;
    * "array", fill(x, p, out), takes numpy rows of the states x: (n, N)
      and parameters p: (k, N) and leaves non-finite values.

    With `field`, the rows (f, g_1, ..., g_m) of a control-affine field, the
    array form's first kernel, from the same source, is its stage kernel
    stage(x, p, u, out): for controls u: (m, N) it writes each component of
    ((f + g_1 u_1) + g_2 u_2) + ... into out: (n, N), where a zero entry
    drops its term, an entry 1 adds u_j itself and -1 subtracts it; those
    are the float operations of the whole sum but for the sign of a zero."""
    n = len(ctx.states)
    # each generator of ctx.field: a declared symbol, sin or cos of one
    index = {v: f"_x[{j}]" if j < n else f"_p[{j - n}]"
             for j, v in enumerate(ctx.symbols)}
    reads = [index[g] if g in index
             else f"{type(g).__name__}({index[g.args[0]]})"
             for g in ctx.field.symbols]
    source, names = [], []

    def define(name, args, group, values):
        source.append(f"def {name}({args}):")
        source.extend(f"    _g{i} = {reads[i]}"
                      for i in sorted(set().union(*map(generators, group))))
        source.extend(f"    _out[{r}] = {v}" for r, v in enumerate(values))
        source.append("    return _out")
        names.append(name)

    if field is not None:
        define("_stage", "_x, _p, _u, _out", [e for F in field for e in F],
               map(_stage_value, *field))
    for g, group in enumerate(groups):
        define(f"_k{g}", "_x, _p, _out", group, map(_value, group))
    namespace = dict(_FORMS[form])
    exec(compile("\n".join(source), "<ctrlinv kernel>", "exec"), namespace)
    # popped: a function left in its own globals is freed only by gc
    fills = [namespace.pop(name) for name in names]
    if form == "array":
        return fills
    return [functools.partial(_at_rows, fill, n, len(group))
            for fill, group in zip(fills, groups)]


def _value(f):
    """The generated expression of a field element's value: its numerator
    over its denominator, each divided by the denominator's leading
    coefficient term by term."""
    lc = f.denom.LC
    value = _sum(f.numer, lc)
    if not f.denom.is_ground:
        value = f"({value}) / den({_sum(f.denom, lc)})"
    return value


def _stage_value(f, *gs):
    """The generated expression of one component of f + sum_j g_j u_j, its
    terms added in order: a zero term left out, g_j = 1 adding u_j and
    g_j = -1 subtracting it."""
    text = f" + ({_value(f)})" if f else ""
    for j, g in enumerate(gs):
        if g == -1:
            text += f" - _u[{j}]"
        elif g:
            text += f" + _u[{j}]" if g == 1 else f" + ({_value(g)})*_u[{j}]"
    return text.lstrip(" +") or "0.0"


def _at_rows(fill, n, size, rows):
    cols = rows.T
    with np.errstate(all="ignore"):
        return fill(cols, cols[n:], np.empty((size, len(rows))))


def _sum(p, scale):
    """p / scale as the sum of its terms in grlex order, each coefficient
    the float of the rational QQ(c, scale) and each power of a generator
    `pow(g, e)`, numpy's in the array form and Python's in the other."""
    text = ""
    for m, c in p.terms():
        c = QQ(c, scale)
        try:
            literal = repr(float(abs(c)))
        except OverflowError:  # beyond the double range
            literal = "inf"
        term = "*".join(([literal] if literal != "1.0" or not any(m) else [])
                        + [f"pow(_g{i}, {e})" if e > 1 else f"_g{i}"
                           for i, e in enumerate(m) if e])
        text += (" - " if c < 0 else " + ") + term
    return text.lstrip(" +") or "0.0"


@functools.lru_cache(maxsize=None)
def _print_order(R):
    """The positions of the generators of a field's ring R in sympy's
    default sort order, and the text of each generator.  sstr writes the
    factors of a term in this order and, in grlex order, compares the
    exponents of terms of equal degree in it."""
    order = sorted(range(R.ngens),
                   key=lambda i: sp.default_sort_key(R.symbols[i]))
    return tuple(order), [sp.sstr(g) for g in R.symbols]


def to_text(f) -> str:
    """Canonical text of a field element, used in reports and golden tests:
    sympy's sstr of `from_field(f)` in grlex order, written from the terms
    of f.  It is num/den with a monic denominator, each a sum in grlex
    order whose coefficients are the rationals QQ(c, lc) of f's integer
    coefficients c over the denominator's leading coefficient lc; a
    product writes its numerator factors over its denominator factors."""
    order, names = _print_order(f.field.ring)
    num, den, lc = f.numer, f.denom, f.denom.LC

    def factors(m):
        return [names[i] + (f"**{m[i]}" if m[i] > 1 else "")
                for i in order if m[i]]

    def sum_text(p):
        terms = sorted(p.iterterms(), reverse=True, key=lambda t: (
            sum(t[0]), tuple(t[0][i] for i in order)))
        parts = []
        for m, c in terms:
            c = QQ(c, lc)
            parts += [" - " if c < 0 else " + ", _product(abs(c), factors(m))]
        if not parts:
            return "0"
        parts[0] = "-" if parts[0] == " - " else ""
        return "".join(parts)

    if den.is_ground:
        return sum_text(num)
    if len(den) > 1:
        below = [f"({sum_text(den)})"]
    else:
        m, = den.itermonoms()
        below = factors(m)
        if num == lc and len(below) == 1 and max(m) > 1:
            # the power 1/v**e, which sstr writes with its exponent
            return below[0].replace("**", "**(-") + ")"
    if len(num) > 1:
        return _product(QQ.one, [f"({sum_text(num)})"], below)
    (m, c), = num.iterterms()
    return _product(QQ(c, lc), factors(m), below)


def _product(c, factors, below=()):
    """sstr of the product of the rational c and the factors, over the
    factors `below`: the sign, |numerator of c| unless it is 1 beside other
    factors, and the denominator of c first below."""
    top = ([str(abs(c.numerator))]
           if abs(c.numerator) != 1 or not factors else []) + factors
    bottom = ([str(c.denominator)] if c.denominator != 1 else []) + list(below)
    text = ("-" if c < 0 else "") + "*".join(top)
    if len(bottom) == 1:
        return f"{text}/{bottom[0]}"
    if bottom:
        return f"{text}/({'*'.join(bottom)})"
    return text
