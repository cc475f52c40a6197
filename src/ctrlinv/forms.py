"""Differential forms with exact symbolic coefficients.

A k-form is stored as a map from strictly increasing coordinate index tuples
to coefficients; zero coefficients are pruned.  All operations normalize
coefficients through the symbolic kernel so equal forms compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp

from .errors import SingularPivot
from .expr import SymbolContext, is_zero, normalize, to_text


@dataclass(frozen=True)
class DifferentialForm:
    degree: int
    # tuple of (index-tuple, coefficient) pairs, sorted by key
    terms: tuple
    ctx: SymbolContext

    def coeff(self, key):
        for k, c in self.terms:
            if k == key:
                return c
        return sp.Integer(0)

    @property
    def is_zero_form(self):
        return not self.terms

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        acc = dict(self.terms)
        for k, c in other.terms:
            acc[k] = acc.get(k, sp.Integer(0)) + c
        return make_form(self.degree, acc, self.ctx)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return make_form(self.degree,
                         {k: c * v for k, v in self.terms}, self.ctx)

    def __str__(self):
        return form_to_text(self)


def make_form(degree, coeffs, ctx: SymbolContext) -> DifferentialForm:
    """Build a form from an index-tuple -> coefficient map, normalizing."""
    acc = {}
    for key, c in coeffs.items():
        key = tuple(key)
        if len(key) != degree:
            raise ValueError(f"key {key} does not match degree {degree}")
        if len(set(key)) != len(key):
            continue
        sign = 1
        skey = tuple(sorted(key))
        if skey != key:
            sign = _permutation_sign(key)
            key = skey
        acc[key] = acc.get(key, sp.Integer(0)) + sign * c
    terms = []
    for key in sorted(acc):
        c = normalize(acc[key], ctx)
        if c != 0:
            terms.append((key, c))
    return DifferentialForm(degree=degree, terms=tuple(terms), ctx=ctx)


def _permutation_sign(seq):
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                seq[i], seq[j] = seq[j], seq[i]
                sign = -sign
    return sign


def zero_form(degree, ctx):
    return DifferentialForm(degree=degree, terms=(), ctx=ctx)


def one_form(coeffs, ctx):
    """1-form from an n-vector of coefficients over the coordinate coframe."""
    return make_form(1, {(i,): c for i, c in enumerate(coeffs)}, ctx)


def coefficient_vector(a: DifferentialForm):
    """Dense n-vector of a 1-form's coefficients."""
    n = len(a.ctx.states)
    out = [sp.Integer(0)] * n
    for (i,), c in a.terms:
        out[i] = c
    return out


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    """Graded-antisymmetric product."""
    ctx = a.ctx
    degree = a.degree + b.degree
    n = len(ctx.states)
    if degree > n:
        return zero_form(degree, ctx)
    acc = {}
    for ka, ca in a.terms:
        for kb, cb in b.terms:
            key = ka + kb
            if len(set(key)) != len(key):
                continue
            acc[key] = acc.get(key, sp.Integer(0)) + ca * cb
    return make_form(degree, acc, ctx)


def d(a: DifferentialForm) -> DifferentialForm:
    """Exterior derivative."""
    ctx = a.ctx
    acc = {}
    for key, c in a.terms:
        for i, v in enumerate(ctx.states):
            dc = sp.diff(c, v)
            if dc == 0:
                continue
            full = (i,) + key
            if len(set(full)) != len(full):
                continue
            acc[full] = acc.get(full, sp.Integer(0)) + dc
    return make_form(a.degree + 1, acc, ctx)


def contract(a: DifferentialForm, X):
    """Interior evaluation of a 1-form on a vector field (n-tuple of exprs)."""
    if a.degree != 1:
        raise ValueError("contract expects a 1-form")
    total = sp.Integer(0)
    for (i,), c in a.terms:
        total += c * X[i]
    return normalize(total, a.ctx)


def pivot_solution(theta, pivots, seed=0):
    """Solve theta = 0 for the pivot differentials.

    Returns a map pivot index -> 1-form in the non-pivot differentials such
    that substituting it makes every generator vanish.  Raises SingularPivot
    when the pivot submatrix determinant cannot be certified nonzero.
    """
    ctx = theta[0].ctx
    n = len(ctx.states)
    pivots = list(pivots)
    s = len(theta)
    if len(pivots) != s:
        raise ValueError("pivot count must equal the number of generators")
    nonpivots = [i for i in range(n) if i not in pivots]
    A = sp.Matrix([[t.coeff((i,)) for i in pivots] for t in theta])
    B = sp.Matrix([[t.coeff((i,)) for i in nonpivots] for t in theta])
    det = normalize(A.det(method="berkowitz"), ctx)
    if not is_zero(det, ctx, seed=seed).is_nonzero:
        raise SingularPivot(f"pivot determinant not certified nonzero: {det}")
    # dx_pivot = -A^{-1} B dx_nonpivot
    S = -A.adjugate() * B / det
    sol = {}
    for r, i in enumerate(pivots):
        sol[i] = make_form(1, {(q,): S[r, c] for c, q in enumerate(nonpivots)}, ctx)
    return sol


def reduce_mod(a: DifferentialForm, sol) -> DifferentialForm:
    """Canonical representative of a modulo the algebraic ideal (theta).

    `sol` is pivot_solution(theta, pivots): every pivot coordinate
    differential is substituted by its solution from theta = 0, leaving a
    form over non-pivot differentials only.  The substituted wedge products
    are expanded into one coefficient map, so each output coefficient is
    normalized once.
    """
    if a.degree == 0:
        return a
    acc = {}
    for key, c in a.terms:
        # expand sol[i1] ^ sol[i2] ^ ... term by term; make_form sorts the
        # keys, with their permutation signs, and drops repeated indices
        partial = {(): c}
        for i in key:
            factor = sol[i].terms if i in sol else (((i,), sp.Integer(1)),)
            nxt = {}
            for k, v in partial.items():
                for (j,), cj in factor:
                    if j not in k:
                        kj = k + (j,)
                        nxt[kj] = nxt.get(kj, sp.Integer(0)) + v * cj
            partial = nxt
        for k, v in partial.items():
            acc[k] = acc.get(k, sp.Integer(0)) + v
    return make_form(a.degree, acc, a.ctx)


def form_to_text(a: DifferentialForm) -> str:
    """Canonical text: sorted index tuples, kernel-canonical coefficients."""
    if a.degree == 0:
        return to_text(a.coeff(())) if a.terms else "0"
    if not a.terms:
        return "0"
    names = [str(s) for s in a.ctx.states]
    parts = []
    for key, c in a.terms:
        basis = "^".join(f"d{names[i]}" for i in key)
        parts.append(f"({to_text(c)}) {basis}")
    return " + ".join(parts)
