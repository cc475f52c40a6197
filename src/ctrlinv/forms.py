"""Differential forms with coefficients in the system's rational-function
field.

A k-form is stored as a map from strictly increasing coordinate index tuples
to field elements of `ctx.field`; zero coefficients are pruned.  Every
coefficient is reduced (expr.reduce_fraction) once when a form is built, so
equal forms compare equal.  Expressions are built only for report text.
"""

from __future__ import annotations

from dataclasses import dataclass

from sympy.polys.matrices import DomainMatrix

from .errors import SingularPivot
from .expr import (
    SymbolContext,
    determinant,
    differentiate,
    from_field,
    reduce_fraction,
    to_text,
)


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
        return self.ctx.field.zero

    @property
    def is_zero_form(self):
        return not self.terms

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        acc = dict(self.terms)
        for k, c in other.terms:
            acc[k] = acc[k] + c if k in acc else c
        return make_form(self.degree, acc, self.ctx)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return make_form(self.degree,
                         {k: c * v for k, v in self.terms}, self.ctx)


def make_form(degree, coeffs, ctx: SymbolContext) -> DifferentialForm:
    """Build a form from an index-tuple -> field element map, reducing each
    coefficient."""
    acc = {}
    for key, c in coeffs.items():
        key = tuple(key)
        if len(key) != degree:
            raise ValueError(f"key {key} does not match degree {degree}")
        if len(set(key)) != len(key):
            continue
        skey = tuple(sorted(key))
        if skey != key and _permutation_sign(key) < 0:
            c = -c
        key = skey
        acc[key] = acc[key] + c if key in acc else c
    terms = []
    for key in sorted(acc):
        c = reduce_fraction(acc[key])
        if c:
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
    out = [a.ctx.field.zero] * n
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
            acc[key] = acc[key] + ca * cb if key in acc else ca * cb
    return make_form(degree, acc, ctx)


def d(a: DifferentialForm) -> DifferentialForm:
    """Exterior derivative."""
    ctx = a.ctx
    acc = {}
    for key, c in a.terms:
        for i, v in enumerate(ctx.states):
            if i in key:
                continue
            dc = differentiate(c, v, ctx)
            full = (i,) + key
            if dc:
                acc[full] = acc[full] + dc if full in acc else dc
    return make_form(a.degree + 1, acc, ctx)


def contract(a: DifferentialForm, X):
    """Interior evaluation of a 1-form on a vector field (n-tuple of field
    elements)."""
    if a.degree != 1:
        raise ValueError("contract expects a 1-form")
    total = a.ctx.field.zero
    for (i,), c in a.terms:
        total += c * X[i]
    return reduce_fraction(total)


def pivot_solution(theta, pivots):
    """Solve theta = 0 for the pivot differentials.

    Returns a map pivot index -> 1-form in the non-pivot differentials such
    that substituting it makes every generator vanish (empty for the rank-0
    system).  Raises SingularPivot when the reduced pivot submatrix
    determinant is zero: DomainMatrix.inv alone knows nothing of
    sin**2 + cos**2 = 1.
    """
    if not theta:
        return {}
    ctx = theta[0].ctx
    n = len(ctx.states)
    pivots = list(pivots)
    s = len(theta)
    if len(pivots) != s:
        raise ValueError("pivot count must equal the number of generators")
    nonpivots = [i for i in range(n) if i not in pivots]
    K = ctx.field.to_domain()
    A = [[t.coeff((i,)) for i in pivots] for t in theta]
    B = DomainMatrix([[t.coeff((i,)) for i in nonpivots] for t in theta],
                     (s, n - s), K)
    if not determinant(A):
        raise SingularPivot("pivot determinant is zero")
    # dx_pivot = -A^{-1} B dx_nonpivot
    S = (DomainMatrix(A, (s, s), K).inv() * B).to_list()
    sol = {}
    for r, i in enumerate(pivots):
        sol[i] = make_form(1, {(q,): -S[r][c]
                               for c, q in enumerate(nonpivots)}, ctx)
    return sol


def reduce_mod(a: DifferentialForm, sol) -> DifferentialForm:
    """Canonical representative of a modulo the algebraic ideal (theta).

    `sol` is pivot_solution(theta, pivots): every pivot coordinate
    differential is substituted by its solution from theta = 0, leaving a
    form over non-pivot differentials only.  The substituted wedge products
    are expanded into one coefficient map, so each output coefficient is
    reduced once.
    """
    if a.degree == 0:
        return a
    acc = {}
    for key, c in a.terms:
        # expand sol[i1] ^ sol[i2] ^ ... term by term; make_form sorts the
        # keys, with their permutation signs, and drops repeated indices
        partial = {(): c}
        for i in key:
            # None: dx_i kept, coefficient 1 (a product with one cancels)
            factor = sol[i].terms if i in sol else (((i,), None),)
            nxt = {}
            for k, v in partial.items():
                for (j,), cj in factor:
                    if j not in k:
                        kj = k + (j,)
                        vj = v if cj is None else v * cj
                        nxt[kj] = nxt[kj] + vj if kj in nxt else vj
            partial = nxt
        for k, v in partial.items():
            acc[k] = acc[k] + v if k in acc else v
    return make_form(a.degree, acc, a.ctx)


def form_to_text(a: DifferentialForm) -> str:
    """Canonical text: sorted index tuples, kernel-canonical coefficients."""
    if a.degree == 0:
        return to_text(from_field(a.coeff(()))) if a.terms else "0"
    if not a.terms:
        return "0"
    names = [str(s) for s in a.ctx.states]
    parts = []
    for key, c in a.terms:
        basis = "^".join(f"d{names[i]}" for i in key)
        parts.append(f"({to_text(from_field(c))}) {basis}")
    return " + ".join(parts)
