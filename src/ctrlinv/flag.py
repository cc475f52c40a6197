"""Derived flag of the Pfaffian system annihilating a control system.

Pipeline: annihilator -> coframe completion -> torsion matrix -> left
null-space -> derived system, iterated until the rank stabilizes.  Every
rank decision goes through the three-valued zero test; an Unknown verdict
aborts with a named witness expression instead of guessing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import sympy as sp

from .dsl import ControlAffineSystem
from .errors import (
    AnnihilationFailure,
    EvalSingular,
    FlagNotDecreasing,
    NoValidCompletion,
    NotPolynomial,
    RankNotConstant,
    RankUndecidable,
)
from .expr import (
    SymbolContext,
    _positive_leading,
    evaluate,
    factor,
    from_field,
    is_polynomial,
    is_zero,
    normalize,
    random_point,
    rational_field,
    reduce_fraction,
    to_field,
    to_text,
)
from .forms import (
    coefficient_vector,
    contract,
    d,
    form_to_text,
    one_form,
    pivot_solution,
    reduce_mod,
)

NUMERIC_RANK_TOL = 1e-8


@dataclass(frozen=True)
class PfaffianSystem:
    generators: tuple  # independent 1-forms
    pivots: tuple  # pivot coordinate indices, len == rank
    constraints: tuple  # exprs required nonzero (accumulated pivot dets)

    @property
    def rank(self):
        return len(self.generators)

    @property
    def ctx(self):
        return self.generators[0].ctx if self.generators else None

    def coefficient_matrix(self):
        return [coefficient_vector(g) for g in self.generators]


@dataclass(frozen=True)
class TorsionMatrix:
    entries: tuple  # s rows, C(p,2) columns of exprs
    omega: tuple  # non-pivot coordinate indices (the coframe completion)
    labels: tuple  # column labels: (j,k) index pairs into omega

    @property
    def is_trivial(self):
        return all(e == 0 for row in self.entries for e in row)

    def shape(self):
        return (len(self.entries), len(self.labels))


@dataclass(frozen=True)
class FlagLevel:
    system: PfaffianSystem
    torsion: TorsionMatrix | None  # None only for the empty terminal system


@dataclass(frozen=True)
class PfaffianFlag:
    levels: tuple  # FlagLevel, index = derived order
    nu: int
    q: int

    @property
    def type(self):
        return (self.nu, self.q)

    def dual_type(self, n):
        return (self.nu, n - self.q)

    @property
    def terminal(self):
        return self.levels[-1].system


# --- linear algebra over the expression fraction field -----------------------

def _pivot_quality(f, ctx, seed):
    """3 = nonzero constant, 2 = product of known-nonzero factors,
    1 = ProvenNonzero by sampling, 0 = ProvenZero, -1 = Unknown.

    `f` is a reduced field element (expr.to_field)."""
    if not f:
        return 0
    if f.numer.is_ground and f.denom.is_ground:
        return 3
    n = from_field(f)
    if _known_nonzero(n, ctx):
        return 2
    v = is_zero(n, ctx, seed=seed)
    if v.is_nonzero:
        return 1
    if v.is_zero:
        return 0
    return -1


def _known_nonzero(e, ctx: SymbolContext):
    """True when every irreducible factor is declared or constrained nonzero."""
    num, den = sp.fraction(normalize(e, ctx))
    for part in (num, den):
        if not (part.free_symbols or part.atoms(sp.sin, sp.cos)):
            if part == 0:
                return False
            continue
        try:
            parts = factor(part, ctx)
        except (NotPolynomial, sp.PolynomialError):
            return False
        for f, _ in parts:
            if not _known_nonzero_factor(f, ctx):
                return False
    return True


def _known_nonzero_factor(f, ctx):
    if f.is_Symbol and ctx.param_signs.get(f):
        return True
    for c in ctx.nonzero:
        if c != 0 and normalize(f / c, ctx).is_Rational:
            return True
    return False


def rref(rows, ctx, seed=0):
    """Reduced row echelon form over the fraction field.

    Returns (rows, pivot_columns).  Pivot entries are chosen by decreasing
    certainty; a column whose undecided entries are all Unknown raises
    RankUndecidable naming the offending expression.
    """
    K, relations = rational_field(
        ctx.gens_for(*itertools.chain.from_iterable(rows)))
    rows = [[to_field(e, K, relations, ctx) for e in r] for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivot_cols = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        best, best_q = None, 0
        unknown = None
        for i in range(r, nrows):
            q = _pivot_quality(rows[i][c], ctx, seed)
            if q > best_q:
                best, best_q = i, q
                if q == 3:
                    break
            elif q == -1 and unknown is None:
                unknown = from_field(rows[i][c])
        if best is None:
            if unknown is not None:
                raise RankUndecidable(
                    f"cannot decide whether pivot candidate is zero: {unknown}")
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r][c]
        rows[r] = [reduce_fraction(e / piv, relations) for e in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [reduce_fraction(a - f * b, relations)
                           for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
    return [[from_field(e) for e in row] for row in rows], pivot_cols


def nullspace(rows, ctx, seed=0):
    """Basis of the right null-space, denominator-cleared and primitive."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivot_cols = rref(rows, ctx, seed=seed)
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [sp.Integer(0)] * ncols
        vec[fc] = sp.Integer(1)
        for r, pc in enumerate(pivot_cols):
            vec[pc] = normalize(-red[r][fc], ctx)
        basis.append(clear_denominators(vec, ctx))
    return basis


def clear_denominators(vec, ctx):
    """Scale a vector to primitive polynomial entries, positive leading sign."""
    dens = []
    for e in vec:
        _, den = sp.fraction(normalize(e, ctx))
        dens.append(den)
    lcm = sp.Integer(1)
    for den in dens:
        lcm = sp.lcm(lcm, den)
    scaled = [normalize(e * lcm, ctx) for e in vec]
    nonzero = [e for e in scaled if e != 0]
    if not nonzero:
        return scaled
    g = nonzero[0]
    for e in nonzero[1:]:
        g = sp.gcd(g, e)
    if g != 0 and g != 1:
        scaled = [normalize(e / g, ctx) for e in scaled]
    # deterministic sign: first nonzero entry gets positive leading coeff
    first = next(e for e in scaled if e != 0)
    _, unit = _positive_leading(first, ctx)
    if unit < 0:
        scaled = [normalize(-e, ctx) for e in scaled]
    return scaled


def numeric_rank_at(rows, ctx, point):
    mat = np.array([[evaluate(e, point, ctx) for e in r] for r in rows],
                   dtype=float)
    if mat.size == 0:
        return 0
    sv = np.linalg.svd(mat, compute_uv=False)
    scale = sv[0] if sv[0] > 0 else 1.0
    return int(np.sum(sv > NUMERIC_RANK_TOL * max(1.0, scale)))


def certify_rank(rows, rank, ctx, seed=0, samples=20):
    """Random-point check that the numeric rank matches the symbolic rank.

    A point below the symbolic rank lies where the generic rank drops (say,
    on a coordinate hyperplane) and is skipped like a singular one.  The
    check fails when some point exceeds the symbolic rank, or when fewer
    than half of the evaluated points attain it.
    """
    rng = np.random.default_rng(seed + 1)
    evaluated = attained = 0
    for _ in range(samples):
        point = random_point(ctx, rng)
        try:
            nr = numeric_rank_at(rows, ctx, point)
        except (EvalSingular, np.linalg.LinAlgError):
            continue
        if nr > rank:
            raise RankNotConstant(
                f"numeric rank {nr} > symbolic rank {rank} at {point}")
        evaluated += 1
        attained += nr == rank
    if 2 * attained < evaluated:
        raise RankNotConstant(
            f"symbolic rank {rank} attained at only {attained} of "
            f"{evaluated} sample points")


# --- pipeline stages ---------------------------------------------------------

def annihilator(sys: ControlAffineSystem, seed=0) -> PfaffianSystem:
    """s = n - p independent 1-forms annihilating f and every g_j."""
    ctx = sys.ctx
    rows = [list(X) for X in sys.fields()]
    try:
        red, pivot_cols = rref(rows, ctx, seed=seed)
    except RankUndecidable as e:
        raise RankNotConstant(str(e)) from e
    p = len(pivot_cols)
    certify_rank(rows, p, ctx, seed=seed)
    basis = nullspace(rows, ctx, seed=seed)
    generators = tuple(one_form(vec, ctx) for vec in basis)
    for g in generators:
        for X in sys.fields():
            if contract(g, X) != 0:
                raise AnnihilationFailure(
                    f"annihilator generator fails against {X}")
    system = PfaffianSystem(generators=generators, pivots=(), constraints=())
    if not generators:
        return system
    return complete_coframe(system, ctx, seed=seed)


def complete_coframe(system: PfaffianSystem, ctx, seed=0) -> PfaffianSystem:
    """Choose pivot coordinates with a certified-nonzero s x s determinant.

    The non-pivot coordinate differentials complete the generators to a
    coframe; the pivot determinant's factors are recorded as domain
    constraints.  Prefers determinants that are nonzero constants or products
    of declared-nonzero factors over merely sampled-nonzero ones.
    """
    s = system.rank
    n = len(ctx.states)
    if s == 0:
        return system
    mat = system.coefficient_matrix()
    fallback = None
    for combo in itertools.combinations(range(n), s):
        sub = sp.Matrix([[mat[r][c] for c in combo] for r in range(s)])
        det = normalize(sub.det(method="berkowitz"), ctx)
        if det == 0:
            continue
        if not (det.free_symbols or det.atoms(sp.sin, sp.cos)):
            return _with_pivots(system, combo, det, ctx)
        if _known_nonzero(det, ctx):
            return _with_pivots(system, combo, det, ctx)
        if fallback is None and is_zero(det, ctx, seed=seed).is_nonzero:
            fallback = (combo, det)
    if fallback is not None:
        return _with_pivots(system, *fallback, ctx)
    raise NoValidCompletion("no coordinate completion with certified "
                            "nonzero pivot determinant")


def _with_pivots(system, combo, det, ctx):
    constraints = list(system.constraints)
    num, den = sp.fraction(det)
    for part in (num, den):
        if not (part.free_symbols or part.atoms(sp.sin, sp.cos)):
            continue
        if is_polynomial(part, ctx):
            for f, _ in factor(part, ctx):
                if (f.free_symbols or f.atoms(sp.sin, sp.cos)) \
                        and f not in constraints:
                    constraints.append(f)
        elif part not in constraints:
            constraints.append(part)
    return PfaffianSystem(generators=system.generators, pivots=tuple(combo),
                          constraints=tuple(constraints))


def omega_indices(system: PfaffianSystem, n):
    return tuple(i for i in range(n) if i not in system.pivots)


def torsion(system: PfaffianSystem, ctx, seed=0) -> TorsionMatrix:
    """Torsion matrix of d(theta) modulo (theta) in the completed coframe."""
    n = len(ctx.states)
    omega = omega_indices(system, n)
    labels = tuple(itertools.combinations(range(len(omega)), 2))
    entries = []
    sol = pivot_solution(list(system.generators), list(system.pivots),
                         seed=seed)
    for g in system.generators:
        reduced = reduce_mod(d(g), sol)
        row = []
        for j, k in labels:
            row.append(reduced.coeff((omega[j], omega[k])))
        entries.append(tuple(row))
    return TorsionMatrix(entries=tuple(entries), omega=omega, labels=labels)


def derived_system(system: PfaffianSystem, T: TorsionMatrix, ctx,
                   seed=0) -> PfaffianSystem:
    """Generators of the next derived system from the left null-space of T."""
    s = system.rank
    if T.is_trivial:
        return system
    # column scaling by denominator clearing leaves the left null-space fixed
    cols = []
    for c in range(len(T.labels)):
        col = [T.entries[r][c] for r in range(s)]
        cols.append(clear_denominators(col, ctx))
    transposed = [[cols[c][r] for r in range(s)] for c in range(len(cols))]
    basis = nullspace(transposed, ctx, seed=seed)
    new_gens = []
    for a in basis:
        comb = [sp.Integer(0)] * len(ctx.states)
        for coeff, g in zip(a, system.generators):
            vec = coefficient_vector(g)
            comb = [u + coeff * v for u, v in zip(comb, vec)]
        new_gens.append(one_form(clear_denominators(comb, ctx), ctx))
    out = PfaffianSystem(generators=tuple(new_gens), pivots=(),
                         constraints=system.constraints)
    if not new_gens:
        return out
    return complete_coframe(out, ctx, seed=seed)


def derived_flag(sys: ControlAffineSystem, seed=0) -> PfaffianFlag:
    """Iterate derived systems to stabilization; type (nu, q) of the flag."""
    ctx = sys.ctx
    system = annihilator(sys, seed=seed)
    levels = []
    while True:
        if system.rank == 0:
            levels.append(FlagLevel(system=system, torsion=None))
            break
        T = torsion(system, ctx, seed=seed)
        levels.append(FlagLevel(system=system, torsion=T))
        if T.is_trivial:
            break
        nxt = derived_system(system, T, ctx, seed=seed)
        if nxt.rank >= system.rank:
            raise FlagNotDecreasing(
                f"derived system rank {nxt.rank} >= {system.rank}")
        system = nxt
    nu = len(levels) - 1
    q = levels[-1].system.rank
    for level in levels:
        rows = level.system.coefficient_matrix()
        if rows:
            certify_rank(rows, level.system.rank, ctx, seed=seed)
    return PfaffianFlag(levels=tuple(levels), nu=nu, q=q)


def flag_summary(flag: PfaffianFlag, ctx) -> dict:
    """JSON-ready summary of the flag."""
    n = len(ctx.states)
    names = [str(s) for s in ctx.states]
    levels = []
    for level in flag.levels:
        system = level.system
        entry = {
            "rank": system.rank,
            "generators": [form_to_text(g) for g in system.generators],
            "pivots": [names[i] for i in system.pivots],
            "domain_constraints": [to_text(c) for c in system.constraints],
        }
        if level.torsion is not None:
            T = level.torsion
            entry["torsion"] = {
                "omega": [f"d{names[i]}" for i in T.omega],
                "columns": [f"d{names[T.omega[j]]}^d{names[T.omega[k]]}"
                            for j, k in T.labels],
                "entries": [[to_text(e) for e in row] for row in T.entries],
            }
        levels.append(entry)
    return {
        "levels": levels,
        "type": list(flag.type),
        "distribution_type": list(flag.dual_type(n)),
    }
