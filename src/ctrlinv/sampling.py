"""Numeric sampling of points on the zero locus of candidate functions,
ctx.field elements.

Shared by the membership checker (non-degeneracy), the trajectory
verifier (initial conditions) and the leaf bracket rank (exact), by the
sampling form of `expr.kernels` on a round's attempts as one block.
"""

from __future__ import annotations

import numpy as np

from .errors import SamplingFailed
from .expr import (SymbolContext, differentiate, generators, gradient,
                   kernels)
from .flag import certification_points, exact_value

NEWTON_RESIDUAL_TOL = 1e-10
CONSTRAINT_MARGIN = 1e-6
# damped Newton steps at most per projected attempt
NEWTON_STEPS = 20


def zero_locus_points(rhos, ctx: SymbolContext, rng, count=20, box=1.0):
    """Points (state and parameter values) on the common zero set of rhos,
    as rows (count, len(ctx.symbols)) of values in ctx.symbols order.

    Solves for one state variable when some rho is linear in it; otherwise
    projects random points by damped Newton steps.  Points that fail to
    converge or violate domain constraints are discarded and resampled.
    Each round draws as many attempts as points are missing in one block,
    solves the linear plan, projects the rows it leaves unsolved as one
    block (`_newton_project`) and checks every attempt, by the sampling
    form of `expr.kernels`, and keeps the accepted rows in attempt order.
    """
    rhos, states = list(rhos), ctx.states
    grads = [gradient(r, ctx) for r in rhos]
    # per rho, its terms in states no earlier rho mentions: solving for one
    # leaves the earlier equations satisfied
    fixed, plan = set(), []
    for symbols, terms in _linear_plan(rhos, grads, ctx):
        plan.append([(states.index(v), a, rest) for v, a, rest in terms
                     if v not in fixed])
        fixed |= symbols
    check, *linear = kernels(
        [rhos + list(ctx.nonzero)]
        + [[e for _, *pair in terms for e in pair] for terms in plan], ctx)
    linear = [(fill, [i for i, _, _ in terms])
              for fill, terms in zip(linear, plan)]
    newton = None
    blocks, kept = [np.empty((0, len(ctx.symbols)))], 0
    attempts, budget = 0, 60 * count
    while kept < count and attempts < budget:
        block = _attempts(ctx, rng, min(count - kept, budget - attempts), box)
        attempts += len(block)
        solved = _solve_linear_rows(linear, block)
        rows = np.flatnonzero(~solved)
        if rows.size:
            if newton is None:
                newton, = kernels([rhos + sum(grads, [])], ctx)
            solved[rows] = _newton_project(
                newton, (len(rhos), len(states)), block, rows)
        values = check(block)
        r, c = np.abs(values[:len(rhos)]), np.abs(values[len(rhos):])
        # NaN, where a value is not defined, fails both comparisons
        solved &= (r <= NEWTON_RESIDUAL_TOL).all(axis=0) \
            & (c > CONSTRAINT_MARGIN).all(axis=0) & np.isfinite(c).all(axis=0)
        blocks.append(block[solved])
        kept += len(blocks[-1])
    if kept < count:
        raise SamplingFailed(
            f"zero-locus sampling produced {kept}/{count} points")
    return np.concatenate(blocks)


def _attempts(ctx, rng, k, box):
    """k attempts' rows of values in ctx.symbols order, drawn as sample_params
    and a uniform(-box, box) per state do: uniform(lo, hi) = lo+(hi-lo)u."""
    signs = [ctx.param_signs.get(q) for q in ctx.params]
    u = rng.random((k, len(signs) + signs.count(None) + len(ctx.states)))
    params, col = [], 0
    for sign in signs:
        v = 0.5 + 1.5 * u[:, col]
        if sign is None:  # its sign draw comes next
            col += 1
            v = np.where(u[:, col] < 0.5, -v, v)
        params.append(-v if sign == "-" else v)
        col += 1
    states = -box + (box - -box) * u[:, col:]
    return np.column_stack([states, *params])


def _linear_plan(rhos, grads, ctx):
    """Per rho and its gradient, the states it depends on and every
    (v, a, rest) with rho = a v + rest and a free of v, in state order."""
    plan = []
    for rho, grad in zip(rhos, grads):
        terms = [(v, a, rho - a * ctx.field.gens[i])
                 for i, (v, a) in enumerate(zip(ctx.states, grad))
                 if a and not differentiate(a, v, ctx)]
        plan.append(({v for v, a in zip(ctx.states, grad) if a}, terms))
    return plan


def _solve_linear_rows(linear, block, tol=1e-6):
    """Solve the rows of block in place one rho at a time, by each rho's
    kernel of (a, rest) per term and the terms' state columns; True for a
    row solved for every rho.

    A row takes a rho's first term whose a is more than tol in absolute
    value, or fails at the first whose a, or that term's rest, is NaN or
    infinite; a row that fails stays as the earlier rhos left it.
    """
    solved = np.ones(len(block), dtype=bool)
    for fill, columns in linear:
        values = fill(block)
        pending = solved.copy()
        for i, a, rest in zip(columns, values[::2], values[1::2]):
            stop = pending & ~(np.abs(a) <= tol)
            ok = stop & np.isfinite(a) & np.isfinite(rest)
            block[ok, i] = -rest[ok] / a[ok]
            solved &= ok | ~stop
            pending &= ~stop
        solved &= ~pending
    return solved


def _solve_linear(plan, values):
    """Solve the system one variable at a time where rhos are linear, by
    the plan's (v, index of v, a, rest) terms, on the exact values; a term
    whose a is 0 is passed over.

    Each rho is solved for a state that no earlier solved rho mentions, so
    later solutions leave the earlier equations satisfied.
    """
    fixed = set()
    for symbols, terms in plan:
        for v, i, a, rest in terms:
            if v in fixed:
                continue
            try:
                aval = exact_value(a, values)
                if not aval:
                    continue
                values[i] = -exact_value(rest, values) / aval
            except ZeroDivisionError:  # a pole of a or rest
                return False
            fixed |= symbols
            break
        else:
            return False
    return True


def exact_leaf_points(rhos, rows, ctx):
    """The certification points (`flag.certification_points`) moved onto
    {rho = 0} by `_solve_linear` on exact values, those it cannot move left
    out.  A rho is solved only for a state v whose sin(v), cos(v) occur in
    none of the rows and rhos: their values at the point would not be v's."""
    used = set().union(*(generators(e) for F in [*rows, rhos] for e in F))
    pos = ctx.state_generators  # v -> positions of v and sin(v) or None
    linear = [(symbols, [(v, pos[v][0], a, rest) for v, a, rest in terms
                         if pos[v][1] is None
                         or not {pos[v][1], pos[v][1] + 1} & used])
              for symbols, terms in _linear_plan(
                  rhos, [gradient(r, ctx) for r in rhos], ctx)]
    return (pt for pt in certification_points(ctx.field)
            if _solve_linear(linear, pt))


def _newton_project(newton, shape, block, rows):
    """Damped Newton steps x - 0.8 J^T (J J^T)^-1 r (Ben-Israel 1966) on the
    states of block's rows by newton's k rhos r and Jacobian J, per step one
    kernel call and one stacked solve on the rows still moving: the floats
    each row gets alone.  True for a row projected, its states written into
    block; a row stops once each |rho| <= NEWTON_RESIDUAL_TOL and fails at
    a value that is not finite, as a singular J J^T's NaN step makes."""
    k, n = shape
    x, ok, moving = block[rows], np.ones(len(rows), bool), np.arange(len(rows))
    for _ in range(NEWTON_STEPS):
        out = newton(x[moving])
        finite = np.isfinite(out).all(axis=0)
        ok[moving[~finite]] = False
        live = finite & ~(np.abs(out[:k]) <= NEWTON_RESIDUAL_TOL).all(axis=0)
        moving, out = moving[live], out[:, live]
        if not moving.size:
            break
        # each J contiguous, as alone: a strided one takes another matmul
        J = np.ascontiguousarray(out[k:].T).reshape(-1, k, n)
        Jt, r = J.transpose(0, 2, 1), out[:k].T[..., None]
        A = J @ Jt
        try:
            s = np.linalg.solve(A, r)
        except np.linalg.LinAlgError:  # some J J^T is singular: row by row
            s = np.full(r.shape, np.nan)
            for i in range(len(A)):
                try:
                    s[i] = np.linalg.solve(A[i], r[i])
                except np.linalg.LinAlgError:
                    pass
        x[moving, :n] -= 0.8 * (Jt @ s)[..., 0]
    block[rows[ok]] = x[ok]
    return ok
