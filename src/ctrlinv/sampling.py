"""Numeric sampling of points on the zero locus of candidate functions,
ctx.field elements.

Shared by the membership checker (non-degeneracy), the trajectory
verifier (initial conditions) and the leaf bracket rank (exact).
"""

from __future__ import annotations

import numpy as np

from .errors import SamplingFailed
from .expr import (POINT_ERRORS, SymbolContext, differentiate, generators,
                   gradient, kernels)
from .flag import certification_points, exact_value

NEWTON_RESIDUAL_TOL = 1e-10
CONSTRAINT_MARGIN = 1e-6


def zero_locus_points(rhos, ctx: SymbolContext, rng, count=20, box=1.0,
                      newton_steps=20):
    """Points (state + parameter assignments) on the common zero set of rhos.

    Solves for one state variable when some rho is linear in it; otherwise
    projects random points by damped Newton steps.  Points that fail to
    converge or violate domain constraints are discarded and resampled.
    Each round draws as many attempts as points are missing in one block;
    every value is taken by the kernels of one compile.
    """
    rhos, states = list(rhos), list(ctx.states)
    grads = [gradient(r, ctx) for r in rhos]
    plan = _linear_plan(rhos, grads, ctx)
    fns = iter(kernels(
        [rhos + list(ctx.nonzero), rhos + sum(grads, [])]
        + [[e] for _, ts in plan for _, *pair in ts for e in pair], ctx))
    check, newton = next(fns), next(fns)
    linear = [(symbols, [(v, states.index(v), next(fns), next(fns))
                         for v, _, _ in ts]) for symbols, ts in plan]
    points = []
    attempts, budget = 0, 60 * count
    while len(points) < count and attempts < budget:
        # the loop would make at least this many attempts
        for values in map(np.ndarray.tolist, _attempts(
                ctx, rng, min(count - len(points), budget - attempts), box)):
            attempts += 1
            if (_solve_linear(linear, values) or _newton_project(
                    newton, (len(rhos), len(states)), values, newton_steps)) \
                    and _accepted(check, len(rhos), values):
                points.append(dict(zip(ctx.symbols, values)))
    if len(points) < count:
        raise SamplingFailed(
            f"zero-locus sampling produced {len(points)}/{count} points")
    return points


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


def _solve_linear(plan, values, at=lambda f, v: f(v)[0], tol=1e-6):
    """Solve the system one variable at a time where rhos are linear, by
    the plan's (v, index of v, a, rest) terms, valued by at(a, values).

    Each rho is solved for a state that no earlier solved rho mentions, so
    later solutions leave the earlier equations satisfied; a term whose a
    is at most tol in absolute value is passed over.
    """
    fixed = set()
    for symbols, terms in plan:
        for v, i, a, rest in terms:
            if v in fixed:
                continue
            try:
                aval = at(a, values)
                if abs(aval) <= tol:
                    continue
                values[i] = -at(rest, values) / aval
            except POINT_ERRORS:
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
            if _solve_linear(linear, pt, exact_value, 0))


def _newton_project(newton, shape, values, steps):
    """Damped Newton steps on values[:n] by newton's k rhos and Jacobian."""
    k, n = shape
    x = np.array(values[:n], dtype=float)
    for _ in range(steps):
        try:
            out = newton(x.tolist() + values[n:])
        except POINT_ERRORS:
            return False
        r, J = np.array(out[:k]), np.array(out[k:]).reshape(shape)
        if np.max(np.abs(r)) <= NEWTON_RESIDUAL_TOL:
            break
        try:
            step = J.T @ np.linalg.solve(J @ J.T, r)
        except np.linalg.LinAlgError:
            return False
        x = x - 0.8 * step
    values[:n] = x.tolist()
    return True


def _accepted(check, k, values):
    """True when check evaluates at the values, its first k values (the
    rhos) within the residual tolerance and the rest (the declared-nonzero
    elements) beyond the margin in absolute value."""
    try:
        out = check(values)
    except POINT_ERRORS:
        return False
    return all(abs(r) <= NEWTON_RESIDUAL_TOL for r in out[:k]) and \
        all(abs(c) > CONSTRAINT_MARGIN for c in out[k:])
