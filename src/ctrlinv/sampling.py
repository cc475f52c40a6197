"""Numeric sampling of points on the zero locus of candidate functions.

Shared by the membership checker (non-degeneracy, numeric fallback) and the
trajectory verifier (initial conditions on a candidate submanifold).
"""

from __future__ import annotations

import numpy as np
import sympy as sp

from .errors import SamplingFailed
from .expr import (
    POINT_ERRORS,
    SymbolContext,
    constraints_ok,
    evaluate,
    sample_params,
)

NEWTON_RESIDUAL_TOL = 1e-10
CONSTRAINT_MARGIN = 1e-6


def zero_locus_points(rhos, ctx: SymbolContext, rng, count=20, box=1.0,
                      newton_steps=20):
    """Points (state + parameter assignments) on the common zero set of rhos.

    Solves for one state variable when some rho is linear in it; otherwise
    projects random points by damped Newton steps.  Points that fail to
    converge or violate domain constraints are discarded and resampled.
    """
    rhos = [sp.sympify(r) for r in rhos]
    states = list(ctx.states)
    grads = [[sp.diff(r, v) for v in states] for r in rhos]
    plan = _linear_plan(rhos, ctx)
    points = []
    attempts = 0
    while len(points) < count and attempts < 60 * count:
        attempts += 1
        pvals = sample_params(ctx, rng)
        point = {v: rng.uniform(-box, box) for v in states}
        point.update(pvals)
        if _solve_linear(plan, point, ctx) or \
                _newton_project(rhos, grads, point, ctx, newton_steps):
            res = max(abs(evaluate(r, point, ctx)) for r in rhos)
            if res <= NEWTON_RESIDUAL_TOL and \
                    constraints_ok(point, ctx, CONSTRAINT_MARGIN):
                points.append(dict(point))
    if len(points) < count:
        raise SamplingFailed(
            f"zero-locus sampling produced {len(points)}/{count} points")
    return points


def _linear_plan(rhos, ctx):
    """Per rho, its free symbols and every (v, a, rest) with rho = a v + rest
    and a free of v, over the states in order."""
    plan = []
    for rho in rhos:
        terms = []
        for v in ctx.states:
            a = sp.diff(rho, v)
            if a != 0 and sp.diff(a, v) == 0:
                terms.append((v, a, rho - a * v))
        plan.append((rho.free_symbols, terms))
    return plan


def _solve_linear(plan, point, ctx):
    """Solve the system one variable at a time where rhos are linear.

    Each rho is solved for a state that no earlier solved rho mentions, so
    later solutions leave the earlier equations satisfied.
    """
    fixed = set()
    for symbols, terms in plan:
        for v, a, rest in terms:
            if v in fixed:
                continue
            try:
                aval = evaluate(a, point, ctx)
            except POINT_ERRORS:
                return False
            if abs(aval) < 1e-6:
                continue
            point[v] = -evaluate(rest, point, ctx) / aval
            fixed |= symbols
            break
        else:
            return False
    return True


def _newton_project(rhos, grads, point, ctx, steps):
    states = list(ctx.states)
    x = np.array([point[v] for v in states], dtype=float)
    for _ in range(steps):
        at = _assign(point, states, x)
        try:
            r = np.array([evaluate(rho, at, ctx) for rho in rhos])
            J = np.array([[evaluate(g, at, ctx) for g in row]
                          for row in grads])
        except POINT_ERRORS:
            return False
        if np.max(np.abs(r)) <= NEWTON_RESIDUAL_TOL:
            break
        try:
            step = J.T @ np.linalg.solve(J @ J.T, r)
        except np.linalg.LinAlgError:
            return False
        x = x - 0.8 * step
    for v, xv in zip(states, x):
        point[v] = float(xv)
    return True


def _assign(point, states, x):
    out = dict(point)
    for v, xv in zip(states, x):
        out[v] = float(xv)
    return out
