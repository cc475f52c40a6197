"""Numeric evidence: RK4 simulation under piecewise-constant controls,
invariance and escape testing, Lie brackets, and bracket-rank checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy as sp

from .dsl import ControlAffineSystem, ControlSchedule
from .errors import DomainExit, EvalSingular, StepSingular
from .expr import SymbolContext, evaluate, normalize
from .sampling import CONSTRAINT_MARGIN, zero_locus_points

SV_RANK_TOL = 1e-8
# depth of the iterated Lie brackets behind every bracket-rank check
BRACKET_DEPTH = 4
INV_TOL_BASE = 1e-6


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray  # uniform grid, shape (N+1,)
    states: np.ndarray  # shape (N+1, n)
    controls: np.ndarray  # control value applied on [t_i, t_{i+1}), (N, m)
    schedule: ControlSchedule
    rho_values: dict  # monitor label -> (N+1,) array

    def to_csv(self, names, control_count, rho_labels):
        header = ["t"] + list(names)
        header += [f"u{j+1}" for j in range(control_count)]
        header += list(rho_labels)
        lines = [",".join(header)]
        N = len(self.times)
        for i in range(N):
            row = [repr(float(self.times[i]))]
            row += [repr(float(v)) for v in self.states[i]]
            u = (self.controls[min(i, len(self.controls) - 1)]
                 if len(self.controls) else np.zeros(control_count))
            row += [repr(float(v)) for v in u]
            row += [repr(float(self.rho_values[lbl][i])) for lbl in rho_labels]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class InvarianceVerdict:
    verdict: str  # "Held" | "Violated"
    max_rho: float
    tolerance: float
    trials: tuple  # per-trial (max |rho|, arc length, tol)
    seed: int
    errors: tuple = ()

    @property
    def held(self):
        return self.verdict == "Held"


def _lambdify(exprs, ctx: SymbolContext):
    """One vectorized callable (x: (N, n), p: (N, k)) -> (len(exprs), N)
    block, one row per expression, from a single lambdified function."""
    fn = sp.lambdify(list(ctx.states) + list(ctx.params), list(exprs),
                     modules="numpy")
    size = len(exprs)

    def call(x, p):
        cols = [x[:, i] for i in range(x.shape[1])]
        cols += [p[:, i] for i in range(p.shape[1])]
        block = np.empty((size, len(x)))
        for i, val in enumerate(fn(*cols)):
            block[i] = val  # broadcasts constant components
        return block

    return call


def rhs_function(sys: ControlAffineSystem):
    """Batched right-hand side f(x) + sum_j g_j(x) u_j.

    Returned callable maps (x: (N, n), u: (N, m), params: (N, k)) to (N, n).
    The drift and control fields are evaluated as one block of (m + 1) n
    rows; the control rows are then added into the drift rows in order.
    """
    n, m = sys.n, sys.m
    fields = _lambdify(list(sys.drift) + [c for g in sys.controls for c in g],
                       sys.ctx)

    def rhs(x, u, p):
        with np.errstate(all="ignore"):
            block = fields(x, p)
            out = block[:n]
            for j in range(m):
                out += block[(j + 1) * n:(j + 2) * n] * u[:, j]
        if not np.all(np.isfinite(out)):
            raise StepSingular("vector field evaluation produced non-finite "
                               "values")
        return out.T

    return rhs


def monitor_function(rhos, ctx):
    """Batched rhos: (x: (N, n), params: (N, k)) -> (N, len(rhos))."""
    fn = _lambdify(rhos, ctx)

    def call(x, p):
        with np.errstate(all="ignore"):
            return fn(x, p).T

    return call


def _rk4_step(rhs, x, u, p, h):
    k1 = rhs(x, u, p)
    k2 = rhs(x + 0.5 * h * k1, u, p)
    k3 = rhs(x + 0.5 * h * k2, u, p)
    k4 = rhs(x + h * k3, u, p)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _piece_steps(schedule: ControlSchedule, h):
    """Snap piece boundaries onto the uniform grid."""
    if not schedule.pieces:
        return [], 0
    total_steps = max(1, round(schedule.horizon / h))
    bounds = []
    acc = 0.0
    for dur, _ in schedule.pieces:
        acc += dur
        bounds.append(min(total_steps, round(acc / h)))
    bounds[-1] = total_steps
    steps = []
    prev = 0
    for b, (_, u) in zip(bounds, schedule.pieces):
        steps.append((max(0, b - prev), u))
        prev = max(prev, b)
    return steps, total_steps


def simulate(sys: ControlAffineSystem, x0, schedule: ControlSchedule,
             h=1e-3, param_values=None, monitors=None) -> Trajectory:
    """Classical fixed-step RK4 per piece; states recorded on the grid."""
    if h <= 0:
        raise ValueError("step must be positive")
    ctx = sys.ctx
    param_values = dict(param_values or {})
    missing = [p for p in ctx.params if p not in param_values]
    if missing:
        raise EvalSingular(f"no parameter values for {missing}")
    point0 = {v: float(x) for v, x in zip(ctx.states, x0)}
    point0.update(param_values)
    for c in ctx.nonzero:
        if abs(evaluate(c, point0, ctx)) <= CONSTRAINT_MARGIN:
            raise DomainExit(f"initial point violates nonzero constraint {c}")

    rhs = rhs_function(sys)
    p = np.array([[float(param_values[q]) for q in ctx.params]])
    cons_fn = monitor_function(list(ctx.nonzero), ctx) if ctx.nonzero else None

    steps, total_steps = _piece_steps(schedule, h)
    xs = np.empty((total_steps + 1, sys.n))
    us = np.zeros((total_steps, sys.m))
    xs[0] = [float(v) for v in x0]
    x = xs[0:1].copy()
    i = 0
    prev_cons = cons_fn(x, p)[0] if cons_fn is not None else None
    for count, u in steps:
        ub = np.array([list(u)], dtype=float)
        for _ in range(count):
            x = _rk4_step(rhs, x, ub, p, h)
            xs[i + 1] = x[0]
            us[i] = u
            i += 1
            if cons_fn is not None:
                cur = cons_fn(x, p)[0]
                if np.any(np.abs(cur) < 1e-9) or np.any(cur * prev_cons < 0):
                    raise DomainExit(
                        "declared-nonzero constraint crossed zero at "
                        f"t = {i * h:.6g}")
                prev_cons = cur
    times = np.arange(total_steps + 1) * h
    rho_values = {}
    if monitors:
        mon_fn = monitor_function(list(monitors.values()), ctx)
        vals = mon_fn(xs, np.repeat(p, len(xs), axis=0))
        for k, lbl in enumerate(monitors):
            rho_values[lbl] = vals[:, k]
    return Trajectory(times=times, states=xs, controls=us,
                      schedule=schedule, rho_values=rho_values)


def random_schedule(rng, m, pieces, horizon) -> ControlSchedule:
    cuts = np.sort(rng.uniform(0, horizon, size=pieces - 1)) if pieces > 1 \
        else np.array([])
    bounds = np.concatenate([[0.0], cuts, [horizon]])
    durs = np.diff(bounds)
    durs = np.maximum(durs, 1e-6)
    vals = rng.uniform(-1.0, 1.0, size=(pieces, m))
    return ControlSchedule(tuple((float(d), tuple(map(float, v)))
                                 for d, v in zip(durs, vals)))


def invariance_test(sys: ControlAffineSystem, rhos, trials=100, pieces=10,
                    horizon=5.0, h=1e-3, seed=42) -> InvarianceVerdict:
    """Monte-Carlo invariance check of the zero locus of rhos.

    Starts on {rho = 0}, applies random piecewise-constant controls, and
    holds iff every trial keeps max |rho| below 1e-6 * (1 + arc length).
    All trials integrate in one batched RK4 sweep.
    """
    ctx = sys.ctx
    rhos = [sp.sympify(r) for r in rhos]
    rng = np.random.default_rng(seed)
    starts = zero_locus_points(rhos, ctx, rng, count=trials)

    x = np.array([[pt[v] for v in ctx.states] for pt in starts])
    p = np.array([[pt[q] for q in ctx.params] for pt in starts]) \
        if ctx.params else np.zeros((trials, 0))
    total_steps = max(1, round(horizon / h))
    # grid step -> (trial, control) of every piece starting there
    switches = {}
    for t in range(trials):
        sched, _ = _piece_steps(random_schedule(rng, sys.m, pieces, horizon), h)
        i = 0
        for count, ut in sched:
            if count:
                switches.setdefault(i, []).append((t, ut))
            i += count
    u = np.zeros((trials, sys.m))  # each trial's current control
    rhs = rhs_function(sys)
    mon = monitor_function(rhos, ctx)
    max_rho = np.max(np.abs(mon(x, p)), axis=1)
    arclen = np.zeros(trials)
    errors = []
    try:
        for i in range(total_steps):
            for t, ut in switches.get(i, ()):
                u[t] = ut
            xn = _rk4_step(rhs, x, u, p, h)
            arclen += np.linalg.norm(xn - x, axis=1)
            x = xn
            max_rho = np.maximum(max_rho, np.max(np.abs(mon(x, p)), axis=1))
    except StepSingular as e:
        errors.append(str(e))
    tols = INV_TOL_BASE * (1.0 + arclen)
    held = bool(np.all(max_rho < tols)) and not errors
    per_trial = tuple((float(m_), float(a), float(t_))
                      for m_, a, t_ in zip(max_rho, arclen, tols))
    return InvarianceVerdict(
        verdict="Held" if held else "Violated",
        max_rho=float(np.max(max_rho)),
        tolerance=float(np.min(tols)),
        trials=per_trial, seed=seed, errors=tuple(errors))


def escape_test(sys: ControlAffineSystem, rhos, seed=42, horizon=5.0,
                h=1e-2, threshold=0.1, starts=20, random_controls=50):
    """Greedy search for a constant control leaving the zero locus of rhos.

    Tries the 2m+1 axis controls {0, +-e_j} plus random values from each of
    several zero-locus starts; returns (schedule, time, value) for the first
    trajectory driving max |rho| above the threshold, or None.
    """
    ctx = sys.ctx
    rhos = [sp.sympify(r) for r in rhos]
    rng = np.random.default_rng(seed)
    pts = zero_locus_points(rhos, ctx, rng, count=starts)
    m = sys.m
    controls = [np.zeros(m)]
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        controls.append(e.copy())
        controls.append(-e)
    controls += [rng.uniform(-1, 1, size=m) for _ in range(random_controls)]

    batch_x, batch_p, batch_u, meta = [], [], [], []
    for pt in pts:
        for u in controls:
            batch_x.append([pt[v] for v in ctx.states])
            batch_p.append([pt[q] for q in ctx.params])
            batch_u.append(u)
            meta.append((pt, u))
    x = np.array(batch_x)
    p = np.array(batch_p) if ctx.params else np.zeros((len(batch_x), 0))
    u = np.array(batch_u)
    rhs = rhs_function(sys)
    mon = monitor_function(rhos, ctx)
    steps = max(1, round(horizon / h))
    alive = np.ones(len(x), dtype=bool)
    for i in range(steps):
        with np.errstate(all="ignore"):
            try:
                x[alive] = _rk4_step(rhs, x[alive], u[alive], p[alive], h)
            except StepSingular:
                break
        bad = ~np.all(np.isfinite(x), axis=1)
        alive &= ~bad
        vals = np.max(np.abs(mon(x[alive], p[alive])), axis=1)
        idx = np.flatnonzero(alive)
        hit = idx[vals > threshold]
        if hit.size:
            k = int(hit[0])
            pt, uc = meta[k]
            sched = ControlSchedule(((horizon, tuple(map(float, uc))),))
            return sched, float((i + 1) * h), float(
                np.max(np.abs(mon(x[k:k + 1], p[k:k + 1]))))
    return None


# --- Lie brackets and rank checks -------------------------------------------

def lie_bracket(X, Y, ctx: SymbolContext):
    """[X, Y]_i = sum_k (X_k dY_i/dx_k - Y_k dX_i/dx_k), exact."""
    n = len(ctx.states)
    out = []
    for i in range(n):
        total = sp.Integer(0)
        for k, v in enumerate(ctx.states):
            total += X[k] * sp.diff(Y[i], v) - Y[k] * sp.diff(X[i], v)
        out.append(normalize(total, ctx))
    return tuple(out)


def iterated_brackets(fields, ctx, depth=BRACKET_DEPTH):
    """Left iterated brackets [X_{i1},[...,[X_{ik-1}, X_{ik}]...]] to depth."""
    layers = [list(fields)]
    for _ in range(1, depth):
        new = []
        for Y in layers[-1]:
            for X in fields:
                br = lie_bracket(X, Y, ctx)
                if any(c != 0 for c in br):
                    new.append(br)
        if not new:
            break
        layers.append(new)
    out = []
    for layer in layers:
        out.extend(layer)
    return out


def svd_rank(vectors):
    """Numeric rank of a list of row vectors, relative to the largest one."""
    sv = np.linalg.svd(np.array(vectors), compute_uv=False)
    scale = max(1.0, sv[0]) if sv.size else 1.0
    return int(np.sum(sv > SV_RANK_TOL * scale))


def bracket_rank(fields, point, ctx, depth=BRACKET_DEPTH):
    """Numeric rank at a point of the iterated brackets up to given depth."""
    return svd_rank([[evaluate(c, point, ctx) for c in F]
                     for F in iterated_brackets(fields, ctx, depth=depth)])


def leaf_controllability(sys: ControlAffineSystem, rhos, leaf_dim, seed=42,
                         points=5):
    """Rashevsky-Chow check restricted to a leaf {rho = const}.

    At sampled leaf points: all iterated g-brackets must be tangent to the
    leaf (gradient pairing below tolerance) and their rank must reach the
    leaf dimension.
    """
    ctx = sys.ctx
    rhos = [sp.sympify(r) for r in rhos]
    pts = zero_locus_points(rhos, ctx, np.random.default_rng(seed + 7),
                            count=points)
    grads = [[sp.diff(r, v) for v in ctx.states] for r in rhos]
    brackets = iterated_brackets(list(sys.controls), ctx)
    ranks = []
    tangent = True
    for pt in pts:
        vecs = []
        for F in brackets:
            v = np.array([evaluate(c, pt, ctx) for c in F])
            vecs.append(v)
            for grow in grads:
                gval = np.array([evaluate(g, pt, ctx) for g in grow])
                scale = max(1.0, float(np.linalg.norm(v)),
                            float(np.linalg.norm(gval)))
                if abs(float(gval @ v)) > SV_RANK_TOL * scale:
                    tangent = False
        ranks.append(svd_rank(vecs))
    rank = max(ranks) if ranks else 0
    return {
        "leaf_dimension": leaf_dim,
        "bracket_rank": rank,
        "tangent": tangent,
        "controllable_on_leaf": bool(tangent and rank >= leaf_dim),
    }
