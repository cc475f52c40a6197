"""Numeric evidence: simulation under piecewise-constant controls,
invariance testing and escape testing, all on one error-controlled
Dormand-Prince sweep, then Lie brackets and bracket-rank checks.  Loci,
monitors and field rows are ctx.field elements, evaluated by the kernels of
`expr.kernels`."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dsl import ControlAffineSystem, ControlSchedule
from .errors import DomainExit, EvalSingular, StepSingular
from .expr import (
    SymbolContext,
    differentiate,
    gradient,
    kernels,
    reduce_fraction,
)
from .sampling import CONSTRAINT_MARGIN, zero_locus_points

SV_RANK_TOL = 1e-8
# depth of the iterated Lie brackets behind every bracket-rank check
BRACKET_DEPTH = 4
INV_TOL_BASE = 1e-6
# relative and absolute error tolerance of the invariance test's steps
RTOL = 1e-10
ATOL = 1e-12
# fewest attempted steps the invariance test is given, whatever its step
MIN_BUDGET = 100

# Dormand & Prince (1980) 5(4) pair: the stage rows a_sj, whose last row is
# the fifth-order weights (so the last stage is f at the new state), and the
# weights b_j - b*_j of the difference to the embedded fourth-order solution
_DP_A = np.array([
    [0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])[:, :, None, None]
_DP_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40])[:, None, None]
# the d_j of the pair's fourth-order continuous extension (see `_dense`)
_DP_D = np.array([-12715105075 / 11282082432, 0, 87487479700 / 32700410799,
                  -10690763975 / 1880347072, 701980252875 / 199316789632,
                  -1453857185 / 822651844, 69997945 / 29380423])
_NON_FINITE = "vector field evaluation produced non-finite values"


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray  # t_i = i h below the horizon, then it: (N+1,)
    states: np.ndarray  # shape (N+1, n)
    controls: np.ndarray  # control value in force from t_i on, (N, m)
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


class _FieldEvaluator:
    """A system's field rows (its drift, then each control field) and monitor
    rows, all ctx.field elements, filled component-major into one (rows, N)
    block by one generated kernel.

    `evaluate` fills every row at the states x: (N, n) and parameters
    p: (N, k) and returns the monitor rows; `combine` forms the field of the
    last fill under a control block u: (N, m).  The block is the first
    N columns of a buffer that is reused while N does not grow, so a
    returned monitor view holds until the next `evaluate`.
    """

    def __init__(self, ctx: SymbolContext, fields, monitors):
        self._n, self._blocks = len(ctx.states), len(fields)
        rows = [f for F in fields for f in F] + list(monitors)
        self._count = len(rows) - len(monitors)  # then the monitor rows
        self._fill, = kernels([rows], ctx, arrays=True)
        self._buffer = np.empty((len(rows), 0))

    def evaluate(self, x, p):
        """Fill every row at x: (N, n) and p: (N, k); return the monitors as
        a (monitors, N) view."""
        if self._buffer.shape[1] < len(x):
            self._buffer = np.empty((len(self._buffer), len(x)))
        self._block = self._buffer[:, :len(x)]
        self._fill(x.T, np.ascontiguousarray(p.T), self._block)
        return self._block[self._count:]

    def combine(self, u):
        """((f + g_1 u_1) + g_2 u_2) + ... at the last evaluation, for
        u: (N, m), as an (N, n) array that may hold non-finite values."""
        n, block = self._n, self._block
        k = block[:n].copy()
        for j in range(1, self._blocks):
            k += block[j * n:(j + 1) * n] * u[:, j - 1]
        return k.T


def rhs_function(sys: ControlAffineSystem, monitors=()):
    """Batched right-hand side f(x) + sum_j g_j(x) u_j.

    Returned callable maps (x: (N, n), u: (N, m), params: (N, k)) to (N, n),
    leaving floating-point errors to the caller's `np.errstate` and
    non-finite values in place.  It is `fields.evaluate` followed by
    `fields.combine`; its `fields` evaluator also fills the monitor rows, so
    the sweep takes the monitors at a new state and the next step's first
    stage from one `fields.evaluate` and a `fields.combine`.
    """
    fields = _FieldEvaluator(sys.ctx, sys.field_rows, monitors)

    def rhs(x, u, p):
        fields.evaluate(x, p)
        return fields.combine(u)

    rhs.fields = fields
    return rhs


def require_positive(**values):
    """Raise ValueError naming the first value that is not positive and
    finite."""
    for name, value in values.items():
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite")


def require_integer(**values):
    """Raise ValueError naming the first value that is not an integer; a
    bool is not one."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer")


def require_count(**values):
    """Raise ValueError naming the first value that is not a non-negative
    integer."""
    require_integer(**values)
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"{name} must be non-negative")


def simulate(sys: ControlAffineSystem, x0, schedule: ControlSchedule,
             h=1e-3, param_values=None, monitors=None) -> Trajectory:
    """One trajectory of the Dormand-Prince sweep (see `_dp_sweep`), h its
    first step, landing exactly on each switch and on the horizon, with the
    declared-nonzero constraints checked at every accepted step.  States
    are written on the grid t_i = i h below the horizon, then at the
    horizon, from each step's continuous extension; a grid time within
    1e-9 h of a switch or of the horizon counts as reaching it.
    """
    require_positive(step=h)
    if schedule.pieces and h > schedule.horizon:
        raise ValueError("step must not exceed the schedule's horizon "
                         f"{schedule.horizon:g}")
    ctx = sys.ctx
    param_values = dict(param_values or {})
    missing = [p for p in ctx.params if p not in param_values]
    if missing:
        raise EvalSingular(f"no parameter values for {missing}")
    rhs = rhs_function(sys, ctx.nonzero_elements)
    p = np.array([[float(param_values[q]) for q in ctx.params]])
    # no pieces: the start alone, a sweep whose horizon is 0
    pieces = schedule.pieces or ((0.0, (0.0,) * sys.m),)
    ends = np.cumsum([d for d, _ in pieces])[None]
    controls = np.array([[u for _, u in pieces]], dtype=float)
    horizon = ends[0, -1]
    times = np.append(np.arange(math.ceil(horizon / h - 1e-9)) * h, horizon)
    xs = np.empty((len(times), sys.n))
    xs[0] = [float(v) for v in x0]
    with np.errstate(all="ignore"):
        sweep = _dp_sweep(rhs, xs[:1].T.copy(), p, ends, controls, h)
        *_, prev = next(sweep)
        for c, value in zip(ctx.nonzero, prev[:, 0]):
            if not CONSTRAINT_MARGIN < abs(value) < math.inf:
                raise DomainExit(
                    f"initial point violates nonzero constraint {c}")
        prev, i, t_prev = prev.copy(), 1, 0.0
        for _, (t,), (accepted,), (finite,), (x, x_new, K), cur in sweep:
            if not finite:
                raise StepSingular(_NON_FINITE)
            if not accepted:
                continue
            if ctx.nonzero and (np.any(np.abs(cur) < 1e-9)
                                or np.any(cur * prev < 0)):
                raise DomainExit("declared-nonzero constraint crossed zero "
                                 f"at t = {t:.6g}")
            prev = cur.copy()
            j = np.searchsorted(times, t, side="right")
            xs[i:j] = _dense(x[:, 0], x_new[:, 0], K[:, :, 0],
                             (times[i:j] - t_prev) / (t - t_prev))
            i, t_prev = j, t
        rho_values = {}
        if monitors:  # one batched evaluation over the whole grid
            vals = _FieldEvaluator(ctx, (), monitors.values()).evaluate(
                xs, np.repeat(p, len(xs), axis=0))
            rho_values = dict(zip(monitors, vals))
    piece = np.searchsorted(ends[0], times[:-1] + 1e-9 * h, side="right")
    return Trajectory(times=times, states=xs, controls=controls[0, piece],
                      schedule=schedule, rho_values=rho_values)


def _dp_step(rhs, x, u, p, h, k1):
    """One Dormand-Prince 5(4) step of every trial, component-major: x and
    its first stage k1: (n, N), steps h: (N,).

    Returns the fifth-order state, its difference to the embedded
    fourth-order one, the stages h k_j: (7, n, N), the monitors at the new
    state, the last stage (f at the new state, the next step's first
    stage) and, per trial, whether every stage is finite.
    """
    K = np.empty((7,) + x.shape)  # h k_j, stage by stage
    np.multiply(k1, h, out=K[0])
    finite = np.isfinite(k1).all(axis=0)
    for s in range(1, 7):
        xs = x + np.add.reduce(_DP_A[s, :s] * K[:s], axis=0)
        if s < 6:
            k = rhs(xs.T, u, p).T
        else:  # the monitors and the last stage from one evaluation
            rho = rhs.fields.evaluate(xs.T, p)
            k = rhs.fields.combine(u).T
        finite &= np.isfinite(k).all(axis=0)
        np.multiply(k, h, out=K[s])
    return xs, np.add.reduce(_DP_E * K, axis=0), K, rho, k, finite


def _dense(x, x_new, K, theta):
    """The fourth-order continuous extension of one Dormand-Prince step
    from x to x_new: (n,) with stages K = h k_j: (7, n), at the fractions
    theta of the step, as (len(theta), n) (Hairer, Norsett & Wanner,
    Solving ODEs I, II.6)."""
    d = x_new - x
    b = K[0] - d
    c = d - K[6] - b
    s = theta[:, None]
    return x + s * (d + (1 - s) * (b + s * (c + (1 - s) * (_DP_D @ K))))


def _dp_sweep(rhs, x, p, ends, controls, h):
    """Error-controlled Dormand-Prince 5(4) integration of every trial of x:
    (n, N), component-major.  Trial i applies controls[i, k]: (m,) until
    time ends[i, k]; its last end is the horizon.

    Each trial has its own time and step, starting at h.  A step is clipped
    so that it lands exactly on the trial's next switch or on the horizon,
    and it is accepted when every stage is finite and the RMS over
    components of err / (ATOL + RTOL max(|x|, |x_new|)) is at most 1; the
    next step is scaled by clip(0.9 RMS^(-1/5), 0.2, 5), and after a clipped
    accepted step it is at least the step proposed before the clip.

    Yields (trials, t, accepted, finite, step, monitors) for the start, then
    after every attempted step: each column's trial, time, whether its step
    was accepted and whether its stages were finite, the step (x, x_new,
    stages h k_j) and the monitors at x_new (the last two count only where
    accepted).  A trial leaves the batch at its horizon or after a
    non-finite stage.  Raises StepSingular when a trial is short of the
    horizon after max(MIN_BUDGET, round(horizon / h)) attempted steps.
    """
    fields = rhs.fields
    budget = max(MIN_BUDGET, round(float(ends[:, -1].max()) / h))
    trials = np.arange(x.shape[1])
    horizon = ends[:, -1]
    piece = np.zeros(len(trials), dtype=int)
    t = np.zeros(len(trials))
    h = np.full(len(trials), h)
    u = controls[:, 0]
    finite = np.ones(len(trials), dtype=bool)
    yield trials, t, finite, finite, (x, x, None), fields.evaluate(x.T, p)
    k1 = fields.combine(u).T
    for _ in range(budget):
        live = (t < horizon) & finite
        if not live.any():
            return
        # numpy sums the components of a lone column pairwise (n >= 8), not
        # in order as across a wider block: one finished trial, which takes
        # steps of 0, stays beside the last live one
        if np.count_nonzero(live) == 1:
            live[np.argmin(live | ~finite)] = True
        if not live.all():
            x, k1 = x[:, live], k1[:, live]
            trials, horizon, piece, t, h, u, p = (
                a[live] for a in (trials, horizon, piece, t, h, u, p))
        stop = ends[trials, piece]
        lands = t + h >= stop
        t_new = np.where(lands, stop, t + h)
        step = t_new - t  # 0 once a trial is at its horizon
        x_new, err, K, rho, k_new, finite = _dp_step(rhs, x, u, p, step, k1)
        scale = ATOL + RTOL * np.maximum(np.abs(x), np.abs(x_new))
        e = np.sqrt(np.add.reduce(np.square(err / scale), axis=0) / len(x))
        e[np.isnan(e)] = np.inf
        accepted = (t < horizon) & (e <= 1.0) & finite
        proposed = step * np.clip(0.9 * e ** -0.2, 0.2, 5.0)
        h = np.where(accepted & lands, np.maximum(h, proposed), proposed)
        x_old, x = x, np.where(accepted, x_new, x)
        t = np.where(accepted, t_new, t)
        switched = accepted & lands & (t < horizon)
        if switched.any():  # the next piece's controls
            piece = piece + switched
            u = controls[trials, piece]
            k_new = fields.combine(u).T
        k1 = np.where(accepted, k_new, k1)
        yield trials, t, accepted, finite, (x_old, x_new, K), rho
    if np.any((t < horizon) & finite):
        raise StepSingular(f"error-controlled steps fell short of the "
                           f"horizon within the budget of {budget} steps")


def invariance_test(sys: ControlAffineSystem, rhos, trials=100, pieces=10,
                    horizon=5.0, h=1e-3, seed=42) -> InvarianceVerdict:
    """Monte-Carlo invariance check of the zero locus of field elements rhos.

    Starts on {rho = 0}, applies random piecewise-constant controls, and
    holds iff every trial keeps max |rho| below 1e-6 * (1 + arc length).
    All trials integrate in one batched error-controlled Dormand-Prince
    5(4) sweep (see `_dp_sweep`), h each trial's first step; a non-finite
    stage ends the sweep with an entry in `errors`.
    """
    require_integer(trials=trials, pieces=pieces)
    require_positive(trials=trials, pieces=pieces, horizon=horizon, h=h)
    require_count(seed=seed)
    ctx = sys.ctx
    rng = np.random.default_rng(seed)
    starts = zero_locus_points(rhos, ctx, rng, count=trials)

    x = np.array([[pt[v] for v in ctx.states] for pt in starts]).T.copy()
    p = np.array([[pt[q] for q in ctx.params] for pt in starts],
                 dtype=float).reshape(trials, len(ctx.params))
    # each trial's pieces - 1 switch times, then its controls, drawn as
    # rng.uniform(lo, hi) draws them: lo + (hi - lo) u
    draws = rng.random((trials, pieces - 1 + pieces * sys.m))
    cuts = np.sort(horizon * draws[:, :pieces - 1], axis=1)
    durations = np.maximum(np.diff(cuts, prepend=0.0, append=horizon), 1e-6)
    controls = (2.0 * draws[:, pieces - 1:] - 1.0).reshape(trials, pieces,
                                                            sys.m)
    del draws, cuts  # not held through the sweep
    ends = np.minimum(np.cumsum(durations, axis=1), horizon)
    ends[:, -1] = horizon
    rhs = rhs_function(sys, rhos)
    max_rho = np.zeros(trials)
    arclen = np.zeros(trials)
    errors = []
    with np.errstate(all="ignore"):
        try:
            for i, _, accepted, finite, (x_old, x_new, _), rho in _dp_sweep(
                    rhs, x, p, ends, controls, h):
                if not finite.all():
                    errors.append(_NON_FINITE)
                    break
                chord = x_new - x_old
                arclen[i] += np.where(accepted, np.sqrt(
                    np.add.reduce(chord * chord, axis=0)), 0.0)
                max_rho[i] = np.maximum(max_rho[i], np.where(
                    accepted, np.maximum.reduce(np.abs(rho), axis=0), 0.0))
        except StepSingular as e:
            errors.append(str(e))
    tols = INV_TOL_BASE * (1.0 + arclen)
    # an arc length that overflowed gives no bound at all
    held = bool(np.all(max_rho < tols) and np.all(np.isfinite(tols))) \
        and not errors
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

    Integrates the 2m+1 axis controls {0, +-e_j} and random ones from each
    of several zero-locus starts as one-piece trials of the Dormand-Prince
    sweep (see `_dp_sweep`), h their first step.  Returns (schedule, time,
    value) at the end of the first accepted step, in sweep order, whose
    max |rho| exceeds the threshold, or None when no trial gets there within
    the sweep's budget.  A trial with a non-finite stage drops out.
    """
    require_integer(starts=starts)
    require_positive(horizon=horizon, h=h, starts=starts, threshold=threshold)
    require_count(seed=seed, random_controls=random_controls)
    ctx = sys.ctx
    rng = np.random.default_rng(seed)
    pts = zero_locus_points(rhos, ctx, rng, count=starts)
    m = sys.m
    # the axis controls 0, e_1, -e_1, ..., e_m, -e_m, then random ones
    controls = [np.zeros(m)] + [s * e for e in np.eye(m) for s in (1.0, -1.0)]
    controls += list(rng.uniform(-1, 1, size=(random_controls, m)))
    # one trial per (start, control)
    x = np.array([[pt[v] for v in ctx.states] for pt in pts
                  for _ in controls]).T.copy()
    p = np.array([[pt[q] for q in ctx.params] for pt in pts for _ in controls],
                 dtype=float).reshape(x.shape[1], len(ctx.params))
    u = np.array(controls * len(pts))[:, None]
    ends = np.full((len(u), 1), float(horizon))
    sweep = _dp_sweep(rhs_function(sys, rhos), x, p, ends, u, h)
    with np.errstate(all="ignore"):
        next(sweep)  # the starts, on the locus
        try:
            for trials, t, accepted, _, _, rho in sweep:
                value = np.maximum.reduce(np.abs(rho), axis=0)
                hit = np.flatnonzero(accepted & (value > threshold))
                if hit.size:
                    j = hit[0]
                    uc = controls[trials[j] % len(controls)]
                    sched = ((horizon, tuple(map(float, uc))),)
                    return (ControlSchedule(sched), float(t[j]),
                            float(value[j]))
        except StepSingular:  # the budget ran out
            pass
    return None


# --- Lie brackets and rank checks -------------------------------------------

def lie_bracket(X, Y, ctx: SymbolContext):
    """[X, Y]_i = sum_k (X_k dY_i/dx_k - Y_k dX_i/dx_k) on ctx.field rows."""
    out = []
    for i in range(len(ctx.states)):
        total = ctx.field.zero
        for k, v in enumerate(ctx.states):
            if X[k]:
                total += X[k] * differentiate(Y[i], v, ctx)
            if Y[k]:
                total -= Y[k] * differentiate(X[i], v, ctx)
        out.append(reduce_fraction(total))
    return tuple(out)


def iterated_brackets(fields, ctx, depth=BRACKET_DEPTH):
    """Nonzero left iterated brackets [X_{i1},[...,[X_{ik-1}, X_{ik}]...]]
    of ctx.field rows to depth."""
    layers = [list(fields)]
    for _ in range(1, depth):
        new = []
        for Y in layers[-1]:
            for X in fields:
                br = lie_bracket(X, Y, ctx)
                if any(br):
                    new.append(br)
        if not new:
            break
        layers.append(new)
    return [F for layer in layers for F in layer]


def svd_rank(vectors):
    """Numeric rank of a list of row vectors, relative to the largest one."""
    sv = np.linalg.svd(np.array(vectors), compute_uv=False)
    scale = max(1.0, sv[0]) if sv.size else 1.0
    return int(np.sum(sv > SV_RANK_TOL * scale))


def matrix_at(rows, ctx):
    """The values of ctx.field rows at a point (symbol -> value) as a
    matrix, a function taking every entry by one kernel."""
    values, = kernels([[c for F in rows for c in F]], ctx)
    return lambda point: np.reshape(values(
        [float(point[s]) for s in ctx.symbols]), (len(rows), -1))


def bracket_rank(fields, point, ctx, depth=BRACKET_DEPTH):
    """Numeric rank at a point of the iterated brackets up to given depth."""
    return svd_rank(matrix_at(iterated_brackets(fields, ctx, depth=depth),
                              ctx)(point))


def leaf_controllability(sys: ControlAffineSystem, rhos, leaf_dim, seed=42,
                         points=5):
    """Rashevsky-Chow check restricted to a leaf {rho = const}.

    At sampled leaf points: all iterated g-brackets must be tangent to the
    leaf (gradient pairing below tolerance) and their rank must reach the
    leaf dimension.
    """
    ctx = sys.ctx
    pts = zero_locus_points(rhos, ctx, np.random.default_rng(seed + 7),
                            count=points)
    rows = iterated_brackets(sys.field_rows[1:], ctx)
    count = len(rows)
    rows += [gradient(r, ctx) for r in rhos]
    values = matrix_at(rows, ctx)
    ranks = []
    tangent = True
    for pt in pts:
        vecs, gvals = np.split(values(pt), [count])
        for v in vecs:
            for gval in gvals:
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
