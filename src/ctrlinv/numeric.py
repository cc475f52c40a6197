"""Numeric evidence: simulation under piecewise-constant controls,
invariance testing and escape testing, all on one error-controlled
Dormand-Prince sweep, then Lie brackets and bracket-rank checks.  Loci,
monitors and field rows are ctx.field elements, evaluated by the array form
of `expr.kernels`: one compile per system and monitor list gives the stage
kernel, which writes each stage's f + sum_j g_j u_j, and the monitor kernel,
which the sweep calls only where it reads the monitors (at the start and at
the new state of each attempted step).  Brackets are made layer by layer,
and the leaf check makes only the layers its rank needs."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dsl import ControlAffineSystem, ControlSchedule
from .errors import DomainExit, EvalSingular, StepSingular
from .expr import (SymbolContext, differentiate, from_field, kernels,
                   reduce_fraction)
from .flag import certification_points, exact_rank
from .sampling import CONSTRAINT_MARGIN, exact_leaf_points, zero_locus_points

# depth of the iterated Lie brackets behind every bracket-rank check
BRACKET_DEPTH = 4
INV_TOL_BASE = 1e-6
# relative and absolute error tolerance of the invariance test's steps
RTOL = 1e-10
ATOL = 1e-12
# fewest attempted steps the invariance test is given, whatever its step
MIN_BUDGET = 100
# attempted steps per unit of time simulate is given, whatever its grid
SIMULATE_STEPS_PER_UNIT = 1000
# the first step of escape_test
ESCAPE_STEP = 1e-2
# the max |rho| at which escape_test counts a trial as having left the locus
ESCAPE_THRESHOLD = 0.1

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


def rhs_function(sys: ControlAffineSystem, monitors=()):
    """Batched right-hand side f(x) + sum_j g_j(x) u_j, by the stage kernel
    of `expr.kernels`.

    Returned callable maps (x: (N, n), u: (N, m), params: (N, k)) to (N, n),
    written into `out` when one is given, leaving floating-point errors to
    the caller's `np.errstate` and non-finite values in place.  The kernel
    reads one row per component, so it runs fastest on transposes of
    C-ordered arrays, as the sweep passes them.  Its `monitors(x, p)`, from
    the same compile, returns the monitor rows at x and p as (monitors, N).
    """
    stage, fill = kernels([list(monitors)], sys.ctx, "array",
                          field=(sys.drift, *sys.controls))

    def rhs(x, u, p, out=None):
        if out is None:
            out = np.empty(x.shape[::-1]).T
        stage(x.T, p.T, u.T, out.T)
        return out

    def values(x, p):
        return fill(x.T, p.T, np.empty((len(monitors), len(x))))

    rhs.monitors = values
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


def require_steps(horizon, *steps):
    """Raise ValueError when horizon / h is beyond the float range for one
    of the first steps h: a step budget or an output grid counts that many
    steps."""
    for h in steps:
        if not math.isfinite(horizon / h):
            raise ValueError(f"horizon {horizon:g} over step {h:g} is beyond "
                             "the float range")


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
    1e-9 h of a switch or of the horizon counts as reaching it.  The sweep's
    budget is SIMULATE_STEPS_PER_UNIT attempted steps per unit of the
    horizon, or one per grid interval on a finer grid, and at least
    MIN_BUDGET: the error-controlled steps do not follow the grid.
    """
    require_positive(step=h)
    if schedule.pieces and h > schedule.horizon:
        raise ValueError("step must not exceed the schedule's horizon "
                         f"{schedule.horizon:g}")
    require_steps(schedule.horizon, h, 1 / SIMULATE_STEPS_PER_UNIT)
    ctx = sys.ctx
    param_values = dict(param_values or {})
    missing = [p for p in ctx.params if p not in param_values]
    if missing:
        raise EvalSingular(f"no parameter values for {missing}")
    rhs = rhs_function(sys, ctx.nonzero)
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
        sweep = _dp_sweep(rhs, xs[:1].T.copy(), p, ends, controls, h,
                          max(MIN_BUDGET, round(horizon * max(
                              1 / h, SIMULATE_STEPS_PER_UNIT))))
        *_, prev = next(sweep)
        for c, value in zip(ctx.nonzero, prev[:, 0]):
            if not CONSTRAINT_MARGIN < abs(value) < math.inf:
                raise DomainExit(
                    "initial point violates nonzero constraint "
                    f"{from_field(c)}")
        i, t_prev = 1, 0.0
        for _, (t,), (accepted,), (finite,), (x, x_new, K), cur in sweep:
            if not finite:
                raise StepSingular(_NON_FINITE)
            if not accepted:
                continue
            if ctx.nonzero and (np.any(np.abs(cur) < 1e-9)
                                or np.any(cur * prev < 0)):
                raise DomainExit("declared-nonzero constraint crossed zero "
                                 f"at t = {t:.6g}")
            prev = cur
            j = np.searchsorted(times, t, side="right")
            xs[i:j] = _dense(x[:, 0], x_new[:, 0], K[:, :, 0],
                             (times[i:j] - t_prev) / (t - t_prev))
            i, t_prev = j, t
        rho_values = {}
        if monitors:  # one batched evaluation over the whole grid
            fill, = kernels([list(monitors.values())], ctx, "array")
            rho_values = dict(zip(monitors, fill(
                xs.T, np.repeat(p.T, len(xs), axis=1),
                np.empty((len(monitors), len(xs))))))
    piece = np.searchsorted(ends[0], times[:-1] + 1e-9 * h, side="right")
    return Trajectory(times=times, states=xs, controls=controls[0, piece],
                      schedule=schedule, rho_values=rho_values)


def _dp_step(rhs, x, u, p, h, k, K):
    """One Dormand-Prince 5(4) step of every trial, component-major: x: (n, N)
    and its stages k: (7, n, N), whose first holds k_1, under u: (N, m) and
    p: (N, k) with steps h: (N,).  The stage kernel writes k_2 ... k_7 into
    k; k_7 is f at the new state, the next step's first stage.

    Returns the fifth-order state, its difference to the embedded
    fourth-order one, the stages h k_j: (7, n, N), written into K, the
    monitors at the new state and, per trial, whether every k_j and the new
    state are finite.  The k_j are tested, not h k_j, which may overflow
    where k_j does not.
    """
    np.multiply(k[0], h, out=K[0])
    for s in range(1, 7):
        xs = x + np.add.reduce(_DP_A[s, :s] * K[:s], axis=0)
        rhs(xs.T, u, p, out=k[s].T)
        np.multiply(k[s], h, out=K[s])
    # finite stages may overflow the new state
    finite = np.isfinite(k).all(axis=(0, 1)) & np.isfinite(xs).all(axis=0)
    return (xs, np.add.reduce(_DP_E * K, axis=0), K, rhs.monitors(xs.T, p),
            finite)


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


def _dp_sweep(rhs, x, p, ends, controls, h, budget=None):
    """Error-controlled Dormand-Prince 5(4) integration of every trial of x:
    (n, N), component-major.  Trial i applies controls[i, k]: (m,) until
    time ends[i, k]; its last end is the horizon.

    Each trial has its own time and step, starting at h.  A step is clipped
    so that it lands exactly on the trial's next switch or on the horizon,
    and it is accepted when every stage and x_new are finite and the RMS
    over components of err / (ATOL + RTOL max(|x|, |x_new|)) is at most 1;
    the next step is scaled by clip(0.9 RMS^(-1/5), 0.2, 5), and after a
    clipped accepted step it is at least the step proposed before the clip.

    Yields (trials, t, accepted, finite, step, monitors) for the start, then
    after every attempted step: each column's trial, time, whether its step
    was accepted and whether its stages and x_new were finite, the step
    (x, x_new, stages h k_j) and the monitors at x_new (the last two count
    only where accepted, and the stages only until the next step).  A trial
    leaves the batch at its horizon or after a non-finite step.  Raises
    StepSingular when a trial is short of the horizon after `budget`
    attempted steps, by default max(MIN_BUDGET, round(horizon / h)).
    """
    if budget is None:
        budget = max(MIN_BUDGET, round(float(ends[:, -1].max()) / h))
    trials = np.arange(x.shape[1])
    horizon = ends[:, -1]
    piece = np.zeros(len(trials), dtype=int)
    stop = ends[:, 0]  # each trial's next switch or its horizon
    t = np.zeros(len(trials))
    h = np.full(len(trials), h)
    # the controls and parameters component-major, as the kernels read
    # them, copied only when the batch or its controls change
    u, p = np.ascontiguousarray(controls[:, 0].T), np.ascontiguousarray(p.T)
    finite = np.ones(len(trials), dtype=bool)
    ahead = t < horizon
    yield trials, t, finite, finite, (x, x, None), rhs.monitors(x.T, p.T)
    k = np.empty((7,) + x.shape)  # the stages, k[0] the next step's first
    K = np.empty(k.shape)  # h k_j
    rhs(x.T, u.T, p.T, out=k[0].T)
    for _ in range(budget):
        live = ahead & finite
        alive = np.count_nonzero(live)
        if not alive:
            return
        # numpy sums the components of a lone column pairwise (n >= 8), not
        # in order as across a wider block: one finished trial, which takes
        # steps of 0, stays beside the last live one
        if alive == 1:
            j = np.argmin(live | ~finite)
            alive += not live[j]
            live[j] = True
        if alive < len(live):
            x = x[:, live]
            # compress, unlike x[:, live], keeps the rows C-ordered
            k, u, p = (a.compress(live, axis=-1) for a in (k, u, p))
            K = np.empty(k.shape)
            trials, horizon, piece, stop, t, h, ahead = (
                a[live] for a in (trials, horizon, piece, stop, t, h, ahead))
        t_next = t + h
        lands = t_next >= stop
        t_new = np.where(lands, stop, t_next)
        step = t_new - t  # 0 once a trial is at its horizon
        x_new, err, K, rho, finite = _dp_step(rhs, x, u.T, p.T, step, k, K)
        scale = ATOL + RTOL * np.maximum(np.abs(x), np.abs(x_new))
        e = np.sqrt(np.add.reduce(np.square(err / scale), axis=0) / len(x))
        e[np.isnan(e)] = np.inf
        accepted = ahead & (e <= 1.0) & finite
        proposed = step * np.clip(0.9 * e ** -0.2, 0.2, 5.0)
        h = np.where(accepted & lands, np.maximum(h, proposed), proposed)
        x_old, x = x, np.where(accepted, x_new, x)
        t = np.where(accepted, t_new, t)
        ahead = t < horizon
        switched = accepted & lands & ahead
        if switched.any():  # the next piece's controls
            piece = piece + switched
            stop = ends[trials, piece]
            u = np.ascontiguousarray(controls[trials, piece].T)
            rhs(x_new.T, u.T, p.T, out=k[6].T)
        np.copyto(k[0], k[6], where=accepted)
        yield trials, t, accepted, finite, (x_old, x_new, K), rho
    if np.any(ahead & finite):
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
    require_steps(horizon, h)
    require_count(seed=seed)
    ctx = sys.ctx
    rng = np.random.default_rng(seed)
    starts = zero_locus_points(rhos, ctx, rng, count=trials)
    x, p = starts[:, :sys.n].T.copy(), starts[:, sys.n:]
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
                if len(i) == trials:  # the whole batch: a view, not a copy
                    i = slice(None)
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
    per_trial = tuple(zip(max_rho.tolist(), arclen.tolist(), tols.tolist()))
    return InvarianceVerdict(
        verdict="Held" if held else "Violated",
        max_rho=float(np.max(max_rho)),
        tolerance=float(np.min(tols)),
        trials=per_trial, seed=seed, errors=tuple(errors))


def escape_test(sys: ControlAffineSystem, rhos, seed=42, horizon=5.0,
                h=ESCAPE_STEP, starts=20, random_controls=50):
    """Greedy search for a constant control leaving the zero locus of rhos.

    Integrates the 2m+1 axis controls {0, +-e_j} and random ones from each
    of several zero-locus starts as one-piece trials of the Dormand-Prince
    sweep (see `_dp_sweep`), h their first step.  Returns (schedule, time,
    value) at the end of the first accepted step, in sweep order, whose
    max |rho| exceeds ESCAPE_THRESHOLD, or None when no trial gets there within
    the sweep's budget.  A trial with a non-finite stage drops out.
    """
    require_integer(starts=starts)
    require_positive(horizon=horizon, h=h, starts=starts)
    require_steps(horizon, h)
    require_count(seed=seed, random_controls=random_controls)
    ctx = sys.ctx
    rng = np.random.default_rng(seed)
    pts = zero_locus_points(rhos, ctx, rng, count=starts)
    m = sys.m
    # the axis controls 0, e_1, -e_1, ..., e_m, -e_m, then random ones
    controls = [np.zeros(m)] + [s * e for e in np.eye(m) for s in (1.0, -1.0)]
    controls += list(rng.uniform(-1, 1, size=(random_controls, m)))
    # one trial per (start, control)
    rows = np.repeat(pts, len(controls), axis=0)
    x, p = rows[:, :sys.n].T.copy(), rows[:, sys.n:]
    u = np.tile(controls, (len(pts), 1))[:, None]
    ends = np.full((len(u), 1), float(horizon))
    sweep = _dp_sweep(rhs_function(sys, rhos), x, p, ends, u, h)
    with np.errstate(all="ignore"):
        next(sweep)  # the starts, on the locus
        try:
            for trials, t, accepted, _, _, rho in sweep:
                value = np.maximum.reduce(np.abs(rho), axis=0)
                hit = np.flatnonzero(accepted & (value > ESCAPE_THRESHOLD))
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
    """Layers k = 1..depth of the left iterated brackets
    [X_{i1},[...,[X_{ik-1}, X_{ik}]...]] of ctx.field rows, each made when
    it is read: the fields, then the nonzero brackets of each field with
    the layer before, until a layer is empty."""
    layer = list(fields)
    yield layer
    for _ in range(1, depth):
        new = []
        for Y in layer:
            for X in fields:
                br = lie_bracket(X, Y, ctx)
                if any(br):
                    new.append(br)
        if not new:
            return
        layer = new
        yield layer


def bracket_rank(layers, ctx):
    """Generic rank of layers of ctx.field rows, such as `iterated_brackets`,
    by `flag.exact_rank`; None when they have a pole at every point."""
    return exact_rank(layers, len(ctx.states),
                      certification_points(ctx.field))


def leaf_controllability(sys: ControlAffineSystem, rhos, leaf_dim):
    """Rashevsky-Chow check on the leaf {rho = 0} of an accepted entry: the
    iterated g-brackets' exact rank at `sampling.exact_leaf_points` must
    reach leaf_dim; a point reads their layers only until it does, so the
    brackets are made only as far as a point needs them.  With no rhos it
    is their generic rank, their rank on a generic leaf of a foliation they
    are tangent to; None with no point."""
    fields = sys.controls
    # brackets bring in no sin, cos pair the fields lack: the same points
    rank = exact_rank(iterated_brackets(fields, sys.ctx), leaf_dim,
                      exact_leaf_points(rhos, fields, sys.ctx))
    return {
        "leaf_dimension": leaf_dim,
        "bracket_rank": rank,
        # every accepted entry's membership certificate puts each g_j(rho)
        # in (rho), so the g_j and their brackets are tangent to the leaf
        "tangent": True,
        "controllable_on_leaf": None if rank is None else rank >= leaf_dim,
    }
