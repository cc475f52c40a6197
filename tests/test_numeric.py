import gc
import math
import random
import types
import weakref

import numpy as np
import pytest
import sympy as sp

import ctrlinv.expr as expr_module
import ctrlinv.integrals as integrals_module
import ctrlinv.numeric as numeric_module
import ctrlinv.sampling as sampling_module
from ctrlinv.dsl import ControlAffineSystem, ControlSchedule, parse_system
from ctrlinv.errors import (
    CtrlInvError,
    DomainExit,
    EvalSingular,
    SamplingFailed,
    StepSingular,
)
from ctrlinv.expr import (
    SymbolContext,
    from_field,
    gradient,
    kernels,
    normalize,
    sample_params,
    to_field,
)
from ctrlinv.flag import exact_rank
from ctrlinv.integrals import analyze
from ctrlinv.numeric import (
    BRACKET_DEPTH,
    INV_TOL_BASE,
    InvarianceVerdict,
    Trajectory,
    bracket_rank,
    escape_test,
    invariance_test,
    iterated_brackets,
    leaf_controllability,
    lie_bracket,
    rhs_function,
    simulate,
)
from ctrlinv.sampling import (
    CONSTRAINT_MARGIN,
    exact_leaf_points,
    zero_locus_points,
)

import corpus
from conftest import (context, elements, field_rows, load_system,
                      random_poly, system)
from test_golden import (
    CONFIG as GOLDEN_CONFIG,
    TRIG4,
    chained_text,
    poly_text,
)

x, y, z, w = sp.symbols("x y z w")
a, b = sp.symbols("a b")

CTX = SymbolContext(states=(x, y, z))


def arc_length(traj):
    return float(np.sum(np.linalg.norm(np.diff(traj.states, axis=0), axis=1)))


def per_field_rhs(sys, x, u, p):
    """f(x), then + g_j(x) u_j in order, one lambdified call per component."""
    args = list(sys.ctx.states) + list(sys.ctx.params)
    cols = [x[:, i] for i in range(x.shape[1])]
    cols += [p[:, i] for i in range(p.shape[1])]

    def field(F):
        return np.stack([np.broadcast_to(np.asarray(
            sp.lambdify(args, from_field(c), modules="numpy")(*cols),
            dtype=float), (len(x),)) for c in F], axis=1)

    with np.errstate(all="ignore"):
        out = field(sys.drift)
        for j, g in enumerate(sys.controls):
            out = out + field(g) * u[:, j:j + 1]
    return out


def random_batch(sys, rows, seed):
    rng = np.random.default_rng(seed)
    return (rng.uniform(-1, 1, size=(rows, sys.n)),
            rng.uniform(-1, 1, size=(rows, sys.m)),
            rng.uniform(0.5, 2, size=(rows, len(sys.ctx.params))))


# every component sums several nonzero terms, so the order of the control
# terms shows in the last bits
DENSE = ("states: x y\nparams: a\ndrift: [x*y + a, y^2]\n"
         "control g1: [sin(x), a*y]\ncontrol g2: [x^2, cos(y)]\n")

# cos(w) repeated inside multi-factor products, a power and a quotient, a
# whole row repeated, and a constant control g2; the loci's monitors share
# cos(w) with the rows
ZERO, ONE = sp.Integer(0), sp.Integer(1)
SHARED = system(
    SymbolContext(states=(x, y, z, w), params=(a, b)),
    drift=(a * b * sp.cos(w), y * z * sp.cos(w), ZERO, ONE),
    controls=((sp.cos(w) ** 2, sp.sin(w) / (2 + sp.cos(w)), y * z * sp.cos(w),
               ZERO),
              (ZERO, ZERO, ZERO, ONE)))


class TestFusedEvaluator:
    @pytest.mark.parametrize("name",
                             ["ex1", "ex2", "ex3", "ex4", "dense", "shared"])
    @pytest.mark.parametrize("rows", [0, 1, 100, 1000])
    def test_rhs_matches_per_field_reference(self, name, rows, request):
        sys = {"dense": parse_system(DENSE), "shared": SHARED}.get(name) \
            or request.getfixturevalue(name)
        x, u, p = random_batch(sys, rows, seed=rows)
        out = rhs_function(sys)(x, u, p)
        assert out.shape == (rows, sys.n)
        assert np.array_equal(out, per_field_rhs(sys, x, u, p))

    @pytest.mark.parametrize("name", ["units", "params", "singular",
                                      "overflow", "blowup"])
    @pytest.mark.parametrize("rows", [0, 1, 100, 1000])
    def test_stage_kernel_matches_per_field_reference(self, name, rows,
                                                      request):
        # zero entries dropped, entries 1 and -1 read as +u_j and -u_j,
        # constant and parameter-only entries, a pole of 1/x in the first
        # half of the rows, and controls of 3 that overflow OVERFLOW's
        # 1.5e308 in the first row
        sys = oracle_system(name, request)
        x, u, p = random_batch(sys, rows, seed=rows)
        x[:(rows + 1) // 2, 0] = 0.0
        u[:1] = 1.0
        rhs = rhs_function(sys)
        outs = []
        for us in (3 * u, -u):  # the same callable after a control switch
            with np.errstate(all="ignore"):
                outs.append(rhs(x, us, p))
            assert np.array_equal(outs[-1], per_field_rhs(sys, x, us, p),
                                  equal_nan=True)
        if rows and name in ("units", "singular", "overflow"):
            assert not np.isfinite(outs[0][0]).all()

    def test_monitor_constant_and_parameter_only(self, ex4):
        xs, _, ps = random_batch(ex4, 7, seed=1)
        vals = rhs_function(ex4, elements([3, a, b * x - a * z], ex4.ctx)) \
            .monitors(xs, ps).T
        assert vals.shape == (7, 3)
        assert np.array_equal(vals[:, 0], np.full(7, 3.0))
        assert np.array_equal(vals[:, 1], ps[:, 0])

    def test_singular_field_raises(self):
        # rhs leaves the non-finite value in place; the sweep accepts no
        # step with it and marks the trial, and simulate raises on the mark
        sys = parse_system(SINGULAR)
        with np.errstate(divide="ignore"):
            out = rhs_function(sys)(np.zeros((1, 1)), np.ones((1, 1)),
                                    np.zeros((1, 0)))
        assert not np.isfinite(out).any()
        _, t, accepted, finite, _, _ = first_step(sys, [[0.0], [1.0]],
                                                  [[1.0], [1.0]])
        assert list(finite) == [False, True]
        assert list(accepted) == [False, True] and t[0] == 0.0
        with pytest.raises(StepSingular, match="^vector field evaluation "
                                               "produced non-finite values$"):
            simulate(sys, [0.0], ControlSchedule(((1.0, (1.0,)),)), h=1e-2)

    @pytest.mark.parametrize("seed", range(20))
    def test_generated_rows_match_lambdify(self, seed):
        # rows and monitors drawn from a pool of overlapping subexpressions:
        # calls, products, powers and quotients.  The kernel sums each
        # field element's expanded terms, lambdify the drawn expression as
        # written, so the two agree to rounding: every term is O(1)
        rng = random.Random(seed)
        pool = [sp.cos(w), sp.sin(w), x * y, sp.cos(w) ** 2, a * sp.cos(w),
                sp.sin(w) / (2 + sp.cos(w)), 1 / (1 + x**2), x * y * sp.cos(w),
                -x * z, sp.cos(y), a**2, ONE]

        def draw():
            e = ZERO
            for _ in range(rng.randint(1, 3)):
                e += sp.Mul(*rng.sample(pool, rng.randint(1, 3)))
            return e

        ctx = SymbolContext(states=(x, y, z, w), params=(a,))
        sys = system(
            ctx, drift=[draw() for _ in range(4)],
            controls=[[draw() for _ in range(4)] for _ in range(2)])
        monitors = [draw() for _ in range(3)]
        xs, us, ps = random_batch(sys, 50, seed=seed)
        rhs = rhs_function(sys, elements(monitors, ctx))
        assert np.allclose(rhs(xs, us, ps), per_field_rhs(sys, xs, us, ps),
                           rtol=1e-12, atol=1e-12)
        want = sp.lambdify(list(ctx.states) + list(ctx.params), monitors,
                           "numpy")(*xs.T, *ps.T)
        got = rhs.monitors(xs, ps)
        for row, vals in zip(got, want):
            assert np.allclose(row, np.broadcast_to(vals, row.shape),
                               rtol=1e-12, atol=1e-12)

    def test_control_switch_updates_held_products(self, ex3):
        # g2 = [0, 0, 0, 1] has no state: a product g2 u2 cached between
        # calls would miss the switch
        rhs = rhs_function(ex3)
        xs, us, ps = random_batch(ex3, 6, seed=3)
        rhs(xs, us, ps)
        switched = us.copy()
        switched[:, 1] = -us[:, 1]
        assert np.array_equal(rhs(xs, switched, ps),
                              per_field_rhs(ex3, xs, switched, ps))

    def test_control_changed_in_place(self, ex3):
        # the same control array, its values changed between two calls
        rhs = rhs_function(ex3)
        xs, us, ps = random_batch(ex3, 6, seed=4)
        rhs(xs, us, ps)
        us[:, 1] = -us[:, 1]
        assert np.array_equal(rhs(xs, us, ps), per_field_rhs(ex3, xs, us, ps))

    def test_parameters_changed_in_place(self):
        # PARAM_ROWS' drift row `a` has no state symbol
        sys = parse_system(PARAM_ROWS)
        rhs = rhs_function(sys)
        xs, us, ps = random_batch(sys, 6, seed=5)
        rhs(xs, us, ps)
        ps *= 3.0
        assert np.array_equal(rhs(xs, us, ps), per_field_rhs(sys, xs, us, ps))

    @pytest.mark.parametrize("name", ["params", "dense", "shared"])
    def test_one_callable_across_batch_sizes(self, name, request):
        # one callable for every N, into a fresh array or a given one, in
        # either layout, its monitors called in between
        sys = oracle_system(name, request)
        rhs = rhs_function(sys, elements([x], sys.ctx))
        for seed, rows in enumerate([1000, 1, 0, 100, 100, 1]):
            xs, us, ps = random_batch(sys, rows, seed=seed)
            want = per_field_rhs(sys, xs, us, ps)
            assert np.array_equal(rhs(xs, us, ps), want)
            assert np.array_equal(rhs.monitors(xs, ps), xs.T[:1])
            for out in (np.empty((rows, sys.n)), np.empty((sys.n, rows)).T):
                assert rhs(xs, -us, ps, out=out) is out
                assert np.array_equal(out, per_field_rhs(sys, xs, -us, ps))


    def test_kernel_freed_without_cyclic_collector(self, ex4, monkeypatch):
        # the generated stage and monitor kernels are freed with their
        # right-hand side, not by gc
        real = numeric_module.kernels
        made = []

        def recording_kernels(*args, **kwargs):
            fills = real(*args, **kwargs)
            made.extend(map(weakref.ref, fills))
            return fills

        monkeypatch.setattr(numeric_module, "kernels", recording_kernels)
        gc.disable()
        try:
            rhs = rhs_function(ex4, elements([x], ex4.ctx))
            assert len(made) == 2
            del rhs
            assert [ref() for ref in made] == [None, None]
        finally:
            gc.enable()


class TestSimulate:
    def test_constant_field_exact(self):
        sys = parse_system("states: x y\ncontrol g1: [1, 2]\n")
        sched = ControlSchedule(((1.0, (1.0,)),))
        traj = simulate(sys, [0.0, 0.0], sched, h=1e-2)
        assert traj.states[-1] == pytest.approx([1.0, 2.0], abs=1e-12)
        assert arc_length(traj) == pytest.approx(math.sqrt(5), rel=1e-9)

    def test_rotation_field(self):
        # dx/dt = -y, dy/dt = x with u = 1: rotation by the elapsed time
        sys = parse_system("states: x y\ncontrol g1: [-y, x]\n")
        sched = ControlSchedule(((math.pi / 2, (1.0,)),))
        traj = simulate(sys, [1.0, 0.0], sched, h=1e-3)
        assert traj.times[-1] == math.pi / 2  # the horizon, off the grid
        assert traj.states[-1] == pytest.approx([0.0, 1.0], abs=1e-9)

    @pytest.mark.parametrize("h", [0.1, 0.05, 0.013, 1e-3])
    def test_grid_matches_closed_form(self, h):
        # rotation by the elapsed time: every grid row, read from the
        # continuous extension, and the row at the horizon
        sys = parse_system("states: x y\ncontrol g1: [-y, x]\n")
        traj = simulate(sys, [1.0, 0.0], ControlSchedule(((1.0, (1.0,)),)),
                        h=h)
        want = np.arange(math.ceil(1 / h)) * h
        assert np.array_equal(traj.times, np.append(want, 1.0))
        assert np.abs(traj.states - np.column_stack(
            [np.cos(traj.times), np.sin(traj.times)])).max() < 1e-8

    def test_piecewise_switching(self):
        sys = parse_system("states: x y\ncontrol g1: [1, 0]\ncontrol g2: [0, 1]\n")
        sched = ControlSchedule(((0.5, (1.0, 0.0)), (0.5, (0.0, 1.0))))
        traj = simulate(sys, [0.0, 0.0], sched, h=1e-3)
        assert traj.states[-1] == pytest.approx([0.5, 0.5], abs=1e-9)
        # control recorded per step
        assert traj.controls[0] == pytest.approx([1.0, 0.0])
        assert traj.controls[-1] == pytest.approx([0.0, 1.0])

    def test_monitor_values(self, ex1):
        sched = ControlSchedule(((1.0, (1.0, 0.0)),))
        traj = simulate(ex1, [0.0, 1.0, 0.0], sched, h=1e-2,
                        monitors={"rho1": to_field(z, ex1.ctx)})
        assert np.max(np.abs(traj.rho_values["rho1"])) < 1e-9

    def test_empty_schedule(self):
        sys = parse_system("states: x y\ncontrol g1: [1, 0]\n")
        traj = simulate(sys, [2.0, 3.0], ControlSchedule(()), h=1e-2)
        assert traj.states.shape == (1, 2)
        assert arc_length(traj) == 0.0

    def test_overflowing_state_raises(self):
        # every stage of x' = 1.5e308 is finite, but the second step of 0.5
        # carries x past the double range: once written as -inf, then nan
        sys = parse_system(OVERFLOW)
        with pytest.raises(StepSingular, match="^vector field evaluation "
                                               "produced non-finite values$"):
            simulate(sys, [0.0, 0.0], ControlSchedule(((2.0, (1.0, 0.0)),)),
                     h=0.5)

    def test_missing_params(self, ex3):
        with pytest.raises(EvalSingular):
            simulate(ex3, [0, 0, 0, 0], ControlSchedule(((1.0, (1.0, 0.0)),)))

    def test_domain_exit_on_constraint(self, ex3):
        # w starts at 0 and u2 = 1 drives cos(w) through zero at w = pi/2
        sched = ControlSchedule(((2.0, (0.0, 1.0)),))
        with pytest.raises(DomainExit):
            simulate(ex3, [0, 0, 0, 0.0], sched, h=1e-3,
                     param_values={a: 1.0, b: 1.0})

    def test_csv_output(self):
        sys = parse_system("states: x y\ncontrol g1: [1, 0]\n")
        traj = simulate(sys, [0.0, 0.0],
                        ControlSchedule(((0.01, (1.0,)),)), h=1e-2,
                        monitors={"rho1": to_field(x, sys.ctx)})
        csv = traj.to_csv(["x", "y"], 1, ["rho1"])
        lines = csv.strip().splitlines()
        assert lines[0] == "t,x,y,u1,rho1"
        assert len(lines) == 3


class TestNumericSettings:
    """A setting that cannot define a run is a ValueError naming it."""

    @pytest.mark.parametrize("field, value", [
        ("trials", 0), ("trials", -3), ("pieces", 0), ("horizon", 0.0),
        ("horizon", math.inf), ("h", -1.0), ("h", math.nan), ("h", 0.0)])
    def test_invariance_test_rejects(self, ex1, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be positive"):
            invariance_test(ex1, [z], **{"trials": 3, "pieces": 2,
                                         "horizon": 0.1, field: value})

    @pytest.mark.parametrize("field, value", [
        ("horizon", -1.0), ("horizon", math.nan)])
    def test_escape_test_rejects(self, ex1, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be positive"):
            escape_test(ex1, [z], **{"horizon": 0.1, field: value})

    def test_ratio_beyond_float_range_rejected(self, ex1):
        # once an OverflowError from the default step budget
        with pytest.raises(ValueError, match="beyond the float range"):
            invariance_test(ex1, [z], trials=3, pieces=2, horizon=1e308)
        with pytest.raises(ValueError, match="beyond the float range"):
            escape_test(ex1, [z], horizon=1e307)

    @pytest.mark.parametrize("field, value, message", [
        ("trials", 2.5, "an integer"), ("trials", True, "an integer"),
        ("pieces", 1.5, "an integer"), ("seed", -1, "non-negative"),
        ("seed", 1.5, "an integer")])
    def test_invariance_test_rejects_count(self, ex1, field, value, message):
        with pytest.raises(ValueError, match=f"^{field} must be {message}"):
            invariance_test(ex1, [z], **{"trials": 3, "pieces": 2,
                                         "horizon": 0.1, field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("seed", -1, "non-negative"), ("seed", 1.5, "an integer")])
    def test_escape_test_rejects_count(self, ex1, field, value, message):
        with pytest.raises(ValueError, match=f"^{field} must be {message}"):
            escape_test(ex1, [z], **{"horizon": 0.1, field: value})

    @pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf])
    def test_simulate_rejects_step(self, ex1, h):
        with pytest.raises(ValueError, match="^step must be positive"):
            simulate(ex1, [0.0, 1.0, 0.0],
                     ControlSchedule(((0.1, (1.0, 0.0)),)), h=h)

    def test_simulate_rejects_step_past_horizon(self, ex1):
        # a step of 1 would write a row at t = 1 for a 0.1 s schedule
        with pytest.raises(ValueError, match="^step must not exceed"):
            simulate(ex1, [0.0, 1.0, 0.0],
                     ControlSchedule(((0.1, (1.0, 0.0)),)), h=1.0)

    @pytest.mark.parametrize("horizon, h", [(1e308, 1e-3), (1e306, 1e305)])
    def test_simulate_rejects_ratio_beyond_float_range(self, ex1, horizon, h):
        # once an OverflowError from the grid or from the budget of 1000
        # steps per unit of horizon
        with pytest.raises(ValueError, match="beyond the float range"):
            simulate(ex1, [0.0, 1.0, 0.0],
                     ControlSchedule(((horizon, (1.0, 0.0)),)), h=h)


def recording_sweep(monkeypatch):
    """Replace `_dp_sweep` by a wrapper; returns the list that collects its
    arguments and then every item it yields."""
    real = numeric_module._dp_sweep
    seen = []

    def sweep(*args):
        seen.append(args)
        for item in real(*args):
            seen.append(item)
            yield item

    monkeypatch.setattr(numeric_module, "_dp_sweep", sweep)
    return seen


def first_step(sys, x0, u, h=1e-2):
    """The sweep's first attempted step from the states x0: (N, n) under
    the constant controls u: (N, m), to the horizon 1."""
    x0, u = np.array(x0, dtype=float), np.array(u, dtype=float)
    sweep = numeric_module._dp_sweep(
        rhs_function(sys), x0.T.copy(), np.zeros((len(x0), 0)),
        np.ones((len(x0), 1)), u[:, None], h)
    with np.errstate(all="ignore"):
        next(sweep)
        return next(sweep)


def first_stage(rhs, x, u, p):
    """A stage array (7, n, N) for `_dp_step` from x: (n, N), its first
    stage filled."""
    k = np.empty((7,) + x.shape)
    k[0] = rhs(x.T, u, p).T
    return k


class TestDormandPrince:
    ROTATION = "states: x y\ncontrol g1: [-y, x]\n"

    def test_step_order(self):
        # one step of the rotation x' = -y, y' = x from (1, 0): halving h
        # divides the fifth-order error by about 2^6 and the embedded
        # estimate, led by the fourth-order error, by about 2^5
        rhs = rhs_function(parse_system(self.ROTATION))
        u, p = np.ones((1, 1)), np.zeros((1, 0))
        errors, estimates = [], []
        for h in (0.2, 0.1, 0.05):
            x0 = np.array([[1.0], [0.0]])
            k = first_stage(rhs, x0, u, p)
            x5, err, *_ = numeric_module._dp_step(
                rhs, x0, u, p, np.array([h]), k, np.empty(k.shape))
            errors.append(np.linalg.norm(x5[:, 0]
                                         - [math.cos(h), math.sin(h)]))
            estimates.append(np.linalg.norm(err[:, 0]))
        for fine, coarse in ((1, 0), (2, 1)):
            assert 56 < errors[coarse] / errors[fine] < 72
            assert 28 < estimates[coarse] / estimates[fine] < 36

    def test_continuous_extension_order(self):
        # the continuous extension at the middle of one rotation step:
        # halving h divides its error by about 2^5; one wrong d_j leaves
        # about 2, and none at all 2^4
        rhs = rhs_function(parse_system(self.ROTATION))
        u, p = np.ones((1, 1)), np.zeros((1, 0))
        errors = []
        for h in (0.2, 0.1, 0.05):
            x0 = np.array([[1.0], [0.0]])
            k = first_stage(rhs, x0, u, p)
            x5, _, K, *_ = numeric_module._dp_step(
                rhs, x0, u, p, np.array([h]), k, np.empty(k.shape))
            mid, = numeric_module._dense(x0[:, 0], x5[:, 0], K[:, :, 0],
                                         np.array([0.5]))
            errors.append(np.linalg.norm(mid - [math.cos(h / 2),
                                                math.sin(h / 2)]))
        for fine, coarse in ((1, 0), (2, 1)):
            assert 28 < errors[coarse] / errors[fine] < 36

    def test_rotation_circle_held_and_line_violated(self):
        sys = parse_system(self.ROTATION)
        kwargs = dict(trials=20, pieces=4, horizon=5.0, h=1e-2, seed=2)
        circle = invariance_test(sys, elements([x**2 + y**2 - 1], sys.ctx),
                                 **kwargs)
        assert circle.held and circle.max_rho < 1e-9
        assert not invariance_test(sys, elements([y], sys.ctx), **kwargs).held

    def test_accepted_times_include_switch_times(self, ex4, monkeypatch):
        seen = recording_sweep(monkeypatch)
        invariance_test(ex4, elements([b * x - a * z], ex4.ctx), trials=10,
                        pieces=5, horizon=1.0, h=1e-2, seed=7)
        ends = seen[0][3]  # the switch times, then the horizon, per trial
        accepted = [set() for _ in ends]
        for trials, t, ok, *_ in seen[1:]:
            for i in np.flatnonzero(ok):
                accepted[trials[i]].add(float(t[i]))
        for trial, times in zip(ends, accepted):
            assert set(trial.tolist()) <= times
            assert max(times) == 1.0

    def test_blowup_ends_in_error_within_budget(self, monkeypatch):
        # x' = x^2 u from x = 1 blows up at t = 1/u for u > 0
        seen = recording_sweep(monkeypatch)
        sys = parse_system("states: x\ncontrol g1: [x^2]\n")
        v = invariance_test(sys, elements([x - 1], sys.ctx), trials=20,
                            pieces=3, horizon=5.0, h=1e-2, seed=1)
        # the steps shrink towards the blow-up until the budget of
        # round(5.0 / 1e-2) attempts runs out
        assert v.verdict == "Violated"
        assert v.errors == ("error-controlled steps fell short of the "
                            "horizon within the budget of 500 steps",)
        assert len(seen) - 2 == 500  # the arguments and the start first


class TestLieBracket:
    def test_worked_example(self, ex3):
        g1, g2 = ex3.controls
        br = lie_bracket(g1, g2, ex3.ctx)
        want = (a * sp.sin(w), -sp.cos(w), b * sp.sin(w), 0)
        for got, exp in zip(br, want):
            assert not got - to_field(exp, ex3.ctx)

    def test_coordinate_fields_commute(self):
        X, Y = field_rows([(1, 0, 0), (0, 1, 0)], CTX)
        assert not any(lie_bracket(X, Y, CTX))

    def test_antisymmetry(self):
        rng = random.Random(71)
        for _ in range(30):
            X, Y = field_rows([[random_poly(rng, (x, y, z)) for _ in range(3)]
                               for _ in range(2)], CTX)
            XY = lie_bracket(X, Y, CTX)
            YX = lie_bracket(Y, X, CTX)
            for u, v in zip(XY, YX):
                assert not u + v

    def test_jacobi(self):
        rng = random.Random(72)
        for _ in range(10):
            X, Y, Z = field_rows([[random_poly(rng, (x, y, z), degree=1)
                                   for _ in range(3)] for _ in range(3)], CTX)
            total = [CTX.field.zero] * 3
            for A, B, C in ((X, Y, Z), (Y, Z, X), (Z, X, Y)):
                t = lie_bracket(A, lie_bracket(B, C, CTX), CTX)
                total = [u + v for u, v in zip(total, t)]
            for c in total:
                assert not c


class TestBracketRank:
    def test_full_rank(self, ex1):
        brackets = iterated_brackets(ex1.controls, ex1.ctx)
        assert bracket_rank(brackets, ex1.ctx) == 3

    def test_rank_three_of_four(self, ex3):
        brackets = iterated_brackets(ex3.controls, ex3.ctx, depth=4)
        assert bracket_rank(brackets, ex3.ctx) == 3

    def test_involutive_stays_low(self):
        fields = field_rows([(1, 0, 0), (0, 1, 0)], CTX)
        assert bracket_rank(iterated_brackets(fields, CTX), CTX) == 2

    def test_state_under_a_trig_atom_is_not_solved(self):
        # sin(x) in g2 keeps x at its certification value, whose circle
        # values sin(x), cos(x) stand for; {x = 0} has no other state
        sys = parse_system("states: x y z\ncontrol g1: [1, 0, 0]\n"
                           "control g2: [0, sin(x), 0]\n")
        lc = leaf_controllability(sys, elements([x], sys.ctx), leaf_dim=2)
        assert lc["bracket_rank"] is None
        assert lc["controllable_on_leaf"] is None
        lc = leaf_controllability(sys, elements([z], sys.ctx), leaf_dim=2)
        assert lc["bracket_rank"] == 2 and lc["controllable_on_leaf"]

    def test_iterated_brackets_grow(self, ex1):
        brs = list(iterated_brackets(ex1.controls, ex1.ctx, depth=2))
        assert [len(layer) for layer in brs] == [2, 2]


def _reference_lie_bracket(X, Y, ctx: SymbolContext):
    """[X, Y]_i = sum_k (X_k dY_i/dx_k - Y_k dX_i/dx_k), exact."""
    n = len(ctx.states)
    out = []
    for i in range(n):
        total = sp.Integer(0)
        for k, v in enumerate(ctx.states):
            total += X[k] * sp.diff(Y[i], v) - Y[k] * sp.diff(X[i], v)
        out.append(normalize(total, ctx))
    return tuple(out)


def _reference_iterated_brackets(fields, ctx, depth=BRACKET_DEPTH):
    """Left iterated brackets [X_{i1},[...,[X_{ik-1}, X_{ik}]...]] to depth."""
    layers = [list(fields)]
    for _ in range(1, depth):
        new = []
        for Y in layers[-1]:
            for X in fields:
                br = _reference_lie_bracket(X, Y, ctx)
                if any(c != 0 for c in br):
                    new.append(br)
        if not new:
            break
        layers.append(new)
    out = []
    for layer in layers:
        out.extend(layer)
    return out


# x y w with an unsigned parameter a and sin(w), cos(w)
CTX3 = SymbolContext(states=(x, y, w), params=(a,))


def random_rational_system(rng):
    """Two random fields on CTX3 in normal form, as the DSL leaves them:
    entries affine in x, y, a, sin(w) and cos(w), some divided by one more
    such entry."""
    def entry():
        e = random_poly(rng, (x, y, a), terms=2, degree=1, trig_of=w)
        if rng.random() < 0.3:
            den = random_poly(rng, (x, y, a), terms=2, degree=1, trig_of=w)
            if normalize(den, CTX3) != 0:
                e = e / den
        return normalize(e, CTX3)

    return [tuple(entry() for _ in range(3)) for _ in range(2)]


def controls_exprs(sys):
    """The control fields of a system as rows of expressions."""
    return [tuple(map(from_field, g)) for g in sys.controls]


def assert_brackets_match(fields, ctx, depth):
    """iterated_brackets of the fields as field rows is the reference's
    table, entry by entry and in order."""
    got = iterated_brackets(field_rows(fields, ctx), ctx, depth=depth)
    want = _reference_iterated_brackets(fields, ctx, depth=depth)
    assert [tuple(map(from_field, F)) for L in got for F in L] == want


class TestBracketsAgainstReference:
    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4"])
    def test_worked_systems(self, name, request):
        sys = request.getfixturevalue(name)
        assert_brackets_match(controls_exprs(sys), sys.ctx, 4)

    def test_trig4(self):
        sys = parse_system(TRIG4)
        assert_brackets_match(controls_exprs(sys), sys.ctx, 4)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_rational_trig_systems(self, seed):
        assert_brackets_match(
            random_rational_system(random.Random(500 + seed)), CTX3, 3)


def columns(rows, ctx):
    """Sampled rows as one column of values per symbol of ctx."""
    return dict(zip(ctx.symbols, rows.T))


class TestZeroLocusSampling:
    def test_points_on_locus(self, ex4):
        rng = np.random.default_rng(3)
        pts = zero_locus_points(elements([b * x - a * z], ex4.ctx), ex4.ctx,
                                rng, count=10)
        assert pts.shape == (10, len(ex4.ctx.symbols))
        v = columns(pts, ex4.ctx)
        assert np.all(np.abs(v[b] * v[x] - v[a] * v[z]) < 1e-9)
        assert np.all(np.abs(np.cos(v[w])) > 1e-6)

    def test_nonlinear_locus(self):
        rng = np.random.default_rng(4)
        pts = zero_locus_points(elements([x**2 + y**2 - 1], CTX), CTX, rng,
                                count=5)
        v = columns(pts, CTX)
        assert np.all(np.abs(v[x] ** 2 + v[y] ** 2 - 1) < 1e-9)

    def test_linear_system_sharing_a_state(self):
        # solving y + z for y would break x + y = 0, already solved for x
        rng = np.random.default_rng(5)
        pts = zero_locus_points(elements([x + y, y + z], CTX), CTX, rng,
                                count=5)
        assert len(pts) == 5
        v = columns(pts, CTX)
        assert np.all(np.abs(v[x] + v[y]) < 1e-12)
        assert np.all(np.abs(v[y] + v[z]) < 1e-12)

    def test_block_sampler_compiles_once_and_calls_no_float_kernel(
            self, ex1, monkeypatch):
        # ex1's {z} is solved by the linear plan on every attempt: one
        # compile, a handful of block calls and no per-row evaluation
        real = sampling_module.kernels
        compiles, calls = [], []

        def counted(fn, form):
            def call(*args):
                calls.append(form)
                return fn(*args)

            return call

        def counting_kernels(groups, ctx, form="sampling"):
            compiles.append(form)
            return [counted(fn, form) for fn in real(groups, ctx, form)]

        monkeypatch.setattr(sampling_module, "kernels", counting_kernels)
        pts = zero_locus_points(elements([z], ex1.ctx), ex1.ctx,
                                np.random.default_rng(0), count=1000)
        assert pts.shape == (1000, 3) and not pts[:, 2].any()
        assert compiles == ["sampling"] and len(calls) <= 4

    def test_newton_projects_each_round_as_one_block(self, monkeypatch):
        # the circle has no linear plan, so every attempt goes to Newton:
        # one kernel call per damped step of a round, on the rows still
        # moving, never one per row
        real = sampling_module.kernels
        calls = []  # (group size, rows) per kernel call

        def counting_kernels(groups, ctx, form="sampling"):
            def counted(fn, size):
                def call(rows):
                    calls.append((size, len(rows)))
                    return fn(rows)

                return call

            return [counted(fn, len(group))
                    for fn, group in zip(real(groups, ctx, form), groups)]

        monkeypatch.setattr(sampling_module, "kernels", counting_kernels)
        pts = zero_locus_points(elements([x**2 + y**2 - 1], CTX), CTX,
                                np.random.default_rng(3), count=200)
        assert pts.shape == (200, 3)
        rounds = [rows for size, rows in calls if size == 1]  # the check
        newton = [rows for size, rows in calls if size == 1 + 3]
        assert rounds == [200] and newton[0] == 200
        assert len(newton) <= sampling_module.NEWTON_STEPS

    def test_singular_row_fails_alone_in_its_block(self):
        # at x = y = 0 the circle's gradient vanishes and J J^T = 0: those
        # rows fail, every other row of the block gets the floats it gets
        # alone
        rhos = elements([x**2 + y**2 - 1], CTX)
        grads = [gradient(r, CTX) for r in rhos]
        newton, = kernels([rhos + sum(grads, [])], CTX)
        block = np.random.default_rng(4).uniform(-1, 1, (40, 3))
        block[[3, 17], :2] = 0.0
        want = []
        for row in block.tolist():
            point = dict(zip(CTX.symbols, row))
            projected = _reference_newton_project(
                rhos, grads, point, CTX, sampling_module.NEWTON_STEPS)
            want.append([point[s] for s in CTX.symbols] if projected
                        else None)
        ok = sampling_module._newton_project(newton, (1, 3), block,
                                             np.arange(40))
        got = [row if kept else None for row, kept in zip(block.tolist(), ok)]
        assert repr(got) == repr(want)
        assert [i for i, row in enumerate(want) if row is None] == [3, 17]

    def test_linear_plan_built_once_per_call(self, monkeypatch):
        real = sampling_module.differentiate
        built = []

        def counting_differentiate(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sampling_module, "differentiate",
                            counting_differentiate)
        rhos = elements([x + y, y + z], CTX)
        pts = zero_locus_points(rhos, CTX, np.random.default_rng(5),
                                count=50)
        assert len(pts) == 50
        assert 0 < len(built) <= len(rhos) * len(CTX.states)

    @pytest.mark.parametrize("rho", [
        x + y, x**2 + y, x**2 * y + z, z, y + 1 / x, (x + y) / (z + 1),
        sp.sin(x) + y, x * sp.sin(y) + sp.cos(z), x * sp.sin(x) + y,
        a * x + z, a * x**2 - b * y, x / a + b], ids=str)
    def test_linear_plan_matches_degree_test(self, rho):
        ctx = SymbolContext(states=(x, y, z), params=(a, b))
        f = to_field(rho, ctx)
        (symbols, terms), = sampling_module._linear_plan(
            [f], [gradient(f, ctx)], ctx)
        (want_symbols, want_terms), = _reference_linear_plan([rho], ctx)
        assert symbols == want_symbols & set(ctx.states)
        assert [(v, a, r) for v, a, r in terms] == [
            (v, to_field(a, ctx), to_field(r, ctx)) for v, a, r in want_terms]

    def test_empty_locus_raises_named_error(self):
        rng = np.random.default_rng(6)
        with pytest.raises(SamplingFailed):
            zero_locus_points(elements([x**2 + 1], CTX), CTX, rng, count=2)


class TestSamplingErrors:
    """Sampling skips a point where evaluation is singular and lets any
    other exception through."""

    # rho, declared-nonzero constraints, expression whose evaluation fails:
    # the coefficient y of the linear solve for x, the Newton residual of a
    # circle, and a declared-nonzero constraint
    SITES = [
        ([x * y - 1], (), y),
        ([x**2 + y**2 - 1], (), x**2 + y**2 - 1),
        ([x - y], (z,), z),
    ]
    IDS = ["solve_linear", "newton_project", "constraints_ok"]

    @staticmethod
    def _failing_once(monkeypatch, ctx, target, exc):
        """The first call of a compiled function that evaluates target
        fails: a kernel reports a singular value by a NaN, so it gives
        target a NaN in the first row for an EvalSingular and raises any
        other exc."""
        real = sampling_module.kernels
        target = to_field(target, ctx)
        failed = []

        def failing_first(fn, group):
            def call(values):
                if failed:
                    return fn(values)
                failed.append(group)
                if isinstance(exc, EvalSingular):
                    out = fn(values)
                    out[group.index(target), 0] = math.nan
                    return out
                raise exc

            return call if target in group else fn

        def kernels(groups, ctx, form="sampling"):
            return [failing_first(fn, group)
                    for fn, group in zip(real(groups, ctx, form), groups)]

        monkeypatch.setattr(sampling_module, "kernels", kernels)
        return failed

    @pytest.mark.parametrize("rhos, nonzero, target", SITES, ids=IDS)
    def test_unrelated_error_propagates(self, monkeypatch, rhos, nonzero,
                                        target):
        ctx = context(states=(x, y, z), nonzero=nonzero)
        self._failing_once(monkeypatch, ctx, target,
                           RuntimeError("unrelated"))
        with pytest.raises(RuntimeError, match="unrelated"):
            zero_locus_points(elements(rhos, ctx), ctx,
                              np.random.default_rng(7), count=3)

    @pytest.mark.parametrize("rhos, nonzero, target", SITES, ids=IDS)
    def test_singular_point_is_skipped(self, monkeypatch, rhos, nonzero,
                                       target):
        # the first attempt's point is lost (the linear solve's attempt goes
        # to Newton instead), the others are kept and count is still met
        ctx = context(states=(x, y, z), nonzero=nonzero)
        first, *rest = zero_locus_points(elements(rhos, ctx), ctx,
                                         np.random.default_rng(7),
                                         count=3).tolist()
        failed = self._failing_once(monkeypatch, ctx, target,
                                    EvalSingular("below threshold"))
        pts = zero_locus_points(elements(rhos, ctx), ctx,
                                np.random.default_rng(7), count=3).tolist()
        assert failed and len(pts) == 3
        assert first not in pts and all(pt in pts for pt in rest)


class TestInvariance:
    def test_invariant_locus_holds(self, ex1):
        v = invariance_test(ex1, elements([z], ex1.ctx), trials=10, pieces=3,
                            horizon=1.0, h=1e-3, seed=1)
        assert v.held
        assert v.max_rho < v.tolerance

    def test_non_invariant_locus_violated(self, ex2):
        v = invariance_test(ex2, elements([y], ex2.ctx), trials=10, pieces=3,
                            horizon=1.0, h=1e-3, seed=1)
        assert not v.held

    def test_deterministic(self, ex1):
        rhos = elements([z], ex1.ctx)
        v1 = invariance_test(ex1, rhos, trials=5, pieces=2, horizon=0.5, seed=9)
        v2 = invariance_test(ex1, rhos, trials=5, pieces=2, horizon=0.5, seed=9)
        assert v1 == v2


class TestEscape:
    def test_escape_found(self, ex2):
        esc = escape_test(ex2, elements([y], ex2.ctx), seed=2, horizon=2.0)
        assert esc is not None
        sched, t, val = esc
        assert val > 0.1
        assert 0 < t <= sched.horizon

    def test_no_escape_from_invariant(self, ex1):
        esc = escape_test(ex1, elements([z], ex1.ctx), seed=2, horizon=1.0)
        assert esc is None


# --- the RK4 loops against the earlier per-call kernel ------------------------
#
# _reference_* are the earlier per-call lambdified kernel and the fixed-step
# RK4 loops built on it (a fresh (rows, N) block per call, a separate monitor
# call per step, each switch snapped onto the step grid by _piece_steps),
# kept verbatim as an oracle for the Dormand-Prince sweep: the same
# invariance verdicts, a simulated trajectory within 1e-7 on schedules that
# switch on the grid, and a valid escape witness wherever they find one.

def _reference_linear_plan(rhos, ctx):
    """The linear plan as built with sympy's degree test: rho is linear in v
    when Poly(rho, v) exists with degree 1 and its coefficient is free of
    v."""
    plan = []
    for rho in rhos:
        terms = []
        for v in ctx.states:
            try:
                if sp.degree(sp.Poly(rho, v)) != 1:
                    continue
            except sp.PolynomialError:
                continue
            coeff = sp.diff(rho, v)
            if sp.diff(coeff, v) != 0:
                continue
            terms.append((v, coeff, rho - coeff * v))
        plan.append((rho.free_symbols, terms))
    return plan


def _reference_lambdify(exprs, ctx: SymbolContext):
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


def _reference_rhs_function(sys: ControlAffineSystem):
    """Batched right-hand side f(x) + sum_j g_j(x) u_j.

    Returned callable maps (x: (N, n), u: (N, m), params: (N, k)) to (N, n).
    The drift and control fields are evaluated as one block of (m + 1) n
    rows; the control rows are then added into the drift rows in order.
    """
    n, m = sys.n, sys.m
    fields = _reference_lambdify(
        [from_field(c) for F in (sys.drift, *sys.controls) for c in F],
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


def _reference_monitor_function(rhos, ctx):
    """Batched rhos: (x: (N, n), params: (N, k)) -> (N, len(rhos))."""
    fn = _reference_lambdify(rhos, ctx)

    def call(x, p):
        with np.errstate(all="ignore"):
            return fn(x, p).T

    return call


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


def _reference_rk4_step(rhs, x, u, p, h):
    k1 = rhs(x, u, p)
    k2 = rhs(x + 0.5 * h * k1, u, p)
    k3 = rhs(x + 0.5 * h * k2, u, p)
    k4 = rhs(x + h * k3, u, p)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

def _reference_simulate(sys: ControlAffineSystem, x0, schedule: ControlSchedule,
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
    for e in ctx.nonzero:
        if abs(_evaluate(e, point0, ctx)) <= CONSTRAINT_MARGIN:
            raise DomainExit("initial point violates nonzero constraint "
                             f"{from_field(e)}")

    rhs = _reference_rhs_function(sys)
    p = np.array([[float(param_values[q]) for q in ctx.params]])
    cons_fn = _reference_monitor_function(
        [from_field(e) for e in ctx.nonzero], ctx) if ctx.nonzero else None

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
            x = _reference_rk4_step(rhs, x, ub, p, h)
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
        mon_fn = _reference_monitor_function(
            [from_field(m) for m in monitors.values()], ctx)
        vals = mon_fn(xs, np.repeat(p, len(xs), axis=0))
        for k, lbl in enumerate(monitors):
            rho_values[lbl] = vals[:, k]
    return Trajectory(times=times, states=xs, controls=us,
                      schedule=schedule, rho_values=rho_values)

def _reference_random_schedule(rng, m, pieces, horizon) -> ControlSchedule:
    cuts = np.sort(rng.uniform(0, horizon, size=pieces - 1)) if pieces > 1 \
        else np.array([])
    bounds = np.concatenate([[0.0], cuts, [horizon]])
    durs = np.diff(bounds)
    durs = np.maximum(durs, 1e-6)
    vals = rng.uniform(-1.0, 1.0, size=(pieces, m))
    return ControlSchedule(tuple((float(d), tuple(map(float, v)))
                                 for d, v in zip(durs, vals)))


def _reference_invariance_test(sys: ControlAffineSystem, rhos, trials=100, pieces=10,
                    horizon=5.0, h=1e-3, seed=42) -> InvarianceVerdict:
    """Monte-Carlo invariance check of the zero locus of rhos.

    Starts on {rho = 0}, applies random piecewise-constant controls, and
    holds iff every trial keeps max |rho| below 1e-6 * (1 + arc length).
    All trials integrate in one batched RK4 sweep.
    """
    ctx = sys.ctx
    rng = np.random.default_rng(seed)
    starts = _reference_zero_locus_points(rhos, ctx, rng, count=trials)

    x = np.array([[pt[v] for v in ctx.states] for pt in starts])
    p = np.array([[pt[q] for q in ctx.params] for pt in starts]) \
        if ctx.params else np.zeros((trials, 0))
    total_steps = max(1, round(horizon / h))
    # grid step -> (trial, control) of every piece starting there
    switches = {}
    for t in range(trials):
        sched, _ = _piece_steps(_reference_random_schedule(
            rng, sys.m, pieces, horizon), h)
        i = 0
        for count, ut in sched:
            if count:
                switches.setdefault(i, []).append((t, ut))
            i += count
    u = np.zeros((trials, sys.m))  # each trial's current control
    rhs = _reference_rhs_function(sys)
    mon = _reference_monitor_function([from_field(r) for r in rhos], ctx)
    max_rho = np.max(np.abs(mon(x, p)), axis=1)
    arclen = np.zeros(trials)
    errors = []
    try:
        for i in range(total_steps):
            for t, ut in switches.get(i, ()):
                u[t] = ut
            xn = _reference_rk4_step(rhs, x, u, p, h)
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


def _reference_escape_test(sys: ControlAffineSystem, rhos, seed=42, horizon=5.0,
                h=1e-2, threshold=0.1, starts=20, random_controls=50):
    """Greedy search for a constant control leaving the zero locus of rhos.

    Tries the 2m+1 axis controls {0, +-e_j} plus random values from each of
    several zero-locus starts; returns (schedule, time, value) for the first
    trajectory driving max |rho| above the threshold, or None.
    """
    ctx = sys.ctx
    rng = np.random.default_rng(seed)
    pts = _reference_zero_locus_points(rhos, ctx, rng, count=starts)
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
    rhs = _reference_rhs_function(sys)
    mon = _reference_monitor_function([from_field(r) for r in rhos], ctx)
    steps = max(1, round(horizon / h))
    alive = np.ones(len(x), dtype=bool)
    for i in range(steps):
        with np.errstate(all="ignore"):
            try:
                x[alive] = _reference_rk4_step(rhs, x[alive], u[alive], p[alive], h)
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


# a parameter-only and a constant row in every field, and in the drift
PARAM_ROWS = ("states: x y z\nparams: a\ndrift: [a, 0, x*y]\n"
              "control g1: [1, 2*a, z]\ncontrol g2: [y, a^2, 3]\n")
SINGULAR = "states: x\ncontrol g1: [1/x]\n"
# zero entries, entries 1 and -1, a parameter-only and a constant entry, a
# pole, and a zero drift component
UNITS = ("states: x y z\nparams: a\ndrift: [0, a, 1/x]\n"
         "control g1: [1, -1, 0]\ncontrol g2: [-1, 2*a, x*y]\n"
         "control g3: [0, 1, -3]\n")
# rows whose u1 = 1 overflow to inf within one step and drop out of escape_test
OVERFLOW = "states: x y\ncontrol g1: [15*10^307, 0]\ncontrol g2: [0, 1]\n"
# g1 = 10^60 x^2 overflows in a later stage of the first step, never in k1
BLOWUP = "states: x y\ncontrol g1: [10^60*x^2, 0]\ncontrol g2: [0, 1]\n"
CHAINED8 = ("states: x1 x2 x3 x4 x5 x6 x7 x8\n"
            "control g1: [1, 0, x2, x3, x4, x5, x6, x7]\n"
            "control g2: [0, 1, 0, 0, 0, 0, 0, 0]\n")
# a parameter of each sign and an unsigned one between them
SIGNS = ("states: x y z\nparams: a < 0, b, c > 0\n"
         "drift: [a*x + c, b*y, 0]\n"
         "control g1: [1, c*z, b]\ncontrol g2: [0, a, x*y]\n")
# a locus reached by Newton steps only: no rho is linear in a state
CIRCLE = "states: x y\ncontrol g1: [-y, x]\ncontrol g2: [x, y]\n"
C = sp.Symbol("c")
X1 = sp.Symbol("x1")
# system -> loci tested for invariance and escape
ORACLE_LOCI = {
    "ex1": [[z], [x], [x + y, z]],
    "ex2": [[y], [z]],
    "ex3": [[b * x - a * z], [y]],
    "ex4": [[b * x - a * z], [w]],
    "dense": [[x - y]],
    "params": [[x - y], [z]],
    "singular": [[x]],
    "overflow": [[y], [x - y]],
    "chained8": [[X1]],
    "shared": [[y - sp.cos(w)], [x * sp.cos(w) - z, w]],
    "blowup": [[y], [x - 1]],
    "signs": [[x - a * y], [z + b, x * y - C]],
    "circle": [[x**2 + y**2 - 1]],
}


# loci only the sampler oracle samples: a power in a solved term; a linear
# coefficient at most 1e-6 at some attempts, where the next term or, with
# none left, Newton solves; and a pole in the solved remainder, whose rows
# go to Newton between rows the plan solves.  Their context declares an
# element nonzero whose value overflows where |y| > 1.34, in the box 2.5.
SAMPLER_CTX = context(states=(x, y, z), nonzero=(10**308 * y**2,))
SAMPLER_LOCI = {
    "cube": [[y - x**3 * z]],
    "flat": [[x * y**8 + z], [y**8 * (x - z)]],
    "pole": [[x - z / y**12]],
}


def oracle_system(name, request):
    if name == "shared":
        return SHARED
    text = {"dense": DENSE, "params": PARAM_ROWS, "singular": SINGULAR,
            "units": UNITS,
            "overflow": OVERFLOW, "blowup": BLOWUP, "signs": SIGNS,
            "circle": CIRCLE, "chained8": CHAINED8}.get(name)
    return parse_system(text) if text else request.getfixturevalue(name)


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except CtrlInvError as e:
        return type(e), str(e)


def assert_same(got, want):
    """Equal field for field, per-trial tuples and errors included; the repr
    also matches NaN with NaN and tells -0.0 from 0.0."""
    assert repr(got) == repr(want)


def assert_valid_escape(got, want, horizon, threshold=0.1):
    """The sweep's escape against the fixed-step reference's: the same named
    error, or a witness exactly where the reference finds one, a one-piece
    schedule to the horizon whose max |rho| exceeds the threshold at a
    time in (0, horizon]."""
    if want is None or not isinstance(want[0], ControlSchedule):
        assert got == want
        return
    sched, t, value = got
    assert len(sched.pieces) == 1 and sched.horizon == horizon
    assert value > threshold and 0 < t <= horizon


def assert_same_verdict(got, want):
    """The error-controlled sweep against the fixed-step reference: the same
    verdict, trial count and errors (or the same named error), and per-trial
    arc lengths within 1e-2 relative, not finite where the reference's are
    not."""
    if not isinstance(want, InvarianceVerdict):
        assert got == want
        return
    assert (got.verdict, len(got.trials), got.errors) \
        == (want.verdict, len(want.trials), want.errors)
    got_len, want_len = (np.array([a for _, a, _ in v.trials])
                         for v in (got, want))
    finite = np.isfinite(want_len)  # OVERFLOW's chords overflow when squared
    assert np.array_equal(np.isfinite(got_len), finite)
    assert got_len[finite] == pytest.approx(want_len[finite], rel=1e-2)


@pytest.fixture
def few_escapes(monkeypatch):
    """escape_test with 4 starts and 5 random controls, and the reference's
    settings for the same."""
    monkeypatch.setattr(numeric_module, "ESCAPE_STARTS", 4)
    monkeypatch.setattr(numeric_module, "ESCAPE_CONTROLS", 5)
    return dict(starts=4, random_controls=5)


# the reference loops warn on overflow outside their np.errstate blocks
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestAgainstReferenceLoops:
    @pytest.mark.parametrize("name", sorted(ORACLE_LOCI))
    @pytest.mark.parametrize("trials, seed", [(30, 3), (200, 8)])
    def test_invariance_test(self, name, trials, seed, request):
        sys = oracle_system(name, request)
        for rhos in field_rows(ORACLE_LOCI[name], sys.ctx):
            # the reference snaps each switch onto its step grid, which
            # moves it by up to h/2: a step of 1e-3 keeps that inside 1e-2
            kwargs = dict(trials=trials, pieces=3, horizon=0.3, h=1e-3,
                          seed=seed)
            assert_same_verdict(
                outcome(invariance_test, sys, rhos, **kwargs),
                outcome(_reference_invariance_test, sys, rhos, **kwargs))

    def test_singular_start_ends_in_errors(self):
        sys = parse_system(SINGULAR)
        kwargs = dict(trials=5, pieces=2, horizon=0.1, h=1e-2, seed=1)
        rhos = elements([x], sys.ctx)
        got = invariance_test(sys, rhos, **kwargs)
        assert got.errors and not got.held
        assert_same_verdict(got, _reference_invariance_test(sys, rhos,
                                                            **kwargs))

    def test_later_stage_overflow_raises(self):
        # BLOWUP's first step from x = 1 under u = e1: k1 is finite, a
        # later stage is not; the sweep accepts no such step and marks the
        # trial, and simulate raises on the mark
        sys = parse_system(BLOWUP)
        rhs = rhs_function(sys)
        with np.errstate(all="ignore"):
            assert np.isfinite(rhs(np.array([[1.0, 0.0]]),
                                   np.array([[1.0, 0.0]]),
                                   np.zeros((1, 0)))).all()
        _, _, accepted, finite, _, _ = first_step(
            sys, [[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
        assert list(finite) == [False, True]
        assert list(accepted) == [False, True]
        with pytest.raises(StepSingular, match="^vector field evaluation "
                                               "produced non-finite values$"):
            simulate(sys, [1.0, 0.0], ControlSchedule(((1.0, (1.0, 0.0)),)),
                     h=1e-2)

    def test_overflowing_rows_drop_out_of_escape(self, few_escapes):
        # the fixed steps of u = e1 overflow and drop out; the sweep's stay
        # finite, and neither leaves {y = 0}
        sys = parse_system(OVERFLOW)
        kwargs = dict(seed=4, horizon=0.5)
        rhos = elements([y], sys.ctx)
        got = escape_test(sys, rhos, **kwargs)
        assert got[0].pieces[0][1] == (0.0, 1.0)
        want = _reference_escape_test(sys, rhos, **kwargs, **few_escapes)
        assert_valid_escape(got, want, 0.5)
        assert got[0] == want[0]

    def test_singular_rows_drop_out_of_escape(self):
        # u = e1 blows up x' = 10^60 x^2 from every start; u = e2 still
        # leaves {y = 0}
        sys = parse_system(BLOWUP)
        got = escape_test(sys, elements([y], sys.ctx), seed=0)
        assert got[0].pieces == ((5.0, (0.0, 1.0)),)
        assert_valid_escape(got, got, 5.0)

    @pytest.mark.parametrize("name", sorted(ORACLE_LOCI))
    def test_escape_test(self, name, request, few_escapes):
        sys = oracle_system(name, request)
        kwargs = dict(seed=4, horizon=0.5)
        if name == "blowup":
            # the reference stops the whole search at the first singular row
            # and finds nothing; the rows of u1 != 0 blow up and drop out,
            # and u = e2 leaves {y = 0} while x stays put
            got = escape_test(sys, elements([y], sys.ctx), **kwargs)
            assert got[0].pieces == ((0.5, (0.0, 1.0)),)
            assert_valid_escape(got, got, 0.5)
            assert escape_test(sys, elements([x - 1], sys.ctx),
                               **kwargs) is None
            return
        for rhos in field_rows(ORACLE_LOCI[name], sys.ctx):
            assert_valid_escape(
                outcome(escape_test, sys, rhos, **kwargs),
                outcome(_reference_escape_test, sys, rhos, **kwargs,
                        **few_escapes), 0.5)

    @pytest.mark.parametrize("name", sorted(ORACLE_LOCI))
    def test_simulate(self, name, request):
        sys = oracle_system(name, request)
        rng = np.random.default_rng(6)
        x0 = list(rng.uniform(-1, 1, size=sys.n))
        if name == "singular":
            x0 = [0.0]
        params = {q: float(rng.uniform(0.5, 2)) for q in sys.ctx.params}
        sched = ControlSchedule(tuple(
            (0.05, tuple(rng.uniform(-1, 1, size=sys.m))) for _ in range(3)))
        monitors = {f"rho{i + 1}": to_field(sp.Add(*rhos), sys.ctx)
                    for i, rhos in enumerate(ORACLE_LOCI[name])}
        self.assert_same_run(sys, x0, sched, params, monitors)

    def test_simulate_domain_exit(self, ex3):
        # u2 = 1 drives cos(w) through zero at w = pi/2
        sched = ControlSchedule(((1.0, (0.3, 0.0)), (2.0, (0.0, 1.0))))
        params = {a: 1.0, b: 1.5}
        got = self.assert_same_run(ex3, [0.1, 0.2, 0.3, 0.0], sched, params,
                                   {"rho1": to_field(y, ex3.ctx)})
        assert got[0] is DomainExit

    @staticmethod
    def assert_same_run(sys, x0, sched, params, monitors):
        # the schedules switch on the reference's grid, so both integrate
        # the same problem: the same grid, controls and named error (at
        # its own time for a DomainExit), states and monitors within 1e-7
        # where the reference's are finite; OVERFLOW's fixed steps sum
        # stages of 1.5e308 and overflow, the sweep's states stay finite
        got, want = (outcome(fn, sys, x0, sched, h=1e-2, param_values=params,
                             monitors=monitors)
                     for fn in (simulate, _reference_simulate))
        if isinstance(want, Trajectory):
            assert np.allclose(got.times, want.times, rtol=0, atol=1e-12)
            assert np.array_equal(got.controls, want.controls)
            assert list(got.rho_values) == list(want.rho_values)
            for vals, want_vals in [(got.states, want.states)] + [
                    (got.rho_values[lbl], vals)
                    for lbl, vals in want.rho_values.items()]:
                finite = np.isfinite(want_vals)
                assert np.isfinite(vals).all()
                assert np.allclose(vals[finite], want_vals[finite],
                                   rtol=1e-7, atol=1e-7)
        elif want[0] is DomainExit:
            assert got[0] is DomainExit
            assert got[1].startswith("declared-nonzero constraint crossed "
                                     "zero at t = ")
        else:
            assert_same(got, want)
        return got


def test_invariance_attempt_evaluates_fields_six_times(ex3, monkeypatch):
    # the stage kernel six times per attempted step, once at the start and
    # once more on a step where a trial switches its controls; the monitor
    # kernel once at the start and once per attempted step, at its new state
    real = numeric_module.kernels
    calls = {"stage": 0, "monitors": 0}

    def counted(name, fn):
        def call(*values):
            calls[name] += 1
            return fn(*values)

        return call

    def counting_kernels(groups, ctx, form="sampling", field=None):
        stage, fill = real(groups, ctx, form, field)
        return [counted("stage", stage), counted("monitors", fill)]

    monkeypatch.setattr(numeric_module, "kernels", counting_kernels)
    seen = recording_sweep(monkeypatch)
    invariance_test(ex3, elements([b * x - a * z], ex3.ctx), trials=7,
                    pieces=3, horizon=0.5, h=0.01, seed=3)
    attempts = len(seen) - 2  # the arguments and the start come first
    ends = seen[0][3]
    # an accepted step that lands on a piece's end before the horizon
    switches = sum(bool(np.any(accepted & (t < ends[i, -1]) & np.any(
        ends[i, :-1] == t[:, None], axis=1)))
        for i, t, accepted, *_ in seen[2:])
    assert attempts > 3 and switches > 0
    assert calls == {"stage": 1 + 6 * attempts + switches,
                     "monitors": 1 + attempts}


# --- block draws and the live-trial sweep against the loops they replace -----
#
# _reference_zero_locus_points (one attempt per loop, one evaluation per
# element and point), _reference_dp_sweep (every trial to the end) and
# _reference_sweep_invariance_test (one `_reference_random_schedule` per
# trial, the sums over the whole batch) are the earlier code, kept verbatim
# but for evaluating field elements by one row of the generator's sampling
# form and for a residual or linear solution that cannot be evaluated
# rejecting the point: the same floats, verdicts and generator state are
# required.

_POINT_VALUES = {}


def _evaluate(f, point, ctx):
    """`evaluate` of a field element, its kernel compiled once: one row of
    the sampling form, EvalSingular where the value is not finite."""
    key = f, len(ctx.states)
    if key not in _POINT_VALUES:
        _POINT_VALUES[key], = kernels([[f]], ctx)
    value = _POINT_VALUES[key](
        np.array([[float(point[s]) for s in ctx.symbols]]))[0, 0].item()
    if not math.isfinite(value):
        raise EvalSingular("evaluation produced a non-finite value")
    return value


def _reference_zero_locus_points(rhos, ctx: SymbolContext, rng, count=20,
                                 box=1.0, newton_steps=20):
    states = list(ctx.states)
    grads = [gradient(r, ctx) for r in rhos]
    plan = sampling_module._linear_plan(rhos, grads, ctx)
    points = []
    attempts = 0
    while len(points) < count and attempts < 60 * count:
        attempts += 1
        pvals = sample_params(ctx, rng)
        point = {v: rng.uniform(-box, box) for v in states}
        point.update(pvals)
        if _reference_solve_linear(plan, point, ctx) or \
                _reference_newton_project(rhos, grads, point, ctx,
                                          newton_steps):
            if _reference_residual_ok(rhos, point, ctx) and \
                    _reference_constraints_ok(point, ctx, CONSTRAINT_MARGIN):
                points.append(dict(point))
    if len(points) < count:
        raise SamplingFailed(
            f"zero-locus sampling produced {len(points)}/{count} points")
    return points


def _reference_residual_ok(rhos, point, ctx):
    try:
        res = max(abs(_evaluate(r, point, ctx)) for r in rhos)
    except EvalSingular:
        return False
    return res <= sampling_module.NEWTON_RESIDUAL_TOL


def _reference_constraints_ok(point, ctx: SymbolContext, margin):
    for c in ctx.nonzero:
        try:
            if abs(_evaluate(c, point, ctx)) <= margin:
                return False
        except EvalSingular:
            return False
    return True


def _reference_solve_linear(plan, point, ctx):
    fixed = set()
    for symbols, terms in plan:
        for v, a, rest in terms:
            if v in fixed:
                continue
            try:
                aval = _evaluate(a, point, ctx)
                if abs(aval) < 1e-6:
                    continue
                point[v] = -_evaluate(rest, point, ctx) / aval
            except EvalSingular:
                return False
            fixed |= symbols
            break
        else:
            return False
    return True


def _reference_newton_project(rhos, grads, point, ctx, steps):
    states = list(ctx.states)
    x = np.array([point[v] for v in states], dtype=float)
    for _ in range(steps):
        at = dict(point)
        for v, xv in zip(states, x):
            at[v] = float(xv)
        try:
            r = np.array([_evaluate(rho, at, ctx) for rho in rhos])
            J = np.array([[_evaluate(g, at, ctx) for g in row]
                          for row in grads])
        except EvalSingular:
            return False
        if np.max(np.abs(r)) <= sampling_module.NEWTON_RESIDUAL_TOL:
            break
        try:
            step = J.T @ np.linalg.solve(J @ J.T, r)
        except np.linalg.LinAlgError:
            return False
        x = x - 0.8 * step
    for v, xv in zip(states, x):
        point[v] = float(xv)
    return True


def _checked_stage(rhs, x, u, p):
    """The stage kernel's k at x: (n, N), raising StepSingular on a
    non-finite value."""
    k = rhs(x.T, u, p).T
    if not np.isfinite(k).all():
        raise StepSingular("vector field evaluation produced non-finite "
                           "values")
    return k


def _reference_dp_sweep(rhs, x, p, ends, controls, h, budget):
    rows = np.arange(x.shape[1])
    horizon = ends[:, -1]
    piece = np.zeros(len(rows), dtype=int)
    t = np.zeros(len(rows))
    h = np.full(len(rows), h)
    u = controls[:, 0]
    yield t, np.ones(len(rows), dtype=bool), np.zeros_like(x), \
        rhs.monitors(x.T, p)
    k = np.empty((7,) + x.shape)
    k[0] = _checked_stage(rhs, x, u, p)
    for _ in range(budget):
        if not np.any(t < horizon):
            return
        stop = ends[rows, piece]
        lands = t + h >= stop
        t_new = np.where(lands, stop, t + h)
        step = t_new - t  # 0 once a trial is at its horizon
        x_new, err, _, rho, finite = numeric_module._dp_step(
            rhs, x, u, p, step, k, np.empty(k.shape))
        if not finite.all():
            raise StepSingular("vector field evaluation produced non-finite "
                               "values")
        scale = numeric_module.ATOL + numeric_module.RTOL * np.maximum(
            np.abs(x), np.abs(x_new))
        e = np.sqrt(np.add.reduce(np.square(err / scale), axis=0) / len(x))
        e[np.isnan(e)] = np.inf
        accepted = (t < horizon) & (e <= 1.0)
        proposed = step * np.clip(0.9 * e ** -0.2, 0.2, 5.0)
        h = np.where(accepted & lands, np.maximum(h, proposed), proposed)
        chord = x_new - x
        x = np.where(accepted, x_new, x)
        t = np.where(accepted, t_new, t)
        switched = accepted & lands & (t < horizon)
        if switched.any():  # the next piece's controls
            piece = piece + switched
            u = controls[rows, piece]
            k[6] = _checked_stage(rhs, x_new, u, p)
        k[0] = np.where(accepted, k[6], k[0])
        yield t, accepted, chord, rho
    if np.any(t < horizon):
        raise StepSingular(f"error-controlled steps fell short of the "
                           f"horizon within the budget of {budget} steps")


def _reference_sweep_invariance_test(sys: ControlAffineSystem, rhos,
                                     trials=100, pieces=10, horizon=5.0,
                                     h=1e-3, seed=42) -> InvarianceVerdict:
    ctx = sys.ctx
    rng = np.random.default_rng(seed)
    starts = _reference_zero_locus_points(rhos, ctx, rng, count=trials)

    x = np.array([[pt[v] for v in ctx.states] for pt in starts]).T.copy()
    p = np.array([[pt[q] for q in ctx.params] for pt in starts],
                 dtype=float).reshape(trials, len(ctx.params))
    durations = np.empty((trials, pieces))
    controls = np.empty((trials, pieces, sys.m))
    for i in range(trials):
        sched = _reference_random_schedule(rng, sys.m, pieces, horizon).pieces
        durations[i] = [d for d, _ in sched]
        controls[i] = [u for _, u in sched]
    ends = np.minimum(np.cumsum(durations, axis=1), horizon)
    ends[:, -1] = horizon
    rhs = rhs_function(sys, rhos)
    max_rho = np.zeros(trials)
    arclen = np.zeros(trials)
    errors = []
    with np.errstate(all="ignore"):
        try:
            for _, accepted, chord, rho in _reference_dp_sweep(
                    rhs, x, p, ends, controls, h,
                    max(numeric_module.MIN_BUDGET, round(horizon / h))):
                arclen += np.where(accepted, np.sqrt(
                    np.add.reduce(chord * chord, axis=0)), 0.0)
                np.maximum(max_rho, np.where(accepted, np.maximum.reduce(
                    np.abs(rho), axis=0), 0.0), out=max_rho)
        except StepSingular as e:
            errors.append(str(e))
    tols = INV_TOL_BASE * (1.0 + arclen)
    held = bool(np.all(max_rho < tols) and np.all(np.isfinite(tols))) \
        and not errors
    per_trial = tuple((float(m_), float(a), float(t_))
                      for m_, a, t_ in zip(max_rho, arclen, tols))
    return InvarianceVerdict(
        verdict="Held" if held else "Violated",
        max_rho=float(np.max(max_rho)),
        tolerance=float(np.min(tols)),
        trials=per_trial, seed=seed, errors=tuple(errors))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestBlocksAgainstLoops:
    @pytest.mark.parametrize("name", sorted(ORACLE_LOCI)
                             + sorted(SAMPLER_LOCI))
    @pytest.mark.parametrize("count, seed, box", [(1, 2, 1.0), (30, 3, 1.0),
                                                  (200, 8, 2.5)])
    def test_zero_locus_points(self, name, count, seed, box, request,
                               monkeypatch):
        ctx = SAMPLER_CTX if name in SAMPLER_LOCI \
            else oracle_system(name, request).ctx
        loci = SAMPLER_LOCI.get(name) or ORACLE_LOCI[name]
        monkeypatch.setattr(sampling_module, "BOX", box)
        for rhos in field_rows(loci, ctx):
            got_rng, want_rng = (np.random.default_rng(seed) for _ in "ab")
            got = outcome(zero_locus_points, rhos, ctx, got_rng, count=count)
            want = outcome(_reference_zero_locus_points, rhos, ctx, want_rng,
                           count=count, box=box)
            if isinstance(want, list):  # rows in ctx.symbols order
                assert got.shape == (count, len(ctx.symbols))
                got = got.tolist()
                want = [[pt[s] for s in ctx.symbols] for pt in want]
            assert_same(got, want)
            assert got_rng.random() == want_rng.random()

    def test_sampling_failure_leaves_same_generator(self):
        got_rng, want_rng = (np.random.default_rng(6) for _ in "ab")
        for fn, rng in ((zero_locus_points, got_rng),
                        (_reference_zero_locus_points, want_rng)):
            with pytest.raises(SamplingFailed, match="produced 0/7 points"):
                fn(elements([x**2 + 1], CTX), CTX, rng, count=7)
        assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("name", sorted(ORACLE_LOCI))
    @pytest.mark.parametrize("trials, pieces, seed", [(1, 3, 5), (30, 3, 3),
                                                      (200, 5, 8), (40, 1, 4)])
    def test_invariance_test(self, name, trials, pieces, seed, request):
        sys = oracle_system(name, request)
        for rhos in field_rows(ORACLE_LOCI[name], sys.ctx):
            kwargs = dict(trials=trials, pieces=pieces, horizon=0.3, h=1e-2,
                          seed=seed)
            assert_same(
                outcome(invariance_test, sys, rhos, **kwargs),
                outcome(_reference_sweep_invariance_test, sys, rhos,
                        **kwargs))

    @pytest.mark.parametrize("rho, trials, horizon, seed",
                             [(X1, 2, 3.0, 1), (sp.Symbol("x8"), 3, 1.0, 0)])
    def test_last_live_trial_of_eight_states(self, rho, trials, horizon,
                                             seed):
        # numpy sums the 8 components of a lone column pairwise, not in
        # order; the last live trial of these runs would take other steps
        # alone than beside a finished one
        kwargs = dict(trials=trials, pieces=3, horizon=horizon, h=1e-2,
                      seed=seed)
        sys = parse_system(CHAINED8)
        rhos = elements([rho], sys.ctx)
        assert_same(invariance_test(sys, rhos, **kwargs),
                    _reference_sweep_invariance_test(sys, rhos, **kwargs))

    def test_sweep_drops_trials_at_their_horizon(self, ex4, monkeypatch):
        seen = recording_sweep(monkeypatch)
        invariance_test(ex4, elements([b * x - a * z], ex4.ctx), trials=50,
                        pieces=3, horizon=1.0, h=1e-2, seed=7)
        widths = [len(item[0]) for item in seen[1:]]
        assert widths[0] == 50 and widths[-1] == 2
        assert widths == sorted(widths, reverse=True)


@pytest.mark.parametrize("module", [numeric_module, sampling_module],
                         ids=lambda m: m.__name__)
def test_numeric_layer_holds_no_sympy(module):
    # the float layer reads field elements through the generated kernels
    # alone: no sympy module, function or class in its namespace
    held = [name for name, value in vars(module).items()
            if (value.__name__ if isinstance(value, types.ModuleType)
                else getattr(value, "__module__", None) or "")
            .split(".")[0] == "sympy"]
    assert held == []


@pytest.mark.parametrize("name, compiles", [("ex1", 12), ("ex2", 12),
                                            ("ex3", 2), ("ex4", 6)])
def test_kernel_compiles_per_analyze(name, compiles, monkeypatch):
    # one compile per sampler, field evaluator and Jacobian, never one per
    # element or per point; leaf controllability evaluates exactly
    real = expr_module.kernels
    calls = []

    def counting_kernels(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (expr_module, sampling_module, numeric_module,
                   integrals_module):
        monkeypatch.setattr(module, "kernels", counting_kernels)
    analyze(load_system(name), GOLDEN_CONFIG)
    assert len(calls) == compiles


def assert_leaf_rank_is_full_table_rank(sys, rhos):
    """leaf_controllability's rank, read layer by layer, is `exact_rank` of
    the whole depth-4 bracket table at the points that the table's rows
    place on the leaf, for every leaf_dim from that rank up: no tangent
    bracket raises the rank on a leaf above its dimension."""
    ctx = sys.ctx
    table = [F for layer in iterated_brackets(sys.controls, ctx)
             for F in layer]

    def full(cap):
        return exact_rank([table], cap, exact_leaf_points(rhos, table, ctx))

    for leaf_dim in range(full(sys.n) or 0, sys.n + 1):
        assert leaf_controllability(sys, rhos, leaf_dim)["bracket_rank"] \
            == full(leaf_dim)


class TestLeafLayers:
    @pytest.mark.parametrize("text", [t for _, t in corpus.systems()],
                             ids=[label for label, _ in corpus.systems()])
    def test_corpus_generic_leaf(self, text):
        assert_leaf_rank_is_full_table_rank(parse_system(text), ())

    @pytest.mark.parametrize("text", [poly_text(3), poly_text(4),
                                      chained_text(6), TRIG4],
                             ids=["poly3", "poly4", "chained6", "trig4"])
    def test_golden_generic_leaf(self, text):
        assert_leaf_rank_is_full_table_rank(parse_system(text), ())

    @pytest.mark.parametrize("name", sorted(ORACLE_LOCI))
    def test_oracle_loci(self, name, request):
        sys = oracle_system(name, request)
        for rhos in [()] + field_rows(ORACLE_LOCI[name], sys.ctx):
            assert_leaf_rank_is_full_table_rank(sys, rhos)

    def test_spanned_leaf_makes_no_bracket(self, ex1, monkeypatch):
        # g1 and g2 span ex1's leaf {z = 0}: the first layer reaches its
        # dimension at the first point
        calls = []

        def counting_bracket(*args):
            calls.append(args)
            return lie_bracket(*args)

        monkeypatch.setattr(numeric_module, "lie_bracket", counting_bracket)
        lc = leaf_controllability(ex1, elements([z], ex1.ctx), leaf_dim=2)
        assert lc["bracket_rank"] == 2 and lc["controllable_on_leaf"]
        assert calls == []
        # the generic leaf, three-dimensional, needs the second layer
        assert leaf_controllability(ex1, (), leaf_dim=3)["bracket_rank"] == 3
        assert len(calls) == 4
