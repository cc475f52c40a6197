import math
import random

import numpy as np
import pytest
import sympy as sp

import ctrlinv.expr as expr_module
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
from ctrlinv.expr import SymbolContext, evaluate, normalize
from ctrlinv.numeric import (
    INV_TOL_BASE,
    InvarianceVerdict,
    Trajectory,
    _piece_steps,
    bracket_rank,
    escape_test,
    invariance_test,
    iterated_brackets,
    lie_bracket,
    random_schedule,
    rhs_function,
    simulate,
)
from ctrlinv.sampling import CONSTRAINT_MARGIN, zero_locus_points

from conftest import random_poly

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
            sp.lambdify(args, c, modules="numpy")(*cols), dtype=float),
            (len(x),)) for c in F], axis=1)

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

# cos(w) repeated inside multi-factor products, a power and a nested call
# (which the DSL cannot spell), a whole row repeated, and a constant control
# g2; the loci's monitors share cos(w) with the rows
ZERO, ONE = sp.Integer(0), sp.Integer(1)
SHARED = ControlAffineSystem(
    ctx=SymbolContext(states=(x, y, z, w), params=(a, b)),
    drift=(a * b * sp.cos(w), y * z * sp.cos(w), ZERO, ONE),
    controls=((sp.cos(w) ** 2, sp.sin(sp.cos(w)), y * z * sp.cos(w), ZERO),
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

    def test_monitor_constant_and_parameter_only(self, ex4):
        xs, _, ps = random_batch(ex4, 7, seed=1)
        vals = rhs_function(ex4, [sp.Integer(3), a, b * x - a * z]) \
            .fields.evaluate(xs, ps).T
        assert vals.shape == (7, 3)
        assert np.array_equal(vals[:, 0], np.full(7, 3.0))
        assert np.array_equal(vals[:, 1], ps[:, 0])

    def test_singular_field_raises(self):
        sys = parse_system("states: x\ncontrol g1: [1/x]\n")
        rhs = rhs_function(sys)
        with pytest.raises(StepSingular):
            with np.errstate(divide="ignore"):
                rhs(np.zeros((1, 1)), np.ones((1, 1)), np.zeros((1, 0)))

    @pytest.mark.parametrize("seed", range(20))
    def test_generated_rows_match_lambdify(self, seed):
        # rows and monitors drawn from a pool of overlapping subexpressions:
        # calls, products, powers, quotients and nested calls
        rng = random.Random(seed)
        pool = [sp.cos(w), sp.sin(w), x * y, sp.cos(w) ** 2, a * sp.cos(w),
                sp.sin(sp.cos(w)), 1 / (1 + x**2), x * y * sp.cos(w), -x * z,
                sp.cos(x * y), a**2, ONE]

        def draw():
            e = ZERO
            for _ in range(rng.randint(1, 3)):
                e += sp.Mul(*rng.sample(pool, rng.randint(1, 3)))
            return e

        ctx = SymbolContext(states=(x, y, z, w), params=(a,))
        sys = ControlAffineSystem(
            ctx=ctx, drift=tuple(draw() for _ in range(4)),
            controls=tuple(tuple(draw() for _ in range(4)) for _ in range(2)))
        monitors = [draw() for _ in range(3)]
        xs, us, ps = random_batch(sys, 50, seed=seed)
        rhs = rhs_function(sys, monitors)
        assert np.array_equal(rhs(xs, us, ps), per_field_rhs(sys, xs, us, ps))
        want = sp.lambdify(list(ctx.states) + list(ctx.params), monitors,
                           "numpy")(*xs.T, *ps.T)
        got = rhs.fields.evaluate(xs, ps)
        for row, vals in zip(got, want):
            assert np.array_equal(row, np.broadcast_to(vals, row.shape))

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
        # the block is reused while N stays the same and replaced when it
        # changes; rhs calls and evaluate/field pairs interleave
        sys = oracle_system(name, request)
        rhs = rhs_function(sys)
        for seed, rows in enumerate([1000, 1, 0, 100, 100, 1]):
            xs, us, ps = random_batch(sys, rows, seed=seed)
            want = per_field_rhs(sys, xs, us, ps)
            assert np.array_equal(rhs(xs, us, ps), want)
            rhs.fields.evaluate(xs, ps)
            assert np.array_equal(rhs.fields.field(us), want)
            other = -us
            assert np.array_equal(rhs.fields.field(other),
                                  per_field_rhs(sys, xs, other, ps))


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
        t_end = traj.times[-1]  # horizon snapped onto the step grid
        assert traj.states[-1] == pytest.approx(
            [math.cos(t_end), math.sin(t_end)], abs=1e-9)

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
                        monitors={"rho1": z})
        assert np.max(np.abs(traj.rho_values["rho1"])) < 1e-9

    def test_empty_schedule(self):
        sys = parse_system("states: x y\ncontrol g1: [1, 0]\n")
        traj = simulate(sys, [2.0, 3.0], ControlSchedule(()), h=1e-2)
        assert traj.states.shape == (1, 2)
        assert arc_length(traj) == 0.0

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
                        monitors={"rho1": x})
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
        ("starts", 0), ("horizon", -1.0), ("horizon", math.nan),
        ("h", 0.0), ("h", math.inf)])
    def test_escape_test_rejects(self, ex1, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be positive"):
            escape_test(ex1, [z], **{"horizon": 0.1, field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("trials", 2.5, "an integer"), ("trials", True, "an integer"),
        ("pieces", 1.5, "an integer"), ("seed", -1, "non-negative"),
        ("seed", 1.5, "an integer")])
    def test_invariance_test_rejects_count(self, ex1, field, value, message):
        with pytest.raises(ValueError, match=f"^{field} must be {message}"):
            invariance_test(ex1, [z], **{"trials": 3, "pieces": 2,
                                         "horizon": 0.1, field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("starts", 2.5, "an integer"), ("starts", True, "an integer"),
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
            rhs.fields.evaluate(x0.T, p)
            x5, err, _, _ = numeric_module._dp_step(
                rhs, x0, u, p, np.array([h]), rhs.fields.field(u).T)
            errors.append(np.linalg.norm(x5[:, 0]
                                         - [math.cos(h), math.sin(h)]))
            estimates.append(np.linalg.norm(err[:, 0]))
        for fine, coarse in ((1, 0), (2, 1)):
            assert 56 < errors[coarse] / errors[fine] < 72
            assert 28 < estimates[coarse] / estimates[fine] < 36

    def test_rotation_circle_held_and_line_violated(self):
        sys = parse_system(self.ROTATION)
        kwargs = dict(trials=20, pieces=4, horizon=5.0, h=1e-2, seed=2)
        circle = invariance_test(sys, [x**2 + y**2 - 1], **kwargs)
        assert circle.held and circle.max_rho < 1e-9
        assert not invariance_test(sys, [y], **kwargs).held

    def test_accepted_times_include_switch_times(self, ex4, monkeypatch):
        seen = recording_sweep(monkeypatch)
        invariance_test(ex4, [b * x - a * z], trials=10, pieces=5,
                        horizon=1.0, h=1e-2, seed=7)
        ends = seen[0][3]  # the switch times, then the horizon, per trial
        accepted = [set() for _ in ends]
        for t, ok, _, _ in seen[1:]:
            for i in np.flatnonzero(ok):
                accepted[i].add(float(t[i]))
        for trial, times in zip(ends, accepted):
            assert set(trial.tolist()) <= times
            assert max(times) == 1.0

    def test_blowup_ends_in_error_within_budget(self, monkeypatch):
        # x' = x^2 u from x = 1 blows up at t = 1/u for u > 0
        seen = recording_sweep(monkeypatch)
        v = invariance_test(parse_system("states: x\ncontrol g1: [x^2]\n"),
                            [x - 1], trials=20, pieces=3, horizon=5.0,
                            h=1e-2, seed=1)
        # the steps shrink towards the blow-up until the budget of
        # round(5.0 / 1e-2) attempts runs out
        assert v.verdict == "Violated"
        assert v.errors == ("error-controlled steps fell short of the "
                            "horizon within the budget of 500 steps",)
        assert len(seen) - 2 == 500  # the arguments and the start first


class TestRK4Order:
    def test_convergence_order(self):
        # halving h must shrink the error by roughly 2^4
        sys = parse_system("states: x y\ncontrol g1: [-y, x]\n")
        sched_h = ControlSchedule(((1.0, (1.0,)),))
        exact = np.array([math.cos(1.0), math.sin(1.0)])
        errs = []
        for h in (0.1, 0.05):
            traj = simulate(sys, [1.0, 0.0], sched_h, h=h)
            errs.append(np.linalg.norm(traj.states[-1] - exact))
        ratio = errs[0] / errs[1]
        assert 10 < ratio < 25


class TestLieBracket:
    def test_worked_example(self, ex3):
        g1, g2 = ex3.controls
        br = lie_bracket(g1, g2, ex3.ctx)
        want = (a * sp.sin(w), -sp.cos(w), b * sp.sin(w), 0)
        for got, exp in zip(br, want):
            assert normalize(got - exp, ex3.ctx) == 0

    def test_coordinate_fields_commute(self):
        assert lie_bracket((1, 0, 0), (0, 1, 0), CTX) == (0, 0, 0)

    def test_antisymmetry(self):
        rng = random.Random(71)
        for _ in range(30):
            X = tuple(random_poly(rng, (x, y, z)) for _ in range(3))
            Y = tuple(random_poly(rng, (x, y, z)) for _ in range(3))
            XY = lie_bracket(X, Y, CTX)
            YX = lie_bracket(Y, X, CTX)
            for u, v in zip(XY, YX):
                assert normalize(u + v, CTX) == 0

    def test_jacobi(self):
        rng = random.Random(72)
        for _ in range(10):
            X = tuple(random_poly(rng, (x, y, z), degree=1) for _ in range(3))
            Y = tuple(random_poly(rng, (x, y, z), degree=1) for _ in range(3))
            Z = tuple(random_poly(rng, (x, y, z), degree=1) for _ in range(3))
            total = [sp.Integer(0)] * 3
            for A, B, C in ((X, Y, Z), (Y, Z, X), (Z, X, Y)):
                t = lie_bracket(A, lie_bracket(B, C, CTX), CTX)
                total = [u + v for u, v in zip(total, t)]
            for c in total:
                assert normalize(c, CTX) == 0


class TestBracketRank:
    def test_full_rank(self, ex1):
        pt = {x: 1.0, y: 1.0, z: 1.0}
        assert bracket_rank(list(ex1.controls), pt, ex1.ctx) == 3

    def test_rank_three_of_four(self, ex3):
        pt = {x: 0.5, y: 0.5, z: 0.5, w: 0.3, a: 1.0, b: 2.0}
        assert bracket_rank(list(ex3.controls), pt, ex3.ctx, depth=4) == 3

    def test_involutive_stays_low(self):
        fields = [(1, 0, 0), (0, 1, 0)]
        pt = {x: 0.2, y: 0.4, z: 0.7}
        assert bracket_rank(fields, pt, CTX) == 2

    def test_iterated_brackets_grow(self, ex1):
        brs = iterated_brackets(list(ex1.controls), ex1.ctx, depth=2)
        assert len(brs) > 2


class TestZeroLocusSampling:
    def test_points_on_locus(self, ex4):
        rng = np.random.default_rng(3)
        pts = zero_locus_points([b * x - a * z], ex4.ctx, rng, count=10)
        assert len(pts) == 10
        for pt in pts:
            val = pt[b] * pt[x] - pt[a] * pt[z]
            assert abs(val) < 1e-9
            assert abs(math.cos(pt[w])) > 1e-6

    def test_nonlinear_locus(self):
        rng = np.random.default_rng(4)
        pts = zero_locus_points([x**2 + y**2 - 1], CTX, rng, count=5)
        for pt in pts:
            assert abs(pt[x] ** 2 + pt[y] ** 2 - 1) < 1e-9

    def test_linear_system_sharing_a_state(self):
        # solving y + z for y would break x + y = 0, already solved for x
        rng = np.random.default_rng(5)
        pts = zero_locus_points([x + y, y + z], CTX, rng, count=5)
        assert len(pts) == 5
        for pt in pts:
            assert abs(pt[x] + pt[y]) < 1e-12
            assert abs(pt[y] + pt[z]) < 1e-12

    def test_linear_plan_built_once_per_call(self, monkeypatch):
        real = sp.Poly
        built = []

        def counting_poly(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sampling_module.sp, "Poly", counting_poly)
        rhos = [x + y, y + z]
        pts = zero_locus_points(rhos, CTX, np.random.default_rng(5),
                                count=50)
        assert len(pts) == 50
        assert len(built) <= len(rhos) * len(CTX.states)

    @pytest.mark.parametrize("rho", [
        x + y, x**2 + y, x**2 * y + z, z, y + 1 / x, (x + y) / (z + 1),
        sp.sin(x) + y, x * sp.sin(y) + sp.cos(z), x * sp.sin(x) + y,
        a * x + z, a * x**2 - b * y, x / a + b], ids=str)
    def test_linear_plan_matches_degree_test(self, rho):
        ctx = SymbolContext(states=(x, y, z), params=(a, b))
        assert sampling_module._linear_plan([rho], ctx) == \
            _reference_linear_plan([rho], ctx)

    def test_empty_locus_raises_named_error(self):
        rng = np.random.default_rng(6)
        with pytest.raises(SamplingFailed):
            zero_locus_points([x**2 + 1], CTX, rng, count=2)


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
    def _failing_once(monkeypatch, target, exc):
        real = sampling_module.evaluate
        failed = []

        def evaluate(e, point, ctx=None):
            if not failed and sp.sympify(e) == target:
                failed.append(e)
                raise exc
            return real(e, point, ctx)

        monkeypatch.setattr(sampling_module, "evaluate", evaluate)
        monkeypatch.setattr(expr_module, "evaluate", evaluate)  # constraints
        return failed

    @pytest.mark.parametrize("rhos, nonzero, target", SITES, ids=IDS)
    def test_unrelated_error_propagates(self, monkeypatch, rhos, nonzero,
                                        target):
        self._failing_once(monkeypatch, target, RuntimeError("unrelated"))
        ctx = SymbolContext(states=(x, y, z), nonzero=nonzero)
        with pytest.raises(RuntimeError, match="unrelated"):
            zero_locus_points(rhos, ctx, np.random.default_rng(7), count=3)

    @pytest.mark.parametrize("rhos, nonzero, target", SITES, ids=IDS)
    def test_singular_point_is_skipped(self, monkeypatch, rhos, nonzero,
                                       target):
        failed = self._failing_once(monkeypatch, target,
                                    EvalSingular("below threshold"))
        ctx = SymbolContext(states=(x, y, z), nonzero=nonzero)
        pts = zero_locus_points(rhos, ctx, np.random.default_rng(7), count=3)
        assert failed and len(pts) == 3


class TestInvariance:
    def test_invariant_locus_holds(self, ex1):
        v = invariance_test(ex1, [z], trials=10, pieces=3, horizon=1.0,
                            h=1e-3, seed=1)
        assert v.held
        assert v.max_rho < v.tolerance

    def test_non_invariant_locus_violated(self, ex2):
        v = invariance_test(ex2, [y], trials=10, pieces=3, horizon=1.0,
                            h=1e-3, seed=1)
        assert not v.held

    def test_deterministic(self, ex1):
        v1 = invariance_test(ex1, [z], trials=5, pieces=2, horizon=0.5, seed=9)
        v2 = invariance_test(ex1, [z], trials=5, pieces=2, horizon=0.5, seed=9)
        assert v1 == v2


class TestEscape:
    def test_escape_found(self, ex2):
        esc = escape_test(ex2, [y], seed=2, horizon=2.0)
        assert esc is not None
        sched, t, val = esc
        assert val > 0.1
        assert 0 < t <= sched.horizon

    def test_no_escape_from_invariant(self, ex1):
        esc = escape_test(ex1, [z], seed=2, horizon=1.0)
        assert esc is None


# --- the RK4 loops against the earlier per-call kernel ------------------------
#
# _reference_* are the earlier per-call lambdified kernel and the loops built
# on it (a fresh (rows, N) block per call, a separate monitor call per step),
# kept verbatim as an oracle: the component-major evaluator must reproduce
# them bit for bit.

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
    fields = _reference_lambdify(list(sys.drift) + [c for g in sys.controls for c in g],
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
    for c in ctx.nonzero:
        if abs(evaluate(c, point0, ctx)) <= CONSTRAINT_MARGIN:
            raise DomainExit(f"initial point violates nonzero constraint {c}")

    rhs = _reference_rhs_function(sys)
    p = np.array([[float(param_values[q]) for q in ctx.params]])
    cons_fn = _reference_monitor_function(list(ctx.nonzero), ctx) if ctx.nonzero else None

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
        mon_fn = _reference_monitor_function(list(monitors.values()), ctx)
        vals = mon_fn(xs, np.repeat(p, len(xs), axis=0))
        for k, lbl in enumerate(monitors):
            rho_values[lbl] = vals[:, k]
    return Trajectory(times=times, states=xs, controls=us,
                      schedule=schedule, rho_values=rho_values)

def _reference_invariance_test(sys: ControlAffineSystem, rhos, trials=100, pieces=10,
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
    rhs = _reference_rhs_function(sys)
    mon = _reference_monitor_function(rhos, ctx)
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
    rhs = _reference_rhs_function(sys)
    mon = _reference_monitor_function(rhos, ctx)
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
# rows whose u1 = 1 overflow to inf within one step and drop out of escape_test
OVERFLOW = "states: x y\ncontrol g1: [15*10^307, 0]\ncontrol g2: [0, 1]\n"
# g1 = 10^60 x^2 overflows in a later stage of the first step, never in k1
BLOWUP = "states: x y\ncontrol g1: [10^60*x^2, 0]\ncontrol g2: [0, 1]\n"
CHAINED8 = ("states: x1 x2 x3 x4 x5 x6 x7 x8\n"
            "control g1: [1, 0, x2, x3, x4, x5, x6, x7]\n"
            "control g2: [0, 1, 0, 0, 0, 0, 0, 0]\n")
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
}


def oracle_system(name, request):
    if name == "shared":
        return SHARED
    text = {"dense": DENSE, "params": PARAM_ROWS, "singular": SINGULAR,
            "overflow": OVERFLOW, "blowup": BLOWUP,
            "chained8": CHAINED8}.get(name)
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


# the reference loops warn on overflow outside their np.errstate blocks
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestAgainstReferenceLoops:
    @pytest.mark.parametrize("name", sorted(ORACLE_LOCI))
    @pytest.mark.parametrize("trials, seed", [(30, 3), (200, 8)])
    def test_invariance_test(self, name, trials, seed, request):
        sys = oracle_system(name, request)
        for rhos in ORACLE_LOCI[name]:
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
        got = invariance_test(sys, [x], **kwargs)
        assert got.errors and not got.held
        assert_same_verdict(got, _reference_invariance_test(sys, [x],
                                                            **kwargs))

    def test_later_stage_overflow_raises(self):
        # BLOWUP's first step: k1 is finite, a later stage is not
        rhs = rhs_function(parse_system(BLOWUP))
        x0, u = np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])
        p = np.zeros((1, 0))
        with np.errstate(all="ignore"):
            k1 = rhs(x0, u, p)
            with pytest.raises(StepSingular):
                numeric_module._rk4_step(rhs, x0, u, p, 1e-2, k1)

    def test_overflowing_rows_drop_out_of_escape(self):
        sys = parse_system(OVERFLOW)
        kwargs = dict(seed=4, horizon=0.5, starts=4, random_controls=5)
        got = escape_test(sys, [y], **kwargs)
        # the first hit, u = e2, comes after the dropped row of u = e1
        assert got[0].pieces[0][1] == (0.0, 1.0)
        assert got == _reference_escape_test(sys, [y], **kwargs)

    def test_singular_rows_drop_out_of_escape(self):
        # u = e1 blows up x' = 10^60 x^2 from every start; u = e2 still
        # leaves {y = 0}
        got = escape_test(parse_system(BLOWUP), [y], seed=0)
        assert got is not None
        assert got[0].pieces[0][1] == (0.0, 1.0)
        assert got[1] == pytest.approx(0.11)

    @pytest.mark.parametrize("name", sorted(ORACLE_LOCI))
    def test_escape_test(self, name, request):
        sys = oracle_system(name, request)
        kwargs = dict(seed=4, horizon=0.5, starts=4, random_controls=5)
        if name == "blowup":
            # the reference stops the whole search at the first singular row
            # and finds nothing; the rows of u1 != 0 blow up and drop out,
            # and u = e2 leaves {y = 0} while x stays put
            got = escape_test(sys, [y], **kwargs)
            assert got[0].pieces == ((0.5, (0.0, 1.0)),)
            assert got[1] == pytest.approx(0.11)
            assert got[2] > 0.1
            assert escape_test(sys, [x - 1], **kwargs) is None
            return
        for rhos in ORACLE_LOCI[name]:
            assert_same(outcome(escape_test, sys, rhos, **kwargs),
                        outcome(_reference_escape_test, sys, rhos, **kwargs))

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
        monitors = {f"rho{i + 1}": sp.Add(*rhos)
                    for i, rhos in enumerate(ORACLE_LOCI[name])}
        self.assert_same_run(sys, x0, sched, params, monitors)

    def test_simulate_domain_exit(self, ex3):
        # u2 = 1 drives cos(w) through zero at w = pi/2
        sched = ControlSchedule(((1.0, (0.3, 0.0)), (2.0, (0.0, 1.0))))
        params = {a: 1.0, b: 1.5}
        got = self.assert_same_run(ex3, [0.1, 0.2, 0.3, 0.0], sched, params,
                                   {"rho1": y})
        assert got[0] is DomainExit

    @staticmethod
    def assert_same_run(sys, x0, sched, params, monitors):
        got, want = (outcome(fn, sys, x0, sched, h=1e-2, param_values=params,
                             monitors=monitors)
                     for fn in (simulate, _reference_simulate))
        if isinstance(want, Trajectory):
            assert np.array_equal(got.times, want.times)
            assert np.array_equal(got.states, want.states, equal_nan=True)
            assert np.array_equal(got.controls, want.controls)
            assert list(got.rho_values) == list(want.rho_values)
            for lbl, vals in want.rho_values.items():
                assert np.array_equal(got.rho_values[lbl], vals,
                                      equal_nan=True)
        else:
            assert_same(got, want)
        return got


def test_invariance_attempt_evaluates_fields_six_times(ex3, monkeypatch):
    # five stages, then the monitors and the last stage from one fused
    # evaluation per attempted step, plus the evaluation at the start
    real = numeric_module._compile
    calls = []

    def counting_compile(source, namespace, name):
        # the one generated function, which fills every row at a state
        fn = real(source, namespace, name)

        def call(*values):
            calls.append(fn)
            return fn(*values)

        return call

    monkeypatch.setattr(numeric_module, "_compile", counting_compile)
    seen = recording_sweep(monkeypatch)
    invariance_test(ex3, [b * x - a * z], trials=7, pieces=3, horizon=0.5,
                    h=0.01, seed=3)
    attempts = len(seen) - 2  # the arguments and the start come first
    assert attempts > 3
    assert len(calls) == 1 + 6 * attempts
