import math
import random

import numpy as np
import pytest
import sympy as sp

import ctrlinv.expr as expr_module
import ctrlinv.sampling as sampling_module
from ctrlinv.dsl import ControlSchedule, parse_system
from ctrlinv.errors import (
    DomainExit,
    EvalSingular,
    SamplingFailed,
    StepSingular,
)
from ctrlinv.expr import SymbolContext, normalize
from ctrlinv.numeric import (
    bracket_rank,
    escape_test,
    invariance_test,
    iterated_brackets,
    lie_bracket,
    monitor_function,
    rhs_function,
    simulate,
)
from ctrlinv.sampling import zero_locus_points

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


class TestFusedEvaluator:
    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4", "dense"])
    @pytest.mark.parametrize("rows", [0, 1, 100, 1000])
    def test_rhs_matches_per_field_reference(self, name, rows, request):
        sys = (parse_system(DENSE) if name == "dense"
               else request.getfixturevalue(name))
        x, u, p = random_batch(sys, rows, seed=rows)
        out = rhs_function(sys)(x, u, p)
        assert out.shape == (rows, sys.n)
        assert np.array_equal(out, per_field_rhs(sys, x, u, p))

    def test_monitor_constant_and_parameter_only(self, ex4):
        xs, _, ps = random_batch(ex4, 7, seed=1)
        vals = monitor_function([sp.Integer(3), a, b * x - a * z],
                                ex4.ctx)(xs, ps)
        assert vals.shape == (7, 3)
        assert np.array_equal(vals[:, 0], np.full(7, 3.0))
        assert np.array_equal(vals[:, 1], ps[:, 0])

    def test_singular_field_raises(self):
        sys = parse_system("states: x\ncontrol g1: [1/x]\n")
        rhs = rhs_function(sys)
        with pytest.raises(StepSingular):
            rhs(np.zeros((1, 1)), np.ones((1, 1)), np.zeros((1, 0)))


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
