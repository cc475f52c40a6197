import itertools
import random
import time

import pytest
import sympy as sp
from sympy.polys.polyerrors import PolynomialError

import ctrlinv.integrals as integrals_module
from ctrlinv.dsl import parse_system
from ctrlinv.errors import AnnihilationFailure, EvalSingular, NotClosed
from ctrlinv.expr import (
    SymbolContext,
    from_field,
    normalize,
    to_field,
    to_text,
)
from ctrlinv.flag import TorsionMatrix, annihilator, derived_flag, torsion
from ctrlinv.integrals import (
    AnalysisConfig,
    Classification,
    _clear_known_denominator,
    _extended_ctx,
    analyze,
    check_membership,
    first_integrals,
    gfi_candidates,
    nondegenerate,
    poincare_integrate,
)

from conftest import one_form_of

x, y, z, w = sp.symbols("x y z w")
a, b = sp.symbols("a b")

CTX = SymbolContext(states=(x, y, z))
CTX4 = SymbolContext(states=(x, y, z, w), params=(a, b),
                     param_signs={a: "+", b: "+"},
                     nonzero=(sp.cos(w),))

FAST = AnalysisConfig(seed=42, trials=5, pieces=3, horizon=1.0, step=1e-3)

TINY_COEFFICIENT = """states: x y z
control g1: [1, 0, 0]
control g2: [0, x/10000000000, 0]
"""

# a torsion minor of this system has a trig denominator factor that is not
# declared nonzero
MINOR_DENOMINATOR = """states: x y z w
control g1: [sin(w), sin(w)*y - 2, 2, w*sin(w) + 1]
control g2: [0, -4, y, y*cos(w) + 2]
assume_nonzero: cos(w)
"""


def F(e, ctx=CTX):
    return to_field(sp.sympify(e), ctx)


def exprs(fs):
    return [from_field(f) for f in fs]


class TestPoincareIntegrate:
    def test_linear_combination(self):
        rho = poincare_integrate(one_form_of([b, 0, -a, 0], CTX4))
        assert normalize(from_field(rho) - (b * x - a * z), CTX4) == 0

    def test_coordinate(self):
        assert from_field(poincare_integrate(one_form_of([0, 0, 1], CTX))) == z

    def test_product(self):
        rho = poincare_integrate(one_form_of([y, x, 0], CTX))
        assert normalize(from_field(rho) - x * y, CTX) == 0

    def test_not_closed(self):
        with pytest.raises(NotClosed):
            poincare_integrate(one_form_of([y, 0, 0], CTX))

    @pytest.mark.parametrize("error", [NotImplementedError("risch"),
                                       PolynomialError("heuristic")])
    def test_integration_failure_is_none(self, monkeypatch, error):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(integrals_module.sp, "integrate", failing)
        assert poincare_integrate(one_form_of([y, x, 0], CTX)) is None

    def test_unrelated_error_propagates(self, monkeypatch):
        def failing(*args, **kwargs):
            raise KeyError("unrelated")

        monkeypatch.setattr(integrals_module.sp, "integrate", failing)
        with pytest.raises(KeyError, match="unrelated"):
            poincare_integrate(one_form_of([y, x, 0], CTX))

    def test_gradient_round_trip(self):
        from ctrlinv.expr import gradient
        from ctrlinv.forms import one_form
        from conftest import random_poly

        rng = random.Random(61)
        for _ in range(15):
            rho = random_poly(rng, (x, y, z))
            omega = one_form(gradient(F(rho), CTX), CTX)
            got = poincare_integrate(omega)
            # potentials agree up to an additive constant
            diff = normalize(from_field(got) - rho, CTX)
            assert not any(v in diff.free_symbols for v in CTX.states)


class TestNondegenerate:
    def test_coordinate_function(self):
        assert nondegenerate([F(z)], CTX)

    def test_linear(self):
        assert nondegenerate([F(b * x - a * z, CTX4)], CTX4)

    def test_constant_rejected(self):
        assert not nondegenerate([F(1)], CTX)

    def test_square_degenerate(self):
        # dz(z^2) = 2z dz vanishes on the zero locus {z = 0}
        assert not nondegenerate([F(z**2)], CTX)


class TestGfiCandidates:
    def test_single_isolated(self, ex1):
        ann = annihilator(ex1)
        T = torsion(ann, ex1.ctx)
        cands = gfi_candidates(T, ex1.ctx)
        assert set(exprs(cands)) == {z, x + 1}

    def test_no_invariant_variant(self, ex2):
        ann = annihilator(ex2)
        T = torsion(ann, ex2.ctx)
        cands = gfi_candidates(T, ex2.ctx)
        assert set(exprs(cands)) == {y, 2 * x + 1}

    def test_drift_case(self, ex4):
        ann = annihilator(ex4)
        T = torsion(ann, ex4.ctx)
        cands = gfi_candidates(T, ex4.ctx, extra_nonzero=ann.constraints)
        assert any(normalize(c - (a * z - b * x), ex4.ctx) == 0
                   or normalize(c - (b * x - a * z), ex4.ctx) == 0
                   for c in exprs(cands))


# ex1 extended by a chain: four torsion rows, one column, so the nonzero
# minors are the entries (size 1)
CHAIN = """states: x y z u v w
control g1: [1, y, 0, x, u, v]
control g2: [0, 1, x*z, 0, 0, 0]
"""


# states x y z u v; the level-0 torsion is 2x3 with large entries
SLOW_MINORS = """states: x y z u v
drift: [v*z, y*u, -1, x*u, y*y]
control g1: [v*v, 1, -2, 0, x - 1]
control g2: [y - 1, 0, v*z, z, 0]
"""


class TestGenericRankMinors:
    def test_chain_torsion_candidates(self):
        sys = parse_system(CHAIN)
        ann = annihilator(sys)
        T = torsion(ann, sys.ctx)
        assert T.shape() == (4, 1)
        cands = gfi_candidates(T, sys.ctx, seed=42,
                               extra_nonzero=ann.constraints)
        assert [to_text(c) for c in exprs(cands)] == ["z", "x + 1"]

    def test_chain_isolated_submanifold(self):
        rep = analyze(parse_system(CHAIN), AnalysisConfig(
            seed=42, trials=10, pieces=3, horizon=1.0))
        isolated = {tuple(e["rho"]): e for e in rep["isolated"]}
        entry = isolated[("z",)]
        assert entry["classification"] == "GeneralizedFirstIntegral"
        assert entry["invariance"]["verdict"] == "Held"

    def test_slow_minor_system(self):
        # a 5-state system whose three 2x2 torsion minors took minutes as
        # expression determinants
        sys = parse_system(SLOW_MINORS)
        ann = annihilator(sys)
        T = torsion(ann, sys.ctx)
        assert T.shape() == (2, 3)
        # the expected list, derived without gfi_candidates: restricted to a
        # random rational line x_i = a_i + b_i t, the gcd of the three
        # minors' numerators is the restriction of the pivot-determinant
        # factor F below.  Every common factor of the minors restricts to a
        # factor of that gcd, so F is the only one, and F is a recorded
        # domain constraint, nonzero on the domain: no candidate is left.
        F = "u*v**3*y*z - v**2*z**2 + 2*u*y**2 - 2*u*y - y + 1"
        assert F in [to_text(c) for c in exprs(ann.constraints)]
        t = sp.Symbol("t")
        rng = random.Random(5)
        line = {v: rng.randint(-9, 9) + rng.randint(1, 9) * t
                for v in sys.ctx.states}

        def on_line(e):
            return sp.Poly(sp.sympify(e).subs(line), t, domain="QQ")

        E = [[[on_line(p) for p in sp.fraction(from_field(e))] for e in row]
             for row in T.entries]
        gcd = None
        for i, j in itertools.combinations(range(3), 2):
            (a, da), (b, db) = E[0][i], E[0][j]
            (c, dc), (d, dd) = E[1][i], E[1][j]
            _, num, _ = (a * d * db * dc - b * c * da * dd).cancel(
                da * dd * db * dc)
            gcd = num if gcd is None else gcd.gcd(num)
        assert gcd.monic() == on_line(F).monic()
        assert gfi_candidates(T, sys.ctx, seed=42,
                              extra_nonzero=ann.constraints) == []

    def test_all_zero_torsion_has_no_candidates(self):
        T = TorsionMatrix(entries=((F(0),), (F(0),)), omega=(),
                          labels=((0, 1),))
        assert gfi_candidates(T, CTX) == []


def _loop_over_dmax(T, ctx, dmax, seed=0, extra_nonzero=()):
    """gfi_candidates as it was with a `dmax` knob, recomputed on sympy
    expressions: every minor size from s down to s - dmax + 1, factors
    deduplicated across sizes.  Returns expressions."""
    s, ncols = T.shape()
    ctxe = _extended_ctx(ctx, extra_nonzero)
    gens = ctx.states + ctx.params
    entries = [[from_field(e) for e in row] for row in T.entries]
    found = []
    seen = set()
    for dd in range(1, min(dmax, s) + 1):
        size = s - dd + 1
        if size > s or size > ncols:
            continue
        minors = []
        for rows in itertools.combinations(range(s), size):
            for cols in itertools.combinations(range(ncols), size):
                sub = sp.Matrix([[entries[r][c] for c in cols] for r in rows])
                det = sp.cancel(sub.det(method="berkowitz"))
                if det != 0:
                    # the pipeline requires a known-nonzero denominator
                    _clear_known_denominator(F(det, ctx), ctxe)
                    minors.append(sp.expand(sp.fraction(det)[0]))
        if not minors:
            continue
        factors = []
        for f, _ in sp.factor_list(minors[0], *gens)[1]:
            f = sp.expand(f)
            if sp.Poly(f, *gens).LC(order="grlex") < 0:
                f = sp.expand(-f)
            factors.append(f)
        for f in sorted(factors, key=sp.default_sort_key):
            if not f.free_symbols & set(ctx.states):
                continue
            if any(sp.div(mnr, f, *gens)[1] != 0 for mnr in minors[1:]):
                continue
            if f in seen:
                continue
            seen.add(f)
            if nondegenerate([F(f, ctx)], ctxe, seed=seed):
                found.append(f)
    return found


STATES = sp.symbols("x y z u v")


def _random_term(rng, names):
    kind = rng.randrange(5)
    if kind == 0:
        return str(rng.randint(-2, 2))
    if kind in (1, 2):
        return rng.choice(names)
    if kind == 3:
        return f"{rng.choice(names)} + {rng.randint(-2, 2)}"
    return f"{rng.choice(names)}*{rng.choice(names)}"


def _random_system(rng):
    """n = 3..5 states, m = 1..2 controls, often a drift; field k is 1 in
    coordinate k, 0 before it and sparse of degree <= 2 after it."""
    n, m = rng.randint(3, 5), rng.randint(1, 2)
    names = [str(v) for v in STATES[:n]]
    fields = m + 1 if m == 1 or rng.random() < 0.6 else m
    rows = [["0"] * k + ["1"] + [_random_term(rng, names)
                                 if rng.random() < 0.7 else "0"
                                 for _ in range(n - k - 1)]
            for k in range(fields)]
    lines = ["states: " + " ".join(names)]
    if fields > m:
        lines.append(f"drift: [{', '.join(rows[m])}]")
    lines += [f"control g{j + 1}: [{', '.join(r)}]"
              for j, r in enumerate(rows[:m])]
    return parse_system("\n".join(lines) + "\n")


def _random_torsion(rng):
    """s = 1..4 rows and 1..3 columns of degree <= 2 entries over 3..5
    states, most of them sharing one linear factor."""
    states = STATES[:rng.randint(3, 5)]
    s, ncols = rng.randint(1, 4), rng.randint(1, 3)
    common = rng.choice(states) + rng.randint(-1, 1)

    def entry():
        kind = rng.randrange(6)
        e = (sp.Integer(0) if kind == 0 else
             sp.Integer(rng.randint(-2, 2)) if kind == 1 else
             rng.choice(states) + rng.randint(-1, 1) if kind < 4 else
             rng.choice(states) * rng.choice(states))
        return e * common if rng.random() < 0.6 else e

    ctx = SymbolContext(states=states)
    entries = tuple(tuple(F(entry(), ctx) for _ in range(ncols))
                    for _ in range(s))
    return ctx, TorsionMatrix(entries=entries, omega=(),
                              labels=tuple(range(ncols))), ()


def _system_torsion(rng):
    sys = _random_system(rng)
    ann = annihilator(sys)
    if ann.rank == 0:
        return sys.ctx, None, ()
    return sys.ctx, torsion(ann, sys.ctx), ann.constraints


class TestGenericRankAgainstDmaxLoop:
    """The generic-rank scan returns the list that the loop over every
    minor size (dmax = s) returns, in the same order."""

    @pytest.mark.parametrize("draw", [_system_torsion, _random_torsion],
                             ids=["systems", "torsions"])
    def test_same_candidates(self, draw):
        start = time.perf_counter()
        compared = with_candidates = 0
        for seed in range(60):
            if compared >= 10 and time.perf_counter() - start > 3.0:
                break
            ctx, T, constraints = draw(random.Random(seed))
            if T is None or T.is_trivial:
                continue
            want = _loop_over_dmax(T, ctx, T.shape()[0], seed=seed,
                                   extra_nonzero=constraints)
            got = gfi_candidates(T, ctx, seed=seed,
                                 extra_nonzero=constraints)
            assert exprs(got) == want, (seed, T.entries)
            compared += 1
            with_candidates += bool(want)
        assert compared >= 10 and with_candidates >= 2


class TestDivideSequentialErrors:
    """The numeric fallback absorbs a singular point and nothing else."""

    @staticmethod
    def _divide(monkeypatch, exc):
        def raising(*args, **kwargs):
            raise exc

        monkeypatch.setattr(integrals_module, "evaluate", raising)
        # z is not in the ideal (x, y), so the column goes to the fallback
        return integrals_module._divide_sequential(
            (F(x), F(y)), {2: (F(z), F(z), F(1))}, ["x", "y", "z"], CTX, CTX,
            {}, {}, 1, 0)

    def test_unrelated_error_propagates(self, monkeypatch):
        with pytest.raises(RuntimeError, match="unrelated failure"):
            self._divide(monkeypatch, RuntimeError("unrelated failure"))

    def test_singular_point_is_undetermined(self, monkeypatch):
        verdict, evidence = self._divide(
            monkeypatch, EvalSingular("denominator below threshold"))
        assert verdict is Classification.UNDETERMINED
        assert evidence == {"reason": "singular evaluation in numeric "
                                      "fallback", "column": "dz"}


class TestCheckMembership:
    def test_generalized(self, ex1):
        ann = annihilator(ex1)
        res = check_membership([F(z)], ann, ex1.ctx)
        assert res.classification is Classification.GENERALIZED
        # dz = theta - z*(x*y dx - x dy): quotients against rho = z
        q = res.evidence["quotients"]
        assert normalize(sp.sympify(q["rho1:dx"]) + x * y, ex1.ctx) == 0
        assert normalize(sp.sympify(q["rho1:dy"]) - x, ex1.ctx) == 0

    def test_rejected(self, ex2):
        ann = annihilator(ex2)
        res = check_membership([F(y)], ann, ex2.ctx)
        assert res.classification is Classification.REJECTED

    def test_rejected_second_factor(self, ex2):
        ann = annihilator(ex2)
        res = check_membership([F(2 * x + 1)], ann, ex2.ctx)
        assert res.classification is Classification.REJECTED

    def test_drift_generalized(self, ex4):
        ann = annihilator(ex4)
        res = check_membership([F(b * x - a * z, ex4.ctx)], ann, ex4.ctx)
        assert res.classification is Classification.GENERALIZED

    def test_degenerate_candidate(self, ex1):
        ann = annihilator(ex1)
        res = check_membership([F(z**2)], ann, ex1.ctx)
        assert res.classification is Classification.REJECTED
        assert res.evidence["reason"] == "NonDegeneracyFailure"

    def test_rank_zero_system_rejects_candidate(self):
        # the fields span R^3, so theta = 0 and dz is not in (z)
        sys = parse_system("states: x y z\ndrift: [0, 1, 0]\n"
                           "control g1: [1, 0, 0]\ncontrol g2: [0, 0, 1]\n")
        ann = annihilator(sys)
        assert ann.rank == 0
        res = check_membership([F(z)], ann, sys.ctx)
        assert res.classification is Classification.REJECTED

    def test_codimension_two_generalized(self):
        # {x = y = 0} is invariant: dx = theta1 + x dz, dy = theta2 + y dw
        sys = parse_system("states: x y z w\ncontrol g1: [x, 0, 1, 0]\n"
                           "control g2: [0, y, 0, 1]\n")
        res = check_membership([F(x, sys.ctx), F(y, sys.ctx)],
                               annihilator(sys), sys.ctx)
        assert res.classification is Classification.GENERALIZED
        assert res.evidence["quotients"] == {
            "rho1:dz:rho1": "1", "rho1:dz:rho2": "0",
            "rho2:dw:rho1": "0", "rho2:dw:rho2": "1"}

    def test_first_integral_detected(self, ex3):
        ann = annihilator(ex3)
        res = check_membership([F(b * x - a * z, ex3.ctx)], ann, ex3.ctx)
        assert res.classification is Classification.FIRST_INTEGRAL


def test_closed_pair_combination():
    # d(x dy) = dx^dy and d(2y dx) = -2 dx^dy: 2 (x dy) + 1 (2y dx) = d(2xy)
    gi, gj = one_form_of([0, x, 0], CTX), one_form_of([2 * y, 0, 0], CTX)
    assert integrals_module._closed_pair_combination(gi, gj) == (2, 1)
    closed = one_form_of([1, 0, 0], CTX)
    assert integrals_module._closed_pair_combination(closed, closed) is None


class TestFirstIntegrals:
    def test_foliation_integral(self, ex3):
        flag = derived_flag(ex3)
        out = first_integrals(flag, ex3.ctx, fields=ex3.exact_fields())
        assert len(out) == 1
        cand = out[0]
        assert cand.classification is Classification.FIRST_INTEGRAL
        rho = from_field(cand.rhos[0])
        ratio = normalize(rho / (b * x - a * z), ex3.ctx)
        assert ratio.is_Rational and ratio != 0

    def test_trivially_integrable(self):
        from ctrlinv.dsl import parse_system

        sys = parse_system(
            "states: x y z\ncontrol g1: [1, 0, 0]\ncontrol g2: [0, 1, 0]\n")
        flag = derived_flag(sys)
        out = first_integrals(flag, sys.ctx, fields=sys.exact_fields())
        assert len(out) == 1
        assert out[0].classification is Classification.FIRST_INTEGRAL
        assert from_field(out[0].rhos[0]) == z


class TestAnalyze:
    def test_isolated_report(self, ex1):
        rep = analyze(ex1, FAST)
        assert rep["type"] == [1, 0]
        assert [e["rho"] for e in rep["isolated"]] == [["z"]]
        assert rep["foliation"] == []
        assert len(rep["rejected"]) == 1
        assert "isolated" in rep["conclusion"]

    def test_no_invariants_report(self, ex2):
        rep = analyze(ex2, FAST)
        assert rep["conclusion"] == "no invariant submanifolds"
        assert rep["isolated"] == [] and rep["foliation"] == []
        assert len(rep["rejected"]) == 2
        for e in rep["rejected"]:
            assert e["escape"] is not None
            assert abs(e["escape"]["value"]) > 0.1

    def test_foliation_report(self, ex3):
        rep = analyze(ex3, FAST)
        assert rep["type"] == [1, 1]
        assert len(rep["foliation"]) == 1
        entry = rep["foliation"][0]
        assert entry["leaf_dimension"] == 3
        assert entry["invariance"]["verdict"] == "Held"
        assert entry["leaf_controllability"]["controllable_on_leaf"] is True

    def test_undetermined_entry_is_named_in_conclusion(self):
        # y dx - x dy is integrable (x/y is a first integral) but neither
        # closed nor part of a constant-coefficient pair, so the flag's
        # generator stays Undetermined; the conclusion must say so
        sys = parse_system(
            "states: x y z\ncontrol g1: [x, y, 0]\ncontrol g2: [0, 0, 1]\n")
        rep = analyze(sys, FAST)
        assert rep["type"] == [0, 1]
        assert len(rep["undetermined"]) == 1
        assert rep["foliation"] == [] and rep["isolated"] == []
        assert rep["conclusion"] == "1 undetermined candidate(s)"

    def test_tiny_coefficient_rank_is_certified(self):
        # x/10^10 lies below a float rank tolerance; exact evaluation at a
        # rational point still sees rank 2 in the field matrix
        sys = parse_system(TINY_COEFFICIENT)
        assert analyze(sys, FAST)["type"] == [0, 1]

    def test_uncertified_minor_denominator_is_undetermined(self):
        # the torsion minor's denominator has a factor no declared
        # constraint covers: one Undetermined entry, not an aborted report
        sys = parse_system(MINOR_DENOMINATOR)
        rep = analyze(sys, AnalysisConfig(seed=61, run_numeric=False))
        assert rep["type"] == [2, 0]
        assert rep["undetermined"] == [{
            "rho": [], "classification": "Undetermined",
            "provenance": "FromTorsionMinors",
            "evidence": {"reason": "denominator w*y*sin(w) - 2*y*cos(w) "
                                   "+ y - 4 is not certified nonzero on "
                                   "the domain"}}]
        assert rep["conclusion"] == "1 undetermined candidate(s)"

    @pytest.mark.parametrize("field, value", [
        ("trials", 0), ("pieces", 0), ("pieces", -2), ("horizon", 0.0),
        ("horizon", float("nan")), ("step", -1.0), ("step", float("nan")),
        ("step", float("inf"))])
    def test_numeric_setting_rejected(self, ex1, field, value):
        # at one time trials=0 ended in a TypeError from numpy, pieces=0 and
        # step=-1 reported Held, and step=nan failed converting NaN to int
        with pytest.raises(ValueError, match=f"^{field} must be positive"):
            analyze(ex1, AnalysisConfig(**{field: value}))

    @pytest.mark.parametrize("field, value, message", [
        ("trials", 2.5, "an integer"), ("trials", True, "an integer"),
        ("pieces", 1.5, "an integer"), ("seed", -1, "non-negative"),
        ("seed", 1.5, "an integer")])
    def test_count_or_seed_rejected(self, field, value, message):
        # these once ended in TypeErrors and ValueErrors from Python or
        # numpy that did not name the setting
        with pytest.raises(ValueError, match=f"^{field} must be {message}"):
            AnalysisConfig(**{field: value})

    def test_drift_report(self, ex4):
        rep = analyze(ex4, FAST)
        rhos = [e["rho"] for e in rep["isolated"]]
        assert any(r in (["-a*z + b*x"], ["b*x - a*z"]) for r in rhos)
        assert rep["isolated"][0]["invariance"]["verdict"] == "Held"


def test_first_integral_annihilation_failure_raises(monkeypatch):
    sys = parse_system(
        "states: x y z\ncontrol g1: [1, 0, 0]\ncontrol g2: [0, 1, 0]\n")
    flag = derived_flag(sys)
    monkeypatch.setattr(integrals_module, "contract", lambda form, X: 1)
    with pytest.raises(AnnihilationFailure):
        first_integrals(flag, sys.ctx, fields=sys.exact_fields())
