import pytest
import sympy as sp

import ctrlinv.integrals as integrals_module
from ctrlinv.dsl import parse_system
from ctrlinv.errors import AnnihilationFailure, NotClosed
from ctrlinv.expr import SymbolContext, normalize
from ctrlinv.flag import annihilator, derived_flag, torsion
from ctrlinv.forms import one_form
from ctrlinv.integrals import (
    AnalysisConfig,
    Classification,
    analyze,
    check_membership,
    first_integrals,
    gfi_candidates,
    nondegenerate,
    poincare_integrate,
)

x, y, z, w = sp.symbols("x y z w")
a, b = sp.symbols("a b")

CTX = SymbolContext(states=(x, y, z))
CTX4 = SymbolContext(states=(x, y, z, w), params=(a, b),
                     param_signs={a: "+", b: "+"},
                     nonzero=(sp.cos(w),))

FAST = AnalysisConfig(seed=42, trials=5, pieces=3, horizon=1.0, step=1e-3)


class TestPoincareIntegrate:
    def test_linear_combination(self):
        rho = poincare_integrate(one_form([b, 0, -a, 0], CTX4))
        assert normalize(rho - (b * x - a * z), CTX4) == 0

    def test_coordinate(self):
        assert poincare_integrate(one_form([0, 0, 1], CTX)) == z

    def test_product(self):
        rho = poincare_integrate(one_form([y, x, 0], CTX))
        assert normalize(rho - x * y, CTX) == 0

    def test_not_closed(self):
        with pytest.raises(NotClosed):
            poincare_integrate(one_form([y, 0, 0], CTX))

    def test_gradient_round_trip(self):
        import random

        from ctrlinv.expr import gradient
        from conftest import random_poly

        rng = random.Random(61)
        for _ in range(15):
            rho = random_poly(rng, (x, y, z))
            omega = one_form(gradient(rho, CTX), CTX)
            got = poincare_integrate(omega)
            # potentials agree up to an additive constant
            diff = normalize(got - rho, CTX)
            assert not any(v in diff.free_symbols for v in CTX.states)


class TestNondegenerate:
    def test_coordinate_function(self):
        assert nondegenerate([z], CTX)

    def test_linear(self):
        assert nondegenerate([b * x - a * z], CTX4)

    def test_constant_rejected(self):
        assert not nondegenerate([sp.Integer(1)], CTX)

    def test_square_degenerate(self):
        # dz(z^2) = 2z dz vanishes on the zero locus {z = 0}
        assert not nondegenerate([z**2], CTX)


class TestGfiCandidates:
    def test_single_isolated(self, ex1):
        ann = annihilator(ex1)
        T = torsion(ann, ex1.ctx)
        cands = gfi_candidates(T, ex1.ctx)
        assert set(cands) == {z, x + 1}

    def test_no_invariant_variant(self, ex2):
        ann = annihilator(ex2)
        T = torsion(ann, ex2.ctx)
        cands = gfi_candidates(T, ex2.ctx)
        assert set(cands) == {y, 2 * x + 1}

    def test_drift_case(self, ex4):
        ann = annihilator(ex4)
        T = torsion(ann, ex4.ctx)
        cands = gfi_candidates(T, ex4.ctx, extra_nonzero=ann.constraints)
        assert any(normalize(c - (a * z - b * x), ex4.ctx) == 0
                   or normalize(c - (b * x - a * z), ex4.ctx) == 0
                   for c in cands)


class TestCheckMembership:
    def test_generalized(self, ex1):
        ann = annihilator(ex1)
        res = check_membership([z], ann, ex1.ctx)
        assert res.classification is Classification.GENERALIZED
        # dz = theta - z*(x*y dx - x dy): quotients against rho = z
        q = res.evidence["quotients"]
        assert normalize(sp.sympify(q["rho1:dx"]) + x * y, ex1.ctx) == 0
        assert normalize(sp.sympify(q["rho1:dy"]) - x, ex1.ctx) == 0

    def test_rejected(self, ex2):
        ann = annihilator(ex2)
        res = check_membership([y], ann, ex2.ctx)
        assert res.classification is Classification.REJECTED

    def test_rejected_second_factor(self, ex2):
        ann = annihilator(ex2)
        res = check_membership([2 * x + 1], ann, ex2.ctx)
        assert res.classification is Classification.REJECTED

    def test_drift_generalized(self, ex4):
        ann = annihilator(ex4)
        res = check_membership([b * x - a * z], ann, ex4.ctx)
        assert res.classification is Classification.GENERALIZED

    def test_degenerate_candidate(self, ex1):
        ann = annihilator(ex1)
        res = check_membership([z**2], ann, ex1.ctx)
        assert res.classification is Classification.REJECTED
        assert res.evidence["reason"] == "NonDegeneracyFailure"

    def test_first_integral_detected(self, ex3):
        ann = annihilator(ex3)
        res = check_membership([b * x - a * z], ann, ex3.ctx)
        assert res.classification is Classification.FIRST_INTEGRAL


class TestFirstIntegrals:
    def test_foliation_integral(self, ex3):
        flag = derived_flag(ex3)
        out = first_integrals(flag, ex3.ctx, fields=ex3.fields())
        assert len(out) == 1
        cand = out[0]
        assert cand.classification is Classification.FIRST_INTEGRAL
        rho = cand.rhos[0]
        ratio = normalize(rho / (b * x - a * z), ex3.ctx)
        assert ratio.is_Rational and ratio != 0

    def test_trivially_integrable(self):
        from ctrlinv.dsl import parse_system

        sys = parse_system(
            "states: x y z\ncontrol g1: [1, 0, 0]\ncontrol g2: [0, 1, 0]\n")
        flag = derived_flag(sys)
        out = first_integrals(flag, sys.ctx, fields=sys.fields())
        assert len(out) == 1
        assert out[0].classification is Classification.FIRST_INTEGRAL
        assert out[0].rhos[0] == z


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
        first_integrals(flag, sys.ctx, fields=sys.fields())
