import itertools
import random
import time

import pytest
import sympy as sp

import ctrlinv.integrals as integrals_module
from ctrlinv.dsl import parse_system
from ctrlinv.errors import AnnihilationFailure, EvalSingular, NotClosed
from ctrlinv.expr import (
    SymbolContext,
    divide_exact,
    factor,
    normalize,
    to_text,
)
from ctrlinv.flag import TorsionMatrix, annihilator, derived_flag, torsion
from ctrlinv.forms import one_form
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


# ex1 extended by a chain: four torsion rows, one column, so the nonzero
# minors are the entries (size 1)
CHAIN = """states: x y z u v w
control g1: [1, y, 0, x, u, v]
control g2: [0, 1, x*z, 0, 0, 0]
"""


class TestGenericRankMinors:
    def test_chain_torsion_candidates(self):
        sys = parse_system(CHAIN)
        ann = annihilator(sys)
        T = torsion(ann, sys.ctx)
        assert T.shape() == (4, 1)
        cands = gfi_candidates(T, sys.ctx, seed=42,
                               extra_nonzero=ann.constraints)
        assert [to_text(c) for c in cands] == ["z", "x + 1"]

    def test_chain_isolated_submanifold(self):
        rep = analyze(parse_system(CHAIN), AnalysisConfig(
            seed=42, trials=10, pieces=3, horizon=1.0))
        isolated = {tuple(e["rho"]): e for e in rep["isolated"]}
        entry = isolated[("z",)]
        assert entry["classification"] == "GeneralizedFirstIntegral"
        assert entry["invariance"]["verdict"] == "Held"

    def test_all_zero_torsion_has_no_candidates(self):
        T = TorsionMatrix(entries=((0,), (0,)), omega=(), labels=((0, 1),))
        assert gfi_candidates(T, CTX) == []


def _loop_over_dmax(T, ctx, dmax, seed=0, extra_nonzero=()):
    """gfi_candidates as it was with a `dmax` knob: every minor size from s
    down to s - dmax + 1, factors deduplicated across sizes."""
    s, ncols = T.shape()
    ctxe = _extended_ctx(ctx, extra_nonzero)
    found = []
    seen = set()
    for dd in range(1, min(dmax, s) + 1):
        size = s - dd + 1
        if size > s or size > ncols:
            continue
        minors = []
        for rows in itertools.combinations(range(s), size):
            for cols in itertools.combinations(range(ncols), size):
                sub = sp.Matrix([[T.entries[r][c] for c in cols]
                                 for r in rows])
                det = normalize(sub.det(method="berkowitz"), ctx)
                if det != 0:
                    num, _ = _clear_known_denominator(det, ctxe)
                    minors.append(normalize(num, ctx))
        if not minors:
            continue
        for f, _ in factor(minors[0], ctx):
            if not any(v in f.free_symbols for v in ctx.states) \
                    and not f.atoms(sp.sin, sp.cos):
                continue
            if any(divide_exact(mnr, f, ctx) is None for mnr in minors[1:]):
                continue
            key = to_text(f)
            if key in seen:
                continue
            seen.add(key)
            if nondegenerate([f], ctxe, seed=seed):
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

    entries = tuple(tuple(entry() for _ in range(ncols)) for _ in range(s))
    return (SymbolContext(states=states),
            TorsionMatrix(entries=entries, omega=(),
                          labels=tuple(range(ncols))), ())


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
            assert got == want, (seed, T.entries)
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
            (x, y), {2: (z, z, 1)}, ["x", "y", "z"], CTX, CTX, {}, {}, 1, 0)

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
