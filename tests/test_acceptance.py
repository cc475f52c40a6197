"""Acceptance suite: worked-example reproduction, property suites, determinism.

Each test covers one acceptance criterion end to end and prints a one-line
summary on success.
"""

import itertools
import json
import random

import numpy as np
import pytest
import sympy as sp
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ctrlinv.dsl import ControlSchedule, parse_system
from ctrlinv.expr import (
    SymbolContext,
    differentiate,
    evaluate,
    from_field,
    normalize,
    to_field,
)
from ctrlinv.flag import annihilator, derived_flag, flag_summary
from ctrlinv.forms import coefficient_vector, d, make_form, one_form, wedge
from ctrlinv.integrals import (
    AnalysisConfig,
    Classification,
    analyze,
    check_membership,
    first_integrals,
    gfi_candidates,
)
from ctrlinv.numeric import (
    escape_test,
    invariance_test,
    iterated_brackets,
    leaf_controllability,
    lie_bracket,
    simulate,
)

from conftest import elements, field_rows, random_form, random_poly

x, y, z, w = sp.symbols("x y z w")
a, b = sp.symbols("a b")

FULL_NUMERIC = dict(trials=100, pieces=10, horizon=5.0, h=1e-3)


def _span_equal_by_minors(vec_a, vec_b, ctx):
    """Symbolic-exact proportionality of two coefficient vectors: all 2x2
    minors of the stacked matrix normalize to zero."""
    n = len(vec_a)
    for i, j in itertools.combinations(range(n), 2):
        minor = vec_a[i] * vec_b[j] - vec_a[j] * vec_b[i]
        if normalize(minor, ctx) != 0:
            return False
    return True


def _unit_ratio(e1, e2, ctx):
    """The rational unit e1/e2, or None if they are not proportional."""
    r = normalize(sp.cancel(sp.sympify(e1) / sp.sympify(e2)), ctx)
    return r if r.is_Rational and r != 0 else None


def _exprs(fs):
    return [from_field(f) for f in fs]


def test_criterion_1_isolated_submanifold_end_to_end(ex1):
    ctx = ex1.ctx
    ann = annihilator(ex1)
    assert ann.rank == 1
    theta = _exprs(coefficient_vector(ann.generators[0]))
    assert _span_equal_by_minors(theta, [x * y * z, -x * z, 1], ctx)

    flag = derived_flag(ex1)
    T = flag.levels[0].torsion
    assert T.shape() == (1, 1)
    assert _unit_ratio(from_field(T.entries[0][0]), -z * (1 + x), ctx) \
        is not None

    cands = gfi_candidates(T, ctx)
    assert z in _exprs(cands)

    res = check_membership([to_field(z, ctx)], ann, ctx,
                           provenance="FromTorsionMinors")
    assert res.classification is Classification.GENERALIZED
    # certificate dz = theta - z*(x*y dx - x dy), scaled by the unit between
    # the computed generator and the reference theta
    u = _unit_ratio(theta[2], 1, ctx)
    q = res.evidence["quotients"]
    assert normalize(sp.sympify(q["rho1:dx"]) - u * (-x * y) / u, ctx) == 0
    assert normalize(sp.sympify(q["rho1:dx"]) + x * y, ctx) == 0
    assert normalize(sp.sympify(q["rho1:dy"]) - x, ctx) == 0
    assert [normalize(sp.sympify(e) * u, ctx)
            for e in res.evidence["theta_coefficients"]["rho1"]] == [1]

    lc = leaf_controllability(ex1, elements([z], ctx), leaf_dim=2, seed=42)
    assert lc["bracket_rank"] == 2 == lc["leaf_dimension"]
    assert lc["controllable_on_leaf"] is True

    rep = analyze(ex1, AnalysisConfig(seed=42, **{"trials": 5, "pieces": 2,
                                                  "horizon": 0.5}))
    assert rep["conclusion"] == "1 isolated invariant submanifold(s)"
    assert rep["isolated"][0]["rho"] == ["z"]

    v = invariance_test(ex1, elements([z], ctx), seed=42, **FULL_NUMERIC)
    assert v.held
    for max_rho, arclen, tol in v.trials:
        assert max_rho < 1e-6 * (1 + arclen) and tol == 1e-6 * (1 + arclen)
    print("[criterion 1] isolated submanifold end-to-end: PASS")


def test_criterion_2_no_invariant_submanifolds(ex2):
    ctx = ex2.ctx
    flag = derived_flag(ex2)
    T = flag.levels[0].torsion
    assert _unit_ratio(from_field(T.entries[0][0]), -y * (1 + 2 * x), ctx) \
        is not None

    ann = flag.levels[0].system
    res_y = check_membership([to_field(y, ctx)], ann, ctx)
    assert res_y.classification is Classification.REJECTED
    # the offending reduced coefficient is the unit 1, trivially indivisible
    assert normalize(sp.sympify(res_y.evidence["coefficient"]), ctx) == 1
    res_f = check_membership([to_field(1 + 2 * x, ctx)], ann, ctx)
    assert res_f.classification is Classification.REJECTED

    esc = escape_test(ex2, elements([y], ctx), seed=42, horizon=5.0)
    assert esc is not None
    sched, t, val = esc
    assert val > 0.1 and t <= 5.0
    assert isinstance(sched, ControlSchedule)

    rep = analyze(ex2, AnalysisConfig(seed=42, trials=5, pieces=2,
                                      horizon=0.5))
    assert rep["conclusion"] == "no invariant submanifolds"
    print("[criterion 2] no invariant submanifolds: PASS")


def test_criterion_3_foliation(ex3):
    ctx = ex3.ctx
    flag = derived_flag(ex3)
    assert flag.type == (1, 1)
    term = flag.terminal
    assert term.rank == 1
    assert _span_equal_by_minors(_exprs(coefficient_vector(term.generators[0])),
                                 [b, 0, -a, 0], ctx)

    integrals = first_integrals(flag, ctx, fields=ex3.exact_fields())
    assert len(integrals) == 1
    cand = integrals[0]
    assert cand.classification is Classification.FIRST_INTEGRAL
    assert _unit_ratio(from_field(cand.rhos[0]), b * x - a * z, ctx) \
        is not None

    br = lie_bracket(*field_rows(ex3.controls, ctx), ctx)
    want = (a * sp.sin(w), -sp.cos(w), b * sp.sin(w), 0)
    for got, exp in zip(br, want):
        assert not got - to_field(exp, ctx)

    lc = leaf_controllability(ex3, elements([b * x - a * z], ctx), leaf_dim=3,
                              seed=42)
    assert lc["bracket_rank"] == 3
    assert lc["controllable_on_leaf"] is True

    rng = np.random.default_rng(42)
    for _ in range(5):
        c0 = float(rng.uniform(-1, 1))
        v = invariance_test(ex3, elements([b * x - a * z - c0], ctx), seed=42,
                            **FULL_NUMERIC)
        assert v.held
        for max_rho, arclen, _tol in v.trials:
            assert max_rho < 1e-6 * (1 + arclen)
    print("[criterion 3] foliation by invariant hyperplanes: PASS")


def _oracle_torsion(sys, pivot):
    """Independent brute-force torsion: raw sympy, no forms machinery.

    Computes the annihilating 1-form from a sympy nullspace, expands
    d(theta) coefficient-by-coefficient, eliminates the given pivot
    differential by solving theta = 0 linearly, and returns the surviving
    wedge coefficients keyed by coordinate index pairs.  The 1-form differs
    from the pipeline's generator by a function multiple, so entries agree
    only up to a common factor.
    """
    states = sys.ctx.states
    n = len(states)
    M = sp.Matrix([list(X) for X in sys.fields()])
    null = M.nullspace()
    assert len(null) == 1
    theta = [sp.cancel(c) for c in null[0]]
    assert sp.simplify(theta[pivot]) != 0
    # d(theta) = sum_{i<j} (d a_j / d x_i - d a_i / d x_j) dx_i ^ dx_j
    dtheta = {}
    for i, j in itertools.combinations(range(n), 2):
        dtheta[(i, j)] = sp.diff(theta[j], states[i]) - sp.diff(theta[i],
                                                                states[j])
    # dx_pivot = -(1/a_pivot) * sum_{k != pivot} a_k dx_k
    sub = {k: sp.cancel(-theta[k] / theta[pivot]) for k in range(n)
           if k != pivot}
    out = {}
    for (i, j), c in dtheta.items():
        terms = []
        if i == pivot:
            for k, s in sub.items():
                terms.append(((k, j), c * s))
        elif j == pivot:
            for k, s in sub.items():
                terms.append(((i, k), c * s))
        else:
            terms.append(((i, j), c))
        for (p_, q_), v in terms:
            if p_ == q_:
                continue
            key, sign = ((p_, q_), 1) if p_ < q_ else ((q_, p_), -1)
            out[key] = sp.cancel(out.get(key, sp.Integer(0)) + sign * v)
    return {k: v for k, v in out.items() if sp.simplify(v) != 0}


def _report_torsion(sys):
    """Level-0 pivot index and torsion entries {(i, j): expr} of the flag
    report, keyed by state indices."""
    names = [str(v) for v in sys.ctx.states]
    symbols = {str(v): v for v in sys.ctx.symbols}
    level = flag_summary(derived_flag(sys), sys.ctx)["levels"][0]
    columns = [tuple(names.index(c[1:]) for c in label.split("^"))
               for label in level["torsion"]["columns"]]
    entries = [sp.sympify(e, locals=symbols)
               for e in level["torsion"]["entries"][0]]
    return names.index(level["pivots"][0]), dict(zip(columns, entries))


# a polynomial of degree <= 2: at most one term plus a constant, small
# integer coefficients (richer fields make the sympy oracle slow)
_POLY_TERMS = st.lists(
    st.tuples(st.integers(-2, 2), st.lists(st.integers(0, 3), max_size=2)),
    max_size=2).map(lambda terms: terms[:1] + [(c, []) for c, _ in terms[1:]])


def _field_text(terms, names):
    parts = [f"{c}" + "".join(f"*{names[i]}" for i in mono if i < len(names))
             for c, mono in terms if c]
    return " + ".join(parts) or "0"


@settings(max_examples=10, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(drift=st.booleans(),
       fields=st.lists(st.lists(_POLY_TERMS, min_size=4, max_size=4),
                       min_size=3, max_size=3))
def test_torsion_matches_oracle_on_random_rank_one_systems(drift, fields):
    """n = 3 driftless or n = 4 with drift, m = 2, degree <= 2: on every
    rank-1 annihilator the pipeline's torsion is the brute-force oracle's
    times one common function."""
    n = 4 if drift else 3
    names = ["x", "y", "z", "w"][:n]
    rows = [", ".join(_field_text(f, names) for f in field[:n])
            for field in fields[:n - 1]]
    text = f"states: {' '.join(names)}\n"
    if drift:
        text += f"drift: [{rows[2]}]\n"
    text += f"control g1: [{rows[0]}]\ncontrol g2: [{rows[1]}]\n"
    sys = parse_system(text)
    M = sp.Matrix([list(X) for X in sys.fields()])
    assume(M.rank() == n - 1)
    pivot, entries = _report_torsion(sys)
    oracle = _oracle_torsion(sys, pivot)
    keys = set(oracle) | set(entries)
    scale = next((sp.cancel(entries[k] / oracle[k]) for k in keys
                  if k in oracle and entries.get(k, 0) != 0), None)
    for k in keys:
        want = oracle.get(k, sp.Integer(0))
        got = entries.get(k, sp.Integer(0))
        if scale is None:
            assert got == 0 and sp.cancel(want) == 0, (text, k)
        else:
            assert sp.cancel(got - scale * want) == 0, (text, k)


def test_criterion_4_drift_cases(ex3, ex4):
    ctx = ex4.ctx
    ann = annihilator(ex4)
    flag = derived_flag(ex4)
    T = flag.levels[0].torsion

    # independent oracle for the torsion entries, in the pipeline's coframe
    oracle = _oracle_torsion(ex4, ann.pivots[0])
    entries = dict(zip([(T.omega[i], T.omega[j]) for i, j in T.labels],
                       _exprs(T.entries[0])))
    first_key = next(k for k, v in oracle.items()
                     if normalize(v, ctx) != 0)
    scale = normalize(sp.cancel(entries[first_key] / oracle[first_key]), ctx)
    assert scale != 0
    for key, val in oracle.items():
        got = entries.get(key, sp.Integer(0))
        assert normalize(got - scale * val, ctx) == 0, \
            f"oracle mismatch in column {key}"
    for key, val in entries.items():
        if key not in oracle:
            assert normalize(val, ctx) == 0
    # concrete values: single nonzero column proportional to (a*z - b*x)/cos(w)
    nonzero = [v for v in _exprs(T.entries[0]) if normalize(v, ctx) != 0]
    assert len(nonzero) == 1
    assert _unit_ratio(nonzero[0], (a * z - b * x) / sp.cos(w), ctx) is not None

    res = check_membership([to_field(b * x - a * z, ctx)], ann, ctx)
    assert res.classification is Classification.GENERALIZED
    # certificates are polynomial after the recorded denominator clearing
    for key, qtext in res.evidence["quotients"].items():
        qv = sp.sympify(qtext)
        den = sp.fraction(normalize(qv, ctx))[1]
        cleared = res.evidence["cleared_denominators"].get(key)
        if den.free_symbols or den.atoms(sp.sin, sp.cos):
            assert cleared is not None
            assert normalize(qv * sp.sympify(cleared), ctx) is not None
            num2, den2 = sp.fraction(
                normalize(qv * sp.sympify(cleared), ctx))
            assert not (den2.free_symbols or den2.atoms(sp.sin, sp.cos))

    # case (b): drift only in the y-direction makes rho a full first integral
    sys_b = parse_system(
        "states: x y z w\n"
        "params: a > 0, b > 0\n"
        "drift: [0, 1, 0, 0]\n"
        "control g1: [a*cos(w), sin(w), b*cos(w), 0]\n"
        "control g2: [0, 0, 0, 1]\n"
        "assume_nonzero: cos(w)\n")
    res_b = check_membership([to_field(b * x - a * z, sys_b.ctx)],
                             annihilator(sys_b), sys_b.ctx)
    assert res_b.classification is Classification.FIRST_INTEGRAL

    # case (a): drift f = g1 + g2 in the distribution matches driftless output
    sys_a = parse_system(
        "states: x y z w\n"
        "params: a > 0, b > 0\n"
        "drift: [a*cos(w), sin(w), b*cos(w), 1]\n"
        "control g1: [a*cos(w), sin(w), b*cos(w), 0]\n"
        "control g2: [0, 0, 0, 1]\n"
        "assume_nonzero: cos(w)\n")
    cfg = AnalysisConfig(seed=42, run_numeric=False)
    rep_a = analyze(sys_a, cfg)
    rep_0 = analyze(ex3, cfg)
    for section in ("foliation", "isolated", "rejected", "undetermined"):
        assert [(e["rho"], e["classification"]) for e in rep_a[section]] == \
               [(e["rho"], e["classification"]) for e in rep_0[section]]
    assert rep_a["type"] == rep_0["type"]
    assert rep_a["conclusion"] == rep_0["conclusion"]
    print("[criterion 4] drift cases and torsion oracle: PASS")


def test_criterion_5_property_suites(ex1, ex2, ex3, ex4):
    ctx3 = SymbolContext(states=(x, y, z))

    # exterior-algebra identities on 200 random forms each
    rng = random.Random(101)
    for _ in range(200):
        f = random_form(rng, ctx3, rng.choice([0, 1]))
        assert d(d(f)).is_zero_form
    rng = random.Random(102)
    for _ in range(200):
        p = rng.choice([0, 1, 2])
        q = rng.choice([0, 1])
        f = random_form(rng, ctx3, p)
        g = random_form(rng, ctx3, q)
        assert (wedge(f, g) - wedge(g, f).scale((-1) ** (p * q))).is_zero_form
    rng = random.Random(103)
    for _ in range(200):
        p = rng.choice([0, 1])
        f = random_form(rng, ctx3, p, terms=1)
        g = random_form(rng, ctx3, 1, terms=1)
        lhs = d(wedge(f, g))
        rhs = wedge(d(f), g) + wedge(f, d(g)).scale((-1) ** p)
        assert (lhs - rhs).is_zero_form

    # bracket antisymmetry + Jacobi on 100 random polynomial field triples
    rng = random.Random(104)
    for _ in range(100):
        X = tuple(random_poly(rng, (x, y, z), degree=1) for _ in range(3))
        Y = tuple(random_poly(rng, (x, y, z), degree=1) for _ in range(3))
        Z = tuple(random_poly(rng, (x, y, z), degree=1) for _ in range(3))
        X, Y, Z = field_rows([X, Y, Z], ctx3)
        XY = lie_bracket(X, Y, ctx3)
        YX = lie_bracket(Y, X, ctx3)
        for u, v in zip(XY, YX):
            assert not u + v
        total = [ctx3.field.zero] * 3
        for A, B, C in ((X, Y, Z), (Y, Z, X), (Z, X, Y)):
            t = lie_bracket(A, lie_bracket(B, C, ctx3), ctx3)
            total = [u + v for u, v in zip(total, t)]
        for c in total:
            assert not c

    # simulate on the foliation example against the closed form: every
    # grid row, read from the continuous extension, and the horizon's
    params = {a: 1.0, b: 2.0}
    u1, u2, horizon = 1.0, 1.0, 1.0
    sched = ControlSchedule(((horizon, (u1, u2)),))

    def exact(t):
        return np.column_stack([
            params[a] * (u1 / u2) * (np.sin(u2 * t) - 0.0),
            -(u1 / u2) * (np.cos(u2 * t) - 1.0),
            params[b] * (u1 / u2) * (np.sin(u2 * t) - 0.0),
            u2 * t,
        ])

    for h in (0.05, 0.03, 1e-3):
        traj = simulate(ex3, [0, 0, 0, 0], sched, h=h, param_values=params)
        assert traj.times[-1] == horizon
        assert np.abs(traj.states - exact(traj.times)).max() < 1e-8

    # finite-difference vs symbolic derivative on 200 random pairs
    rng = random.Random(105)
    ctx4 = SymbolContext(states=(x, y, z, w))
    fd_h = 1e-5
    for _ in range(200):
        e = random_poly(rng, (x, y, z), trig_of=w)
        v = (x, y, z, w)[rng.randrange(4)]
        point = {s: rng.uniform(-1.5, 1.5) for s in (x, y, z, w)}
        sym = evaluate(differentiate(to_field(e, ctx4), v, ctx4), point)
        up = dict(point)
        up[v] = point[v] + fd_h
        dn = dict(point)
        dn[v] = point[v] - fd_h
        f = to_field(e, ctx4)
        fd = (evaluate(f, up) - evaluate(f, dn)) / (2 * fd_h)
        assert abs(fd - sym) <= 1e-6 * (1 + abs(sym))

    # flag duality: Pfaffian type vs numeric bracket-rank distribution type
    for sys in (ex1, ex2, ex3, ex4):
        flag = derived_flag(sys)
        n = sys.n
        point = {v: 0.3 + 0.17 * i for i, v in enumerate(sys.ctx.states)}
        point.update({p: 1.0 + 0.5 * i
                      for i, p in enumerate(sys.ctx.params)})
        ranks = []
        for depth in range(1, 5):
            brs = iterated_brackets(sys.exact_fields(), sys.ctx, depth=depth)
            mat = np.array([[evaluate(c, point) for c in F] for F in brs])
            sv = np.linalg.svd(mat, compute_uv=False)
            scale = max(1.0, sv[0])
            ranks.append(int(np.sum(sv > 1e-8 * scale)))
            if len(ranks) > 1 and ranks[-1] == ranks[-2]:
                break
        final = ranks[-1]
        nu_numeric = next(i for i, r in enumerate(ranks) if r == final)
        assert (nu_numeric, final) == flag.dual_type(n)
    print("[criterion 5] property suites: PASS")


def test_criterion_6_determinism(ex1, ex2, ex3, ex4):
    cfg = AnalysisConfig(seed=42, trials=10, pieces=3, horizon=1.0)
    for sys in (ex1, ex2, ex3, ex4):
        blobs = []
        for _ in range(2):
            rep = analyze(sys, cfg)
            blobs.append(json.dumps(rep, indent=2, sort_keys=True).encode())
        assert blobs[0] == blobs[1]
    print("[criterion 6] determinism: PASS")
