"""First integrals and generalized first integrals.

First integrals are the potentials, by the straight-line homotopy of the
Poincare lemma, of the closed constant combinations of the generators of
the terminal (integrable) derived system: one null space over QQ holds
them all, closed generators and combinations of any number of them.
Generalized first integrals are non-degenerate common factors of the torsion
minors, confirmed by the ideal-membership condition: the differential of the
candidate must lie in the ideal generated by the candidate and the
annihilating 1-forms.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.polyerrors import BasePolynomialError

from .dsl import ControlAffineSystem, print_system
from .errors import (
    AnnihilationFailure,
    DivisionByZeroExpr,
    EvalSingular,
    NotClosed,
    NotPolynomial,
    SamplingFailed,
    UnknownSymbol,
)
from .expr import (
    SymbolContext,
    common_denominator,
    factor,
    from_field,
    gradient,
    ideal_cofactors,
    kernels,
    minors,
    numerator_over,
    reduce_fraction,
    solve,
    to_field,
    to_text,
)
from .flag import (
    PfaffianFlag,
    PfaffianSystem,
    TorsionMatrix,
    derived_flag,
    flag_summary,
)
from .forms import (
    DifferentialForm,
    contract,
    d,
    form_to_text,
    one_form,
)
from .numeric import (
    ESCAPE_STEP,
    escape_test,
    invariance_test,
    leaf_controllability,
    require_count,
    require_integer,
    require_positive,
    require_steps,
)
from .sampling import zero_locus_points

NONDEGENERACY_TOL = 1e-8
# zero-locus points at which the non-degeneracy test reads the Jacobian
NONDEGENERACY_POINTS = 10


class Classification(Enum):
    FIRST_INTEGRAL = "FirstIntegral"
    GENERALIZED = "GeneralizedFirstIntegral"
    REJECTED = "Rejected"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class CandidateIntegral:
    rhos: tuple  # the functions rho^1..rho^d, field elements
    classification: Classification
    provenance: str  # FromFlag | FromTorsionMinors | UserDeclared
    evidence: dict


# --- Poincare-lemma integration ---------------------------------------------

def _base_point(ctx: SymbolContext):
    """Origin, shifted along constrained variables if a constraint vanishes."""
    base = {v: sp.Integer(0) for v in ctx.states}
    for _ in range(8):
        bad = next((c for c in map(from_field, ctx.nonzero)
                    if c.subs(base) == 0), None)
        if bad is None:
            return base
        for v in ctx.states:
            if v in bad.free_symbols:
                base[v] = base[v] + 1
    return base


def poincare_integrate(omega: DifferentialForm):
    """Potential of a closed 1-form by the straight-line homotopy, as a
    field element, or None.

    rho(x) = integral_0^1 sum_i a_i(base + t(x - base)) (x_i - base_i) dt.
    Returns None when the integral leaves the polynomial-trig class.
    """
    ctx = omega.ctx
    if omega.degree != 1:
        raise ValueError("poincare_integrate expects a 1-form")
    if not d(omega).is_zero_form:
        raise NotClosed("form is not closed")
    base = _base_point(ctx)
    t = sp.Dummy("t")
    subs = {v: base[v] + t * (v - base[v]) for v in ctx.states}
    integrand = sp.Integer(0)
    for (i,), c in omega.terms:
        v = ctx.states[i]
        integrand += from_field(c).subs(subs, simultaneous=True) * (v - base[v])
    try:
        rho = sp.integrate(sp.expand_mul(integrand), (t, 0, 1))
    except (NotImplementedError, BasePolynomialError):
        # an integrand outside what sympy's integration algorithms handle
        return None
    if rho.has(sp.Integral):
        return None
    rho = sp.simplify(rho) if rho.atoms(sp.sin, sp.cos) else rho
    try:
        rho = to_field(rho, ctx)
    except (DivisionByZeroExpr, NotPolynomial, UnknownSymbol):
        return None
    check = one_form(gradient(rho, ctx), ctx) - omega
    if not check.is_zero_form:
        return None
    return rho


def closed_combinations(generators):
    """A basis over QQ of {l : d(sum_i l_i theta_i) = 0} for 1-forms
    theta_i, as rows: the unit vectors first, in generator order, then the
    combinations.

    d is linear over the constants, so l solves one equation per monomial
    of each 2-form coefficient of the d(theta_i), those coefficients scaled
    by their common denominator and reduced modulo sin**2 + cos**2 = 1:
    one null space.  A closed generator gives a zero column, so its unit
    vector is a basis row.
    """
    defects = [d(g) for g in generators]
    equations = []
    for key in {k for form in defects for k, _ in form.terms}:
        row = [form.coeff(key) for form in defects]
        K, L = row[0].field, common_denominator(row)
        nums = [reduce_fraction(K.raw_new(numerator_over(c, L), K.ring.one))
                .numer for c in row]
        equations += [[QQ(p.get(mono, 0)) for p in nums]
                      for mono in set().union(*nums)]
    null = DomainMatrix(equations, (len(equations), len(generators)),
                        QQ).nullspace().to_list()
    return sorted(null, key=lambda l: sum(map(bool, l)) > 1)


def first_integrals(flag: PfaffianFlag, ctx: SymbolContext, fields) -> list:
    """First integrals from the terminal integrable system.

    Integrates each closed constant combination of the terminal generators
    (`closed_combinations`), the closed generators first; each generator
    that is not closed or whose potential failed is reported Undetermined
    with its closedness defect while fewer than q entries are found.  Each
    integral is checked to annihilate the given fields
    (ControlAffineSystem.fields).
    """
    gens = flag.terminal.generators
    out, integrated = [], []
    for l in closed_combinations(gens):
        comb = functools.reduce(DifferentialForm.__add__,
                                [g.scale(c) for c, g in zip(l, gens) if c])
        rho = poincare_integrate(comb)
        if rho is None:
            continue
        drho = one_form(gradient(rho, ctx), ctx)
        for X in fields:
            if contract(drho, X):
                raise AnnihilationFailure(
                    f"first integral fails annihilation against {X}")
        integrated.append(comb)
        out.append(CandidateIntegral(
            rhos=(rho,), classification=Classification.FIRST_INTEGRAL,
            provenance="FromFlag",
            evidence={"potential_of": form_to_text(comb),
                      "annihilates_fields": True}))
    for g in gens:
        if len(out) >= flag.q:
            break
        if g not in integrated:
            out.append(CandidateIntegral(
                rhos=(), classification=Classification.UNDETERMINED,
                provenance="FromFlag",
                evidence={"generator": form_to_text(g),
                          "closedness_defect": form_to_text(d(g))}))
    return out


# --- candidates from torsion minors -----------------------------------------

def _clear_known_denominator(f, ctx):
    """Split a field element into (numerator, cleared monic denominator).

    The denominator must be a product of declared- or certified-nonzero
    factors; otherwise NotPolynomial is raised.  Both parts are divided by
    the denominator's leading coefficient as field elements: over ZZ, a
    rational coefficient is held by a constant denominator.
    """
    K = f.field
    lc = K.ring(f.denom.LC)
    num, den = K.new(f.numer, lc), K.new(f.denom, lc)
    if not den.numer.is_ground and not ctx.known_nonzero(den):
        raise NotPolynomial(f"denominator {from_field(den)} is not "
                            "certified nonzero on the domain")
    return num, den


def nondegenerate(rhos, ctx, seed=0):
    """drho^1 ^ ... ^ drho^d nonzero at sampled zero-locus points, each rho
    scaled to a primitive integer numerator over a monic denominator: a
    constant factor moves neither the zero set nor its regularity, only the
    size of the gradient the tolerance compares.  The field is over ZZ, so
    the scaled rho keeps its denominator and the numerator times that
    denominator's leading coefficient: the same value, and the same
    kernel, since a kernel divides both by that coefficient.  The Jacobians
    at all points take one kernel call and one stacked SVD; each needs d
    singular values (none has for d > n), the least above the tolerance.
    EvalSingular at a non-finite Jacobian before the first degenerate one."""
    rhos = [r.field.raw_new(r.numer.primitive()[1] * r.denom.LC, r.denom)
            for r in rhos]
    grads = []
    for r in rhos:
        grad = gradient(r, ctx)
        if not any(grad):
            return False
        # a repeated factor makes the gradient vanish on part of the locus
        if r.denom.is_ground and any(mult > 1 for _, mult in factor(r)):
            return False
        grads.append(grad)
    try:
        pts = zero_locus_points(rhos, ctx, np.random.default_rng(seed + 13),
                                count=NONDEGENERACY_POINTS)
    except SamplingFailed:
        return False
    jacobian, = kernels([[c for F in grads for c in F]], ctx)
    J = jacobian(pts).T.reshape(len(pts), len(grads), len(ctx.states))
    finite = np.isfinite(J).all(axis=(1, 2))
    end = len(J) if finite.all() else int(np.argmin(finite))
    sv = np.linalg.svd(J[:end], compute_uv=False)
    if sv.shape[1] < len(grads) or (sv[:, -1] <= NONDEGENERACY_TOL).any():
        return False
    if end < len(J):
        raise EvalSingular("evaluation produced a non-finite value")
    return True


def gfi_candidates(T: TorsionMatrix, ctx: SymbolContext, seed=0,
                   extra_nonzero=()) -> list:
    """Non-degenerate common factors of the torsion minors, as field
    elements.

    Minors are taken at the generic rank of T, the largest size with a
    nonzero minor: a common factor of all k-minors divides every
    (k+1)-minor by Laplace expansion, so smaller sizes add no candidate.
    The common irreducible factors are those of the gcd of the minors'
    numerators.
    """
    s, ncols = T.shape()
    ctxe = ctx.assuming(extra_nonzero)
    for size in range(min(s, ncols), 0, -1):
        dets = []
        for rows in itertools.combinations(range(s), size):
            minor = minors([T.entries[r] for r in rows])
            for cols in itertools.combinations(range(ncols), size):
                det = minor(cols)
                if det:
                    dets.append(_clear_known_denominator(det, ctxe)[0].numer)
        if dets:
            break
    else:
        return []
    # generator positions of the parameters: a factor in them alone is skipped
    params = range(len(ctx.states), len(ctx.symbols))
    common = functools.reduce(lambda a, b: a.gcd(b), dets)
    return [f for f, _ in factor(ctx.field(common))
            if any(k for i, k in enumerate(f.numer.degrees())
                   if i not in params)
            and nondegenerate([f], ctxe, seed=seed)]


# --- membership condition d(rho) in (rho, theta) ----------------------------

def check_membership(rhos, system: PfaffianSystem, ctx: SymbolContext,
                     seed=0, provenance="UserDeclared") -> CandidateIntegral:
    """Classify a candidate system rho^1..rho^d (field elements) against the
    ideal (rho, theta).

    With A the pivot block of theta and p^mu the pivot coefficients of
    d(rho^mu), b^mu A = p^mu gives the theta part of d(rho^mu), the
    columns of one `solve` of [A^T | p^1 ... p^d].  Each coefficient of
    the residue d(rho^mu) - b . theta must lie in the ideal of the rho
    numerators, saturated by their denominators, modulo sin**2 + cos**2 =
    1 (`ideal_cofactors`), with its cleared denominator certified nonzero.
    Every column of d(rho^mu) is cleared before any is tested, so an
    uncertified denominator reads Undetermined ahead of a membership
    failure of the same rho^mu.  All outcomes are classifications, never
    exceptions.
    """
    rhos = tuple(rhos)
    ctxe = ctx.assuming(system.constraints)
    names = [str(v) for v in ctx.states]
    if not nondegenerate(rhos, ctxe, seed=seed):
        return CandidateIntegral(
            rhos=rhos, classification=Classification.REJECTED,
            provenance=provenance,
            evidence={"reason": "NonDegeneracyFailure"})

    K = ctx.field
    gens, pivots = system.generators, system.pivots
    drhos = [one_form(gradient(rho, ctx), ctx) for rho in rhos]
    X = solve([[g.coeff((i,)) for g in gens]
               + [drho.coeff((i,)) for drho in drhos] for i in pivots])
    theta_cert = {}
    quotient_cert = {}
    cleared = {}
    # nonzero wherever every rho is defined
    unit = math.prod(r.denom for r in rhos)
    for mu, drho in enumerate(drhos, start=1):
        b = [row[mu - 1] for row in X]
        theta_cert[f"rho{mu}"] = [to_text(reduce_fraction(e)) for e in b]
        residues = []
        for i in range(len(names)):
            if i in pivots:
                continue
            c = reduce_fraction(drho.coeff((i,)) - sum(
                (e * g.coeff((i,)) for e, g in zip(b, gens)), K.zero))
            if not c:
                continue
            try:
                residues.append((i, c, *_clear_known_denominator(c, ctxe)))
            except NotPolynomial as e:
                return CandidateIntegral(
                    rhos=rhos,
                    classification=Classification.UNDETERMINED,
                    provenance=provenance,
                    evidence={"reason": str(e),
                              "coefficient": to_text(c),
                              "column": f"d{names[i]}"})
        for i, c, num, den in residues:
            qs = ideal_cofactors(num, [r.numer for r in rhos], unit)
            if qs is None:
                return CandidateIntegral(
                    rhos=rhos, classification=Classification.REJECTED,
                    provenance=provenance,
                    evidence={"reason": "membership failure: coefficient "
                                        "not divisible by candidate",
                              "column": f"d{names[i]}",
                              "coefficient": to_text(c)})
            key = f"rho{mu}:d{names[i]}"
            for lam, (q, r) in enumerate(zip(qs, rhos), start=1):
                label = key if len(rhos) == 1 else f"{key}:rho{lam}"
                quotient_cert[label] = to_text(
                    reduce_fraction(q * r.denom / den))
            if den != 1:
                cleared[key] = to_text(den)
    if not quotient_cert:
        return CandidateIntegral(
            rhos=rhos, classification=Classification.FIRST_INTEGRAL,
            provenance=provenance,
            evidence={"theta_coefficients": theta_cert})
    return CandidateIntegral(
        rhos=rhos, classification=Classification.GENERALIZED,
        provenance=provenance,
        evidence={"theta_coefficients": theta_cert,
                  "quotients": quotient_cert,
                  "cleared_denominators": cleared})


# --- orchestration -----------------------------------------------------------

@dataclass(frozen=True)
class AnalysisConfig:
    """Settings of `analyze`.

    `seed` drives every random draw.  The numeric evidence, run unless
    `run_numeric` is false, integrates `trials` trajectories on each
    accepted locus under `pieces` random control pieces up to `horizon`
    with error-controlled Dormand-Prince 5(4) steps: `step` is each
    trial's first step, and max(MIN_BUDGET, round(horizon / step))
    attempted steps (MIN_BUDGET = 100) are the budget after which the
    invariance test ends Violated with an error.  horizon / step, and
    horizon over the escape test's first step, must be within the float
    range.
    """

    seed: int = 42
    trials: int = 100
    pieces: int = 10
    horizon: float = 5.0
    step: float = 1e-3
    run_numeric: bool = True

    def __post_init__(self):
        require_integer(trials=self.trials, pieces=self.pieces)
        require_positive(trials=self.trials, pieces=self.pieces,
                         horizon=self.horizon, step=self.step)
        require_steps(self.horizon, self.step, ESCAPE_STEP)
        require_count(seed=self.seed)


# report section of each classification
SECTIONS = {
    Classification.FIRST_INTEGRAL: "foliation",
    Classification.GENERALIZED: "isolated",
    Classification.REJECTED: "rejected",
    Classification.UNDETERMINED: "undetermined",
}


def numeric_evidence(sys: ControlAffineSystem, cand: CandidateIntegral,
                     leaf_dim, cfg: AnalysisConfig, offset=None) -> dict:
    """Numeric backing of a symbolic verdict, as report entry fields.

    Rejected candidates get an escape schedule; accepted ones get leaf
    controllability and the invariance test of {rho = 0}, or of the level set
    {rho = offset} when an offset is given.  Undetermined ones get nothing.
    """
    rhos = cand.rhos
    if cand.classification is Classification.REJECTED:
        try:
            return {"escape": _escape_json(escape_test(
                sys, rhos, seed=cfg.seed, horizon=cfg.horizon))}
        except SamplingFailed:  # no start point: nothing to escape from
            return {"escape": None}
    if cand.classification is Classification.UNDETERMINED:
        return {}
    # a level set at a random offset is a generic leaf: no rhos, generic rank
    out = {"leaf_controllability": leaf_controllability(
        sys, rhos if offset is None else (), leaf_dim)}
    if offset is not None:  # the float's exact value
        rhos = [r - QQ(*offset.as_integer_ratio()) for r in rhos]
        out["leaf_offset"] = offset
    out["invariance"] = _verdict_json(invariance_test(
        sys, rhos, trials=cfg.trials, pieces=cfg.pieces,
        horizon=cfg.horizon, h=cfg.step, seed=cfg.seed))
    return out


def analyze(sys: ControlAffineSystem, config: AnalysisConfig | None = None) -> dict:
    """Full pipeline: flag, foliation, isolated submanifolds, verdicts.

    Returns the JSON-ready invariant report.
    """
    cfg = config or AnalysisConfig()
    ctx = sys.ctx
    n = sys.n
    flag = derived_flag(sys)
    level0 = flag.levels[0].system
    report = {
        "schema": 1,
        "seed": cfg.seed,
        "system": _system_echo(sys),
        "flag": flag_summary(flag, ctx),
        "type": list(flag.type),
        "foliation": [],
        "isolated": [],
        "rejected": [],
        "undetermined": [],
        "domain_constraints": sorted(
            {to_text(c) for c in ctx.nonzero} |
            {to_text(c) for lv in flag.levels
             for c in lv.system.constraints}),
    }
    rng = np.random.default_rng(cfg.seed)

    def record(cand, entry_dim, evidence_dim):
        # first integrals are tested on a random level set {rho = offset}
        section = SECTIONS[cand.classification]
        entry = _integral_entry(cand, entry_dim)
        if cfg.run_numeric:
            offset = (float(rng.uniform(-1, 1)) if section == "foliation"
                      else None)
            entry.update(numeric_evidence(sys, cand, evidence_dim, cfg,
                                          offset))
        report[section].append(entry)

    # foliation by level sets of first integrals (terminal integrable system)
    leaf_dim = n - flag.q
    if flag.q >= 1:
        for cand in first_integrals(flag, ctx, fields=sys.fields()):
            record(cand, leaf_dim, leaf_dim)

    # candidates for isolated invariant submanifolds
    candidates = []
    seen = {entry["rho"][0] for entry in report["foliation"]}
    T0 = flag.levels[0].torsion
    if T0 is not None and not T0.is_trivial:
        try:
            found = gfi_candidates(T0, ctx, seed=cfg.seed,
                                   extra_nonzero=level0.constraints)
        except NotPolynomial as e:  # a minor's denominator not known nonzero
            found = []
            record(CandidateIntegral((), Classification.UNDETERMINED,
                                     "FromTorsionMinors", {"reason": str(e)}),
                   None, n)
        for f in found:
            text = to_text(f)
            if text not in seen:
                seen.add(text)
                candidates.append(((f,), "FromTorsionMinors"))
    for rho in sys.candidates:
        text = to_text(rho)
        if text not in seen:
            seen.add(text)
            candidates.append(((rho,), "UserDeclared"))

    for rhos, prov in candidates:
        result = check_membership(rhos, level0, ctx, seed=cfg.seed,
                                  provenance=prov)
        entry_dim = {Classification.FIRST_INTEGRAL: leaf_dim,
                     Classification.GENERALIZED: n - len(rhos)}
        record(result, entry_dim.get(result.classification),
               n - len(rhos))

    report["conclusion"] = _conclusion(report)
    return report


def _integral_entry(cand: CandidateIntegral, leaf_dim):
    entry = {
        "rho": [to_text(r) for r in cand.rhos],
        "classification": cand.classification.value,
        "provenance": cand.provenance,
        "evidence": cand.evidence,
    }
    if leaf_dim is not None:
        entry["leaf_dimension"] = leaf_dim
    return entry


def _verdict_json(v):
    return {
        "verdict": v.verdict,
        "max_rho": v.max_rho,
        "trials": len(v.trials),
        "seed": v.seed,
        "errors": list(v.errors),
    }


def _escape_json(esc):
    if esc is None:
        return None
    sched, t, val = esc
    return {
        "schedule": [[dur, list(u)] for dur, u in sched.pieces],
        "time": t,
        "value": val,
    }


def _system_echo(sys: ControlAffineSystem):
    return {
        "n": sys.n,
        "m": sys.m,
        "driftless": sys.is_driftless,
        "source": print_system(sys),
    }


def _conclusion(report):
    parts = []
    if report["foliation"]:
        ld = report["foliation"][0].get("leaf_dimension")
        parts.append(f"foliation by {ld}-dimensional invariant submanifolds "
                     f"({len(report['foliation'])} first integral(s))")
    if report["isolated"]:
        parts.append(f"{len(report['isolated'])} isolated invariant "
                     "submanifold(s)")
    if report["undetermined"]:
        parts.append(f"{len(report['undetermined'])} undetermined "
                     "candidate(s)")
    if not parts:
        return "no invariant submanifolds"
    return "; ".join(parts)
