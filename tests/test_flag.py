import functools
import itertools
import random
from dataclasses import replace

import pytest
import sympy as sp
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import PolyElement

import ctrlinv.expr as expr_module
import ctrlinv.flag as flag_module
from ctrlinv.dsl import parse_system
from ctrlinv.errors import (
    AnnihilationFailure,
    FlagNotDecreasing,
    RankNotConstant,
)
from ctrlinv.expr import SymbolContext, factor, reduce_fraction, to_field
from ctrlinv.flag import (
    annihilator,
    certify_rank,
    clear_denominators,
    derived_flag,
    derived_system,
    flag_summary,
    nullspace,
    rref,
    torsion,
)
from ctrlinv.forms import coefficient_vector, contract

from conftest import context, field_rows, one_form_of, random_poly, system

x, y, z, w = sp.symbols("x y z w")
a, b = sp.symbols("a b")

CTX = SymbolContext(states=(x, y, z))
CTX4 = SymbolContext(states=(x, y, z, w))


def F(e, ctx=CTX):
    return to_field(sp.sympify(e), ctx)


def unit_ratio(f, e, ctx):
    """True when the field element f is a nonzero rational multiple of the
    expression e."""
    r = reduce_fraction(f / F(e, ctx))
    return bool(r) and r.numer.is_ground and r.denom.is_ground


def span_equal(gens_a, gens_b):
    """True when two generator lists span the same subspace of 1-forms:
    stacking them does not raise the common rank."""
    rows_a = [list(coefficient_vector(g)) for g in gens_a]
    rows_b = [list(coefficient_vector(g)) for g in gens_b]
    _, piv_a = rref(rows_a)
    _, piv_b = rref(rows_b)
    if len(piv_a) != len(piv_b):
        return False
    _, piv_s = rref(rows_a + rows_b)
    return len(piv_s) == len(piv_a)


class TestLinearAlgebra:
    def test_rref_identity(self):
        rows, piv = rref(field_rows([[1, 0], [0, 1]], CTX))
        assert piv == [0, 1]

    def test_rref_dependent_rows(self):
        rows, piv = rref(field_rows([[x, y, 0], [2 * x, 2 * y, 0]], CTX))
        assert len(piv) == 1

    def test_nullspace_orthogonality(self):
        rows = field_rows([[1, y, 0], [0, 1, x * z]], CTX)
        for vec in nullspace(rows, CTX):
            for r in rows:
                dot = sum(c * v for c, v in zip(r, vec))
                assert reduce_fraction(dot) == 0

    def test_rref_and_nullspace_ignore_row_order(self):
        # the reduced echelon form is unique, whichever pivot rows are chosen
        rng = random.Random(7)
        for _ in range(12):
            nrows, ncols = rng.randint(1, 3), rng.randint(2, 4)
            rows = [[random_poly(rng, CTX.states, terms=rng.randint(0, 2))
                     for _ in range(ncols)] for _ in range(nrows)]
            if nrows == 3 and rng.random() < 0.5:
                rows[2] = [p + x * q for p, q in zip(rows[0], rows[1])]
            rows = field_rows(rows, CTX)
            want = rref(rows), nullspace(rows, CTX)
            for perm in itertools.permutations(rows):
                assert (rref(list(perm)), nullspace(list(perm), CTX)) == want

    def test_rank_one_only_through_trig_identity(self):
        # the rows are dependent only by sin(w)**2 + cos(w)**2 = 1
        sin, cos = sp.sin(w), sp.cos(w)
        rows = field_rows([[sin, 1 - cos], [1 + cos, sin]], CTX4)
        _, piv = rref(rows)
        assert len(piv) == 1
        [vec] = nullspace(rows, CTX4)
        for r in rows:
            assert reduce_fraction(sum(c * v for c, v in zip(r, vec))) == 0

    def test_clear_denominators(self):
        vec = clear_denominators([F(x / y), F(1 / y)], CTX)
        assert vec == [F(x), F(1)]

    def test_clear_denominators_sign(self):
        vec = clear_denominators([F(-x), F(-y)], CTX)
        assert vec == [F(x), F(y)]

    def test_clear_denominators_matches_reference(self):
        # constant denominators only, a constant entry, rational
        # coefficients, denominators whose lcm over QQ is not integral;
        # then random sin/cos entries, rational constants, zero entries and
        # zero vectors
        vectors = [
            [x / 6, y / 4, sp.Rational(1, 10)],
            [-3 * x / 2, 5 * y / 3, 0],
            [2 * x + 4 * y, 6, 4 * z / 3],
            [x * y, sp.Rational(-3, 7)],
            [(x / 3 + y / 2) / (z + 1), 2 * x / 5],
            [x / 3 + y / 2, y / 4 - z / 6],
            [x / (15 * z + 25), -y / (18 * z + 30)],
            [-sp.sin(w) / (15 * z + 25), (x + 1) / (18 * z + 30), y / 10],
        ]
        rng = random.Random(11)
        for _ in range(60):
            vec = []
            for _ in range(rng.randint(1, 4)):
                num = random_poly(rng, (x, y, w), terms=rng.randint(0, 3),
                                  trig_of=w)
                den = random_poly(rng, (x, z), terms=rng.randint(1, 2),
                                  trig_of=w)
                vec.append(num / den if den != 0 else num)
            vectors.append(vec)
        ctx = SymbolContext(states=(x, y, z, w))
        for vec in vectors:
            vec = [F(e, ctx) for e in vec]
            assert clear_denominators(vec, ctx) == \
                _reference_clear_denominators(vec, ctx)


def _reference_clear_denominators(vec, ctx):
    """clear_denominators as it was, multiplying each numerator by the
    whole lcm before dividing by its own denominator."""
    K = ctx.field
    Z = K.ring.clone(domain=ZZ)
    vec = [reduce_fraction(e) for e in vec]
    lcm = functools.reduce(lambda a, b: a.lcm(b),
                           [e.denom.set_ring(Z) for e in vec], Z.one)
    scaled = [(e.numer * lcm.set_ring(K.ring)).exquo(e.denom) for e in vec]
    g = functools.reduce(lambda a, b: a.gcd(b),
                         [p.set_ring(Z) for p in scaled], Z.zero)
    if not g:
        return vec
    g = g.set_ring(K.ring)
    if next(filter(None, scaled)).LC < 0:
        g = -g
    return [K(p.exquo(g)) for p in scaled]


def _reference_known_nonzero(f, ctx: SymbolContext):
    """The known-nonzero test as it was in flag, factoring f: True when
    every irreducible factor is declared or constrained nonzero."""
    K = f.field
    for part in (f.numer, f.denom):
        if part.is_ground:
            if not part:
                return False
            continue
        for g, _ in factor(K(part)):
            if not _reference_known_nonzero_factor(g, ctx):
                return False
    return True


def _reference_known_nonzero_factor(f, ctx):
    """f is a sign-constrained parameter or a multiple of a nonzero one."""
    K = f.field
    if any(sign and f == K.gens[K.symbols.index(p)]
           for p, sign in ctx.param_signs.items()):
        return True
    for c in ctx.nonzero:
        if c:
            q = reduce_fraction(f / c)
            if q.numer.is_ground and q.denom.is_ground:
                return True
    return False


# declared-nonzero kinds: irreducible, reducible, power, constant multiple,
# denominator, constant, trig atom, a reducible trig power, unsigned parameter
DECLARED = (x + y * z, x * y, z**2, 2 * x, 1 / (x + y), sp.Integer(3),
            sp.cos(w), sp.sin(w)**2, b)
IRREDUCIBLES = (x, y, z, a, b, sp.cos(w), sp.sin(w), x + y, x + y * z, x + 1,
                1 + sp.cos(w), a * x - b * z, y * z + 1)


def _random_element(rng):
    """Zero, a constant, or a constant times a quotient of powers of
    irreducibles, now and then plus one more (a sum that may not factor)."""
    if rng.random() < 0.05:
        return sp.Integer(0)
    e = sp.Rational(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
    for _ in range(rng.randint(0, 3)):
        e *= rng.choice(IRREDUCIBLES) ** rng.randint(1, 3)
    if rng.random() < 0.2:
        e += rng.choice(IRREDUCIBLES)
    for _ in range(rng.choice([0, 0, 1, 2])):
        e /= rng.choice(IRREDUCIBLES) ** rng.randint(1, 2)
    return e


class TestKnownNonzero:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_factoring_reference(self, seed):
        rng = random.Random(seed)
        answers = set()
        for _ in range(12):
            ctx = context(
                states=(x, y, z, w), params=(a, b),
                param_signs={p: rng.choice("+-") for p in (a, b)
                             if rng.random() < 0.5},
                nonzero=tuple(rng.sample(DECLARED, rng.randint(0, 4))))
            if rng.random() < 0.5:  # pivot factors certified nonzero
                ctx = ctx.assuming([to_field(e, ctx) for e in rng.sample(
                    IRREDUCIBLES, rng.randint(1, 2))])
            for _ in range(8):
                f = to_field(_random_element(rng), ctx)
                known = ctx.known_nonzero(f)
                answers.add(known)
                assert known == _reference_known_nonzero(f, ctx), (ctx, f)
        assert answers == {True, False}

    @pytest.mark.parametrize("declared, element, known", [
        ((x * y,), x, False), ((x * y,), x * y, False),
        ((z**2,), z, False), ((2 * x,), x**3 / 7, True),
        ((1 / (x + y),), x + y, False), ((1 / (x + y),), 1 / (x + y), False),
        ((sp.Integer(3),), x, False), ((sp.cos(w),), 2 / sp.cos(w)**2, True),
        ((), sp.Integer(-2), True), ((), sp.Integer(0), False),
        ((x,), sp.Integer(0), False), ((x,), x * y, False)])
    def test_declared_kinds(self, declared, element, known):
        ctx = context(states=(x, y, z, w), nonzero=declared)
        assert ctx.known_nonzero(F(element, ctx)) is known
        assert _reference_known_nonzero(F(element, ctx), ctx) is known

    @pytest.mark.parametrize("seed", range(3))
    def test_one_term_factors_need_no_division(self, seed, monkeypatch):
        # monomial known factors leave in one pass over the terms
        rng = random.Random(seed)
        ctx = context(states=(x, y, z, w), params=(a, b),
                      param_signs={a: "+"}, nonzero=(2 * x, sp.cos(w), b))
        elements = [to_field(_random_element(rng) * x**rng.randint(0, 3)
                             * sp.cos(w)**rng.randint(0, 2), ctx)
                    for _ in range(40)]
        want = [_reference_known_nonzero(f, ctx) for f in elements]
        monkeypatch.setattr(type(ctx.field.ring.one), "div", None)
        assert [ctx.known_nonzero(f) for f in elements] == want
        assert set(want) == {True, False}

    def test_signed_parameters_only(self):
        ctx = SymbolContext(states=(x,), params=(a, b), param_signs={a: "-"})
        assert ctx.known_nonzero(F(a**2 / 3, ctx))
        assert not ctx.known_nonzero(F(a * b, ctx))

    def test_assuming_adds_only_new_elements(self):
        ctx = context(states=(x, y), nonzero=(x,))
        assert ctx.assuming([F(x, ctx)]) is ctx
        wider = ctx.assuming([F(x, ctx), F(x + y, ctx)])
        assert wider.nonzero == (F(x, ctx), F(x + y, ctx))
        assert wider.known_nonzero(F(x * (x + y), ctx))
        assert not ctx.known_nonzero(F(x * (x + y), ctx))


class TestAnnihilator:
    def test_driftless_single_generator(self, ex1):
        ann = annihilator(ex1)
        assert ann.rank == 1
        target = one_form_of([x * y * z, -x * z, 1], ex1.ctx)
        assert span_equal(ann.generators, [target])
        for X in ex1.fields():
            assert contract(ann.generators[0], X) == 0

    def test_four_state_two_generators(self, ex3):
        ann = annihilator(ex3)
        assert ann.rank == 2
        for g in ann.generators:
            for X in ex3.fields():
                assert contract(g, X) == 0

    def test_drift_reduces_corank(self, ex4):
        ann = annihilator(ex4)
        assert ann.rank == 1

    def test_dependent_fields(self):
        # duplicated control field: distribution rank 1 on R^3, corank 2
        sys = parse_system(
            "states: x y z\ncontrol g1: [1, y, 0]\ncontrol g2: [2, 2*y, 0]\n")
        ann = annihilator(sys)
        assert ann.rank == 2


# the chained form in 8 states, whose flag descends one rank per level
CHAINED8 = ("states: x1 x2 x3 x4 x5 x6 x7 x8\n"
            "control g1: [1, 0, x2, x3, x4, x5, x6, x7]\n"
            "control g2: [0, 1, 0, 0, 0, 0, 0, 0]\n")


# poly(4): its scans pass non-constant determinants, and its second
# completion keeps one
POLY4 = ("states: x1 x2 x3 x4\n"
         "control g1: [1, x1*x2, x2*x3, x3*x4]\n"
         "control g2: [0, 1, x1^2+x3, x2^2+x4]\n")


def _reference_determinant(rows):
    """The reduced determinant by Bareiss elimination in the polynomial
    ring, each row scaled by the lcm of its denominators: the determinant
    of the pivot scan as it was before the kept-minor expansion."""
    K = rows[0][0].field
    scale, scaled = K.ring.one, []
    for row in rows:
        L = functools.reduce(lambda a, b: a.lcm(b), [
            e.denom for e in row if not e.denom.is_ground], K.ring.one)
        scaled.append([e.numer * L.exquo(e.denom) for e in row])
        scale *= L
    det = DomainMatrix(scaled, (len(rows),) * 2, K.ring.to_domain()).det()
    return reduce_fraction(K.new(det, scale))


def _has_matching(columns, used=()):
    """True when each row, given as its nonzero columns, takes its own."""
    return not columns or any(_has_matching(columns[1:], used + (c,))
                              for c in columns[0] if c not in used)


def _reference_scan(system, ctx):
    """The pivots and determinant complete_coframe chose before one
    expansion served its scan: a Bareiss determinant per block, in
    lexicographic order, skipping each block whose nonzero pattern has no
    perfect matching; the first known-nonzero determinant, else the first
    nonzero one.  Also the number of blocks skipped."""
    s, n = system.rank, len(ctx.states)
    mat = system.coefficient_matrix()
    fallback, skipped = None, 0
    for combo in itertools.combinations(range(n), s):
        if not _has_matching(sorted(([c for c in combo if mat[r][c]]
                                     for r in range(s)), key=len)):
            skipped += 1
            continue
        det = _reference_determinant(
            [[mat[r][c] for c in combo] for r in range(s)])
        if ctx.known_nonzero(det):
            return combo, det, skipped
        if det and fallback is None:
            fallback = (combo, det)
    return *fallback, skipped


def _random_system(rng):
    """A driftless system of 4 or 5 states and 1 to 3 controls, whose
    entries are zero, rational constants or small polynomials, sometimes
    with one entry declared nonzero."""
    n = rng.randint(4, 5)
    states = sp.symbols(f"x1:{n + 1}")
    controls = [[0 if rng.random() < 0.4
                 else random_poly(rng, states, terms=rng.randint(1, 2),
                                  degree=rng.randint(0, 2))
                 for _ in range(n)] for _ in range(rng.randint(1, 3))]
    nonzero = [e for g in controls for e in g if e != 0][:1]
    ctx = context(states=states,
                  nonzero=nonzero if rng.random() < 0.5 else ())
    return system(ctx, controls)


class TestCompleteCoframe:
    def test_matches_reference_scan(self, ex1, ex2, ex3, ex4):
        # each completion of the flags of chained(8), poly(4) and ex1-ex4,
        # and of the annihilators of 20 random systems, picks the pivots
        # and records the constraints the reference scan does
        inputs = []
        for sys in (parse_system(CHAINED8), parse_system(POLY4),
                    ex1, ex2, ex3, ex4):
            constraints = ()
            for level in derived_flag(sys).levels:
                if level.system.rank:
                    inputs.append((replace(level.system, pivots=(),
                                           constraints=constraints),
                                   sys.ctx))
                constraints = level.system.constraints
        rng = random.Random(24)
        for _ in range(20):
            sys = _random_system(rng)
            inputs.append((replace(annihilator(sys), pivots=(),
                                   constraints=()), sys.ctx))
        skipped = 0
        for pfaffian, ctx in inputs:
            combo, det, skip = _reference_scan(pfaffian, ctx)
            want = flag_module._with_pivots(pfaffian, combo, det)
            assert flag_module.complete_coframe(pfaffian, ctx) == want
            skipped += skip
        assert len(inputs) > 30 and skipped > 200

    def test_only_the_kept_determinant_is_factored(self, monkeypatch):
        # the scan decides known-nonzero by trial division; factoring is
        # left to the determinant each completion keeps
        factored, kept = [], []
        real_factor = flag_module.factor
        real_with_pivots = flag_module._with_pivots

        def factor(f):
            factored.append(f)
            return real_factor(f)

        def with_pivots(system, combo, det):
            kept.append(det)
            return real_with_pivots(system, combo, det)

        monkeypatch.setattr(flag_module, "factor", factor)
        monkeypatch.setattr(flag_module, "_with_pivots", with_pivots)
        derived_flag(parse_system(POLY4))
        K = kept[0].field
        parts = [K(p) for det in kept for p in (det.numer, det.denom)
                 if not p.is_ground]
        assert len(kept) == 2 and factored == parts == [K(kept[1].numer)]


class TestTorsion:
    def test_single_entry(self, ex1):
        ann = annihilator(ex1)
        T = torsion(ann, ex1.ctx)
        assert T.shape() == (1, 1)
        # unique entry vanishes exactly on {z=0} u {x=-1}
        entry = T.entries[0][0]
        assert unit_ratio(entry, -z * (1 + x), ex1.ctx)

    def test_no_invariant_variant(self, ex2):
        ann = annihilator(ex2)
        T = torsion(ann, ex2.ctx)
        entry = T.entries[0][0]
        assert unit_ratio(entry, -y * (1 + 2 * x), ex2.ctx)

    def test_integrable_row_vanishes(self, ex3):
        ann = annihilator(ex3)
        T = torsion(ann, ex3.ctx)
        assert T.shape()[0] == 2
        # exactly one generator direction is integrable: the left null-space
        # of T is 1-dimensional, detected below via the derived system
        assert not T.is_trivial

    def test_drift_case_torsion_vanishing_combination(self, ex4):
        ann = annihilator(ex4)
        T = torsion(ann, ex4.ctx)
        assert T.shape() == (1, 3)
        assert not T.is_trivial


class TestDerivedFlag:
    def test_isolated_candidate_type(self, ex1):
        flag = derived_flag(ex1)
        assert flag.type == (0, 0) or flag.type == (1, 0)
        # I^(0) has rank 1, torsion nonzero, so I^(1) = 0: type (1, 0)
        assert flag.type == (1, 0)
        assert flag.dual_type(3) == (1, 3)

    def test_no_invariants_type(self, ex2):
        flag = derived_flag(ex2)
        assert flag.type == (1, 0)

    def test_foliation_type(self, ex3):
        flag = derived_flag(ex3)
        assert flag.type == (1, 1)
        term = flag.terminal
        target = one_form_of([b, 0, -a, 0], ex3.ctx)
        assert span_equal(term.generators, [target])

    def test_drift_tangent_type(self, ex4):
        flag = derived_flag(ex4)
        assert flag.type == (1, 0)

    def test_integrable_input_terminates_at_zero(self):
        # theta = dz is already integrable: flag stabilizes immediately, q = 1
        sys = parse_system(
            "states: x y z\ncontrol g1: [1, 0, 0]\ncontrol g2: [0, 1, 0]\n")
        flag = derived_flag(sys)
        assert flag.type == (0, 1)
        target = one_form_of([0, 0, 1], sys.ctx)
        assert span_equal(flag.terminal.generators, [target])

    def test_rank_strictly_decreases(self, ex3):
        flag = derived_flag(ex3)
        ranks = [lvl.system.rank for lvl in flag.levels]
        assert ranks == sorted(ranks, reverse=True)
        assert len(set(ranks)) == len(ranks) or flag.q == ranks[-1]

    def test_summary_shape(self, ex1):
        s = flag_summary(derived_flag(ex1), ex1.ctx)
        assert s["type"] == [1, 0]
        assert s["distribution_type"] == [1, 3]
        assert len(s["levels"]) == 2
        assert s["levels"][0]["rank"] == 1
        assert s["levels"][1]["rank"] == 0

    def test_summary_builds_no_expression(self, monkeypatch):
        # report text is written from the terms of each field element:
        # with expressions barred, poly(4)'s summary is unchanged
        system = parse_system(POLY4)
        flag = derived_flag(system)
        want = flag_summary(flag, system.ctx)

        def barred(*args, **kwargs):
            raise AssertionError("report text built an expression")

        monkeypatch.setattr(expr_module, "from_field", barred)
        monkeypatch.setattr(PolyElement, "as_expr", barred)
        assert flag_summary(flag, system.ctx) == want
        assert want["levels"][0]["torsion"]["entries"]


class TestDerivedSystem:
    def test_left_nullspace_annihilates_torsion(self, ex3):
        ann = annihilator(ex3)
        T = torsion(ann, ex3.ctx)
        nxt = derived_system(ann, T, ex3.ctx)
        assert nxt.rank == 1
        # the derived generator, expressed over the original ones, kills T
        assert span_equal(nxt.generators,
                          [one_form_of([b, 0, -a, 0], ex3.ctx)])

    def test_span_equal_negative(self, ex3):
        g1 = one_form_of([b, 0, -a, 0], ex3.ctx)
        g2 = one_form_of([0, 1, 0, 0], ex3.ctx)
        assert not span_equal([g1], [g2])
        assert span_equal([g1], [g1.scale(3)])


class TestInvariantErrors:
    def test_annihilation_failure_raises(self, ex1, monkeypatch):
        monkeypatch.setattr(flag_module, "contract", lambda g, X: 1)
        with pytest.raises(AnnihilationFailure):
            annihilator(ex1)

    def test_flag_not_decreasing_raises(self, ex3, monkeypatch):
        monkeypatch.setattr(flag_module, "derived_system",
                            lambda system, T, ctx: system)
        with pytest.raises(FlagNotDecreasing):
            derived_flag(ex3)


def on_hyperplane_first(monkeypatch, v):
    """Patch the certification points so that the first puts v = 0; returns
    the list of points used."""
    real = flag_module._certify_point
    calls = []

    def first_on_hyperplane(K, k):
        point = real(K, k)
        if not calls:
            point[K.symbols.index(v)] = 0
        calls.append(point)
        return point

    monkeypatch.setattr(flag_module, "_certify_point", first_on_hyperplane)
    return calls


class TestCertifyRank:
    def test_point_on_thin_locus_is_skipped(self, monkeypatch):
        # rows [[1, 0], [0, x]] have generic rank 2, rank 1 where x = 0
        calls = on_hyperplane_first(monkeypatch, x)
        certify_rank(field_rows([[1, 0], [0, x]], CTX), 2, CTX)
        assert calls[0][0] == 0 and len(calls) == 2

    def test_symbolic_rank_too_high_raises(self):
        with pytest.raises(RankNotConstant, match="attained at none of 8"):
            certify_rank(field_rows([[1, x], [2, 2 * x]], CTX), 2, CTX)

    def test_rank_above_symbolic_rank_raises(self):
        with pytest.raises(RankNotConstant, match="rank 2 > symbolic rank 1"):
            certify_rank(field_rows([[1, 0], [0, x]], CTX), 1, CTX)

    def test_trig_rows_certified_on_the_circle(self):
        # the determinant cos**2 - (1 - sin**2) vanishes only where
        # sin**2 + cos**2 = 1, so independent sin and cos values give rank 2
        rows = field_rows([[sp.cos(w), 1 - sp.sin(w)],
                           [1 + sp.sin(w), sp.cos(w)]], CTX4)
        certify_rank(rows, 1, CTX4)


class TestErrorsPropagate:
    """Only the errors a rank or factor test expects are absorbed."""

    @staticmethod
    def _raise(*args, **kwargs):
        raise RuntimeError("unrelated failure")

    def test_known_nonzero_propagates_unrelated_error(self, monkeypatch):
        # the factor that known_factors calls on each declared element
        monkeypatch.setattr(expr_module, "factor", self._raise)
        ctx = context(states=(x, y, z), nonzero=(x,))
        with pytest.raises(RuntimeError, match="unrelated failure"):
            ctx.known_nonzero(F(x * y, ctx))

    def test_certify_rank_propagates_unrelated_error(self, monkeypatch):
        monkeypatch.setattr(flag_module, "exact_value", self._raise)
        with pytest.raises(RuntimeError, match="unrelated failure"):
            certify_rank(field_rows([[1, 0], [0, x]], CTX), 2, CTX)

    def test_certify_rank_skips_singular_point(self, monkeypatch):
        # the first point puts x = 0, where the entry 1/x has no value
        calls = on_hyperplane_first(monkeypatch, x)
        certify_rank(field_rows([[1, 0], [0, 1 / x]], CTX), 2, CTX)
        assert calls[0][0] == 0 and len(calls) == 2


def test_torsion_solves_pivots_once_per_level(ex3, monkeypatch):
    # ex3's first level has two generators: one pivot solution serves both
    real = flag_module.pivot_solution
    solved = []

    def counting(theta, pivots):
        solved.append(len(theta))
        return real(theta, pivots)

    monkeypatch.setattr(flag_module, "pivot_solution", counting)
    flag = derived_flag(ex3)
    ranks = [level.system.rank for level in flag.levels
             if level.torsion is not None]
    assert solved == ranks and max(ranks) == 2


def test_torsion_of_rank_zero_system_is_empty():
    # drift and controls span R^3: the annihilator is the zero system
    sys = parse_system("states: x y z\ndrift: [0, 1, 0]\n"
                       "control g1: [1, 0, 0]\ncontrol g2: [0, 0, 1]\n")
    ann = annihilator(sys)
    assert ann.rank == 0
    T = torsion(ann, sys.ctx)
    assert T.entries == () and T.is_trivial
    assert T.shape() == (0, 3)
