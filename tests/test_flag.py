import functools
import itertools
import random

import pytest
import sympy as sp
from sympy import ZZ

import ctrlinv.flag as flag_module
from ctrlinv.dsl import parse_system
from ctrlinv.errors import (
    AnnihilationFailure,
    FlagNotDecreasing,
    RankNotConstant,
)
from ctrlinv.expr import SymbolContext, reduce_fraction, to_field
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

from conftest import field_rows, one_form_of, random_poly

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
        # sin/cos entries, rational constants, zero entries and zero vectors
        rng = random.Random(11)
        ctx = SymbolContext(states=(x, y, z, w))
        for _ in range(60):
            vec = []
            for _ in range(rng.randint(1, 4)):
                num = random_poly(rng, (x, y, w), terms=rng.randint(0, 3),
                                  trig_of=w)
                den = random_poly(rng, (x, z), terms=rng.randint(1, 2),
                                  trig_of=w)
                vec.append(num / den if den != 0 else num)
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


class TestAnnihilator:
    def test_driftless_single_generator(self, ex1):
        ann = annihilator(ex1)
        assert ann.rank == 1
        target = one_form_of([x * y * z, -x * z, 1], ex1.ctx)
        assert span_equal(ann.generators, [target])
        for X in field_rows(ex1.fields(), ex1.ctx):
            assert contract(ann.generators[0], X) == 0

    def test_four_state_two_generators(self, ex3):
        ann = annihilator(ex3)
        assert ann.rank == 2
        for g in ann.generators:
            for X in field_rows(ex3.fields(), ex3.ctx):
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
        monkeypatch.setattr(flag_module, "factor", self._raise)
        with pytest.raises(RuntimeError, match="unrelated failure"):
            flag_module._known_nonzero(F(x * y), CTX)

    def test_certify_rank_propagates_unrelated_error(self, monkeypatch):
        monkeypatch.setattr(flag_module, "_value", self._raise)
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
