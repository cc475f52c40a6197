import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlinv.cli import run
from ctrlinv.dsl import (
    ControlAffineSystem,
    ControlSchedule,
    parse_into,
    parse_system,
    print_system,
)
from ctrlinv.errors import (
    ArityMismatch,
    DivisionByZeroExpr,
    EmptyControlSet,
    ParseError,
    UnknownSymbol,
)
from ctrlinv.expr import SymbolContext, from_field, normalize, to_text
from ctrlinv.integrals import analyze

from conftest import SYSTEMS_DIR, elements, load_system
from test_golden import CONFIG, TRIG4, poly_text

x, y, z, w = sp.symbols("x y z w")
a, b = sp.symbols("a b")

CTX = SymbolContext(states=(x, y, z))


def parse_expr(text, ctx):
    """One text parsed into the field of ctx, as an expression."""
    _, (e,) = parse_into(ControlAffineSystem(ctx, (), ()), [text])
    return from_field(e)


class TestParseExpr:
    def test_precedence(self):
        assert parse_expr("1 + 2*x^2", CTX) == 1 + 2 * x**2

    def test_right_assoc_power(self):
        assert parse_expr("x^2^3", CTX) == x**8

    def test_unary_minus(self):
        assert parse_expr("-x*y", CTX) == -x * y

    def test_quotient(self):
        got = parse_expr("x/(y*z)", CTX)
        assert normalize(got - x / (y * z), CTX) == 0

    def test_trig(self):
        ctx = SymbolContext(states=(x, w))
        assert parse_expr("sin(w)*x", ctx) == sp.sin(w) * x

    def test_undeclared_symbol(self):
        with pytest.raises(UnknownSymbol):
            parse_expr("x + q", CTX)

    def test_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_system("states: x y z\ncontrol g1: [1, 0, 0]\n"
                         "candidate r: x + $\n")
        assert exc.value.line == 3
        assert exc.value.column == 18

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_expr("(x + y", CTX)

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError):
            parse_expr("x^y", CTX)

    @pytest.mark.parametrize("text", ["x^y", "x^(1/2)", "x^(y-y+1/2)"])
    def test_exponent_must_fold_to_an_integer(self, text):
        # x^(y-y+2) and x^(3-5) parse: the rule is an exponent that folds
        # to an integer, not an integer literal; the column is the ^'s
        with pytest.raises(ParseError) as exc:
            parse_system(f"states: x y\ncontrol g1: [1, {text}]\n")
        assert str(exc.value) == ("line 2, column 18: exponent must fold to "
                                  "an integer")

    def test_trig_of_expression_rejected(self):
        ctx = SymbolContext(states=(x, w))
        with pytest.raises(ParseError):
            parse_expr("sin(x + w)", ctx)


class TestParseSystem:
    def test_bundled_driftless(self, ex1):
        assert ex1.n == 3 and ex1.m == 2
        assert ex1.is_driftless and ex1.drift == (ex1.ctx.field.zero,) * 3
        assert ex1.controls == (tuple(elements([1, y, 0], ex1.ctx)),
                                tuple(elements([0, 1, x * z], ex1.ctx)))
        assert ex1.fields() == list(ex1.controls)

    def test_bundled_params_and_constraints(self, ex3):
        assert ex3.ctx.params == (a, b)
        assert ex3.ctx.param_signs == {a: "+", b: "+"}
        assert ex3.ctx.nonzero == tuple(elements([sp.cos(w)], ex3.ctx))
        assert ex3.controls[0] == tuple(elements(
            [a * sp.cos(w), sp.sin(w), b * sp.cos(w), 0], ex3.ctx))

    def test_bundled_drift_and_candidate(self, ex4):
        assert not ex4.is_driftless
        assert ex4.drift == tuple(elements([b * x - a * z, 1, 0, 0], ex4.ctx))
        assert ex4.candidates == tuple(elements([b * x - a * z], ex4.ctx))
        assert ex4.fields() == [ex4.drift, *ex4.controls]

    @pytest.mark.parametrize("name", ["ex1", "ex3", "ex4"])
    def test_every_component_is_an_element_of_the_field(self, name):
        # a driftless system, a declared-nonzero cos(w) and a candidate
        sys = load_system(name)
        K = sys.ctx.field
        stored = [*sys.drift, *sum(sys.controls, ()), *sys.candidates,
                  *sys.ctx.nonzero]
        assert stored and all(e.field is K for e in stored)
        assert {"ex1": sys.is_driftless, "ex3": sys.ctx.nonzero,
                "ex4": sys.candidates}[name]

    def test_missing_states(self):
        with pytest.raises(ParseError):
            parse_system("control g1: [1]\n")

    def test_no_controls(self):
        with pytest.raises(EmptyControlSet):
            parse_system("states: x y\ndrift: [y, 0]\n")

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            parse_system("states: x y z\ncontrol g1: [1, y]\n")

    def test_undeclared_in_field(self):
        with pytest.raises(UnknownSymbol):
            parse_system("states: x y\ncontrol g1: [1, q]\n")

    def test_duplicate_state(self):
        with pytest.raises(ParseError):
            parse_system("states: x x\ncontrol g1: [1, 0]\n")

    @pytest.mark.parametrize("text, line, message", [
        # a parameter named like a state made a field with a repeated
        # generator, and a report read the parameter as the state
        ("states: x y\nparams: x\n", 2, "'x' is declared twice"),
        ("params: b > 0\nstates: b y\n", 1, "'b' is declared twice"),
        ("states: x y\nparams: a, b,a\n", 2, "'a' is declared twice"),
        ("states: x x\n", 1, "'x' is declared twice"),
        # sin(v) and cos(v) are trig atoms: no expression could name such
        # a symbol
        ("states: x sin\n", 1, "'sin' is reserved for the trig functions"),
        ("states: x y\nparams: a, cos\n", 2,
         "'cos' is reserved for the trig functions"),
    ], ids=["param-named-like-state", "param-before-states", "param-twice",
            "state-twice", "state-sin", "param-cos"])
    def test_names_declared_once_and_not_reserved(self, text, line, message):
        with pytest.raises(ParseError) as exc:
            parse_system(text + "control g1: [1, 0]\n")
        assert str(exc.value) == f"line {line}, column 7: {message}"

    def test_states_declared_twice(self):
        # a second states: line replaced the first: a one-state system in z
        with pytest.raises(ParseError) as exc:
            parse_system("states: x y\nstates: z\ncontrol g1: [1]\n")
        assert str(exc.value) == ("line 2, column 1: 'states:' is declared "
                                  "twice, first on line 1")

    def test_state_named_like_a_parameter_is_no_report(self, tmp_path,
                                                       capsys):
        # analyze read {x**2/2 - y = 0} as a first integral here, exit 0
        path = tmp_path / "shadow.sys"
        path.write_text("states: x y\nparams: x\ncontrol g1: [1, x]\n")
        assert run(["analyze", str(path)]) == 1
        assert "'x' is declared twice" in capsys.readouterr().err

    def test_unknown_declaration(self):
        with pytest.raises(ParseError) as exc:
            parse_system("states: x\nbogus: 1\ncontrol g1: [1]\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("lines, error", [
        (["assume_nonzero: 1/(x - x)", "control g1: [1, $]"],
         DivisionByZeroExpr),
        (["control g1: [1, $]", "candidate rho1: 1/(y - y)"], ParseError),
        (["control g1: [1/(cos(x)^2 + sin(x)^2 - 1), y]",
          "control g2: [1]"], DivisionByZeroExpr),
        (["control g1: [1, q]", "candidate rho1: y", "assume_nonzero: x +"],
         UnknownSymbol),
    ])
    def test_first_error_in_file_order(self, lines, error):
        # the trees are parsed before any is normalized, and a parse error
        # is raised after the expressions before it are normalized
        with pytest.raises(error):
            parse_system("\n".join(["states: x y", *lines]) + "\n")

    def test_field_pairs_from_trig_atoms(self):
        sys = parse_system("states: x y z\nparams: a\n"
                           "control g1: [cos(z), 1, a]\n"
                           "candidate rho1: sin(x)\n")
        assert sys.ctx.trig == (x, z)
        assert sys.ctx.field.symbols == (x, y, z, a, sp.sin(x), sp.cos(x),
                                         sp.sin(z), sp.cos(z))

    def test_with_trig_moves_every_element(self, ex1):
        moved = ex1.with_trig((x,))
        assert moved.ctx.trig == (x,) and ex1.ctx.trig == ()
        K = moved.ctx.field
        assert K.symbols == (x, y, z, sp.sin(x), sp.cos(x))
        for old, new in zip((ex1.drift, *ex1.controls),
                            (moved.drift, *moved.controls), strict=True):
            assert list(map(to_text, new)) == list(map(to_text, old))
            assert all(e.field is K for e in new)

    def test_with_trig_moves_nonzero_and_candidates(self, ex4):
        moved = ex4.with_trig(None)
        K = moved.ctx.field
        for old, new in ((ex4.ctx.nonzero, moved.ctx.nonzero),
                         (ex4.candidates, moved.candidates)):
            assert list(map(to_text, new)) == list(map(to_text, old))
            assert all(e.field is K for e in new)

    def test_comments_and_blanks(self):
        sys = parse_system(
            "# heading\n\nstates: x y  # inline\ncontrol g1: [1, 0]\n")
        assert sys.n == 2 and sys.m == 1


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4"])
    def test_print_parse_fixed_point(self, name, request):
        sys = request.getfixturevalue(name)
        text = print_system(sys)
        again = parse_system(text)
        assert again == sys
        assert print_system(again) == text


class TestPowerAndSign:
    """A unary sign applies to a whole power, and `**` is `^`."""

    @pytest.mark.parametrize("text, want", [
        ("-x^2", -x**2), ("-2^2", -4), ("-x^2^2", -x**4), ("2*-x^2", -2 * x**2),
        ("-(x+y)^2", -(x + y)**2), ("-x*y", -x * y), ("-x+y", y - x),
        ("2^-1", sp.Rational(1, 2)), ("x^-2", x**-2), ("- -x^2", x**2),
        ("+x^2", x**2)])
    def test_unary_sign_binds_looser_than_power(self, text, want):
        assert normalize(parse_expr(text, CTX) - want, CTX) == 0

    @pytest.mark.parametrize("text, want", [
        ("x**2", x**2), ("x**2**2", x**4), ("2**-1*x", x / 2),
        ("x**(-2)", x**-2), ("-x**2", -x**2), ("x ** 3", x**3)])
    def test_double_star_is_power(self, text, want):
        assert normalize(parse_expr(text, CTX) - want, CTX) == 0

    @pytest.mark.parametrize("text", [
        *((SYSTEMS_DIR / f"ex{k}.sys").read_text() for k in range(1, 5)),
        poly_text(3), TRIG4,
        "states: x y\ncontrol g1: [-x^2, 1/(x+1)^2]\n"
        "control g2: [x**(-2), 1]\ncandidate rho1: -x^2*y\n"],
        ids=["ex1", "ex2", "ex3", "ex4", "poly3", "trig4", "powers"])
    def test_print_system_round_trips(self, text):
        sys = parse_system(text)
        assert parse_system(print_system(sys)) == sys


class TestParseEdgeCases:
    """Powers of zero, negative and folded exponents, and denominators
    that vanish, exactly or modulo sin**2 + cos**2 = 1."""

    @pytest.mark.parametrize("text, want", [
        ("0^0", 1), ("(x-x)^0", 1), ("2^-2", sp.Rational(1, 4)),
        ("x^(3-5)", x**-2), ("x^(y-y)", 1), ("(-2)^-1", sp.Rational(-1, 2)),
        ("x^(y-y+2)", x**2)])
    def test_value(self, text, want):
        assert normalize(parse_expr(text, CTX) - want, CTX) == 0

    @pytest.mark.parametrize("text", [
        "0^-1", "x/(y-y)", "(y-y)^-1*0", "1/(sin(x)^2+cos(x)^2-1)"])
    def test_division_by_zero(self, text):
        with pytest.raises(DivisionByZeroExpr,
                           match="denominator normalizes to zero"):
            parse_expr(text, CTX)

    def test_negative_power_keeps_denominator_positive(self):
        sys = parse_system("states: x y\ncontrol g1: [(-2)^-1, (-x)^-1]\n")
        K = sys.ctx.field
        assert list(sys.controls[0]) == [K(-1) / 2, -1 / K.gens[0]]
        assert all(f.denom.LC > 0 for f in sys.controls[0])
        assert list(map(to_text, sys.controls[0])) == ["-1/2", "-1/x"]


class TestTrigScan:
    """The field's sin/cos pairs come from a scan of the declaration texts
    made before any of them is parsed."""

    def test_extra_pair_moves_nothing(self):
        base = (SYSTEMS_DIR / "ex1.sys").read_text()
        assert "control g1: [1, y, 0]" in base
        padded = base.replace("control g1: [1, y, 0]",
                              "control g1: [sin(x) - sin(x) + 1, y, 0]")
        sys, padded_sys = parse_system(base), parse_system(padded)
        assert padded_sys.ctx.trig == (x,) and sys.ctx.trig == ()
        assert padded_sys.controls == sys.with_trig((x,)).controls
        assert analyze(padded_sys, CONFIG) == analyze(sys, CONFIG)

    def test_pair_from_assume_nonzero_alone(self):
        sys = parse_system("states: x w\ncontrol g1: [1, x]\n"
                           "assume_nonzero: cos(w)\n")
        assert sys.ctx.trig == (w,)
        assert sys.ctx.nonzero == (sys.ctx.field.gens[3],)
        assert from_field(sys.ctx.nonzero[0]) == sp.cos(w)

    def test_earlier_error_first(self):
        # the scan reads the malformed trig atom of line 3 without raising:
        # line 2's error comes first
        with pytest.raises(UnknownSymbol, match="line 2"):
            parse_system("states: x w\ncontrol g1: [q, 0]\n"
                         "control g2: [sin(w, 0]\n")
        with pytest.raises(DivisionByZeroExpr):
            parse_system("states: x w\ncontrol g1: [1/(x-x), 0]\n"
                         "control g2: [sin(w)+, 0]\n")

    def test_parse_into_adds_the_pairs_of_its_texts(self, ex1):
        moved, (e,) = parse_into(ex1, ["sin(z)*x"])
        assert moved.ctx.trig == (z,) and ex1.ctx.trig == ()
        assert from_field(e) == sp.sin(z) * x
        assert moved.controls == ex1.with_trig((z,)).controls


class TestSchedule:
    def test_horizon(self):
        s = ControlSchedule(pieces=((0.5, (1.0, 0.0)), (1.5, (0.0, 2.0))))
        assert s.horizon == 2.0

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            ControlSchedule(pieces=((0.0, (1.0,)),))


@settings(max_examples=80, deadline=None)
@given(st.text(alphabet="xyzq+-*/^() 0123456789sincow,", max_size=40))
def test_parser_never_crashes_unexpectedly(text):
    ctx = SymbolContext(states=(x, y, z, w))
    try:
        parse_expr(text, ctx)
    except (ParseError, UnknownSymbol, DivisionByZeroExpr):
        pass
