import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlinv.dsl import (
    ControlSchedule,
    parse_expr,
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
from ctrlinv.expr import SymbolContext, normalize

x, y, z, w = sp.symbols("x y z w")
a, b = sp.symbols("a b")

CTX = SymbolContext(states=(x, y, z))


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
            parse_expr("x + $", CTX, line_no=3)
        assert exc.value.line == 3
        assert exc.value.column == 5

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_expr("(x + y", CTX)

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError):
            parse_expr("x^y", CTX)

    def test_trig_of_expression_rejected(self):
        ctx = SymbolContext(states=(x, w))
        with pytest.raises(ParseError):
            parse_expr("sin(x + w)", ctx)


class TestParseSystem:
    def test_bundled_driftless(self, ex1):
        assert ex1.n == 3 and ex1.m == 2
        assert ex1.is_driftless
        assert ex1.controls[0] == (1, y, 0)
        assert ex1.controls[1] == (0, 1, x * z)
        assert len(ex1.fields()) == 2

    def test_bundled_params_and_constraints(self, ex3):
        assert ex3.ctx.params == (a, b)
        assert ex3.ctx.param_signs == {a: "+", b: "+"}
        assert ex3.ctx.nonzero == (sp.cos(w),)
        assert ex3.controls[0] == (a * sp.cos(w), sp.sin(w), b * sp.cos(w), 0)

    def test_bundled_drift_and_candidate(self, ex4):
        assert not ex4.is_driftless
        assert ex4.drift == (b * x - a * z, 1, 0, 0)
        assert ex4.candidates == (b * x - a * z,)
        assert len(ex4.fields()) == 3

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
