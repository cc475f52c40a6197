"""System-definition DSL: the single entry point for user-provided math.

File format (UTF-8, line oriented, ``#`` comments)::

    states: x y z
    params: a > 0, b > 0
    drift: [0, 0, 0]
    control g1: [1, y, 0]
    control g2: [0, 1, x*z]
    candidate rho1: z
    assume_nonzero: 1 + x

Expressions use infix ``+ - * / ^`` with integer exponents, ``sin(v)``,
``cos(v)`` and parentheses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import sympy as sp

from .errors import ArityMismatch, EmptyControlSet, ParseError, UnknownSymbol
from .expr import SymbolContext, normalize, to_field, to_text

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


@dataclass(frozen=True)
class ControlAffineSystem:
    """Validated affine control system: dx/dt = f(x) + sum_j g_j(x) u_j."""

    ctx: SymbolContext
    drift: tuple  # n-vector of exprs, all-zero when driftless
    controls: tuple  # m field vectors, each an n-tuple of exprs
    candidates: tuple = ()  # user-declared candidate integrals

    @property
    def n(self):
        return len(self.ctx.states)

    @property
    def m(self):
        return len(self.controls)

    @property
    def is_driftless(self):
        return all(c == 0 for c in self.drift)

    def fields(self):
        """Drift (when nonzero) followed by the control fields."""
        out = [] if self.is_driftless else [self.drift]
        out.extend(self.controls)
        return out

    def exact_fields(self):
        """fields() with components in the system's field, ctx.field."""
        return [tuple(to_field(e, self.ctx) for e in X) for X in self.fields()]


@dataclass(frozen=True)
class ControlSchedule:
    """Piecewise-constant control: (duration, m-vector value) pieces."""

    pieces: tuple  # of (duration, tuple of floats)

    def __post_init__(self):
        for dur, _ in self.pieces:
            if not 0 < dur < float("inf"):
                raise ValueError("piece durations must be positive and finite")

    @property
    def horizon(self):
        return sum(d for d, _ in self.pieces)


def _tokenize(text, line_no=None, col_offset=0):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = col_offset + pos + (len(text[pos:]) - len(stripped)) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", line_no, col)
        col = col_offset + m.start(m.lastgroup) + 1
        tokens.append((m.lastgroup, m.group(m.lastgroup), col))
        pos = m.end()
    tokens.append(("end", "", col_offset + len(text) + 1))
    return tokens


class _ExprParser:
    """Precedence-climbing parser producing sympy expressions."""

    BINARY = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}

    def __init__(self, tokens, symbols, line_no=None):
        self.tokens = tokens
        self.pos = 0
        self.symbols = symbols  # name -> sympy symbol
        self.line_no = line_no

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, col):
        raise ParseError(message, self.line_no, col)

    def parse(self):
        e = self.expression(0)
        kind, val, col = self.peek()
        if kind != "end":
            self.error(f"unexpected token {val!r}", col)
        return e

    def expression(self, min_prec):
        left = self.atom()
        while True:
            kind, val, col = self.peek()
            if kind != "op" or val not in self.BINARY:
                return left
            prec = self.BINARY[val]
            if prec < min_prec:
                return left
            self.next()
            # ^ is right-associative, the rest left
            right = self.expression(prec if val == "^" else prec + 1)
            if val == "+":
                left = left + right
            elif val == "-":
                left = left - right
            elif val == "*":
                left = left * right
            elif val == "/":
                left = left / right
            else:
                if not right.is_Integer:
                    self.error("exponent must be an integer literal", col)
                left = left**right
        return left

    def atom(self):
        kind, val, col = self.next()
        if kind == "num":
            return sp.Integer(int(val))
        if kind == "name":
            if val in ("sin", "cos"):
                k2, v2, c2 = self.next()
                if (k2, v2) != ("op", "("):
                    self.error(f"expected '(' after {val}", c2)
                k3, v3, c3 = self.next()
                if k3 != "name" or v3 not in self.symbols:
                    self.error(f"{val} takes a single declared variable", c3)
                k4, v4, c4 = self.next()
                if (k4, v4) != ("op", ")"):
                    self.error("expected ')'", c4)
                fn = sp.sin if val == "sin" else sp.cos
                return fn(self.symbols[v3])
            if val not in self.symbols:
                raise UnknownSymbol(f"undeclared symbol {val!r}"
                                    + (f" (line {self.line_no})" if self.line_no else ""))
            return self.symbols[val]
        if kind == "op" and val == "(":
            e = self.expression(0)
            k2, v2, c2 = self.next()
            if (k2, v2) != ("op", ")"):
                self.error("expected ')'", c2)
            return e
        if kind == "op" and val == "-":
            return -self.atom()
        if kind == "op" and val == "+":
            return self.atom()
        if kind == "end":
            self.error("unexpected end of expression", col)
        self.error(f"unexpected token {val!r}", col)


def parse_expr(text, ctx: SymbolContext, line_no=None, col_offset=0):
    """Parse one infix expression against a symbol context; normalized."""
    symbols = {str(s): s for s in ctx.symbols}
    tokens = _tokenize(text, line_no, col_offset)
    e = _ExprParser(tokens, symbols, line_no).parse()
    return normalize(e, ctx)


def _parse_vector(text, ctx, line_no, col_offset):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError("expected a bracketed vector [ ... ]", line_no, col_offset + 1)
    inner = text[1:-1]
    comps = []
    # split on top-level commas (no nesting other than parens)
    depth = 0
    start = 0
    spans = []
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            spans.append((start, i))
            start = i + 1
    spans.append((start, len(inner)))
    for s, e in spans:
        comps.append(parse_expr(inner[s:e], ctx, line_no, col_offset + 1 + s))
    return tuple(comps)


_PARAM_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*(?:([<>])\s*0\s*)?$")


def parse_system(text: str) -> ControlAffineSystem:
    """Parse a full system definition file into a validated system."""
    states = None
    params = []
    param_signs = {}
    drift_src = None
    control_srcs = []
    candidate_srcs = []
    nonzero_srcs = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if ":" not in line:
            raise ParseError("expected 'keyword: value'", line_no, 1)
        head, _, rest = line.partition(":")
        key = head.strip()
        col0 = len(head) + 1
        if key == "states":
            names = rest.split()
            if not names:
                raise ParseError("no state variables declared", line_no, col0)
            for nm in names:
                if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", nm):
                    raise ParseError(f"bad state name {nm!r}", line_no, col0)
            if len(set(names)) != len(names):
                raise ParseError("duplicate state variable", line_no, col0)
            states = tuple(sp.Symbol(nm) for nm in names)
        elif key == "params":
            for part in rest.split(","):
                m = _PARAM_RE.match(part)
                if not m:
                    raise ParseError(f"bad parameter declaration {part.strip()!r}",
                                     line_no, col0)
                s = sp.Symbol(m.group(1))
                params.append(s)
                if m.group(2):
                    param_signs[s] = "+" if m.group(2) == ">" else "-"
        elif key == "drift":
            drift_src = (rest, line_no, col0)
        elif key.startswith("control"):
            control_srcs.append((key, rest, line_no, col0))
        elif key.startswith("candidate"):
            candidate_srcs.append((rest, line_no, col0))
        elif key == "assume_nonzero":
            nonzero_srcs.append((rest, line_no, col0))
        else:
            raise ParseError(f"unknown declaration {key!r}", line_no, 1)

    if states is None:
        raise ParseError("missing 'states:' declaration", 1, 1)
    if not control_srcs:
        raise EmptyControlSet("at least one control field is required")

    n = len(states)
    base_ctx = SymbolContext(states=states, params=tuple(params),
                             param_signs=param_signs)

    nonzero = tuple(parse_expr(src, base_ctx, ln, c0) for src, ln, c0 in nonzero_srcs)
    ctx = SymbolContext(states=states, params=tuple(params),
                        param_signs=param_signs, nonzero=nonzero)

    def vector(src, ln, c0, what):
        v = _parse_vector(src, ctx, ln, c0)
        if len(v) != n:
            raise ArityMismatch(
                f"{what} has {len(v)} components for {n} states (line {ln})")
        return v

    drift = (tuple(sp.Integer(0) for _ in range(n)) if drift_src is None
             else vector(*drift_src, "drift"))
    controls = tuple(vector(src, ln, c0, key)
                     for key, src, ln, c0 in control_srcs)
    candidates = tuple(parse_expr(src, ctx, ln, c0)
                       for src, ln, c0 in candidate_srcs)

    return ControlAffineSystem(ctx=ctx, drift=drift, controls=controls,
                               candidates=candidates)


def print_system(sys: ControlAffineSystem) -> str:
    """Canonical text rendering; parse(print_system(parse(t))) == parse(t)."""
    lines = ["states: " + " ".join(str(s) for s in sys.ctx.states)]
    if sys.ctx.params:
        parts = []
        for p in sys.ctx.params:
            sign = sys.ctx.param_signs.get(p)
            parts.append(f"{p} {'>' if sign == '+' else '<'} 0" if sign else str(p))
        lines.append("params: " + ", ".join(parts))
    if not sys.is_driftless:
        lines.append("drift: [" + ", ".join(to_text(c) for c in sys.drift) + "]")
    for j, g in enumerate(sys.controls, start=1):
        lines.append(f"control g{j}: [" + ", ".join(to_text(c) for c in g) + "]")
    for j, rho in enumerate(sys.candidates, start=1):
        lines.append(f"candidate rho{j}: " + to_text(rho))
    for c in sys.ctx.nonzero:
        lines.append("assume_nonzero: " + to_text(c))
    return "\n".join(lines) + "\n"
