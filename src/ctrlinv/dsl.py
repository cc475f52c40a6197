"""System-definition DSL: the single entry point for user-provided math.

File format (UTF-8, line oriented, ``#`` comments)::

    states: x y z
    params: a > 0, b > 0
    drift: [0, 0, 0]
    control g1: [1, y, 0]
    control g2: [0, 1, x*z]
    candidate rho1: z
    assume_nonzero: 1 + x

Expressions use infix ``+ - * /``, the power ``^`` or ``**`` with an
integer exponent, ``sin(v)``, ``cos(v)`` and parentheses; ``-x^2`` is
-(x^2).  Each is computed on elements of the system's field, `ctx.field`,
as it is parsed: a parsed system holds only field elements.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, replace

import sympy as sp

from .errors import (ArityMismatch, DivisionByZeroExpr, EmptyControlSet,
                     ParseError, UnknownSymbol)
from .expr import SymbolContext, reduce_fraction, to_text

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()]))"
)
# a trig atom as the tokenizer reads one: sin or cos, then a name in
# parentheses
_TRIG_RE = re.compile(r"\b(?:sin|cos)\s*\(\s*([A-Za-z_][A-Za-z_0-9]*)\s*\)")


@dataclass(frozen=True)
class ControlAffineSystem:
    """Validated affine control system: dx/dt = f(x) + sum_j g_j(x) u_j,
    every component an element of ctx.field."""

    ctx: SymbolContext
    drift: tuple  # n-vector, all zero when driftless
    controls: tuple  # m control fields, each an n-tuple
    candidates: tuple = ()  # user-declared candidate integrals

    @property
    def n(self):
        return len(self.ctx.states)

    @property
    def m(self):
        return len(self.controls)

    @property
    def is_driftless(self):
        return not any(self.drift)

    def fields(self):
        """Drift (when nonzero) followed by the control fields."""
        return list(self.controls if self.is_driftless
                    else (self.drift, *self.controls))

    def with_trig(self, trig):
        """This system in the field with a sin/cos pair for each symbol of
        trig (`SymbolContext.trig`), every element, the declared-nonzero
        ones too, moved into that field."""
        ctx = replace(self.ctx, trig=trig)

        def move(v):
            return tuple(e.set_field(ctx.field) for e in v)

        return ControlAffineSystem(
            ctx=replace(ctx, nonzero=move(ctx.nonzero)),
            drift=move(self.drift), controls=tuple(map(move, self.controls)),
            candidates=move(self.candidates))


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
    """Precedence-climbing parser computing on elements of a field K: a
    number is K(n), a declared symbol and sin(v), cos(v) their generators.
    A power takes an integer exponent, and x^0 is one, 0^0 included."""

    POWER = 30
    BINARY = {"+": 10, "-": 10, "*": 20, "/": 20, "^": POWER, "**": POWER}

    def __init__(self, tokens, K, line_no=None):
        self.tokens = tokens
        self.pos = 0
        self.K = K
        # generator text -> generator: "x", "sin(x)", "cos(x)"
        self.gens = dict(zip(map(str, K.symbols), K.gens))
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
            # a power is right-associative, the rest left
            right = self.expression(prec if prec == self.POWER else prec + 1)
            if val == "+":
                left = left + right
            elif val == "-":
                left = left - right
            elif val == "*":
                left = left * right
            elif val == "/":
                left = left / right
            else:
                if not (right.denom.is_one and right.numer.is_ground):
                    self.error("exponent must fold to an integer", col)
                k = int(right.numer.LC)
                # the ring raises on 0**0, and a negative power of its own
                # leaves the denominator's sign as it is: divide instead
                left = (self.K.one if k == 0 else left**k if k > 0
                        else self.K.one / left**-k)
        return left

    def atom(self):
        kind, val, col = self.next()
        if kind == "num":
            return self.K(int(val))
        if kind == "name":
            if val in ("sin", "cos"):
                k2, v2, c2 = self.next()
                if (k2, v2) != ("op", "("):
                    self.error(f"expected '(' after {val}", c2)
                k3, v3, c3 = self.next()
                if k3 != "name" or v3 not in self.gens:
                    self.error(f"{val} takes a single declared variable", c3)
                k4, v4, c4 = self.next()
                if (k4, v4) != ("op", ")"):
                    self.error("expected ')'", c4)
                return self.gens[f"{val}({v3})"]
            if val not in self.gens:
                raise UnknownSymbol(f"undeclared symbol {val!r}"
                                    + (f" (line {self.line_no})" if self.line_no else ""))
            return self.gens[val]
        if kind == "op" and val == "(":
            e = self.expression(0)
            k2, v2, c2 = self.next()
            if (k2, v2) != ("op", ")"):
                self.error("expected ')'", c2)
            return e
        if kind == "op" and val in ("+", "-"):
            # a unary sign applies to a whole power: -x^2 is -(x^2)
            e = self.expression(self.POWER)
            return -e if val == "-" else e
        if kind == "end":
            self.error("unexpected end of expression", col)
        self.error(f"unexpected token {val!r}", col)


def _trig_symbols(symbols, texts):
    """The symbols, in their order, named inside a sin or cos atom of one
    of the texts: those the field gives a sin/cos pair
    (`SymbolContext.trig`).  A scan, not the parser: it finds the pairs
    before the field exists, and it raises nothing, so a text's error
    comes when that text is parsed."""
    inside = {name for t in texts for name in _TRIG_RE.findall(t)}
    return tuple(v for v in symbols if str(v) in inside)


def _parse(K, text, line_no=None, col_offset=0):
    """One infix expression as a reduced element of the field K."""
    tokens = _tokenize(text, line_no, col_offset)
    try:
        return reduce_fraction(_ExprParser(tokens, K, line_no).parse())
    except ZeroDivisionError:
        raise DivisionByZeroExpr("denominator normalizes to zero") from None


def parse_into(system: ControlAffineSystem, texts):
    """The system, its field given a sin/cos pair also for each declared
    symbol inside a trig atom of the texts, and the texts parsed as
    elements of that field."""
    ctx = system.ctx
    if ctx.trig is not None:  # None: the field has every pair
        found = _trig_symbols(ctx.symbols, texts)
        trig = tuple(v for v in ctx.symbols if v in ctx.trig or v in found)
        if trig != ctx.trig:
            system = system.with_trig(trig)
    return system, [_parse(system.ctx.field, t) for t in texts]


def _parse_vector(text, parse, line_no, col_offset):
    """The components of a bracketed vector, split on the commas outside
    parentheses, each parse(text, line_no, col_offset)."""
    col_offset += len(text) - len(text.lstrip()) + 1
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError("expected a bracketed vector [ ... ]", line_no, col_offset)
    inner, start, depth, comps = text[1:-1], 0, 0, []
    for i, ch in enumerate(inner):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            comps.append(parse(inner[start:i], line_no, col_offset + start))
            start = i + 1
    comps.append(parse(inner[start:], line_no, col_offset + start))
    return tuple(comps)


_PARAM_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*(?:([<>])\s*0\s*)?$")


def parse_system(text: str) -> ControlAffineSystem:
    """Parse a full system definition file into a validated system."""
    # (name, line, column) of each declared state and parameter
    states = None
    params = []
    param_signs = {}
    # (key, text, line, column) of each expression declaration, in file
    # order; a later drift replaces an earlier one
    declared = []

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
            if states is not None:
                raise ParseError("'states:' is declared twice, first on "
                                 f"line {states[0][1]}", line_no, 1)
            names = rest.split()
            if not names:
                raise ParseError("no state variables declared", line_no, col0)
            for nm in names:
                if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", nm):
                    raise ParseError(f"bad state name {nm!r}", line_no, col0)
            states = [(nm, line_no, col0) for nm in names]
        elif key == "params":
            for part in rest.split(","):
                m = _PARAM_RE.match(part)
                if not m:
                    raise ParseError(f"bad parameter declaration {part.strip()!r}",
                                     line_no, col0)
                params.append((m.group(1), line_no, col0))
                if m.group(2):
                    param_signs[sp.Symbol(m.group(1))] = (
                        "+" if m.group(2) == ">" else "-")
        elif (key in ("drift", "assume_nonzero")
              or key.startswith(("control", "candidate"))):
            if key == "drift":
                declared = [d for d in declared if d[0] != "drift"]
            declared.append((key, rest, line_no, col0))
        else:
            raise ParseError(f"unknown declaration {key!r}", line_no, 1)

    if states is None:
        raise ParseError("missing 'states:' declaration", 1, 1)
    # checked once all are declared: params may come before states
    seen = set()
    for nm, line_no, col0 in states + params:
        if nm in ("sin", "cos"):
            raise ParseError(f"{nm!r} is reserved for the trig functions",
                             line_no, col0)
        if nm in seen:
            raise ParseError(f"{nm!r} is declared twice", line_no, col0)
        seen.add(nm)
    states, params = (tuple(sp.Symbol(d[0]) for d in v)
                      for v in (states, params))
    if not any(d[0].startswith("control") for d in declared):
        raise EmptyControlSet("at least one control field is required")

    n = len(states)
    # the field is built once: a sin/cos pair only for the declared symbols
    # inside a trig atom
    ctx = SymbolContext(states=states, params=params,
                        param_signs=param_signs, trig=_trig_symbols(
                            states + params, [d[1] for d in declared]))
    K = ctx.field
    element = functools.partial(_parse, K)

    def vector(src, ln, c0, what):
        v = _parse_vector(src, element, ln, c0)
        if len(v) != n:
            raise ArityMismatch(
                f"{what} has {len(v)} components for {n} states (line {ln})")
        return v

    drift, controls, candidates, nonzero = (K.zero,) * n, [], [], []
    for key, src, ln, c0 in declared:  # in file order, each parsed once
        if key == "drift":
            drift = vector(src, ln, c0, "drift")
        elif key.startswith("control"):
            controls.append(vector(src, ln, c0, key))
        elif key.startswith("candidate"):
            candidates.append(element(src, ln, c0))
        else:
            nonzero.append(element(src, ln, c0))
    return ControlAffineSystem(ctx=replace(ctx, nonzero=tuple(nonzero)),
                               drift=drift, controls=tuple(controls),
                               candidates=tuple(candidates))


def print_system(sys: ControlAffineSystem) -> str:
    """Canonical text rendering, which parse_system reads back to the
    system's elements (to the system when they use each sin/cos pair)."""
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
