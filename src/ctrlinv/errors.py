"""Exception hierarchy shared by every stage of the pipeline."""


class CtrlInvError(Exception):
    """Base class for all errors raised by this package."""


# --- symbolic kernel ---------------------------------------------------------

class DivisionByZeroExpr(CtrlInvError):
    """A quotient whose denominator normalizes to the zero expression."""


class UnknownSymbol(CtrlInvError):
    """An expression references a symbol that was never declared."""


class NotPolynomial(CtrlInvError):
    """Operation requires a polynomial (no quotients) after normalization."""


class EvalSingular(CtrlInvError):
    """Numeric evaluation hit a denominator too close to zero."""


# --- DSL ---------------------------------------------------------------------

class ParseError(CtrlInvError):
    """Syntax error with source position."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class ArityMismatch(CtrlInvError):
    """A field vector's length does not match the number of states."""


class EmptyControlSet(CtrlInvError):
    """A system must declare at least one control field."""


# --- exterior calculus / flag ------------------------------------------------

class SingularPivot(CtrlInvError):
    """Pivot submatrix determinant is zero."""


class RankNotConstant(CtrlInvError):
    """Rank certification failed: sampled and symbolic ranks disagree."""


class NoValidCompletion(CtrlInvError):
    """No coordinate-differential completion with nonzero determinant."""


class NotClosed(CtrlInvError):
    """Poincare integration requires a closed 1-form."""


class AnnihilationFailure(CtrlInvError):
    """A 1-form that must annihilate the system's fields does not."""


class FlagNotDecreasing(CtrlInvError):
    """A derived system failed to drop rank below its parent's."""


# --- numeric verifier --------------------------------------------------------

class StepSingular(CtrlInvError):
    """Vector field evaluation failed during time stepping."""


class DomainExit(CtrlInvError):
    """A trajectory crossed a declared-nonzero domain constraint."""


class SamplingFailed(CtrlInvError):
    """Too few random points satisfied the locus or domain constraints."""
