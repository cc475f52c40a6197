"""Symbolic-numeric toolkit for invariant submanifolds of affine control
systems: derived flags of annihilating Pfaffian systems, first integrals and
generalized first integrals, and trajectory-based verification."""

from .dsl import ControlAffineSystem, ControlSchedule, parse_system
from .expr import SymbolContext
from .flag import PfaffianFlag, PfaffianSystem, TorsionMatrix, derived_flag
from .forms import (
    DifferentialForm,
    contract,
    d,
    one_form,
    pivot_solution,
    reduce_mod,
    wedge,
)
from .integrals import (
    AnalysisConfig,
    CandidateIntegral,
    Classification,
    analyze,
    check_membership,
    first_integrals,
    gfi_candidates,
    poincare_integrate,
)
from .numeric import (
    InvarianceVerdict,
    Trajectory,
    bracket_rank,
    escape_test,
    invariance_test,
    lie_bracket,
    simulate,
)

__all__ = [
    "AnalysisConfig",
    "CandidateIntegral",
    "Classification",
    "ControlAffineSystem",
    "ControlSchedule",
    "DifferentialForm",
    "InvarianceVerdict",
    "PfaffianFlag",
    "PfaffianSystem",
    "SymbolContext",
    "TorsionMatrix",
    "Trajectory",
    "analyze",
    "bracket_rank",
    "check_membership",
    "contract",
    "d",
    "derived_flag",
    "escape_test",
    "first_integrals",
    "gfi_candidates",
    "invariance_test",
    "lie_bracket",
    "one_form",
    "parse_system",
    "poincare_integrate",
    "pivot_solution",
    "reduce_mod",
    "simulate",
    "wedge",
]

__version__ = "0.1.0"
