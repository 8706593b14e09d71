"""Solver toolkit for mathematical programs with vanishing constraints.

An MPVC couples each inequality G_i(x) <= 0 to a switch function
H_i(x) >= 0 through the product constraint G_i(x) H_i(x) <= 0: wherever
H_i vanishes, the bound on G_i switches off.  The toolkit embeds such
problems into one-parameter families of smooth NLPs (four regularization
schemes), solves the subproblems with an SQP method to eps-stationarity,
recovers MPVC multipliers from the subproblem multipliers, and classifies
limit points as weakly / T- / M- / S-stationary.  Constraint-qualification
diagnostics (MPVC-LICQ, MPVC-MFCQ) and a benchmark library (academic
two-variable problem, ten-bar truss design, re-entry heat-load optimal
control, certified counterexample families) round out the package.
"""
from .model import (
    IndexSets,
    MpvcProblem,
    empty_vector_fn,
    full_violation,
    index_sets,
    max_vio,
)
from .regularize import (
    Nlp,
    RowProvenance,
    Scheme,
    direct_nlp,
    kernel_global,
    phi_kdb,
    phi_ks,
    phi_su,
    regularize,
    theta,
    theta_prime,
)
from .nlp import (
    NlpSolution,
    SolverLimits,
    SolveStatus,
    check_eps_stationary,
    solve_nlp,
)
from .stationarity import (
    Grade,
    MpvcMultipliers,
    StationarityReport,
    classify,
    find_multipliers,
    recover_mpvc_multipliers,
)
from .cq import CqReport, check_licq, check_mfcq, check_mpvc_licq, check_mpvc_mfcq, pli_probe
from .driver import DriverConfig, DriverResult, DriverTrace, StopReason, solve_mpvc

__all__ = [
    "MpvcProblem", "IndexSets", "index_sets", "max_vio", "full_violation",
    "empty_vector_fn",
    "Scheme", "Nlp", "RowProvenance", "regularize", "direct_nlp",
    "theta", "theta_prime", "kernel_global", "phi_su", "phi_ks", "phi_kdb",
    "NlpSolution", "SolverLimits", "SolveStatus", "solve_nlp", "check_eps_stationary",
    "Grade", "MpvcMultipliers", "StationarityReport", "classify",
    "recover_mpvc_multipliers", "find_multipliers",
    "CqReport", "check_mpvc_licq", "check_mpvc_mfcq", "check_licq", "check_mfcq",
    "pli_probe",
    "DriverConfig", "DriverResult", "DriverTrace", "StopReason", "solve_mpvc",
]

__version__ = "0.1.0"
