"""Outer regularization loop.

Starting from x0 with parameter t0, repeat while t_k >= t_min and the
last inner solve failed, full_violation(x_k) > tol, or x_k is not weakly
stationary (``grade_at`` at tau = 1e-6 on the multipliers recovered from
the inner solve that ended at x_k, with a multiplier fit where they grade
below Weak and at x_0, before any solve): solve the regularized problem
R(t_k) warm-started at x_k, take its solution as x_{k+1}, shrink
t_{k+1} = sigma * t_k.  The final iterate is returned whether or not it is
feasible.  Each inner solve starts where the previous one ended, its first
QP working set seeded by that solve's multipliers, also after an inner
failure (homotopy with the smaller t usually self-heals).  The reason is
FeasibilityReached only when the final iterate satisfies every MPVC
constraint (full_violation <= tol), else InnerFailure if the last inner
solve failed and TminReached if it converged.

One nuance: max_vio, which measures only the products G_i H_i and is
non-positive at many infeasible points, is recorded but does not end the loop.

At the defaults (t0 = 1, sigma = 0.1, t_min = 1e-8, tol = 1e-6) the loop
body runs at most ceil(log(t_min / t0) / log sigma) + 1 = 9 times.

The inner tolerance defaults to max(1e-9, 1e-2 * t_k) for the GLOBAL
scheme, whose convergence guarantee tolerates eps_k of the order of t_k,
and to a fixed 1e-9 for the other schemes, whose inexact behavior degrades
to weak stationarity.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ParameterError
from .model import MpvcProblem, full_violation, max_vio
from .nlp import NlpSolution, SolverLimits, SolveStatus, solve_nlp
from .regularize import Scheme, regularize
from .stationarity import Grade, grade_at, recover_mpvc_multipliers


class StopReason(Enum):
    FEASIBILITY = "FeasibilityReached"
    TMIN = "TminReached"
    INNER_FAILURE = "InnerFailure"


@dataclass
class DriverConfig:
    scheme: Scheme
    t0: float = 1.0
    sigma: float = 0.1
    t_min: float = 1e-8
    tol: float = 1e-6
    eps_inner: Optional[float] = None
    tau_act: float = 1e-8
    limits: SolverLimits = field(default_factory=SolverLimits)

    def __post_init__(self):
        if not (0.0 < self.t_min < self.t0):
            raise ParameterError("need 0 < t_min < t0")
        if not (0.0 < self.sigma < 1.0):
            raise ParameterError("need sigma in (0, 1)")
        if self.tol <= 0.0:
            raise ParameterError("need tol > 0")
        if self.eps_inner is not None and self.eps_inner <= 0.0:
            raise ParameterError("need eps_inner > 0 (or None)")
        if self.tau_act <= 0.0:
            raise ParameterError("need tau_act > 0")

    def inner_eps(self, t: float) -> float:
        if self.eps_inner is not None:
            return self.eps_inner
        if self.scheme is Scheme.GLOBAL:
            return max(1e-9, 1e-2 * t)
        return 1e-9


@dataclass
class TraceRecord:
    k: int
    t: float
    f: float
    max_vio: float
    full_vio: float
    inner_status: SolveStatus
    inner_iterations: int
    eps_achieved: float


@dataclass
class DriverTrace:
    records: list = field(default_factory=list)
    reason: Optional[StopReason] = None

    @property
    def outer_iterations(self) -> int:
        return len(self.records)

    @property
    def total_inner_iterations(self) -> int:
        return sum(r.inner_iterations for r in self.records)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "t", "f", "maxVio", "fullVio", "innerIters", "eps"])
            writer.writerows([r.k, r.t, r.f, r.max_vio, r.full_vio, r.inner_iterations,
                              r.eps_achieved] for r in self.records)


@dataclass
class DriverResult:
    x: np.ndarray
    f: float
    trace: DriverTrace
    last_solution: Optional[NlpSolution] = None
    last_t: Optional[float] = None


def solve_mpvc(problem: MpvcProblem, config: DriverConfig, x0: np.ndarray) -> DriverResult:
    """Run the regularization loop on ``problem`` from ``x0``."""
    x = problem.check_point(np.asarray(x0, dtype=float)).copy()
    trace = DriverTrace()
    t = config.t0
    k = 0
    lam_warm = None
    last_sol: Optional[NlpSolution] = None
    last_t: Optional[float] = None
    last_failed = False

    # After an inner failure the policy is to keep the last iterate, shrink
    # t and continue, since the next regularized problem usually frees a
    # stuck iterate (degenerate loci move with t).
    vio = full_violation(problem, x)
    while t >= config.t_min and (
        last_failed
        or vio > config.tol
        or grade_at(problem, x, 1e-6, recovered=None if last_sol is None else
                    recover_mpvc_multipliers(problem, config.scheme, last_t, last_sol,
                                             config.tau_act)) < Grade.WEAK
    ):
        nlp = regularize(problem, config.scheme, t)
        sol = solve_nlp(
            nlp,
            x,
            eps_target=config.inner_eps(t),
            limits=config.limits,
            lam0=lam_warm,
        )
        x = sol.x
        f_val, _ = problem.f(x)
        vio = full_violation(problem, x)
        trace.records.append(
            TraceRecord(
                k=k,
                t=t,
                f=float(f_val),
                max_vio=max_vio(problem, x),
                full_vio=vio,
                inner_status=sol.status,
                inner_iterations=sol.total_iterations,
                eps_achieved=sol.epsilon_achieved,
            )
        )
        lam_warm = sol.lam
        last_sol, last_t = sol, t
        last_failed = sol.status is not SolveStatus.CONVERGED
        t = t * config.sigma
        k += 1

    if vio <= config.tol:
        trace.reason = StopReason.FEASIBILITY
    elif last_failed:
        trace.reason = StopReason.INNER_FAILURE
    else:
        trace.reason = StopReason.TMIN

    f_val, _ = problem.f(x)
    return DriverResult(x=x, f=float(f_val), trace=trace, last_solution=last_sol, last_t=last_t)
