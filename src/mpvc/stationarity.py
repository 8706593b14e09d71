"""MPVC stationarity: multiplier recovery, classification, direct fitting.

A feasible point x is weakly stationary when multipliers
(lam, mu, etaH, etaG) exist with

    grad f + sum lam_i grad g_i + sum mu_i grad h_i
           - sum etaH_i grad H_i + sum etaG_i grad G_i = 0,

    lam >= 0 supported on the active inequalities,
    etaH_i = 0 on I_+, etaH_i >= 0 on I_0-, free on I_0+ u I_00,
    etaG_i = 0 on I_+- u I_0- u I_0+, etaG_i >= 0 on I_+0 u I_00.

The grades tighten only on the biactive set I_00:

    T:  etaG_i etaH_i <= 0      M:  etaG_i etaH_i = 0
    S:  etaH_i >= 0 and etaG_i = 0.

``recover_mpvc_multipliers`` maps the multipliers (nu, delta) of a solved
regularized problem back to MPVC multipliers through the kernel gradient
coefficients (c_G, c_H), plus an index-set mask for GLOBAL; ``classify``
grades any multiplier set; and ``find_multipliers`` fits multipliers
directly by sign-constrained linear least squares when none are available
(e.g. for the direct baseline).  ``weak_stationarity_table`` states the
support and signs above once, as gradient-equation columns; the fit and
the MPVC-LICQ / MPVC-MFCQ checks in ``cq`` all read it.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import PreconditionError
from .model import IndexSets, MpvcProblem, full_violation, index_sets
from .nlp import NlpSolution
from .qp import solve_qp
from .regularize import KERNELS, Scheme, kernel_rows


class Grade(IntEnum):
    NOT_WEAK = 0
    WEAK = 1
    T = 2
    M = 3
    S = 4

    def label(self) -> str:
        return {0: "NotWeak", 1: "Weak", 2: "T", 3: "M", 4: "S"}[int(self)]


@dataclass
class MpvcMultipliers:
    lam: np.ndarray
    mu: np.ndarray
    eta_H: np.ndarray
    eta_G: np.ndarray

    def as_dict(self) -> dict:
        return {
            "lam": self.lam.tolist(),
            "mu": self.mu.tolist(),
            "eta_H": self.eta_H.tolist(),
            "eta_G": self.eta_G.tolist(),
        }


@dataclass
class StationarityReport:
    grade: Grade
    stationarity_residual: float
    worst_sign_violation: float
    worst_support_violation: float
    biactive_products: list
    tau: float

    def as_dict(self) -> dict:
        return {
            "grade": self.grade.label(),
            "stationarity_residual": self.stationarity_residual,
            "worst_sign_violation": self.worst_sign_violation,
            "worst_support_violation": self.worst_support_violation,
            "biactive_products": list(self.biactive_products),
            "tau": self.tau,
        }


def recover_mpvc_multipliers(
    problem: MpvcProblem,
    scheme: Scheme,
    t: float,
    sol: NlpSolution,
    tau_act: float = 1e-8,
) -> MpvcMultipliers:
    """Map regularized-NLP multipliers at sol.x back to MPVC multipliers.

    The kernel row of pair i has gradient c_G,i grad G_i + c_H,i grad H_i,
    with (c_G, c_H) the scheme kernel's own coefficients at sol.x.  With nu
    the multipliers of the -H_i <= 0 rows and delta those of the kernel
    rows, every scheme maps

        etaG_i = delta_i c_G,i,    etaH_i = nu_i - delta_i c_H,i,

    under which the regularized stationarity equation is the
    weak-stationarity equation.  GLOBAL then applies the index-set mask of
    its convergence theory (index sets banded with tau_act at sol.x):
    etaG_i = 0 off I_00 u I_+0, and etaH_i = nu_i on I_+.

    lam and mu pass through unchanged.
    """
    prov = sol.provenance
    if prov is None:
        raise PreconditionError("solution carries no row provenance")
    nu = sol.lam[prov.rows_neg_H]
    delta = sol.lam[prov.rows_kernel]
    Gv, _ = problem.G(sol.x)
    Hv, _ = problem.H(sol.x)
    _, c_G, c_H = kernel_rows(KERNELS[scheme], Gv, Hv, t)
    eta_G = delta * c_G
    eta_H = nu - delta * c_H
    if scheme is Scheme.GLOBAL:
        ix = index_sets(problem, sol.x, tau_act)
        eta_G[sorted(ix.I_plusminus | ix.I_0plus | ix.I_0minus)] = 0.0
        plus = sorted(ix.I_plus)
        eta_H[plus] = nu[plus]
    return MpvcMultipliers(
        lam=sol.lam[prov.rows_g], mu=sol.mu.copy(), eta_H=eta_H, eta_G=eta_G
    )


def _gradient_equation_residual(
    problem: MpvcProblem, x: np.ndarray, mult: MpvcMultipliers
) -> np.ndarray:
    _, grad_f = problem.f(x)
    r = grad_f.copy()
    if problem.m:
        _, Jg = problem.g(x)
        r += Jg.T @ mult.lam
    if problem.p:
        _, Jh = problem.h(x)
        r += Jh.T @ mult.mu
    if problem.l:
        _, JH = problem.H(x)
        _, JG = problem.G(x)
        r -= JH.T @ mult.eta_H
        r += JG.T @ mult.eta_G
    return r


def classify(
    problem: MpvcProblem,
    x: np.ndarray,
    mult: MpvcMultipliers,
    tau: float = 1e-6,
) -> StationarityReport:
    """Grade (x, mult) as NotWeak / Weak / T / M / S.

    All conditions are checked against tau_eff = tau * (1 + ||grad f||_inf),
    which also bands the index sets; the grade is raised along the chain
    Weak -> T -> M -> S only while every lower check passes, so reports
    always respect the implication ordering.
    """
    if tau <= 0:
        raise PreconditionError("tau must be positive")
    x = problem.check_point(x)
    _, grad_f = problem.f(x)
    scale = float(np.max(np.abs(grad_f))) if grad_f.size else 0.0
    tau_eff = tau * (1.0 + scale)
    ix = index_sets(problem, x, tau_eff)

    resid = _gradient_equation_residual(problem, x, mult)
    stat = float(np.max(np.abs(resid))) if resid.size else 0.0

    support = 0.0
    for i in range(problem.m):
        if i not in ix.I_g:
            support = max(support, abs(mult.lam[i]))
    for i in ix.I_plus:
        support = max(support, abs(mult.eta_H[i]))
    for i in ix.I_plusminus | ix.I_0minus | ix.I_0plus:
        support = max(support, abs(mult.eta_G[i]))

    sign = 0.0
    for i in ix.I_g:
        sign = max(sign, -mult.lam[i])
    for i in ix.I_0minus:
        sign = max(sign, -mult.eta_H[i])
    for i in ix.I_plus0 | ix.I_00:
        sign = max(sign, -mult.eta_G[i])
    sign = max(0.0, sign)

    products = [float(mult.eta_G[i] * mult.eta_H[i]) for i in sorted(ix.I_00)]

    grade = Grade.NOT_WEAK
    if stat <= tau_eff and support <= tau_eff and sign <= tau_eff:
        grade = Grade.WEAK
        if all(p <= tau_eff for p in products):
            grade = Grade.T
            if all(abs(p) <= tau_eff for p in products):
                grade = Grade.M
                if all(
                    abs(mult.eta_G[i]) <= tau_eff and mult.eta_H[i] >= -tau_eff
                    for i in ix.I_00
                ):
                    grade = Grade.S
    return StationarityReport(
        grade=grade,
        stationarity_residual=stat,
        worst_sign_violation=sign,
        worst_support_violation=support,
        biactive_products=products,
        tau=tau_eff,
    )


def weak_stationarity_table(problem: MpvcProblem, x: np.ndarray, ix: IndexSets) -> list:
    """The multipliers that weak stationarity lets be nonzero at x.

    One entry ``(column, signed, (field, index))`` per multiplier, with
    ``column`` its coefficient vector in the gradient equation
    grad f + sum value * column = 0 and ``signed`` whether it must be
    nonnegative.  In order: lam on I_g (signed), every mu, etaH on I_0
    (column -grad H_i, signed on I_0-), etaG on I_+0 u I_00 (signed).
    """
    table = []
    if problem.m:
        _, Jg = problem.g(x)
        table += [(Jg[i], True, ("lam", i)) for i in sorted(ix.I_g)]
    if problem.p:
        _, Jh = problem.h(x)
        table += [(Jh[i], False, ("mu", i)) for i in range(problem.p)]
    if problem.l:
        _, JH = problem.H(x)
        _, JG = problem.G(x)
        table += [(-JH[i], i in ix.I_0minus, ("eta_H", i)) for i in sorted(ix.I_0)]
        table += [(JG[i], True, ("eta_G", i)) for i in sorted(ix.I_plus0 | ix.I_00)]
    return table


def find_multipliers(
    problem: MpvcProblem,
    x: np.ndarray,
    tau_act: float = 1e-8,
) -> tuple[MpvcMultipliers, float]:
    """Fit weak-stationarity multipliers at x by least squares.

    Minimizes the 2-norm of the gradient equation residual over the
    entries of ``weak_stationarity_table`` (index sets banded with tau_act)
    subject to their sign constraints; every other multiplier is 0.
    Returns the fitted multipliers and the inf-norm of the remaining
    residual.  Requires x approximately feasible (full_violation <= 1e-4).
    """
    x = problem.check_point(x)
    if full_violation(problem, x) > 1e-4:
        raise PreconditionError("find_multipliers needs an approximately feasible point")
    _, grad_f = problem.f(x)
    table = weak_stationarity_table(problem, x, index_sets(problem, x, tau_act))

    mult = MpvcMultipliers(
        lam=np.zeros(problem.m),
        mu=np.zeros(problem.p),
        eta_H=np.zeros(problem.l),
        eta_G=np.zeros(problem.l),
    )
    if not table:
        resid = float(np.max(np.abs(grad_f))) if grad_f.size else 0.0
        return mult, resid

    A = np.array([col for col, _, _ in table]).T      # n x k
    k = A.shape[1]
    Bq = A.T @ A + 1e-12 * (1.0 + np.trace(A.T @ A)) * np.eye(k)
    cq = A.T @ grad_f
    rows = [j for j, (_, signed, _) in enumerate(table) if signed]
    A_in = np.zeros((len(rows), k))
    A_in[range(len(rows)), rows] = -1.0
    res = solve_qp(Bq, cq, np.zeros((0, k)), np.zeros(0), A_in, np.zeros(len(rows)),
                   x0=np.zeros(k))
    z = res.x
    for val, (_, _, (kind, i)) in zip(z, table):
        getattr(mult, kind)[i] = val
    resid_vec = A @ z + grad_f
    return mult, float(np.max(np.abs(resid_vec)))
