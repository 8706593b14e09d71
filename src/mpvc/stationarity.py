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

``weak_stationarity_table`` states the equation and the support and sign
rules above once, as a matrix and one support code per multiplier, read off
the pair classes of ``model.pair_classes``; every function below and the
MPVC-LICQ / MPVC-MFCQ checks in ``cq`` read them.
``recover_mpvc_multipliers`` maps the multipliers (nu, delta) of a solved
regularized problem back to MPVC multipliers through the kernel gradient
coefficients (c_G, c_H), masked for GLOBAL where the support codes hold a
multiplier at zero; ``classify`` grades any multiplier set;
``find_multipliers`` fits multipliers directly by sign-constrained linear
least squares when none are available (e.g. for the direct baseline); and
``grade_at`` grades a point from one table, by recovered multipliers where
they reach Weak and by the fit elsewhere.  All three band the table at
tau_eff = tau * (1 + ||grad f||_inf) (``_band``), so ``classify`` of the fit
at tau is ``grade_at``'s grade at tau without recovered multipliers.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import PreconditionError
from .model import MpvcProblem, pair_classes, violation
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
    weak-stationarity equation.  GLOBAL then applies the mask of its
    convergence theory (index sets banded with tau_act at sol.x): wherever
    weak stationarity holds a multiplier at zero, etaG_i = 0 and
    etaH_i = nu_i.

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
        held = _PAIR_CODES[pair_classes(Gv, Hv, tau_act)] == 0
        np.copyto(eta_H, nu, where=held[:, 0])
        eta_G[held[:, 1]] = 0.0
    return MpvcMultipliers(
        lam=sol.lam[prov.rows_g], mu=sol.mu.copy(), eta_H=eta_H, eta_G=eta_G
    )


# The support codes (etaH_i, etaG_i) of a pair in each class of
# model.PAIR_CLASSES; both are held at zero on I_+-.
_PAIR_CODES = np.array([[0, 2], [0, 0], [1, 0], [1, 2], [2, 0]])


def weak_stationarity_table(
    problem: MpvcProblem, x: np.ndarray, tau_act: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Weak stationarity at x as ``(A, kind, vio)`` over z = [lam; mu; etaH; etaG].

    ``grad f + A @ z`` is the gradient-equation residual (column -grad H_i
    for etaH_i), and ``kind`` holds the support code of each entry of z
    under the index sets banded with tau_act: 0 held at zero, 1 free,
    2 nonnegative (lam on the active inequalities; mu is free).  ``vio`` is
    ``model.full_violation`` at x, from the same evaluations.
    """
    gv, Jg = problem.g(x)
    hv, Jh = problem.h(x)
    Gv, JG = problem.G(x)
    Hv, JH = problem.H(x)
    At = np.concatenate((Jg, Jh, -JH, JG))  # row j is column j of A
    pairs = _PAIR_CODES[pair_classes(Gv, Hv, tau_act)]
    kind = np.concatenate((np.where(gv >= -tau_act, 2, 0), np.ones(problem.p, dtype=int),
                           pairs.T.ravel()))
    return At.T, kind, violation(gv, hv, Gv, Hv)


def _band(problem: MpvcProblem, x: np.ndarray, tau: float) -> tuple:
    """``(grad_f, tau_eff, table)`` at x: the one banding of every grade and
    fit, tau_eff = tau * (1 + ||grad f||_inf), and the
    ``weak_stationarity_table`` banded with it."""
    if tau <= 0:
        raise PreconditionError("tau must be positive")
    x = problem.check_point(x)
    _, grad_f = problem.f(x)
    tau_eff = tau * (1.0 + float(abs(grad_f).max(initial=0.0)))
    return grad_f, tau_eff, weak_stationarity_table(problem, x, tau_eff)


def _report(problem: MpvcProblem, banded: tuple, z: np.ndarray) -> StationarityReport:
    """``classify`` of z = [lam; mu; etaH; etaG] on a ``_band`` result."""
    grad_f, tau_eff, (A, kind, vio) = banded
    resid = grad_f + A @ z
    stat = float(abs(resid).max()) if resid.size else 0.0
    zs, codes = z.tolist(), kind.tolist()
    support = max([0.0] + [abs(v) for v, c in zip(zs, codes) if c == 0])
    sign = max([0.0] + [-v for v, c in zip(zs, codes) if c == 2])

    code_H, code_G = kind[problem.m + problem.p :].reshape(2, -1)
    eta_H, eta_G = z[problem.m + problem.p :].reshape(2, -1)
    I_00 = np.flatnonzero((code_H == 1) & (code_G == 2))
    products = [float(eta_G[i] * eta_H[i]) for i in I_00]

    grade = Grade.NOT_WEAK
    if vio <= tau_eff and stat <= tau_eff and support <= tau_eff and sign <= tau_eff:
        grade = Grade.WEAK
        if all(p <= tau_eff for p in products):
            grade = Grade.T
            if all(abs(p) <= tau_eff for p in products):
                grade = Grade.M
                if all(abs(eta_G[i]) <= tau_eff and eta_H[i] >= -tau_eff for i in I_00):
                    grade = Grade.S
    return StationarityReport(
        grade=grade,
        stationarity_residual=stat,
        worst_sign_violation=sign,
        worst_support_violation=support,
        biactive_products=products,
        tau=tau_eff,
    )


def classify(
    problem: MpvcProblem,
    x: np.ndarray,
    mult: MpvcMultipliers,
    tau: float = 1e-6,
) -> StationarityReport:
    """Grade (x, mult) as NotWeak / Weak / T / M / S.

    All conditions are checked against tau_eff = tau * (1 + ||grad f||_inf),
    which also bands the index sets and bounds the point's full violation
    (beyond it the grade is NotWeak); the grade is raised along the chain
    Weak -> T -> M -> S only while every lower check passes, so reports
    always respect the implication ordering.
    """
    z = np.concatenate((mult.lam, mult.mu, mult.eta_H, mult.eta_G))
    return _report(problem, _band(problem, x, tau), z)


def _fit(A: np.ndarray, kind: np.ndarray, grad_f: np.ndarray) -> np.ndarray:
    """The z of ``find_multipliers`` on the table's A and kind."""
    z = np.zeros(kind.size)
    fit = kind.nonzero()[0]
    if fit.size:
        Af = A[:, fit]                                   # n x k
        k = fit.size
        AtA = Af.T @ Af
        Bq = AtA + np.diag(1e-14 * (1.0 + AtA.diagonal()))
        signed = (kind[fit] == 2).nonzero()[0]
        A_in = np.zeros((signed.size, k))
        A_in[np.arange(signed.size), signed] = -1.0
        res = solve_qp(Bq, Af.T @ grad_f, np.zeros((0, k)), np.zeros(0), A_in,
                       np.zeros(signed.size), x0=np.zeros(k))
        z[fit] = res.x
    return z


def find_multipliers(
    problem: MpvcProblem,
    x: np.ndarray,
    tau: float = 1e-6,
) -> tuple[MpvcMultipliers, float]:
    """Fit weak-stationarity multipliers at x by least squares.

    Minimizes the 2-norm of the gradient-equation residual over the entries
    of z that ``weak_stationarity_table`` does not hold at zero (index sets
    banded with classify's tau_eff), subject to their sign constraints;
    every other multiplier is 0, so ``classify`` of the fit at the same tau
    is ``grade_at``'s grade without recovered multipliers.  A^T A gets the
    Tikhonov term 1e-14 * (1 + (A^T A)_jj) on column j, scaled per column
    as in Marquardt (1963).  Returns the fitted multipliers and the
    inf-norm of the remaining residual.  Requires x approximately feasible
    (full_violation <= 1e-4).
    """
    grad_f, _, (A, kind, vio) = _band(problem, x, tau)
    if vio > 1e-4:
        raise PreconditionError("find_multipliers needs an approximately feasible point")
    z = _fit(A, kind, grad_f)
    resid = grad_f + A @ z
    mult = MpvcMultipliers(*np.split(z, np.cumsum([problem.m, problem.p, problem.l])))
    return mult, float(abs(resid).max()) if resid.size else 0.0


def grade_at(problem: MpvcProblem, x: np.ndarray, tau: float,
             recovered: MpvcMultipliers | None = None) -> Grade:
    """The grade of x at classify's banding tau_eff, from one evaluation of
    f and one table: that of the ``recovered`` multipliers where it is Weak
    or better, else that of multipliers fitted as by ``find_multipliers``
    (NotWeak where x is too infeasible to fit)."""
    banded = grad_f, _, (A, kind, vio) = _band(problem, x, tau)
    if recovered is not None:
        z = np.concatenate((recovered.lam, recovered.mu, recovered.eta_H, recovered.eta_G))
        grade = _report(problem, banded, z).grade
        if grade >= Grade.WEAK:
            return grade
    if vio > 1e-4:
        return Grade.NOT_WEAK
    return _report(problem, banded, _fit(A, kind, grad_f)).grade
