"""Pointwise constraint-qualification diagnostics.

The MPVC checks read ``stationarity.weak_stationarity_table`` at x and
select its columns by support code: the gradients of the multipliers that
weak stationarity lets be nonzero.  MPVC-LICQ asks all of them to be
linearly independent; MPVC-MFCQ asks the sign-constrained columns (code 2)
together with the free ones (code 1) to be positively linearly
independent: no vanishing combination with nonnegative weights on the
first group and arbitrary weights on the second, not all zero.

LICQ is certified by the smallest singular value of the stacked gradients
(``pli_probe`` with every vector free; 0 when they outnumber the dimension).
Positive linear independence is certified in two parts: the free vectors
must have full column rank, and no nonzero nonnegative combination of the
sign-constrained vectors may lie in the span of the free ones.  The second
part is an exact restatement of the definition and is evaluated as a
convex QP over the unit simplex (minimize the norm of the projection of
the combination onto the orthogonal complement of the free span), solved
with the shared active-set QP.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MpvcProblem
from .qp import solve_qp
from .regularize import Nlp
from .stationarity import weak_stationarity_table


@dataclass
class CqReport:
    cq_name: str
    holds: bool
    certificate: float
    tolerance: float

    def as_dict(self) -> dict:
        return {
            "cq_name": self.cq_name,
            "holds": bool(self.holds),
            "certificate": float(self.certificate),
            "tolerance": self.tolerance,
        }


def pli_probe(signed: list, free: list, tau: float = 1e-8) -> tuple[bool, float]:
    """Positive linear independence of signed (weights >= 0) and free vectors.

    Returns (independent, certificate).  Dependence (certificate ~ 0) means
    some combination sum a_i signed_i + sum b_i free_i = 0 exists with
    a >= 0 and (a, b) != 0.
    """
    if not signed and not free:
        return True, np.inf
    cert = np.inf
    if free:
        F = np.array(free).T                       # n x q
        if F.shape[1] > F.shape[0]:
            return False, 0.0
        s = np.linalg.svd(F.T, compute_uv=False)
        cert = float(s[-1])
        if cert <= tau * (s[0] + 1.0):
            return False, cert
    if not signed:
        return True, cert
    A = np.array(signed).T                          # n x k
    if free:
        # projection onto the orthogonal complement of span(F)
        Q, _ = np.linalg.qr(F)
        P = np.eye(A.shape[0]) - Q @ Q.T
        M = P @ A
    else:
        M = A
    k = A.shape[1]
    # min ||M a||^2 over the unit simplex; zero iff positively dependent
    H = M.T @ M
    H = H + 1e-14 * (1.0 + np.trace(H)) * np.eye(k)
    A_eq = np.ones((1, k))
    b_eq = np.array([1.0])
    A_in = -np.eye(k)
    b_in = np.zeros(k)
    res = solve_qp(H, np.zeros(k), A_eq, b_eq, A_in, b_in, x0=np.full(k, 1.0 / k))
    probe = float(np.linalg.norm(M @ res.x))
    cert = min(cert, probe)
    return cert > tau, cert


def check_mpvc_licq(
    problem: MpvcProblem,
    x: np.ndarray,
    tau_act: float = 1e-8,
    tau_rank: float = 1e-8,
) -> CqReport:
    """MPVC-LICQ via the smallest singular value of the table's columns."""
    x = problem.check_point(x)
    A, kind, _ = weak_stationarity_table(problem, x, tau_act)
    holds, cert = pli_probe([], list(A.T[kind > 0]), tau_rank)
    return CqReport("MPVC-LICQ", holds, cert, tau_rank)


def check_mpvc_mfcq(
    problem: MpvcProblem,
    x: np.ndarray,
    tau_act: float = 1e-8,
    tau: float = 1e-8,
) -> CqReport:
    """MPVC-MFCQ via the positive-linear-independence probe."""
    x = problem.check_point(x)
    A, kind, _ = weak_stationarity_table(problem, x, tau_act)
    holds, cert = pli_probe(list(A.T[kind == 2]), list(A.T[kind == 1]), tau)
    return CqReport("MPVC-MFCQ", holds, cert, tau)


def check_licq(nlp: Nlp, x: np.ndarray, tau_act: float = 1e-8, tau_rank: float = 1e-8) -> CqReport:
    """Standard LICQ of a plain NLP at x (active rows banded by tau_act)."""
    g_vals, Jg = nlp.ineq(x)
    _, Jh = nlp.eq(x)
    rows = [Jg[i] for i in range(nlp.n_ineq) if g_vals[i] >= -tau_act]
    rows += list(Jh)
    holds, cert = pli_probe([], rows, tau_rank)
    return CqReport("LICQ", holds, cert, tau_rank)


def check_mfcq(nlp: Nlp, x: np.ndarray, tau_act: float = 1e-8, tau: float = 1e-8) -> CqReport:
    """Standard MFCQ of a plain NLP at x."""
    g_vals, Jg = nlp.ineq(x)
    _, Jh = nlp.eq(x)
    signed = [Jg[i] for i in range(nlp.n_ineq) if g_vals[i] >= -tau_act]
    free = list(Jh)
    holds, cert = pli_probe(signed, free, tau)
    return CqReport("MFCQ", holds, cert, tau)
