"""SQP solver for smooth NLPs and the eps-stationarity certificate check.

A point x with multipliers (lam, mu) is eps-stationary for

    min f(x) s.t. g(x) <= 0, h(x) = 0

when

    || grad f + sum lam_i grad g_i + sum mu_i grad h_i ||_inf <= eps,
    g_i(x) <= eps,  lam_i >= -eps,  |g_i(x) lam_i| <= eps,  |h_i(x)| <= eps.

``solve_nlp`` drives a damped-BFGS SQP with an l1-merit line search and a
primal active-set QP; an iteration whose QP is inconsistent takes the step
of an elastic QP instead, and the next iteration tries the plain QP again.
Each ``SolveStatus`` has one exit; a solve returns where it ended, with its
last QP's multipliers.  ``epsilon_achieved`` is always accounted
in exactly the terms above, not from solver-internal norms, so a Converged
result is a certificate that ``check_eps_stationary`` accepts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ParameterError, PreconditionError
from .qp import solve_qp, solve_qp_elastic
from .regularize import Nlp, RowProvenance

class SolveStatus(Enum):
    """How ``solve_nlp`` ended; each status has one exit:
    Converged: a certificate (x, lam, mu) at eps_target.
    IterLimit: ``max_iter`` SQP iterations ran.
    LineSearchFail: no acceptable step, also after the fresh-metric retry.
    Diverged: an iterate has |x_i| > 1e10."""
    CONVERGED = "Converged"
    ITER_LIMIT = "IterLimit"
    LINESEARCH_FAIL = "LineSearchFail"
    DIVERGED = "Diverged"


_LS_MAX = 40                    # backtracking halvings; alpha_min ~ 1e-12
_DIVERGENCE_BOUND = 1e10        # max |x_i| beyond which the run stops


@dataclass
class SolverLimits:
    max_iter: int = 500

    def __post_init__(self):
        if self.max_iter < 1:
            raise ParameterError("need max_iter >= 1")


@dataclass
class NlpSolution:
    """Result of ``solve_nlp``.

    ``x`` is where the solve ended; ``(lam, mu, epsilon_achieved)`` come
    from its last QP.  On Converged and LineSearchFail that QP was solved
    at x, so they are the certificate at x.  On IterLimit and Diverged the
    last iteration usually stepped from the QP's point to x, so they belong
    to the iterate before x.  ``total_iterations`` counts the SQP
    iterations run.
    """

    x: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    epsilon_achieved: float
    status: SolveStatus
    provenance: Optional[RowProvenance]
    total_iterations: int


def stationarity_breakdown(
    grad_f: np.ndarray,
    g_vals: np.ndarray,
    Jg: np.ndarray,
    h_vals: np.ndarray,
    Jh: np.ndarray,
    lam: np.ndarray,
    mu: np.ndarray,
) -> dict:
    """Raw residuals of the five eps-stationarity condition groups."""
    r = grad_f.copy()
    if lam.size:
        r += Jg.T @ lam
    if mu.size:
        r += Jh.T @ mu
    stat = float(abs(r).max()) if r.size else 0.0
    feas_in = float(max(0.0, g_vals.max())) if g_vals.size else 0.0
    feas_eq = float(abs(h_vals).max()) if h_vals.size else 0.0
    sign = float(max(0.0, -lam.min())) if lam.size else 0.0
    comp = float(abs(g_vals * lam).max()) if g_vals.size else 0.0
    return {
        "stationarity": stat,
        "feasibility_ineq": feas_in,
        "feasibility_eq": feas_eq,
        "multiplier_sign": sign,
        "complementarity": comp,
    }


def check_eps_stationary(
    nlp: Nlp,
    x: np.ndarray,
    lam: np.ndarray,
    mu: np.ndarray,
    eps: float,
) -> tuple[bool, dict]:
    """Verify an eps-stationarity certificate; returns (ok, breakdown).

    Comparisons carry a relative slack of 1e-9 plus 1e-12 absolute so that
    certificates sitting exactly on the eps boundary are not rejected for
    floating-point round-off; the breakdown reports the raw residuals.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if lam.shape != (nlp.n_ineq,) or mu.shape != (nlp.n_eq,):
        raise PreconditionError(
            f"multiplier lengths {lam.shape}/{mu.shape} do not match "
            f"row counts ({nlp.n_ineq},)/({nlp.n_eq},)"
        )
    _, grad_f = nlp.objective(x)
    g_vals, Jg = nlp.ineq(x)
    h_vals, Jh = nlp.eq(x)
    bd = stationarity_breakdown(grad_f, g_vals, Jg, h_vals, Jh, lam, mu)
    slack = eps + 1e-9 * abs(eps) + 1e-12
    ok = all(v <= slack for v in bd.values())
    return ok, bd


def _evaluate(nlp: Nlp, x: np.ndarray):
    """(f, grad f, g, Jg, h, Jh) at x."""
    return (*nlp.objective(x), *nlp.ineq(x), *nlp.eq(x))


def _l1_violation(g_vals: np.ndarray, h_vals: np.ndarray) -> float:
    v = 0.0
    if g_vals.size:
        v += float(np.maximum(g_vals, 0.0).sum())
    if h_vals.size:
        v += float(abs(h_vals).sum())
    return v


def solve_nlp(
    nlp: Nlp,
    x0: np.ndarray,
    eps_target: float = 1e-8,
    limits: Optional[SolverLimits] = None,
    lam0: Optional[np.ndarray] = None,
) -> NlpSolution:
    """Solve ``nlp`` to eps-stationarity from ``x0``.

    Parameters
    ----------
    nlp : Nlp
    x0 : array of length nlp.n
    eps_target : float
        Target eps in the stationarity accounting above.
    limits : SolverLimits
    lam0 : optional array of length nlp.n_ineq
        Warm-start multipliers; their positive rows are the first QP's
        working set.  The merit penalty starts at 1 whatever they are.
        Another length raises PreconditionError, as for x0.

    Returns
    -------
    NlpSolution
        See its docstring for what each status returns.  On Converged the
        certificate (x, lam, mu) passes ``check_eps_stationary`` at eps_target.
    """
    if limits is None:
        limits = SolverLimits()
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (nlp.n,):
        raise PreconditionError(f"x0 has shape {x.shape}, expected ({nlp.n},)")

    f, grad_f, g_vals, Jg, h_vals, Jh = _evaluate(nlp, x)
    if not (
        math.isfinite(f)
        and np.isfinite(grad_f).all()
        and np.isfinite(g_vals).all()
        and np.isfinite(h_vals).all()
    ):
        raise PreconditionError("non-finite problem data at the initial point")

    n = nlp.n
    eye = np.eye(n)             # never written to: B is rebound, not updated
    cholesky_shift = 1e-12 * eye
    B, scaled = eye, False      # the metric, (re)started at B = I unscaled
    rho = 1.0
    # the last QP's working set; after an elastic QP it keeps the slack
    # rows, which the next elastic QP reuses and the plain QP skips
    W: Optional[list] = None
    if lam0 is not None:
        lam0 = np.asarray(lam0, dtype=float)
        if lam0.shape != (nlp.n_ineq,):
            raise PreconditionError(
                f"lam0 has shape {lam0.shape}, expected ({nlp.n_ineq},)")
        W = [int(i) for i in np.flatnonzero(lam0 > 1e-10)]

    just_reset = False
    status = SolveStatus.ITER_LIMIT
    it = 0
    viol0 = _l1_violation(g_vals, h_vals)

    while it < limits.max_iter:
        it += 1
        qp = solve_qp(B, grad_f, Jh, -h_vals, Jg, -g_vals, W0=W)
        if qp.status == "infeasible":
            # an inconsistent linearization: this iteration's step is elastic
            qp = solve_qp_elastic(B, grad_f, Jh, -h_vals, Jg, -g_vals,
                                  penalty=10.0 * (rho + 1.0), W0=W)
        d, lam, mu, W = qp.x, qp.lam, qp.mu, qp.working_set

        bd = stationarity_breakdown(grad_f, g_vals, Jg, h_vals, Jh, lam, mu)
        eps_ach = max(bd.values())
        mult_scale = 0.0
        if lam.size:
            mult_scale = max(mult_scale, float(abs(lam).max()))
        if mu.size:
            mult_scale = max(mult_scale, float(abs(mu).max()))
        # Multipliers beyond this bound make a certificate numerically
        # vacuous: near kernel switch loci the QP can produce multipliers
        # of order 1/eps_machine whose complementarity products are pure
        # round-off.  Such iterates are not accepted as converged; the
        # solver keeps iterating until a meaningful certificate appears or
        # the degenerate branch collapses to its exact limit.
        grad_max = float(abs(grad_f).max())
        if eps_ach <= eps_target and mult_scale <= 1e10 * (1.0 + grad_max):
            status = SolveStatus.CONVERGED
            break

        # Max-multiplier penalty rule for the l1 merit function, with the
        # chase bounded: near degenerate loci the QP multipliers diverge
        # and following them freezes the line search.  A step that is then
        # no merit-descent direction goes to the fresh-metric retry below.
        # The decay branch recovers after drastic overshoot.
        rho_req = 1.01 * min(mult_scale, 1e6 * (1.0 + grad_max)) + 1e-6
        if rho < rho_req:
            rho = max(rho_req, 1.5 * rho)
        elif rho > 100.0 * rho_req:
            rho = max(rho_req, 0.1 * rho, 1.0)

        viol_lin = _l1_violation(g_vals + Jg @ d, h_vals + Jh @ d)
        descent = float(grad_f @ d) - rho * (viol0 - viol_lin)

        accepted = False
        if descent <= -1e-14 * (1.0 + abs(f)):
            phi0 = f + rho * viol0
            alpha = 1.0
            soc_tried = False
            step_vec = d
            for _ in range(_LS_MAX):
                x_t = x + alpha * step_vec
                f_t, grad_t, g_t, Jg_t, h_t, Jh_t = _evaluate(nlp, x_t)
                ok = (
                    math.isfinite(f_t)
                    and np.isfinite(g_t).all()
                    and np.isfinite(h_t).all()
                )
                if ok and f_t + rho * (viol_new := _l1_violation(g_t, h_t)) <= (
                    phi0 + 1e-4 * alpha * descent
                ):
                    accepted = True
                    break
                if alpha == 1.0 and not soc_tried:
                    # Second-order correction: the full step often satisfies
                    # the linearized constraints exactly yet re-violates the
                    # nonlinear ones quadratically (Maratos effect); a
                    # minimum-norm restoration step on the rows active in the
                    # QP removes that quadratic term.
                    soc_tried = True
                    rows = [Jh] if nlp.n_eq else []
                    rhs = [-h_t] if nlp.n_eq else []
                    Wg = [i for i in W if i < nlp.n_ineq]
                    if Wg and ok:
                        rows.append(Jg[Wg])
                        rhs.append(-g_t[Wg])
                    if rows and ok:
                        C = np.vstack(rows)
                        r = np.concatenate(rhs)
                        p = np.linalg.lstsq(C, r, rcond=None)[0]
                        if float(abs(p).max()) <= float(abs(d).max()):
                            step_vec = d + p
                            continue
                alpha *= 0.5
                step_vec = d
        # No descent direction or no acceptable step: retry once from a
        # fresh metric before giving up.
        if not accepted:
            if just_reset:
                status = SolveStatus.LINESEARCH_FAIL
                break
            B, scaled = eye, False
            just_reset = True
            continue
        just_reset = False

        # Damped BFGS on the Lagrangian; reset on lost curvature or
        # runaway entries.  Heavily truncated steps (alpha < 0.2) are
        # skipped: their multipliers carry no usable curvature, and one such
        # pair can poison the metric.  They are common: half the accepted
        # steps on ten-bar, 2706 of 2957 on aerothermo N=8 (3 of 9203 on
        # academic).  Updating on them too raised N=8 LOCAL's f from 112.35
        # to 121.42 and N=30 LOCAL's SQP iterations from 74 to 179.
        if alpha >= 0.2:
            s = alpha * step_vec
            y = grad_t - grad_f
            if lam.size:
                y += (Jg_t - Jg).T @ lam
            if mu.size:
                y += (Jh_t - Jh).T @ mu
            sBs = float(s @ (B @ s))
            sy = float(s @ y)
            if not scaled and sy > 1e-12:
                # size the initial metric from the curvature along s; the
                # yTy/sTy variant can blow up by the condition of the pair
                gamma = min(max(sy / float(s @ s), 1e-4), 1e4)
                B = gamma * eye
                sBs = float(s @ (B @ s))
                scaled = True
            if sy < 0.2 * sBs:
                if sBs - sy > 1e-16:
                    theta_d = 0.8 * sBs / (sBs - sy)
                    y = theta_d * y + (1.0 - theta_d) * (B @ s)
                    sy = float(s @ y)
            ns = math.sqrt(s.dot(s))
            ny = math.sqrt(y.dot(y))
            if sy > 1e-8 * max(1e-12, ns * ny) and sBs > 0:
                Bs = B @ s
                B = B - Bs[:, None] * Bs / sBs + y[:, None] * y / sy
            if not abs(B).max() <= 1e10:         # also true on NaN and inf
                B, scaled = eye, False
            else:
                try:
                    np.linalg.cholesky(B + cholesky_shift)
                except np.linalg.LinAlgError:
                    B, scaled = eye, False

        x, f, grad_f, viol0 = x_t, f_t, grad_t, viol_new
        g_vals, Jg = g_t, Jg_t
        h_vals, Jh = h_t, Jh_t
        if abs(x).max() > _DIVERGENCE_BOUND:
            status = SolveStatus.DIVERGED
            break

    return NlpSolution(
        x=x, lam=lam, mu=mu, epsilon_achieved=eps_ach, status=status,
        provenance=nlp.provenance, total_iterations=it,
    )
