"""Dense primal active-set solver for strictly convex QPs.

Solves

    min  1/2 x^T B x + c^T x
    s.t. A_eq x  = b_eq
         A_in x <= b_in
         x_j >= 0   for the last ``nb`` variables

with B symmetric positive definite.  The starting point is, in order of
preference: the equality-constrained solution on the warm working set
``W0`` when it is feasible; a given feasible ``x0``; a least-squares solve
on the equalities; and, when that violates an inequality, the result of a
slack phase-1 QP, solved with the same active-set core and seeded with the
rows active at its slack start.  From the warm point, that equality-
constrained solution is also the first iterate of the main loop, so its
KKT system is solved once.  Equality-constrained subproblems are solved
through the KKT system with an SVD fallback for degenerate working sets.

The bounds are inequality rows ``m .. m+nb-1``, after those of ``A_in``.
They never enter a KKT system: a bound in the working set fixes its
variable at 0 and its multiplier is that variable's component of
``B x + c + C^T y``.  Phase 1 and the elastic mode pass their slacks' bounds
this way, so their KKT systems are only as large as their general rows.

The same routine backs the SQP subproblems, the elastic-mode relaxation,
the multiplier least-squares fit and the positive-linear-independence
probe, so it must stay deterministic: ties in ratio tests and multiplier
drops always pick the lowest row index.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass
class QpResult:
    x: np.ndarray
    lam: np.ndarray             # inequality multipliers, >= 0, full length
    mu: np.ndarray              # equality multipliers
    status: str                 # "optimal" | "infeasible" | "max_iter"
    iterations: int
    working_set: list = field(default_factory=list)


def _eqp(B: np.ndarray, c: np.ndarray, C: np.ndarray, d: np.ndarray):
    """min 1/2 x^T B x + c^T x s.t. C x = d; returns (x, y) with y the
    multipliers of the rows of C.  Handles rank-deficient C via SVD."""
    n = B.shape[0]
    k = C.shape[0]
    if k == 0:
        try:
            return np.linalg.solve(B, -c), np.zeros(0)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(B, -c, rcond=None)[0], np.zeros(0)
    # Fast path: direct KKT solve.
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = B
    kkt[:n, n:] = C.T
    kkt[n:, :n] = C
    rhs = np.concatenate([-c, d])
    try:
        sol = np.linalg.solve(kkt, rhs)
        x, y = sol[:n], sol[n:]
        if np.isfinite(sol).all():
            scale = 1.0 + float(abs(d).max()) if d.size else 1.0
            scale += float(abs(x).max()) * float(abs(C).max()) if C.size else 0.0
            if abs(C @ x - d).max() <= 1e-9 * scale:
                return x, y
    except np.linalg.LinAlgError:
        pass
    # Degenerate working set: null-space method on the SVD of C.
    U, s, Vt = np.linalg.svd(C, full_matrices=True)
    smax = s[0] if s.size else 0.0
    rank = int((s > max(smax, 1.0) * 1e-13).sum())
    if rank == 0:
        x_p = np.zeros(n)
    else:
        x_p = Vt[:rank].T @ ((U[:, :rank].T @ d) / s[:rank])
    Z = Vt[rank:].T
    if Z.shape[1] > 0:
        Hr = Z.T @ B @ Z
        try:
            u = np.linalg.solve(Hr, -Z.T @ (c + B @ x_p))
        except np.linalg.LinAlgError:    # singular reduced Hessian: min-norm u
            u = np.linalg.lstsq(Hr, -Z.T @ (c + B @ x_p), rcond=None)[0]
        x = x_p + Z @ u
    else:
        x = x_p
    y = np.linalg.lstsq(C.T, -(c + B @ x), rcond=None)[0]
    return x, y


def _eqp_bounded(B, c, A_all, b_all, p, nb, W):
    """``_eqp`` on the equalities and working set ``W`` of a QP whose ``nb``
    bounds follow the ``m`` rows of ``A_all`` after the equalities: (x, y), y
    ordered as the equalities, then ``W``."""
    n = c.size
    m = b_all.size - p
    Wa = np.array(W, dtype=int)
    isb = Wa >= m
    fixed = Wa[isb] + (n - nb - m)
    free = np.ones(n, dtype=bool)
    free[fixed] = False
    rows = list(range(p)) + [p + i for i in W if i < m]
    C = A_all[rows]
    x = np.zeros(n)
    x[free], y = _eqp(B[free][:, free], c[free], C[:, free], b_all[rows])
    lam = np.empty(Wa.size)
    lam[~isb], lam[isb] = y[p:], (B @ x + c + C.T @ y)[fixed]
    return x, np.concatenate([y[:p], lam])


def solve_qp(
    B: np.ndarray,
    c: np.ndarray,
    A_eq: np.ndarray,
    b_eq: np.ndarray,
    A_in: np.ndarray,
    b_in: np.ndarray,
    x0: Optional[np.ndarray] = None,
    W0: Optional[list] = None,
    nb: int = 0,
) -> QpResult:
    """Primal active-set method; see module docstring.

    ``x0`` (if given) must satisfy the equalities and inequalities up to a
    small tolerance; otherwise a feasible point is constructed internally.
    ``W0`` is a warm-start working set; rows not active at the starting
    point are dropped from it.  ``nb`` (set by phase 1 and the elastic mode,
    which pass a feasible ``x0``) bounds the last ``nb`` variables at 0 from
    below.
    """
    n = c.size
    p = b_eq.size
    m = b_in.size
    max_iter = min(5 * (n + m + nb + p) + 30, 600)

    scale = 1.0 + (abs(b_in).max() if m else 0.0) + (abs(b_eq).max() if p else 0.0)
    feas_tol = 1e-9 * scale
    # Subproblem rows are gathered from one stacked copy: the equalities,
    # then the inequality rows of the working set, in working-set order.
    A_all = np.vstack([A_eq, A_in])
    b_all = np.concatenate([b_eq, b_in])
    eq_rows = list(range(p))
    if nb:
        # The bounds are rows of the feasibility checks, the ratio tests and
        # phase 1, but not of A_all: _eqp_bounded fixes them instead.
        A_in = np.vstack([A_in, -np.eye(nb, n, n - nb)])
        b_in = np.concatenate([b_in, np.zeros(nb)])
        m += nb

    x = None
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        ok_eq = p == 0 or abs(A_eq @ x0 - b_eq).max() <= feas_tol
        ok_in = m == 0 or (A_in @ x0 - b_in).max() <= feas_tol
        if ok_eq and ok_in:
            x = x0.copy()

    # Warm start: jump to the equality-constrained solution on the warm
    # working set when that point is feasible -- the rows of a useful warm
    # set are active at the solution, not at a phase-1 point, so filtering
    # them against the current activity would discard them and force the
    # active set to be rebuilt one row per iteration.  It is tried first
    # because a feasible warm point makes phase 1 unnecessary.
    x_warm = None
    if W0:
        W_try = [i for i in W0 if 0 <= i < m]
        if p + len(W_try) <= n and len(W_try) == len(set(W_try)):
            try:
                if nb:
                    x_try, y_warm = _eqp_bounded(B, c, A_all, b_all, p, nb, W_try)
                else:
                    rows = eq_rows + [p + i for i in W_try]
                    x_try, y_warm = _eqp(B, c, A_all[rows], b_all[rows])
            except np.linalg.LinAlgError:
                x_try = None
            if (
                x_try is not None
                and np.isfinite(x_try).all()
                and (m == 0 or (A_in @ x_try - b_in).max() <= feas_tol)
            ):
                x_warm = x_try
    # The warm point stands in for a constructed feasible one only if it
    # also satisfies the equalities: on inconsistent ones the SVD fallback
    # of _eqp returns a least-squares point.
    if x is None and x_warm is not None:
        if p == 0 or abs(A_eq @ x_warm - b_eq).max() <= feas_tol:
            x = x_warm
    if x is None:
        if p > 0:
            x = np.linalg.lstsq(A_eq, b_eq, rcond=None)[0]
            if abs(A_eq @ x - b_eq).max() > 1e-7 * scale:
                return QpResult(x, np.zeros(m), np.zeros(p), "infeasible", 0)
        else:
            x = np.zeros(n)
        if m > 0 and (A_in @ x - b_in).max() > feas_tol:
            x = _phase1(A_eq, b_eq, A_in, b_in, x)
            if x is None:
                return QpResult(np.zeros(n), np.zeros(m), np.zeros(p), "infeasible", 0)

    W: list = []
    if x_warm is not None:
        x = x_warm
        W = list(W_try)
    if not W:
        resid = A_in @ x - b_in if m else np.zeros(0)
        active = set(np.flatnonzero(resid >= -10 * feas_tol).tolist())
        W = [i for i in W0 if i in active] if W0 else []
        while p + len(W) > n:
            W.pop()

    it = 0
    lam_W = np.zeros(0)
    y = np.zeros(p)
    # From the warm point the first iterate is the warm EQP solution, on the
    # same working set (W == W_try here), so it is not solved again.
    eqp = (x_warm, y_warm) if x_warm is not None else None
    while it < max_iter:
        it += 1
        if eqp is None:
            if nb:
                eqp = _eqp_bounded(B, c, A_all, b_all, p, nb, W)
            else:
                rows = eq_rows + [p + i for i in W]
                eqp = _eqp(B, c, A_all[rows], b_all[rows])
        x_new, y = eqp
        eqp = None
        lam_W = y[p:]
        if abs(x_new - x).max() <= 1e-10 * (1.0 + abs(x).max()):
            if lam_W.size == 0 or lam_W.min() >= -1e-9:
                lam = np.zeros(m)
                for j, i in enumerate(W):
                    lam[i] = max(lam_W[j], 0.0)
                return QpResult(x_new, lam, y[:p], "optimal", it, list(W))
            W.pop(int(lam_W.argmin()))
            continue
        delta = x_new - x
        alpha = 1.0
        blocker = -1
        if m:
            s = A_in @ delta
            r = A_in @ x - b_in
            mask = s > 1e-13 * scale
            if W:
                mask[W] = False
            idx = np.flatnonzero(mask)
            if idx.size:
                ratios = -r[idx] / s[idx]
                j = int(ratios.argmin())
                if ratios[j] < alpha - 1e-15:
                    alpha = max(float(ratios[j]), 0.0)
                    blocker = int(idx[j])
        x = x + alpha * delta
        if blocker >= 0:
            W.append(blocker)
            if p + len(W) > n:
                # Working set saturated; drop the row with the smallest
                # multiplier estimate to restore room.
                W.pop(int(lam_W.argmin()) if lam_W.size else 0)
    # Iteration cap: report the last subproblem's multiplier estimates
    # rather than zeros so the caller's stationarity accounting stays sane.
    lam = np.zeros(m)
    for j, i in enumerate(W):
        if j < lam_W.size:
            lam[i] = max(float(lam_W[j]), 0.0)
    mu = y[:p] if y.size >= p else np.zeros(p)
    return QpResult(x, lam, mu, "max_iter", it, list(W))


def _phase1(A_eq, b_eq, A_in, b_in, x_init):
    """Find a feasible point by minimizing elastic slacks on the
    inequalities; returns None if the constraints are inconsistent."""
    n = x_init.size
    p = b_eq.size
    m = b_in.size
    viol = A_in @ x_init - b_in
    s_init = np.maximum(viol, 0.0)
    scale = 1.0 + abs(b_in).max()
    eps = 1e-6

    B = eps * np.eye(n + m)
    c = np.concatenate([-eps * x_init, np.ones(m)])
    A_eq_x = np.hstack([A_eq, np.zeros((p, m))]) if p else np.zeros((0, n + m))
    # rows: A_in x - s <= b_in, then the bounds s >= 0 as rows m .. 2m-1
    A = np.hstack([A_in, -np.eye(m)])
    z0 = np.concatenate([x_init, s_init])
    # Seed the working set with the rows active at z0: the shifted row of a
    # violated inequality, the slack bound of every other one.  From an empty
    # set the first step would add exactly these rows, one degenerate
    # (zero-length) iteration each and lowest index first; they are listed
    # in that order because the order steers later ties and rounding.
    W0 = [j for j in range(m) if s_init[j] > 0] + [m + j for j in range(m) if s_init[j] <= 0]
    res = solve_qp(B, c, A_eq_x, b_eq, A, b_in, x0=z0, W0=W0, nb=m)
    if res.status == "infeasible":
        return None
    x = res.x[:n]
    s = res.x[n:]
    if s.max() > 1e-7 * scale:
        return None
    if m and (A_in @ x - b_in).max() > 1e-7 * scale:
        return None
    return x


def solve_qp_elastic(
    B: np.ndarray,
    c: np.ndarray,
    A_eq: np.ndarray,
    b_eq: np.ndarray,
    A_in: np.ndarray,
    b_in: np.ndarray,
    penalty: float,
    W0: Optional[list] = None,
) -> QpResult:
    """Slack-penalized relaxation used when the QP constraints are
    inconsistent: every row gets an elastic slack charged ``penalty`` per
    unit in an l1 sense, which always yields a well-posed problem.

    The returned multipliers are those of the original rows (bounded in
    magnitude by ``penalty``)."""
    n = c.size
    p = b_eq.size
    m = b_in.size
    ns = 2 * p + m
    sigma = 1e-8 * max(penalty, 1.0)

    Bx = np.zeros((n + ns, n + ns))
    Bx[:n, :n] = B
    Bx[n:, n:] = sigma * np.eye(ns)
    cx = np.concatenate([c, penalty * np.ones(ns)])
    # equalities: A_eq d + s_plus - s_minus = b_eq
    A_eq_x = np.hstack([A_eq, np.eye(p), -np.eye(p), np.zeros((p, m))])
    # inequalities: A_in d - s_in <= b_in, then the bounds s >= 0 (rows m ..)
    A_x = np.hstack([A_in, np.zeros((m, 2 * p)), -np.eye(m)])

    sp = np.maximum(b_eq, 0.0)
    sm = np.maximum(-b_eq, 0.0)
    si = np.maximum(-b_in, 0.0) if m else np.zeros(0)
    z0 = np.concatenate([np.zeros(n), sp, sm, si])
    # Seed the working set with the slack bounds active at z0: they pin
    # unnecessary slacks at zero immediately instead of rediscovering them
    # one blocking row at a time.  A warm set carrying expanded indices
    # (from a previous elastic solve of the same structure) is used as is.
    s0 = np.concatenate([sp, sm, si])
    W_init = [i for i in (W0 or []) if i < m + ns]
    if not any(i >= m for i in W_init):
        W_init += [m + j for j in range(ns) if s0[j] <= 0.0]
    res = solve_qp(Bx, cx, A_eq_x, b_eq, A_x, b_in, x0=z0, W0=W_init, nb=ns)
    lam = res.lam[:m] if m else np.zeros(0)
    return QpResult(res.x[:n], lam, res.mu, res.status, res.iterations, res.working_set)
