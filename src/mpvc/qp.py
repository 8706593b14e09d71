"""Dense primal active-set solver for strictly convex QPs.

Solves

    min  1/2 x^T B x + c^T x
    s.t. A_eq x  = b_eq
         A_in x <= b_in
         x_j >= 0   for the last ``nb`` variables

with B symmetric positive definite.  The method starts at the first point
that satisfies every constraint, tried in this order: the equality-
constrained solution on the warm working set ``W0`` (which is then also the
first iterate, so its KKT system is solved once), a given ``x0``, a
least-squares solve on the equalities, and the phase-1 point.  A point
satisfies the equalities to ``1e-7 * scale``, the tolerance at which the
least-squares point counts as consistent, and the inequalities to
``1e-9 * scale``, with ``scale = 1 + max|b_in| + max|b_eq|``.
Equality-constrained subproblems are solved through the KKT system, by a
least-squares solve of that system for degenerate working sets.

When the warm point violates an inequality and no ``x0`` is given, the
warm set grows (a crash start): the most violated row joins it, lowest
index on ties, and the equality-constrained point is solved again, until it
is feasible.  Growth stops, and the start falls through to the least-squares
point and phase 1, when the set has no room left (``p + |W| > n``), the
solve fails, is not finite or misses the equalities, or the most violated
row is already in the set.  Callers that pass an ``x0`` (phase 1 and the
elastic mode) and cold starts (no ``W0``) do not grow.

Phase 1 is the Euclidean projection of the least-squares point onto the
feasible set by a dual active-set method (``_project``), which also decides
whether the set is empty; the projection QP (B = I), warm-started there on
the projection's active rows, confirms the point in its first iteration.

The iterations are deterministic functions of the iterate and the working
set at the top of the loop, and nothing else is carried from one iteration
to the next.  So when that pair repeats bit for bit (a degenerate working
set that cycles), every later iteration repeats with the period seen, and
the loop skips the whole periods that fit before the iteration cap: it
returns the result that running to the cap would return, bit for bit,
after at most one more period of work.

The bounds are inequality rows ``m .. m+nb-1``, after those of ``A_in``.
They never enter a KKT system: a bound in the working set fixes its
variable at 0 and its multiplier is that variable's component of
``B x + c + C^T y``.  The elastic mode passes its slacks' bounds this way,
so its KKT systems are only as large as its general rows.

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
    multipliers of the rows of C, from an LU solve of the KKT system.  When
    that raises or misses C x = d (a degenerate working set: rank-deficient
    C), the least-squares solve of the same system gives x and, on a
    consistent system, the minimum-norm y."""
    n = B.shape[0]
    k = C.shape[0]
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = B
    kkt[:n, n:] = C.T
    kkt[n:, :n] = C
    rhs = np.concatenate([-c, d])
    try:
        sol = np.linalg.solve(kkt, rhs)
        x, y = sol[:n], sol[n:]
        if np.isfinite(sol).all():
            # scale >= 1: a residual within 1e-9 needs no scale
            resid = abs(C @ x - d).max() if k else 0.0
            if resid <= 1e-9:
                return x, y
            scale = 1.0 + float(abs(d).max())
            scale += float(abs(x).max()) * float(abs(C).max()) if C.size else 0.0
            if resid <= 1e-9 * scale:
                return x, y
    except np.linalg.LinAlgError:
        pass
    sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    return sol[:n], sol[n:]


def _eqp_w(B, c, A_all, b_all, eq_rows, W, nb):
    """``_eqp`` on the equalities ``eq_rows`` of ``A_all`` and the working set
    ``W``: (x, y), y ordered as the equalities, then ``W``.  A bound in ``W``
    (row ``m + j`` of a QP with ``m`` general inequalities) fixes its
    variable at 0 instead of entering the KKT system; its multiplier is that
    variable's component of ``B x + c + C^T y``."""
    p = len(eq_rows)
    if not nb:
        rows = eq_rows + [p + i for i in W]
        return _eqp(B, c, A_all[rows], b_all[rows])
    n = c.size
    m = b_all.size - p
    Wa = np.array(W, dtype=int)
    isb = Wa >= m
    fixed = Wa[isb] + (n - nb - m)
    free = np.ones(n, dtype=bool)
    free[fixed] = False
    rows = eq_rows + [p + i for i in W if i < m]
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

    From any start but the warm point, the rows of ``W0`` active there form
    the first working set.  ``nb`` (set only by ``solve_qp_elastic``, which
    passes a feasible ``x0``) bounds the last ``nb`` variables at 0 from
    below.  "infeasible" means that no start was found: the equalities are
    inconsistent, the projection finds the set empty, or it stops without
    a point (linearly dependent equality normals, its iteration cap).
    """
    n = c.size
    p = b_eq.size
    m = b_in.size
    max_iter = min(5 * (n + m + nb + p) + 30, 600)

    scale = 1.0 + (abs(b_in).max() if m else 0.0) + (abs(b_eq).max() if p else 0.0)
    feas_tol = 1e-9 * scale
    eq_tol = 1e-7 * scale
    # Subproblem rows are gathered from one stacked copy: the equalities,
    # then the inequality rows of the working set, in working-set order.
    # Without equalities that is A_in itself (rebound below, never written).
    A_all, b_all = (np.vstack([A_eq, A_in]), np.concatenate([b_eq, b_in])) if p else (A_in, b_in)
    eq_rows = list(range(p))
    if nb:
        # The bounds are rows of the feasibility checks, the ratio tests and
        # phase 1, but not of A_all: _eqp_w fixes them instead.
        A_in = np.vstack([A_in, -np.eye(nb, n, n - nb)])
        b_in = np.concatenate([b_in, np.zeros(nb)])
        m += nb

    # Warm start: the rows of a useful warm set are active at the solution,
    # so the equality-constrained point on the whole set is tried first; when
    # feasible, it needs no phase 1 and its EQP solve is the first iterate's.
    # Without an x0, a violated row joins the set (the most violated one,
    # lowest index on ties) and the EQP is solved again, while there is room.
    x = W = eqp = None
    if W0:
        W_try = [i for i in W0 if 0 <= i < m]
        # a row that is already in the set ends the growth here too
        while p + len(W_try) <= n and len(W_try) == len(set(W_try)):
            try:
                trial = _eqp_w(B, c, A_all, b_all, eq_rows, W_try, nb)
            except np.linalg.LinAlgError:
                break
            # on inconsistent equalities the least-squares KKT solve of _eqp
            # returns a point off them
            if not np.isfinite(trial[0]).all() or (p and abs(A_eq @ trial[0] - b_eq).max() > eq_tol):
                break
            viol = A_in @ trial[0] - b_in
            if not m or viol.max() <= feas_tol:
                x, W, eqp = trial[0], W_try, trial
                break
            if x0 is not None:
                break
            W_try = W_try + [int(viol.argmax())]
    if x is None and x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        ok_eq = p == 0 or abs(A_eq @ x0 - b_eq).max() <= eq_tol
        if ok_eq and (m == 0 or (A_in @ x0 - b_in).max() <= feas_tol):
            x = x0.copy()
    if x is None:
        x = np.linalg.lstsq(A_eq, b_eq, rcond=None)[0] if p else np.zeros(n)
        if p and abs(A_eq @ x - b_eq).max() > eq_tol:
            return QpResult(x, np.zeros(m), np.zeros(p), "infeasible", 0)
        if m and (A_in @ x - b_in).max() > feas_tol:
            # phase 1: the projection decides feasibility and the projection
            # QP confirms it; proj.x meets eq_tol, so that QP needs no phase 1
            proj = _project(A_eq, b_eq, A_in, b_in, x)
            if proj.status != "optimal" or (p and abs(A_eq @ proj.x - b_eq).max() > eq_tol):
                return QpResult(np.zeros(n), np.zeros(m), np.zeros(p), "infeasible", 0)
            x = solve_qp(np.eye(n), -x, A_eq, b_eq, A_in, b_in, x0=proj.x, W0=proj.working_set).x
    if W is None:
        resid = A_in @ x - b_in if m else np.zeros(0)
        active = set(np.flatnonzero(resid >= -10 * feas_tol).tolist())
        W = [i for i in W0 if i in active] if W0 else []
        while p + len(W) > n:
            W.pop()

    it = 0
    status = "max_iter"
    seen = {}       # loop state -> the iteration count it was met at
    while it < max_iter:
        # x and W are the whole state here, so a repeated one repeats its
        # cycle up to the cap: skip the whole periods that still fit
        state = (x.tobytes(), tuple(W))
        if state in seen:
            period = it - seen[state]
            it += (max_iter - it) // period * period
        seen[state] = it
        if it == max_iter:
            break
        it += 1
        x_new, y = eqp or _eqp_w(B, c, A_all, b_all, eq_rows, W, nb)
        eqp = None
        lam_W = y[p:]
        delta = x_new - x
        step = abs(delta).max()
        if step <= 1e-10 or step <= 1e-10 * (1.0 + abs(x).max()):
            if lam_W.size == 0 or lam_W.min() >= -1e-9:
                x, status = x_new, "optimal"
                break
            W.pop(int(lam_W.argmin()))
            continue
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
            if p + len(W) > n and lam_W.size:
                # Working set saturated; drop the previous set's row with the
                # smallest multiplier estimate to restore room.  Without one
                # (dependent equality rows, p >= n) the blocker stays: _eqp
                # solves the dependent system by least squares.
                W.pop(int(lam_W.argmin()))
    # At the iteration cap W may have changed since the last subproblem; its
    # multiplier estimates are still reported, rather than zeros, so that
    # the caller's stationarity accounting stays sane.
    lam = np.zeros(m)
    for i, v in zip(W, lam_W):
        lam[i] = max(v, 0.0)
    return QpResult(x, lam, y[:p], status, it, W)


def _project(A_eq, b_eq, A_in, b_in, x0):
    """The Euclidean projection of ``x0``, a point on the equalities, onto
    ``{x : A_eq x = b_eq, A_in x <= b_in}``: the dual active-set method of
    Goldfarb and Idnani (Math. Prog. 27, 1983) with B = I.

    It starts at ``x0`` with the equalities active and adds the most violated
    row (lowest index on ties) while one is violated by more than
    ``1e-13 * scale``.  Adding row ``a`` moves x along ``z``, the part of
    ``a`` orthogonal to the active normals, as its multiplier rises by t;
    the active multipliers change by ``-t r``, with ``a - z`` = the active
    normals times ``r``.  When an inequality's multiplier reaches 0 first
    (the earliest to join on ties), that row is dropped and the add goes on
    from there (a partial step); otherwise the row joins once it holds.
    ``z`` counts as 0 when ``|z| <= 1e-6 |a|``, so that no nearly dependent
    row joins, and always when n normals are active.  When ``z = 0`` and no
    multiplier falls, no point satisfies the row: "infeasible".  The active
    normals are kept as ``Q R`` (orthonormal columns in ``Q``) with
    ``R^-1``: an add appends a column, a drop factors them again.

    Returns a ``QpResult`` whose ``lam`` (>= 0) and ``mu`` satisfy
    ``x - x0 = -(A_eq^T mu + A_in^T lam)``, with the active inequality rows
    as ``working_set`` in the order they joined.  The status is "max_iter"
    at the iteration cap, and at once when the equality normals are
    linearly dependent; ``solve_qp`` reports either as "infeasible"."""
    n = x0.size
    p = b_eq.size
    m = b_in.size
    scale = 1.0 + abs(b_in).max() + (abs(b_eq).max() if p else 0.0)
    Q = np.zeros((n, n))
    Rinv = np.zeros((n, n))
    u = np.zeros(n)                 # multipliers of the active normals
    W = []
    k = p                           # active normals: the equalities, then W
    if p:
        Qe, R = np.linalg.qr(A_eq.T)
        d = abs(R.diagonal())
        if d.min() <= 1e-10 * d.max():
            return QpResult(x0, np.zeros(m), np.zeros(p), "max_iter", 0)
        Q[:, :p], Rinv[:p, :p] = Qe, np.linalg.inv(R)
    norms2 = np.einsum("ij,ij->i", A_in, A_in)
    x = x0
    j = -1                          # the row being added, if any
    max_iter = 2 * (n + m) + 10
    for it in range(max_iter):
        if j < 0:
            viol = A_in @ x - b_in
            j = int(viol.argmax())
            v = float(viol[j])      # the row's violation at x
            if v <= 1e-13 * scale:
                lam = np.zeros(m)
                lam[W] = np.maximum(u[p:k], 0.0)
                return QpResult(x, lam, u[:p].copy(), "optimal", it, W)
            uj = 0.0                # and its multiplier
        a = A_in[j]
        Qk = Q[:, :k]
        w = Qk.T @ a
        z = a - Qk @ w
        r = Rinv[:k, :k] @ w
        zz = float(z @ z)
        moves = k < n and zz > 1e-12 * norms2[j]
        t = v / zz if moves else np.inf
        drop = -1
        if W:
            ri = r[p:]
            pos = np.flatnonzero(ri > 1e-12 * (1.0 + abs(ri).max()))
            if pos.size:
                ratios = u[p:k][pos] / ri[pos]
                i = int(ratios.argmin())
                if ratios[i] < t:
                    t, drop = max(float(ratios[i]), 0.0), int(pos[i])
        if t == np.inf:
            return QpResult(x, np.zeros(m), np.zeros(p), "infeasible", it + 1)
        if moves:
            x = x - t * z
            v -= t * zz
        u[:k] -= t * r
        uj += t
        if drop < 0:
            rho = np.sqrt(zz)
            Q[:, k] = z / rho
            Rinv[:k, k] = r / -rho
            Rinv[k, k] = 1.0 / rho
            u[k] = uj
            k += 1
            W.append(j)
            j = -1
        else:
            W.pop(drop)
            u[p + drop:k - 1] = u[p + drop + 1:k]
            k -= 1
            Qa, R = np.linalg.qr(np.vstack([A_eq, A_in[W]]).T)
            Q[:] = Rinv[:] = 0.0
            Q[:, :k], Rinv[:k, :k] = Qa, np.linalg.inv(R)
    return QpResult(x, np.zeros(m), np.zeros(p), "max_iter", max_iter)


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
    unit in an l1 sense, which always yields a well-posed problem,

        min  1/2 d^T B d + c^T d + penalty * sum(s) + sigma/2 |s|^2
        s.t. A_eq d + s_plus - s_minus = b_eq,  A_in d - s_in <= b_in,  s >= 0

    with ``sigma = 1e-8 * max(penalty, 1)`` for strict convexity and the
    bounds ``s >= 0`` passed to ``solve_qp`` as bounds.  The returned
    multipliers are those of the original rows (``|.| <= penalty``)."""
    n = c.size
    p = b_eq.size
    m = b_in.size
    ns = 2 * p + m
    # the slacks start at the least values that hold at d = 0
    s0 = np.maximum(np.concatenate([b_eq, -b_eq, -b_in]), 0.0)
    # Seed the working set with the slack bounds active at the start: they
    # pin unnecessary slacks at zero immediately instead of rediscovering
    # them one blocking row at a time.  A warm set carrying expanded indices
    # (from a previous elastic solve of the same structure) is used as is.
    W_init = [i for i in (W0 or []) if i < m + ns]
    if not any(i >= m for i in W_init):
        W_init += [m + j for j in range(ns) if s0[j] <= 0.0]
    Bz = np.zeros((n + ns, n + ns))
    Bz[:n, :n] = B
    Bz[n:, n:] = 1e-8 * max(penalty, 1.0) * np.eye(ns)
    cz = np.concatenate([c, np.full(ns, penalty)])
    res = solve_qp(Bz, cz, np.hstack([A_eq, np.eye(p), -np.eye(p), np.zeros((p, m))]), b_eq,
                   np.hstack([A_in, np.zeros((m, 2 * p)), -np.eye(m)]), b_in,
                   x0=np.concatenate([np.zeros(n), s0]), W0=W_init, nb=ns)
    return QpResult(res.x[:n], res.lam[:m], res.mu, res.status, res.iterations, res.working_set)
