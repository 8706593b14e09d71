"""One-parameter regularizations of an MPVC.

Each scheme replaces the product constraint G_i H_i <= 0 by a single
parametrized row and keeps H_i >= 0:

* ``GLOBAL``     G_i H_i - t <= 0                (relaxes the product everywhere)
* ``LOCAL``      G_i + H_i - phi(G_i - H_i; t) <= 0, a C^2 smoothing that
                 bends the corner only near the origin
* ``LSHAPED``    a C^1 kernel whose zero set is the L-shaped boundary
                 {H = t, G >= 0} U {G = 0, H >= t}
* ``NONSMOOTH``  G_i (H_i - t) <= 0, whose feasible set is the union of two
                 axis-aligned regions meeting at (G, H) = (0, t)

All kernels are pure scalar functions returning their value together with
the coefficients (c_G, c_H) of the row gradient c_G * grad G + c_H * grad H.
The assembled NLPs are immutable and safe to share between solves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import ParameterError
from .model import MpvcProblem, ScalarFn, VectorFn


class Scheme(Enum):
    GLOBAL = "global"
    LOCAL = "local"
    LSHAPED = "lshaped"
    NONSMOOTH = "nonsmooth"


@dataclass(frozen=True)
class RowProvenance:
    """Back-reference from assembled NLP rows to the source MPVC.

    ``rows_g``, ``rows_neg_H`` and ``rows_kernel`` index into the inequality
    block and partition it exactly; ``rows_neg_H[i]`` is the row -H_i <= 0
    and ``rows_kernel[i]`` the regularized row of pair i.  ``t`` is the
    regularization parameter (0 for the direct baseline).
    """

    t: float
    rows_g: np.ndarray
    rows_neg_H: np.ndarray
    rows_kernel: np.ndarray


@dataclass(frozen=True)
class Nlp:
    """A standard smooth NLP: min f s.t. ineq <= 0, eq = 0."""

    n: int
    objective: ScalarFn
    ineq: VectorFn
    eq: VectorFn
    n_ineq: int
    n_eq: int
    provenance: Optional[RowProvenance] = None


def theta(s: float) -> float:
    """Smoothing profile (2/pi) sin(pi s / 2 + 3 pi / 2) + 1 on [-1, 1].

    Satisfies theta(+-1) = 1, theta'(-1) = -1, theta'(1) = 1,
    theta''(+-1) = 0 and theta'' > 0 on (-1, 1).
    """
    if abs(s) > 1.0:
        raise ParameterError(f"theta argument {s} outside [-1, 1]")
    return (2.0 / math.pi) * math.sin(math.pi * s / 2.0 + 1.5 * math.pi) + 1.0


def theta_prime(s: float) -> float:
    """Derivative cos(pi s / 2 + 3 pi / 2) of the smoothing profile."""
    if abs(s) > 1.0:
        raise ParameterError(f"theta argument {s} outside [-1, 1]")
    return math.cos(math.pi * s / 2.0 + 1.5 * math.pi)


def _check_t(t: float) -> None:
    if not t > 0.0:
        raise ParameterError(f"regularization parameter t must be positive, got {t}")


def kernel_global(G: float, H: float, t: float) -> tuple[float, float, float]:
    """Row G*H - t with gradient H * grad G + G * grad H."""
    _check_t(t)
    return G * H - t, H, G


def phi_su(G: float, H: float, t: float) -> tuple[float, float, float]:
    """Local smoothing kernel; returns (value, alpha, beta).

    value = G + H - phi(G - H; t) with phi(a; t) = |a| for |a| >= t and
    t * theta(a / t) otherwise.  The row gradient is
    alpha * grad G + beta * grad H with

        (alpha, beta) = (2, 0)  if G - H <= -t
                        (0, 2)  if G - H >=  t
                        (1 - theta'(a/t), 1 + theta'(a/t))  otherwise.

    On the middle branch the defining expression cancels catastrophically
    near the switch points (the true value is cubic in the distance to the
    switch while the summands are O(t)), which would flatten the kernel to
    zero over a whole floating-point band and create spurious stationary
    points there.  The implementation therefore uses the algebraically
    identical forms

        value = 2 H - t q(1 - u) = 2 G - t q(1 + u),
        q(w)  = w - (2 / pi) sin(pi w / 2),   u = (G - H) / t,

    (q(w) ~ pi^2 w^3 / 24 near 0) and alpha = 2 sin^2(pi (1 - u) / 4),
    beta = 2 - alpha, evaluated on whichever side is cancellation-free.
    """
    _check_t(t)
    a = G - H
    if a <= -t:
        return 2.0 * G, 2.0, 0.0
    if a >= t:
        return 2.0 * H, 0.0, 2.0
    u = a / t
    if u >= 0.0:
        w = 1.0 - u
        q = w - (2.0 / math.pi) * math.sin(0.5 * math.pi * w)
        value = 2.0 * H - t * q
        alpha = 2.0 * math.sin(0.25 * math.pi * w) ** 2
        return value, alpha, 2.0 - alpha
    w = 1.0 + u
    q = w - (2.0 / math.pi) * math.sin(0.5 * math.pi * w)
    value = 2.0 * G - t * q
    beta = 2.0 * math.sin(0.25 * math.pi * w) ** 2
    return value, 2.0 - beta, beta


def phi_ks(G: float, H: float, t: float) -> tuple[float, float, float]:
    """L-shaped kernel; returns (value, c_G, c_H).

    G * (H - t) on the branch G + H >= t and -(G^2 + (H - t)^2) / 2 below
    it; the two branches join with C^1 continuity across G + H = t.
    """
    _check_t(t)
    if G + H >= t:
        return G * (H - t), H - t, G
    return -0.5 * (G * G + (H - t) * (H - t)), -G, -(H - t)


def phi_kdb(G: float, H: float, t: float) -> tuple[float, float, float]:
    """Product kernel G * (H - t); returns (value, c_G, c_H)."""
    _check_t(t)
    return G * (H - t), H - t, G


Kernel = Callable[[float, float, float], tuple[float, float, float]]

KERNELS: dict[Scheme, Kernel] = {
    Scheme.GLOBAL: kernel_global,
    Scheme.LOCAL: phi_su,
    Scheme.LSHAPED: phi_ks,
    Scheme.NONSMOOTH: phi_kdb,
}


def kernel_direct(G: float, H: float, t: float) -> tuple[float, float, float]:
    """Unregularized product row G*H of the direct baseline; ignores t."""
    return G * H, H, G


def kernel_rows(
    kernel: Kernel, G: np.ndarray, H: np.ndarray, t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate ``kernel`` on every vanishing pair; returns (values, c_G, c_H).

    The scalar kernels run on Python floats: at the pair counts of the
    bundled problems a per-pair loop is several times faster than array
    versions of the piecewise kernels, and it rounds exactly as they do.
    """
    rows = [kernel(g, h, t) for g, h in zip(G.tolist(), H.tolist())]
    vals, c_G, c_H = np.array(rows, dtype=float).reshape(-1, 3).T
    return vals, c_G, c_H


def _assemble(problem: MpvcProblem, t: float, kernel: Kernel) -> Nlp:
    m, l, n = problem.m, problem.l, problem.n
    n_ineq = m + 2 * l

    def ineq(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        gv, Jg = problem.g(x)
        Hv, JH = problem.H(x)
        Gv, JG = problem.G(x)
        vals = np.empty(n_ineq)
        jac = np.empty((n_ineq, n))
        vals[:m] = gv
        jac[:m] = Jg
        vals[m : m + l] = -Hv
        jac[m : m + l] = -JH
        vals[m + l :], c_G, c_H = kernel_rows(kernel, Gv, Hv, t)
        jac[m + l :] = c_G[:, None] * JG + c_H[:, None] * JH
        return vals, jac

    prov = RowProvenance(
        t=t,
        rows_g=np.arange(m),
        rows_neg_H=m + np.arange(l),
        rows_kernel=m + l + np.arange(l),
    )
    return Nlp(
        n=n,
        objective=problem.f,
        ineq=ineq,
        eq=problem.h,
        n_ineq=n_ineq,
        n_eq=problem.p,
        provenance=prov,
    )


def regularize(problem: MpvcProblem, scheme: Scheme, t: float) -> Nlp:
    """Assemble the regularized NLP R(t) of ``problem`` for one scheme.

    Rows, in order: g_i <= 0, -H_i <= 0, then one kernel row per vanishing
    pair; equalities are passed through unchanged.
    """
    _check_t(t)
    return _assemble(problem, t, KERNELS[scheme])


def direct_nlp(problem: MpvcProblem) -> Nlp:
    """The MPVC written as a plain NLP with G_i H_i <= 0 rows.

    This is the no-regularization baseline: the product constraints are
    handed to the inner solver unchanged (t = 0 in the provenance).
    """
    return _assemble(problem, 0.0, kernel_direct)
