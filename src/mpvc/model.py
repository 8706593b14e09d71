"""Problem representation for mathematical programs with vanishing constraints.

An MPVC is a smooth nonlinear program of the form

    min f(x)
    s.t. g_i(x) <= 0          (i = 1..m)
         h_i(x)  = 0          (i = 1..p)
         H_i(x) >= 0          (i = 1..l)
         G_i(x) H_i(x) <= 0   (i = 1..l)

where the implicit bound ``G_i <= 0`` switches off ("vanishes") wherever
``H_i = 0``.  This module holds the problem container, ``pair_classes``
(the one statement of the activity banding of the vanishing pairs, which
``index_sets`` reports as index lists and ``stationarity`` and ``cq`` read),
and the two violation measures used by the outer regularization loop.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, ParameterError

# Evaluator conventions: scalar evaluators return (value, gradient) with the
# gradient of length n; vector evaluators return (values, jacobian) with one
# jacobian row per component.
ScalarFn = Callable[[np.ndarray], tuple[float, np.ndarray]]
VectorFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def empty_vector_fn(n: int) -> VectorFn:
    """Evaluator for an absent constraint block (zero rows)."""
    vals = np.zeros(0)
    jac = np.zeros((0, n))

    def fn(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return vals, jac

    return fn


@dataclass(frozen=True)
class MpvcProblem:
    """A smooth MPVC with analytic first derivatives.

    Problems are immutable after construction and carry no evaluation
    state, so one instance can be shared across concurrent solves.

    Attributes
    ----------
    name : str
        Identifier used by the CLI and in serialized results.
    n, m, p, l : int
        Dimension of the decision vector and the counts of inequality,
        equality and vanishing-constraint pairs.
    f : ScalarFn
        Objective, returning value and gradient.
    g, h, G, H : VectorFn
        Constraint blocks, returning values and Jacobians with m, p, l, l
        rows respectively.
    known_points : dict
        Optional labelled reference points (used by tests and for bucketing
        grid results).
    meta : dict
        Problem-specific extras (layouts, physical constants, unpackers).
    """

    name: str
    n: int
    m: int
    p: int
    l: int
    f: ScalarFn
    g: VectorFn
    h: VectorFn
    G: VectorFn
    H: VectorFn
    known_points: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionMismatch(
                f"{self.name}: point has shape {x.shape}, expected ({self.n},)"
            )
        return x


# The five pair classes, in the order of ``pair_classes``' codes.
PAIR_CLASSES = ("I_plus0", "I_plusminus", "I_0plus", "I_00", "I_0minus")


def pair_classes(Gv: np.ndarray, Hv: np.ndarray, tau_act: float) -> np.ndarray:
    """The class of each vanishing pair, as an index into ``PAIR_CLASSES``.

    The first subscript encodes the sign class of H_i, the second the sign
    class of G_i; a value v is classed "0" iff |v| <= tau_act, "+" iff
    v > tau_act and "-" iff v < -tau_act.

    Combinations that cannot occur at a feasible point are folded onto the
    nearest feasible class so that the five classes always partition the
    pairs: H below -tau_act counts as "0" (the bound is violated, the pair
    sits on the H-boundary for classification purposes) and G above
    tau_act with H above tau_act counts as "+0" (the product constraint is
    violated, i.e. active).
    """
    if tau_act <= 0.0:
        raise ParameterError("tau_act must be positive")
    G_minus = Gv < -tau_act
    return np.where(Hv > tau_act, np.where(G_minus, 1, 0),
                    np.where(Gv > tau_act, 2, np.where(G_minus, 4, 3)))


def index_sets(problem: MpvcProblem, x: np.ndarray, tau_act: float = 1e-8) -> dict:
    """The active inequalities and the pair classes at ``x``.

    Returns ``{"I_g": [...], "I_plus0": [...], ..., "I_0minus": [...],
    "tau_act": tau_act}``: sorted 0-based index lists, ``I_g`` holding the
    i with g_i >= -tau_act and the five classes of ``PAIR_CLASSES`` banded
    by ``pair_classes``.  tau_act is absolute and must be positive.
    """
    x = problem.check_point(x)
    cls = pair_classes(problem.G(x)[0], problem.H(x)[0], tau_act)
    sets = {name: np.flatnonzero(cls == k).tolist() for k, name in enumerate(PAIR_CLASSES)}
    I_g = np.flatnonzero(problem.g(x)[0] >= -tau_act).tolist()
    return {"I_g": I_g, **sets, "tau_act": tau_act}


def max_vio(problem: MpvcProblem, x: np.ndarray) -> float:
    """max_i G_i(x) H_i(x), recorded for each outer iteration.

    May be negative when every product is.  Returns 0.0 for l = 0.
    """
    x = problem.check_point(x)
    if problem.l == 0:
        return 0.0
    Gv, _ = problem.G(x)
    Hv, _ = problem.H(x)
    return float((Gv * Hv).max())


def full_violation(problem: MpvcProblem, x: np.ndarray) -> float:
    """Worst violation over all constraint blocks.

    max(0, max_i g_i, max_i |h_i|, max_i -H_i, max_i G_i H_i); zero exactly
    for points feasible for the MPVC.
    """
    x = problem.check_point(x)
    return violation(problem.g(x)[0], problem.h(x)[0], problem.G(x)[0], problem.H(x)[0])


def violation(gv: np.ndarray, hv: np.ndarray, Gv: np.ndarray, Hv: np.ndarray) -> float:
    """``full_violation`` from the values of g, h, G and H at the point."""
    worst = 0.0
    if gv.size:
        worst = max(worst, float(gv.max()))
    if hv.size:
        worst = max(worst, float(abs(hv).max()))
    if Gv.size:
        worst = max(worst, float((-Hv).max()))
        worst = max(worst, float((Gv * Hv).max()))
    return worst
