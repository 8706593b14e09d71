"""Central finite differences that the tests check analytic derivatives
against; every problem in the library supplies its own.  The step is
relative, 1e-6 * (1 + |x_j|) per coordinate.
"""
from __future__ import annotations

from typing import Callable

import numpy as np


def fd_gradient(func: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for j in range(x.size):
        step = 1e-6 * (1.0 + abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += step
        xm[j] -= step
        grad[j] = (func(xp) - func(xm)) / (2.0 * step)
    return grad


def fd_jacobian(func: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of a vector function."""
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(np.asarray(func(x), dtype=float))
    jac = np.zeros((f0.size, x.size))
    for j in range(x.size):
        step = 1e-6 * (1.0 + abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += step
        xm[j] -= step
        jac[:, j] = (np.asarray(func(xp)) - np.asarray(func(xm))) / (2.0 * step)
    return jac
