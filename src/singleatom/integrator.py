"""Shared time-evolution helpers.

Linear, time-independent generators (the four-level and two-level Bloch
models) are propagated exactly from one eigendecomposition
(``propagate_linear``).  Time-dependent or nonlinear right-hand sides (STIRAP
pulses, the mean-number loading ODE) run through an adaptive embedded
Runge-Kutta 4(5) integrator at rtol 1e-9, atol 1e-12 (``integrate``).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eig

RTOL = 1e-9
ATOL = 1e-12

# delays per block of exponentials in propagate_linear; bounds the complex
# temporaries to a few hundred kB whatever the grid length
_CHUNK = 1024
# The rounding error of the eigen-expansion grows like eps / s^2, with s the
# smallest |w_k^H v_k| of the unit eigenvectors (measured towards the
# two-level exceptional point, where s -> 0).  Below this s it would pass
# 1e-6, so the propagation is refused instead of returning noise.
_MIN_OVERLAP = math.sqrt(np.finfo(float).eps / 1e-6)


class IntegrationError(RuntimeError):
    """Raised when a trajectory cannot be computed to working accuracy."""


def _checked_grid(t_grid) -> np.ndarray:
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0:
        raise ValueError("t_grid must be a nonempty 1-D array")
    if not np.all(np.isfinite(t_grid)):
        raise ValueError("t_grid must be finite")
    if np.any(np.diff(t_grid) < 0):
        raise ValueError("t_grid must be nondecreasing")
    return t_grid


def integrate(f, y0, t_grid, rtol: float = RTOL, atol: float = ATOL) -> np.ndarray:
    """Integrate dy/dt = f(t, y) and sample the solution on ``t_grid``.

    Returns an array of shape (len(t_grid), len(y0)).  ``t_grid`` must be
    nondecreasing and start at the initial time.
    """
    t_grid = _checked_grid(t_grid)
    y0 = np.asarray(y0)
    if len(t_grid) == 1:
        return y0[None, :].copy()
    sol = solve_ivp(
        f, (t_grid[0], t_grid[-1]), y0, method="RK45",
        t_eval=t_grid, rtol=rtol, atol=atol,
    )
    if not sol.success:
        raise IntegrationError(f"RK45 failed: {sol.message}")
    return sol.y.T


def propagate_linear(m, y0, t_grid) -> np.ndarray:
    """Exact solution of dy/dt = m y for a constant real matrix ``m``.

    y(t) = sum_k c_k exp(lambda_k (t - t0)) v_k with (lambda_k, v_k) the
    eigenpairs of ``m`` and c_k = (w_k^H y0) / (w_k^H v_k) from the left
    eigenvectors w_k.  Returns the real array of shape (len(t_grid),
    len(y0)); ``t_grid`` must be nondecreasing and start at the initial
    time t0, and rows at t0 hold ``y0`` exactly.  Raises
    ``IntegrationError`` when ``m`` is too close to defective (an
    exceptional point) for the expansion to keep 1e-6 accuracy.
    """
    t_grid = _checked_grid(t_grid)
    t = t_grid - t_grid[0]
    y0 = np.asarray(y0, dtype=float)
    lam, w, v = eig(m, left=True)
    wh = w.conj().T
    overlap = np.einsum("ij,ji->i", wh, v)
    if np.abs(overlap).min() < _MIN_OVERLAP:
        raise IntegrationError(
            "generator is too close to an exceptional point for the eigen-propagator")
    c = (wh @ y0) / overlap
    cv = c[:, None] * v.T
    out = np.empty((len(t), len(y0)))
    for start in range(0, len(t), _CHUNK):
        block = t[start:start + _CHUNK]
        out[start:start + _CHUNK] = (np.exp(np.outer(block, lam)) @ cv).real
    out[t == 0.0] = y0
    return out
