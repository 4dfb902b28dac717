"""Shared time-evolution helpers.

Linear, time-independent generators (the four-level and two-level Bloch
models) are propagated exactly from one eigendecomposition
(``propagate_linear``).  Linear, time-dependent generators (the STIRAP
pulses) take one commutator-based fourth-order Magnus step per grid
interval (``magnus4``).  The nonlinear mean-number loading ODE runs through
an adaptive embedded Runge-Kutta 4(5) integrator at rtol 1e-9, atol 1e-12
(``integrate``).
"""

from __future__ import annotations

import math

import numpy as np

RTOL = 1e-9
ATOL = 1e-12

# delays per block of exponentials in propagate_linear; bounds the complex
# temporaries to a few hundred kB whatever the grid length
_CHUNK = 1024
# steps per block of magnus4: its (block, 6, 6) temporaries are 74 kB each,
# and a lib-sweep worker's peak memory stays where RK45 left it (1024-step
# blocks added 2.2 MB to it, at the same speed)
_MAGNUS_BLOCK = 256
# The rounding error of the eigen-expansion grows like eps / s^2, with s the
# smallest overlap |w_k^H v_k| of the unit left and right eigenvectors
# (measured towards the two-level exceptional point, where s -> 0).  Below
# this s it would pass 1e-6, so the propagation is refused instead of
# returning noise.
_MIN_OVERLAP = math.sqrt(np.finfo(float).eps / 1e-6)
_DEFECTIVE = "generator is too close to an exceptional point for the eigen-propagator"
_EPS = np.finfo(float).eps / 2.0  # unit roundoff
_SQRT3 = math.sqrt(3.0)


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
    from scipy.integrate import solve_ivp

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


def _eigen_expansion(m):
    """(lambda, V, V^-1, s) of m = V diag(lambda) V^-1 (numpy only).

    The rows of V^-1 are the left eigenvectors scaled to (V^-1)_k v_k = 1,
    so s_k = 1 / (||(V^-1)_k|| ||v_k||) is the overlap |w_k^H v_k| of the
    unit left and right eigenvectors.  Raises ``IntegrationError`` when V is
    singular (m defective).
    """
    lam, v = np.linalg.eig(m)
    try:
        vinv = np.linalg.inv(v)
    except np.linalg.LinAlgError as exc:
        raise IntegrationError(_DEFECTIVE) from exc
    overlap = 1.0 / (np.linalg.norm(vinv, axis=1) * np.linalg.norm(v, axis=0))
    return lam, v, vinv, overlap


def propagate_linear(m, y0, t_grid) -> np.ndarray:
    """Exact solution of dy/dt = m y for a constant real matrix ``m``.

    y(t) = V exp(Lambda (t - t0)) V^-1 y0 from one eigendecomposition
    m = V Lambda V^-1 (``numpy.linalg.eig`` and ``inv``; no scipy).  Returns
    the real array of shape (len(t_grid), len(y0)); ``t_grid`` must be
    nondecreasing and start at the initial time t0, and rows at t0 hold
    ``y0`` exactly.  Raises ``IntegrationError`` when ``m`` is too close to
    defective (an exceptional point) for the expansion to keep 1e-6
    accuracy: when the smallest overlap s_k = |w_k^H v_k| of its unit left
    and right eigenvectors is below ``_MIN_OVERLAP``.
    """
    t_grid = _checked_grid(t_grid)
    t = t_grid - t_grid[0]
    y0 = np.asarray(y0, dtype=float)
    lam, v, vinv, overlap = _eigen_expansion(m)
    if not overlap.min() >= _MIN_OVERLAP:  # also refuses a NaN
        raise IntegrationError(_DEFECTIVE)
    cv = (vinv @ y0)[:, None] * v.T
    out = np.empty((len(t), len(y0)))
    for start in range(0, len(t), _CHUNK):
        block = t[start:start + _CHUNK]
        out[start:start + _CHUNK] = (np.exp(np.outer(block, lam)) @ cv).real
    out[t == 0.0] = y0
    return out


def _expm(x) -> np.ndarray:
    """exp of every matrix in a real stack of shape (n, k, k).

    Taylor polynomial in Horner form with scaling and squaring: the stack is
    scaled by 2^-s so that its largest 1-norm nu is at most 1, and the degree
    m is the smallest with nu^(m+1)/(m+1)! below the unit roundoff.
    """
    x = np.asarray(x, dtype=float)
    eye = np.eye(x.shape[-1])
    norm = float(np.abs(x).sum(axis=-2).max())
    squarings = math.ceil(math.log2(norm)) if norm > 1.0 else 0
    x = x / 2.0**squarings
    nu = norm / 2.0**squarings
    degree, remainder = 1, nu * nu / 2.0
    while remainder > _EPS:
        degree += 1
        remainder *= nu / (degree + 1)
    out = eye + x / degree
    for k in range(degree - 1, 0, -1):
        out = eye + (x @ out) / k
    for _ in range(squarings):
        out = out @ out
    return out


def _real_form(a: np.ndarray) -> np.ndarray:
    """[[Re a, -Im a], [Im a, Re a]] of a complex stack (n, d, d)."""
    d = a.shape[-1]
    out = np.empty(a.shape[:-2] + (2 * d, 2 * d))
    out[..., :d, :d] = out[..., d:, d:] = a.real
    out[..., :d, d:] = -a.imag
    out[..., d:, :d] = a.imag
    return out


def magnus4(generators, y0, t_grid) -> np.ndarray:
    """Solve dy/dt = A(t) y with one fourth-order Magnus step per interval.

    ``generators(t)`` maps a 1-D array of times to the stack of complex
    matrices A(t), shape (len(t), d, d).  On each interval of length h the
    two Gauss-Legendre nodes t_mid -/+ h sqrt(3)/6 give A1 and A2, and the
    step is exp(h/2 (A1 + A2) + sqrt(3)/12 h^2 [A2, A1]), evaluated on the
    real form of the matrices.  The steps of a block of ``_MAGNUS_BLOCK``
    intervals are multiplied by a log-depth prefix product, and the state is
    carried from block to block.  Returns the complex array of shape
    (len(t_grid), d); ``t_grid`` must be nondecreasing and start at the
    initial time, and the first row holds ``y0``.  The accuracy is set by
    the grid: the caller chooses h small against 1/||A||.
    """
    t_grid = _checked_grid(t_grid)
    y0 = np.asarray(y0, dtype=complex)
    d = len(y0)
    out = np.empty((len(t_grid), 2 * d))
    out[0, :d], out[0, d:] = y0.real, y0.imag
    for start in range(0, len(t_grid) - 1, _MAGNUS_BLOCK):
        t = t_grid[start:start + _MAGNUS_BLOCK + 1]
        h = np.diff(t)[:, None, None]
        mid = (t[:-1] + t[1:]) / 2.0
        offset = h[:, 0, 0] * (_SQRT3 / 6.0)
        a1 = _real_form(generators(mid - offset))
        a2 = _real_form(generators(mid + offset))
        prod = _expm(h / 2.0 * (a1 + a2)
                     + (_SQRT3 / 12.0) * h**2 * (a2 @ a1 - a1 @ a2))
        shift = 1
        while shift < len(prod):
            prod[shift:] = prod[shift:] @ prod[:-shift]
            shift *= 2
        out[start + 1:start + len(t)] = prod @ out[start]
    return out[:, :d] + 1j * out[:, d:]
