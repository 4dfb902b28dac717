"""Shared time-evolution helpers.

Linear, time-independent generators (the four-level and two-level Bloch
models) are propagated exactly from one eigendecomposition, each delay
tau >= 0 from the initial state (``propagate_linear``; ``_checked_delays``
is the delay rule of every g2 model).  Linear, time-dependent generators
affine in constant matrices (the STIRAP pulses, A(t) = sum_i f_i(t) B_i)
take one commutator-based fourth-order Magnus step per grid interval
(``magnus4``): the commutators [B_i, B_j] are built once, the steps are
exponentiated as a stack (``_expm``) and multiplied by a work-efficient
tree scan (``_prefix_states``).  The nonlinear mean-number loading ODE
runs through an adaptive embedded Runge-Kutta 4(5) integrator at rtol
1e-9, atol 1e-12 (``integrate``).
"""

from __future__ import annotations

import math

import numpy as np

RTOL = 1e-9
ATOL = 1e-12

# delays per block of exponentials in propagate_linear; bounds the complex
# temporaries to a few hundred kB whatever the grid length
_CHUNK = 1024
# steps per block of magnus4: the measured optimum of the lossy 4000-sample
# STIRAP call of a lib-sweep point (blocks of 256/512/1024/2048/4096 steps:
# 2.9/2.5/2.3/3.0/3.1 ms, medians of 30 calls on one core of a 2-vCPU Xeon
# VM); a block's temporaries are a few (1024, 6, 6) stacks of 295 kB
_MAGNUS_BLOCK = 1024
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


def _checked_delays(delays) -> np.ndarray:
    """The delays as a 1-D float array, each finite and nonnegative."""
    delays = np.asarray(delays, dtype=float)
    if delays.ndim != 1 or not np.all(np.isfinite(delays) & (delays >= 0)):
        raise ValueError("delays must be a 1-D array of finite, nonnegative values")
    return delays


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


def propagate_linear(m, y0, delays) -> np.ndarray:
    """Exact solution of dy/dt = m y for a constant real matrix ``m``.

    Row k is y0 evolved by the delay tau_k >= 0, V exp(Lambda tau_k) V^-1 y0,
    from one eigendecomposition m = V Lambda V^-1 (``numpy.linalg.eig`` and
    ``inv``; no scipy).  Delays come in any order; rows at tau = 0 hold
    ``y0`` exactly, and no delays give shape (0, len(y0)).  Raises
    ``ValueError`` for a negative or non-finite delay, and
    ``IntegrationError`` when ``m`` is too close to defective (an
    exceptional point) for 1e-6 accuracy: when the smallest overlap
    s_k = |w_k^H v_k| of its unit left and right eigenvectors is below
    ``_MIN_OVERLAP``.
    """
    tau = _checked_delays(delays)
    y0 = np.asarray(y0, dtype=float)
    lam, v, vinv, overlap = _eigen_expansion(m)
    if not overlap.min() >= _MIN_OVERLAP:  # also refuses a NaN
        raise IntegrationError(_DEFECTIVE)
    cv = (vinv @ y0)[:, None] * v.T
    out = np.empty((len(tau), len(y0)))
    for start in range(0, len(tau), _CHUNK):
        block = tau[start:start + _CHUNK]
        out[start:start + _CHUNK] = (np.exp(np.outer(block, lam)) @ cv).real
    out[tau == 0.0] = y0
    return out


def _expm(x) -> np.ndarray:
    """exp of every matrix in a real stack of shape (n, k, k).

    Taylor polynomial with scaling and squaring: the stack is scaled by 2^-s
    so that its largest 1-norm nu is at most 1, and the degree m is the
    smallest with nu^(m+1)/(m+1)! below the unit roundoff.  Horner's rule on
    the coefficients 1/j! runs in two preallocated buffers: one matmul per
    degree, each coefficient added on the diagonal only.  ``x`` is not
    modified.
    """
    x = np.asarray(x, dtype=float)
    k = x.shape[-1]
    norm = float(np.einsum("...ij->...j", np.abs(x)).max())
    squarings = math.ceil(math.log2(norm)) if norm > 1.0 else 0
    if squarings:
        x = x / 2.0**squarings
    nu = norm / 2.0**squarings
    degree, remainder = 1, nu * nu / 2.0
    while remainder > _EPS:
        degree += 1
        remainder *= nu / (degree + 1)
    coeff = [1.0 / math.factorial(j) for j in range(degree + 1)]
    # C order: the diagonal is written through a flat view
    out = np.multiply(x, coeff[degree], order="C")
    spare = np.empty_like(out)
    out.reshape(-1, k * k)[:, ::k + 1] += coeff[degree - 1]
    for c in coeff[degree - 2::-1]:
        out, spare = np.matmul(x, out, out=spare), out
        out.reshape(-1, k * k)[:, ::k + 1] += c
    for _ in range(squarings):
        out, spare = np.matmul(out, out, out=spare), out
    return out


def _real_form(a: np.ndarray) -> np.ndarray:
    """[[Re a, -Im a], [Im a, Re a]] of a complex stack (n, d, d)."""
    d = a.shape[-1]
    out = np.empty(a.shape[:-2] + (2 * d, 2 * d))
    out[..., :d, :d] = out[..., d:, d:] = a.real
    out[..., :d, d:] = -a.imag
    out[..., d:, :d] = a.imag
    return out


def _prefix_states(steps: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """The states before each step: row k is steps[k-1] ... steps[0] y0.

    A work-efficient scan (Blelloch 1990): the up-sweep multiplies
    neighbouring pairs level by level, and the down-sweep hands each pair's
    start state to its left half and, through one batched mat-vec with the
    left half's product, to its right half.  About one matmul per step.
    """
    levels = [steps]
    while len(levels[-1]) > 2:
        q = levels[-1]
        pairs = len(q) // 2
        up = np.matmul(q[1:2 * pairs:2], q[0:2 * pairs:2])
        levels.append(np.concatenate((up, q[2 * pairs:])))
    states = y0[None, :]
    for q in reversed(levels):
        pairs = len(q) // 2
        down = np.empty((len(q), len(y0)))
        down[0::2] = states
        down[1::2] = np.einsum("nij,nj->ni", q[0:2 * pairs:2], states[:pairs])
        states = down
    return states


def magnus4(basis, coefficients, y0, t_grid) -> np.ndarray:
    """Solve dy/dt = A(t) y with one fourth-order Magnus step per interval.

    The generator is affine in constant complex matrices,
    A(t) = sum_i f_i(t) B_i, with ``basis`` the stack (m, d, d) of the B_i
    and ``coefficients(t)`` mapping a 1-D array of times to the real
    weights f_i(t), shape (len(t), m).  On each interval of length h the
    two Gauss-Legendre nodes t_mid -/+ h sqrt(3)/6 give A1 and A2, and the
    step is exp(h/2 (A1 + A2) + sqrt(3)/12 h^2 [A2, A1]), evaluated on the
    real form of the matrices.  The real forms of the B_i and of every
    [B_i, B_j] are built once, so each exponent is one row of weights
    times that constant stack:
    [A2, A1] = sum_{i<j} (f_i(t2) f_j(t1) - f_j(t2) f_i(t1)) [B_i, B_j].
    The steps of a block of ``_MAGNUS_BLOCK`` intervals are multiplied by
    a work-efficient tree scan, and the state is carried from block to
    block.  Returns the complex array of shape (len(t_grid), d); ``t_grid``
    must be nondecreasing and start at the initial time, and the first row
    holds ``y0``.  The accuracy is set by the grid: the caller chooses h
    small against 1/||A||.
    """
    t_grid = _checked_grid(t_grid)
    y0 = np.asarray(y0, dtype=complex)
    d = len(y0)
    real = _real_form(np.asarray(basis, dtype=complex))
    first, second = np.triu_indices(len(real), 1)
    # the real form is an algebra homomorphism: it maps [B_i, B_j] to the
    # commutator of the real forms
    constant = np.concatenate((
        real, real[first] @ real[second] - real[second] @ real[first],
    )).reshape(-1, 4 * d * d)
    h = np.diff(t_grid)
    mid = (t_grid[:-1] + t_grid[1:]) / 2.0
    f1 = coefficients(mid - h * (_SQRT3 / 6.0))
    f2 = coefficients(mid + h * (_SQRT3 / 6.0))
    h = h[:, None]
    weights = np.concatenate((
        h / 2.0 * (f1 + f2),
        (_SQRT3 / 12.0) * h**2 * (f2[:, first] * f1[:, second]
                                  - f2[:, second] * f1[:, first]),
    ), axis=1)
    out = np.empty((len(t_grid), 2 * d))
    out[0, :d], out[0, d:] = y0.real, y0.imag
    for start in range(0, len(h), _MAGNUS_BLOCK):
        block = weights[start:start + _MAGNUS_BLOCK]
        steps = _expm((block @ constant).reshape(len(block), 2 * d, 2 * d))
        before = _prefix_states(steps, out[start])
        out[start + 1:start + 1 + len(block)] = np.einsum("nij,nj->ni", steps, before)
    return out[:, :d] + 1j * out[:, d:]
