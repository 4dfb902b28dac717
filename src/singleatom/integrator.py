"""Shared time-evolution helpers.

Linear, time-independent generators (the four-level Bloch model) are
solved exactly from one eigendecomposition m = V Lambda V^-1.
An observable c of the evolved state is a sum of at most dim(m) modes,
c . exp(m tau) y0 = sum_k a_k exp(lambda_k tau) with
a_k = (c . v_k)(V^-1 y0)_k (``linear_modes``; for g2 this is the quantum
regression theorem), evaluated at each delay tau >= 0 on its own
(``sum_modes``; ``_checked_delays`` is the delay rule of the library's g2
functions).  This is the library's four-level kernel
(``bloch.four_level_g2``), and it sums the two-level modes of
``bloch.two_level_obe_g2``.  The CLI's Bloch kernels take the same formulas
and guards on the standard library (``obe``: the two-level modes in closed
form, the four-level ones from the QR and inverse iteration of ``dense``)
and sum the modes on the CLI's uniform delay grid; the refusal they share
lives in ``guards``.  The whole state is the case c = I
(``FourLevelLiouvillian.propagate``, on the real 16-vector of a four-level
density matrix).
Linear, time-dependent generators affine in constant matrices (the STIRAP
pulses, A(t) = sum_i f_i(t) B_i) take one commutator-based fourth-order
Magnus step per grid interval (``magnus4``): the commutators [B_i, B_j] are
built once, the steps are exponentiated as a stack (``_expm``) and
multiplied by a work-efficient tree scan (``_prefix_states``), all in the
dtype of the B_i and the state, so a real generator and state propagate in
float64.  A general nonlinear ODE runs through scipy's adaptive embedded
Runge-Kutta 4(5) integrator at rtol 1e-9, atol 1e-12 (``integrate``); no
module of the package calls it any more.
"""

from __future__ import annotations

import math

import numpy as np

from .guards import _DEFECTIVE, _MIN_OVERLAP, IntegrationError

RTOL = 1e-9
ATOL = 1e-12

# delays per block of sum_modes; bounds its temporaries to a few hundred kB
# whatever the grid length
_CHUNK = 1024
# steps per block of magnus4: the measured optimum of the lossy 4000-sample
# STIRAP call of a lib-sweep point on its real 3x3 steps (blocks of
# 256/512/1024/2048/4096 steps: 8.1/6.4/6.2/6.4/6.6 ms, medians of 30 calls
# on one core of a 2-vCPU VM); a block's temporaries are a few (1024, 3, 3)
# stacks of 74 kB
_MAGNUS_BLOCK = 1024
_EPS = np.finfo(float).eps / 2.0  # unit roundoff
_SQRT3 = math.sqrt(3.0)


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


def integrate(f, y0, t_grid) -> np.ndarray:
    """Integrate dy/dt = f(t, y) by RK45 at ``RTOL`` and ``ATOL`` and sample
    the solution on ``t_grid``.

    Returns an array of shape (len(t_grid), len(y0)).  ``t_grid`` must be
    nondecreasing and start at the initial time.  The package no longer
    calls it (the mean-number loading ODE was its last caller); the
    benchmark's tracer still names it as a span.
    """
    from scipy.integrate import solve_ivp

    t_grid = _checked_grid(t_grid)
    y0 = np.asarray(y0)
    if len(t_grid) == 1:
        return y0[None, :].copy()
    sol = solve_ivp(
        f, (t_grid[0], t_grid[-1]), y0, method="RK45",
        t_eval=t_grid, rtol=RTOL, atol=ATOL,
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
        raise IntegrationError(_DEFECTIVE, 0.0) from exc
    overlap = 1.0 / (np.linalg.norm(vinv, axis=1) * np.linalg.norm(v, axis=0))
    return lam, v, vinv, overlap


def linear_modes(m, y0, c):
    """The modes of c . y(tau) for dy/dt = m y, y(0) = y0, m constant and real.

    c . exp(m tau) y0 = sum_k a_k exp(lambda_k tau), from one
    eigendecomposition m = V Lambda V^-1 (``numpy.linalg.eig`` and ``inv``;
    no scipy): a_k = (c . v_k)(V^-1 y0)_k.  ``c`` is one row (a has shape
    (n,)) or a matrix of rows, one per observable (a has shape (n, rows)).
    Returns (lambda, a, s) with s the smallest overlap |w_k^H v_k| of the
    unit left and right eigenvectors.  Raises ``IntegrationError`` when
    ``m`` is too close to defective (an exceptional point) for 1e-6
    accuracy: when s is below ``_MIN_OVERLAP`` or not a number.

    An eigenvalue within eps * n * ||m||_F of 0 is rounding noise on a
    stationary mode (+2.4e-7 /s for the README's four-level drive) and is
    set to exactly 0, so that mode does not grow at long delays.
    """
    lam, v, vinv, overlap = _eigen_expansion(m)
    lam[np.abs(lam) <= np.finfo(float).eps * len(lam) * np.linalg.norm(m)] = 0.0
    smallest = float(overlap.min())
    if not smallest >= _MIN_OVERLAP:  # also refuses a NaN
        raise IntegrationError(_DEFECTIVE, smallest)
    weights = vinv @ np.asarray(y0, dtype=float)
    return lam, (weights * (np.asarray(c, dtype=float) @ v)).T, smallest


def sum_modes(lam, amp, delays, at_zero) -> np.ndarray:
    """sum_k a_k exp(lambda_k tau) at each delay tau >= 0, for the modes
    (lambda, a) of a real generator (``linear_modes``).

    The modes of a real matrix come in conjugate pairs with conjugate
    amplitudes, so each pair is summed as twice the real part of its member
    with Im lambda > 0, exp(sigma tau) (2 Re a cos(omega tau)
    - 2 Im a sin(omega tau)); a real mode adds Re a exp(lambda tau).  cos
    and sin come from the tangent of the half angle, t = tan(omega tau / 2):
    cos = (1 - t^2) / (1 + t^2), sin = 2 t / (1 + t^2), one vectorized
    ``numpy.tan`` in place of numpy's scalar float64 cos and sin (a few
    times faster, with absolute errors of a few 1e-16).  The terms are added
    one mode at a time in a fixed order, in blocks of ``_CHUNK`` delays, so
    a delay's value does not depend on the others.

    Delays come in any order; rows at tau = 0 hold ``at_zero`` (the
    observable of the initial state) exactly, and no delays give shape
    (0,) + a.shape[1:].  Raises ``ValueError`` for a negative or
    non-finite delay.
    """
    tau = _checked_delays(delays)
    amp = np.asarray(amp)
    real, upper = lam.imag == 0, lam.imag > 0
    rates = np.concatenate((lam.real[real], lam.real[upper]))
    half_freqs = lam.imag[upper] / 2.0
    coef = np.concatenate((amp[real].real, 2.0 * amp[upper].real, -2.0 * amp[upper].imag))
    n_real = len(rates) - len(half_freqs)
    out = np.empty(tau.shape + amp.shape[1:])
    for start in range(0, len(tau), _CHUNK):
        block = tau[start:start + _CHUNK]
        decay = np.exp(np.multiply.outer(block, rates))
        t = np.tan(np.multiply.outer(block, half_freqs))
        scale = decay[:, n_real:] / (1.0 + t * t)
        kernel = np.concatenate((decay[:, :n_real], scale * (1.0 - t * t),
                                 scale * (2.0 * t)), axis=1)
        acc = np.multiply.outer(kernel[:, 0], coef[0])
        for column, weight in zip(kernel.T[1:], coef[1:]):
            acc += np.multiply.outer(column, weight)
        out[start:start + _CHUNK] = acc
    out[tau == 0.0] = at_zero
    return out


def _expm(x) -> np.ndarray:
    """exp of every matrix in a real or complex stack of shape (n, k, k),
    computed in the stack's dtype.

    Taylor polynomial with scaling and squaring: the stack is scaled by 2^-s
    so that its largest 1-norm nu is at most 1, and the degree m is the
    smallest with nu^(m+1)/(m+1)! below the unit roundoff.  Horner's rule on
    the coefficients 1/j! runs in two preallocated buffers: one matmul per
    degree, each coefficient added on the diagonal only.  ``x`` is not
    modified.
    """
    x = np.asarray(x)
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


def _prefix_states(steps: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """The states before each step: row k is steps[k-1] ... steps[0] y0.

    A work-efficient scan (Blelloch 1990): the up-sweep multiplies
    neighbouring pairs level by level, and the down-sweep hands each pair's
    start state to its left half and, through one batched mat-vec with the
    left half's product, to its right half.  About one matmul per step.
    The states take the dtype of the steps and ``y0`` together.
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
        down = np.empty((len(q), len(y0)), dtype=np.result_type(q, states))
        down[0::2] = states
        down[1::2] = np.einsum("nij,nj->ni", q[0:2 * pairs:2], states[:pairs])
        states = down
    return states


def magnus4(basis, coefficients, y0, t_grid) -> np.ndarray:
    """Solve dy/dt = A(t) y with one fourth-order Magnus step per interval.

    The generator is affine in constant matrices, A(t) = sum_i f_i(t) B_i,
    with ``basis`` the stack (m, d, d) of the B_i and ``coefficients(t)``
    mapping a 1-D array of times to the real weights f_i(t), shape
    (len(t), m).  On each interval of length h the two Gauss-Legendre nodes
    t_mid -/+ h sqrt(3)/6 give A1 and A2, and the step is
    exp(h/2 (A1 + A2) + sqrt(3)/12 h^2 [A2, A1]).  The B_i and every
    [B_i, B_j] are stacked once, so each exponent is one row of weights
    times that constant stack:
    [A2, A1] = sum_{i<j} (f_i(t2) f_j(t1) - f_j(t2) f_i(t1)) [B_i, B_j].
    The steps of a block of ``_MAGNUS_BLOCK`` intervals are multiplied by
    a work-efficient tree scan, and the state is carried from block to
    block.  Everything is computed in the dtype of ``basis`` and ``y0``
    together: real for a real basis and state, complex if either is.
    Returns the array of shape (len(t_grid), d); ``t_grid`` must be
    nondecreasing and start at the initial time, and the first row holds
    ``y0``.  The accuracy is set by the grid: the caller chooses h small
    against 1/||A||.
    """
    t_grid = _checked_grid(t_grid)
    y0 = np.asarray(y0)
    basis = np.asarray(basis)
    d = len(y0)
    first, second = np.triu_indices(len(basis), 1)
    constant = np.concatenate((
        basis, basis[first] @ basis[second] - basis[second] @ basis[first],
    )).reshape(-1, d * d)
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
    out = np.empty((len(t_grid), d), dtype=np.result_type(constant, y0))
    out[0] = y0
    for start in range(0, len(h), _MAGNUS_BLOCK):
        block = weights[start:start + _MAGNUS_BLOCK]
        steps = _expm((block @ constant).reshape(len(block), d, d))
        before = _prefix_states(steps, out[start])
        out[start + 1:start + 1 + len(block)] = np.einsum("nij,nj->ni", steps, before)
    return out
