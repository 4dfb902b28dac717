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
pulses, A(t) = sum_i f_i(t) B_i) take one commutator-based sixth-order
Magnus step per grid interval (``magnus6``): the generator at three
Gauss-Legendre nodes of every step gives its exponent by batched
commutators (``_magnus_exponents``), the steps are exponentiated as a stack
(``_expm``, a Paterson-Stockmeyer Taylor polynomial) and multiplied by a
work-efficient tree scan (``_prefix_states``), all in the dtype of the B_i
and the state, so a real generator and state propagate in float64.  A
general nonlinear ODE runs through scipy's adaptive embedded Runge-Kutta
4(5) integrator at rtol 1e-9, atol 1e-12 (``integrate``); no module of the
package calls it any more.
"""

import math

import numpy as np

from .guards import _DEFECTIVE, _MIN_OVERLAP, IntegrationError

RTOL = 1e-9
ATOL = 1e-12

# delays times observable rows per block of sum_modes (1024 delays of a
# scalar observable, 64 of the 16 rows of FourLevelLiouvillian.propagate);
# bounds its array of terms to modes x _CHUNK floats, 128 kB for the 16
# modes of the four-level model, whatever the grid length
_CHUNK = 1024
# steps per block of magnus6: the lossy STIRAP call of a lib-sweep point,
# 483-521 real 3x3 steps on the grid aligned with the pulse edges, is one
# block (blocks of 128/256/512/1024/2048 steps: 1.21/1.02/0.91/0.89/0.89 ms
# per call, medians of 40 interleaved rounds over the 24 points of the
# seed 1 and 2 decks on one core of a 2-vCPU VM; 512 splits the calls of
# more than 512 steps in two); a block's temporaries are a few (1024, 3, 3)
# stacks of 74 kB
_MAGNUS_BLOCK = 1024
_EPS = np.finfo(float).eps / 2.0  # unit roundoff
_SQRT15 = math.sqrt(15.0)


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
    times faster, with absolute errors of a few 1e-16).  The terms of a
    block of delays form one array with the modes as its leading axis, and
    summing over that axis adds them one mode at a time in a fixed order
    (numpy adds the rows of a C-contiguous array in turn, with no pairwise
    summation), so a delay's value does not depend on the others or on the
    block.

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
    # terms[k, i, ...] = kernel[k, i] coef[k, ...]: modes first, so that
    # summing over axis 0 adds whole rows in mode order
    weights = coef.reshape((len(coef), 1) + amp.shape[1:])
    spread = (Ellipsis,) + (None,) * (amp.ndim - 1)
    size = max(1, _CHUNK // max(1, math.prod(amp.shape[1:])))
    out = np.empty(tau.shape + amp.shape[1:])
    for start in range(0, len(tau), size):
        block = tau[start:start + size]
        decay = np.exp(np.multiply.outer(rates, block))
        t = np.tan(np.multiply.outer(half_freqs, block))
        scale = decay[n_real:] / (1.0 + t * t)
        kernel = np.concatenate((decay[:n_real], scale * (1.0 - t * t), scale * (2.0 * t)))
        out[start:start + size] = (kernel[spread] * weights).sum(axis=0)
    out[tau == 0.0] = at_zero
    return out


def _expm(x) -> np.ndarray:
    """exp of every matrix in a real or complex stack of shape (n, k, k),
    computed in the stack's dtype.

    Taylor polynomial with scaling and squaring: the stack is scaled by 2^-s
    so that its largest 1-norm nu is at most 1, and the degree m is the
    smallest with nu^(m+1)/(m+1)! below the unit roundoff.  The polynomial
    sum_j x^j / j! is evaluated by Paterson and Stockmeyer (SIAM J. Comput.
    2, 60 (1973)): with s = isqrt(m), the powers x^2 .. x^s are formed once,
    and Horner's rule in x^s runs over blocks of s coefficients, each block
    a sum of scaled powers with its constant added on the diagonal only.
    That is s - 1 + (m - 1) // s matmuls in place of m - 1 (4 in place of 8
    at m = 9).  ``x`` is not modified.
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
    s = math.isqrt(degree)
    # powers[i] = x^(i+1), in C order: the diagonal is written through a
    # flat view
    powers = [np.ascontiguousarray(x)]
    for _ in range(s - 1):
        powers.append(np.matmul(powers[-1], x))
    scaled = np.empty_like(powers[0])

    def add_block(out, c):
        """out += c[0] I + c[1] x + ... + c[len(c)-1] x^(len(c)-1)."""
        for c_i, power in zip(c[1:], powers):
            out += np.multiply(power, c_i, out=scaled)
        out.reshape(-1, k * k)[:, ::k + 1] += c[0]

    # the top block holds the coefficients from top * s up to the degree,
    # s + 1 of them when the degree is a multiple of s, so that no Horner
    # step multiplies a scalar block
    top = (degree - 1) // s
    c = coeff[top * s:]
    out = np.multiply(powers[len(c) - 2], c[-1], order="C")
    add_block(out, c[:-1])
    spare = np.empty_like(out)
    for j in range(top - 1, -1, -1):
        out, spare = np.matmul(out, powers[s - 1], out=spare), out
        add_block(out, coeff[j * s:(j + 1) * s])
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


def _commutator(x, y) -> np.ndarray:
    """[x, y] = x y - y x of every pair of matrices in two stacks."""
    return np.matmul(x, y) - np.matmul(y, x)


def _magnus_exponents(basis, coefficients, t_grid) -> np.ndarray:
    """The exponents of the sixth-order Magnus steps between consecutive
    times of ``t_grid`` (a 1-D array), shape (len(t_grid) - 1, d, d).

    On a step of length h the three Gauss-Legendre nodes t_mid - h sqrt(15)/10,
    t_mid and t_mid + h sqrt(15)/10 give A1, A2 and A3, and with
    alpha1 = h A2, alpha2 = sqrt(15) h / 3 (A3 - A1),
    alpha3 = 10 h / 3 (A3 - 2 A2 + A1), C1 = [alpha1, alpha2] and
    C2 = -1/60 [alpha1, 2 alpha3 + C1] the exponent is
    alpha1 + alpha3 / 12 + 1/240 [-20 alpha1 - alpha3 + C1, alpha2 + C2]
    (Blanes, Casas and Ros, BIT 40, 434 (2000)).  The alphas are rows of
    weights times the stack of the B_i; the commutators are batched
    matmuls (C1 as weights times a constant stack of the [B_i, B_j] took
    333 in place of 265 us for 500 steps of the STIRAP generator).
    """
    basis = np.asarray(basis)
    m, d = basis.shape[0], basis.shape[-1]
    t0, t1 = t_grid[:-1], t_grid[1:]
    h = t1 - t0
    mid = (t0 + t1) / 2.0
    offset = h * (_SQRT15 / 10.0)
    # the three Gauss-Legendre nodes of every step in one call
    f1, f2, f3 = np.split(coefficients(np.concatenate((mid - offset, mid, mid + offset))), 3)
    h = h[:, None]
    weights = np.stack((h * f2, (_SQRT15 / 3.0) * h * (f3 - f1),
                        (10.0 / 3.0) * h * (f3 - 2.0 * f2 + f1)))
    a1, a2, a3 = (weights @ basis.reshape(m, d * d)).reshape(3, len(h), d, d)
    c1 = _commutator(a1, a2)
    c2 = _commutator(a1, 2.0 * a3 + c1) / -60.0
    return a1 + a3 / 12.0 + _commutator(c1 - 20.0 * a1 - a3, a2 + c2) / 240.0


def magnus6(basis, coefficients, y0, t_grid) -> np.ndarray:
    """Solve dy/dt = A(t) y with one sixth-order Magnus step per interval.

    The generator is affine in constant matrices, A(t) = sum_i f_i(t) B_i,
    with ``basis`` the stack (m, d, d) of the B_i and ``coefficients(t)``
    mapping a 1-D array of times to the real weights f_i(t), shape
    (len(t), m).  Each interval takes the step exp(Omega) of
    ``_magnus_exponents``.  The steps of a block of ``_MAGNUS_BLOCK``
    intervals are multiplied by a work-efficient tree scan, and the state is
    carried from block to block.  Everything is computed in the dtype of
    ``basis`` and ``y0`` together: real for a real basis and state, complex
    if either is.  Returns the array of shape (len(t_grid), d); ``t_grid``
    must be nondecreasing and start at the initial time, and the first row
    holds ``y0``.  The accuracy is set by the grid: the caller chooses h
    small against 1/||A||.
    """
    t_grid = _checked_grid(t_grid)
    y0 = np.asarray(y0)
    exponents = _magnus_exponents(basis, coefficients, t_grid)
    out = np.empty((len(t_grid), len(y0)), dtype=np.result_type(exponents, y0))
    out[0] = y0
    for start in range(0, len(exponents), _MAGNUS_BLOCK):
        steps = _expm(exponents[start:start + _MAGNUS_BLOCK])
        before = _prefix_states(steps, out[start])
        out[start + 1:start + 1 + len(steps)] = np.einsum("nij,nj->ni", steps, before)
    return out
