"""g2(tau) of the two-level optical Bloch equations, on the standard library alone.

One drive (Rabi frequency Omega0, detuning Delta) and one decay e -> g at
rate Gamma.  On ``bloch.state``'s real layout (rho_gg, rho_ee, Re rho_ge,
Im rho_ge) the generator is a real 4 x 4 matrix (``_generator``).  Its
eigenvalues are exactly 0 (the trace is conserved) and, with
mu = lambda + Gamma/2, the three roots of the Bloch cubic (H. C. Torrey,
Phys. Rev. 76, 1059 (1949))

    mu^3 + (Gamma/2) mu^2 + (Delta^2 + Omega0^2) mu + (Gamma/2) Delta^2 = 0.

It is >= 0 at mu = 0 and <= 0 at mu = -Gamma/2, so a safeguarded Newton
iteration finds a real root in between, and the deflated quadratic gives the
other two.  The right and left null vectors of G - lambda I, in closed form,
give the amplitudes and overlaps of ``integrator.linear_modes``, with its
guards, and g2 is the sum of the modes at each delay, in the order of
``integrator.sum_modes``.  The CLI's two-level-obe g2 runs here without
numpy; ``bloch.two_level_obe_g2`` is this kernel as an array.
"""

from __future__ import annotations

import math
import sys

from .guards import _BAD_DELAYS, _DEFECTIVE, _MIN_OVERLAP, IntegrationError
from .readout import _square, two_level_g2

__all__ = ["two_level_obe_g2", "two_level_steady_excited"]

_EPS = sys.float_info.epsilon
# a cap on the root search: Newton's method takes a handful of steps, and
# one bit per step at worst (near a double root); a float64 has fewer than
# 2100 binary exponents and digits
_MAX_STEPS = 2100


def two_level_steady_excited(omega0_rabi: float, delta: float, gamma: float) -> float:
    """Steady-state excited population (Omega^2/4)/(Delta^2 + Omega^2/2 + Gamma^2/4);
    a square that overflows is inf, as in numpy, so an overflowing drive gives nan."""
    omega_sq = _square(omega0_rabi)
    return (omega_sq / 4.0) / (_square(delta) + omega_sq / 2.0 + _square(gamma) / 4.0)


def _generator(omega0_rabi: float, delta: float, gamma: float) -> list[list[float]]:
    """``bloch.state.lindblad_generator(h, [(gamma, 0, 1)])`` for the drive
    h = [[0, Omega0/2], [Omega0/2, -Delta]] in the basis (g, e), entry for
    entry and bit for bit (zeros carry numpy's signs)."""
    half = omega0_rabi / 2.0
    rabi = half + half
    coherence = 0.0 - gamma / 2.0
    return [[0.0, gamma, 0.0, 0.0 - rabi],
            [0.0, 0.0 - gamma, 0.0, rabi + 0.0],
            [0.0, 0.0, coherence, delta + 0.0],
            [half + 0.0, 0.0 - half, 0.0 - delta, coherence]]


def _cubic_roots(a2: float, a1: float, a0: float) -> list:
    """The roots of mu^3 + a2 mu^2 + a1 mu + a0 for a2, a1, a0 >= 0 with
    a0 <= a1 a2, so that a real root lies in [-a2, 0]: that root first,
    found by Newton's method kept inside a sign-change bracket (a bisection
    where a step leaves it), then the roots of the deflated quadratic, real
    or a complex pair, from the cancellation-free formula."""
    lo, hi, mu = -a2, 0.0, 0.0
    for _ in range(_MAX_STEPS):
        value = ((mu + a2) * mu + a1) * mu + a0
        if value == 0.0:
            break
        if value > 0.0:
            hi = mu
        else:
            lo = mu
        slope = (3.0 * mu + 2.0 * a2) * mu + a1
        step = mu - value / slope if slope > 0.0 else lo
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if step == mu or abs(step - mu) <= _EPS * abs(step):
            mu = step
            break
        mu = step
    root = mu
    # (mu - root)(mu^2 + b mu + c): b from the sum of the roots, c from their
    # product where the root is not 0
    b = a2 + root
    c = -a0 / root if root != 0.0 else a1
    half = b / 2.0
    disc = half * half - c
    if disc < 0.0:
        return [root, complex(-half, math.sqrt(-disc))]
    first = -(half + math.sqrt(disc))
    return [root, first, c / first if first != 0.0 else 0.0]


def _balanced(*products) -> list:
    """The products of the given factors (floats or complex numbers), all
    scaled by the power of 2 that brings the largest into [1/8, 1): a vector
    known up to scale, whose raw products of small factors could underflow."""
    parts = []
    for factors in products:
        value, exponent = 1.0, 0
        for f in factors:
            if f == 0:
                value = 0.0
                break
            mantissa, e = math.frexp(abs(f))
            value, exponent = value * (f / abs(f)) * mantissa, exponent + e
        parts.append((value, exponent))
    top = max((e for value, e in parts if value != 0), default=0)
    return [value * 2.0 ** (e - top) if value else value for value, e in parts]


def _modes(generator: list[list[float]]) -> tuple[list, list, float]:
    """The modes of rho_ee(tau) from rho_gg(0) = 1 under ``generator``:
    (real, pairs, s) with real the (lambda, a) of the real eigenvalues, pairs
    the (lambda, a) of the member with Im lambda > 0 of each conjugate pair,
    and s the smallest overlap |w_k v_k| / (|w_k| |v_k|) of the left and
    right eigenvectors.  The formulas and guards of
    ``integrator.linear_modes``: a_k = (c . v_k)(w_k . y0) / (w_k . v_k), an
    eigenvalue within eps * n * ||G||_F of 0 is 0, and an s below
    ``_MIN_OVERLAP`` (or NaN) raises ``IntegrationError``.

    With G's entries Gamma, p = Omega0/2, W = Omega0, D = Delta and
    h = -Gamma/2, mu = lambda - h and nu = lambda + Gamma, the null vectors
    of G - lambda I are, up to scale,
    v = (-W mu, W mu, D nu, mu nu) and w = (p mu nu, p mu (Gamma - lambda),
    -D lambda nu, lambda mu nu), and at lambda = 0, w = (1, 1, 0, 0) and
    v = (W p a + Gamma (D^2 + a^2), W p a, Gamma p D, Gamma p a) with
    a = Gamma/2.  Written so, a component of order Omega0^2 / Delta^2 (the
    excited population of a weak, far-detuned drive) keeps its relative
    accuracy, which an elimination on G - lambda I loses.  nu is
    -Omega0^2 mu / (mu^2 + D^2) where Gamma/2 + mu would cancel, and the
    products are scaled together (``_balanced``) so that a drive many
    decades above the linewidth does not underflow them all.

    The work is done on the generator scaled by a power of 2 that brings its
    largest entry into [1, 2) (exact, and no square overflows), and the
    eigenvalues are scaled back.
    """
    exponent = math.frexp(max(abs(x) for row in generator for x in row))[1] - 1
    g = [[math.ldexp(x, -exponent) for x in row] for row in generator]
    decay, half, rabi, delta, coherence = g[0][1], g[3][0], g[1][3], g[2][3], g[2][2]
    a2 = decay + coherence
    drive_sq, delta_sq = 2.0 * half * rabi, delta * delta
    modes = [(0.0, [rabi * half * a2 + decay * (delta_sq + a2 * a2), rabi * half * a2,
                    decay * half * delta, decay * half * a2], [1.0, 1.0, 0.0, 0.0])]
    for mu in _cubic_roots(a2, delta_sq + drive_sq, a2 * delta_sq):
        lam = mu + coherence
        if mu == 0.0 and delta == 0.0:  # Re rho_ge alone, decoupled on resonance
            modes.append((lam, [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0]))
            continue
        if isinstance(mu, complex) or mu >= -a2 / 2.0:
            nu = a2 + mu
        else:
            nu = -drive_sq * mu / (mu * mu + delta_sq)
        modes.append((lam, _balanced((-rabi, mu), (rabi, mu), (delta, nu), (mu, nu)),
                      _balanced((half, mu, nu), (half, mu, decay - lam), (-delta, lam, nu),
                                (lam, mu, nu))))
    overlaps = []
    for _, right, left in modes:
        norms = math.hypot(*map(abs, left)) * math.hypot(*map(abs, right))
        dot = sum(w * v for w, v in zip(left, right))
        overlaps.append(abs(dot) / norms if norms else math.nan)
    smallest = math.nan if any(map(math.isnan, overlaps)) else min(overlaps)
    if not smallest >= _MIN_OVERLAP:  # also refuses a NaN
        raise IntegrationError(_DEFECTIVE, smallest)
    pinned = _EPS * len(g) * math.hypot(*(x for row in g for x in row))
    scale = math.ldexp(1.0, exponent)
    real, pairs = [], []
    for lam, right, left in modes:
        amp = right[1] * left[0] / sum(w * v for w, v in zip(left, right))
        lam *= 0.0 if abs(lam) <= pinned else scale
        if isinstance(lam, complex):
            pairs.append((lam, amp))
        else:
            real.append((lam, amp.real if isinstance(amp, complex) else amp))
    return real, pairs, smallest


def _checked_delays(delays) -> list[float]:
    """The delays as floats, each finite and nonnegative (``ValueError``
    otherwise): the rule of ``integrator._checked_delays``."""
    try:
        tau = [float(t) for t in delays]
    except (TypeError, ValueError):
        raise ValueError(_BAD_DELAYS) from None
    if not all(math.isfinite(t) and t >= 0.0 for t in tau):
        raise ValueError(_BAD_DELAYS)
    return tau


def two_level_obe_g2(omega0_rabi: float, delta: float, gamma: float,
                     tau_grid, report: dict | None = None) -> list[float]:
    """g2(tau) from the exact solution of the two-level Bloch equations.

    Starts from the post-detection state (all population in the ground
    level, no coherence) and divides the excited population, a sum of the
    generator's four modes, by its steady-state value.  Delays come in any
    order, each finite and nonnegative; rows at tau = 0 are exactly 0.  On
    resonance the closed form is exact, so where the generator is too
    close to its exceptional point (Omega0 = Gamma/4) for the
    eigen-propagator, the closed form ``readout.two_level_g2`` is returned;
    off resonance the ``IntegrationError`` is raised.  A ``report`` dict
    receives the path taken under "method": "eigen-propagator" or
    "closed-form", and under "min_overlap" the generator's smallest
    eigenvector overlap, which the exceptional-point guard compares with
    1.5e-5.
    """
    omega0_rabi, delta, gamma = float(omega0_rabi), float(delta), float(gamma)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    steady = two_level_steady_excited(omega0_rabi, delta, gamma)
    if steady <= 0:
        raise ValueError("no steady-state excitation: drive is off")
    tau = _checked_delays(tau_grid)
    try:
        real, pairs, overlap = _modes(_generator(omega0_rabi, delta, gamma))
    except IntegrationError as exc:
        if delta != 0:
            raise
        method, overlap = "closed-form", exc.min_overlap
        g2 = two_level_g2(omega0_rabi, delta, gamma, tau)
    else:
        method, g2 = "eigen-propagator", _sum_modes(real, pairs, tau, steady)
    if report is not None:
        report.update(method=method, min_overlap=overlap)
    return g2


def _sum_modes(real: list, pairs: list, tau: list[float], steady: float) -> list[float]:
    """sum_k a_k exp(lambda_k tau) / steady at each delay, added as
    ``integrator.sum_modes`` adds them: the real modes in order, then each
    pair's cosine and then its sine term, a pair counted as twice the real
    part of its member with Im lambda > 0.  No excited population right after
    a detection: rows at tau = 0 are 0 / steady exactly."""
    exp, cos, sin = math.exp, math.cos, math.sin
    if not pairs:  # four real modes (overdamped)
        (l0, a0), (l1, a1), (l2, a2), (l3, a3) = real
        return [(((a0 * exp(l0 * t) + a1 * exp(l1 * t)) + a2 * exp(l2 * t))
                 + a3 * exp(l3 * t)) / steady if t else 0.0 / steady for t in tau]
    (l0, a0), (l1, a1) = real
    (lam, amp), = pairs
    rate, freq, ac, asin = lam.real, lam.imag, 2.0 * amp.real, -2.0 * amp.imag
    return [(((a0 * exp(l0 * t) + a1 * exp(l1 * t))
              + (decay := exp(rate * t)) * cos(freq * t) * ac)
             + decay * sin(freq * t) * asin) / steady if t else 0.0 / steady
            for t in tau]
