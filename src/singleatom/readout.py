"""Closed-form readout and correlation laws, on the standard library alone.

The STIRAP dark-state readout sin^2(alpha - chi/2), the Larmor survival
cos^2(w_L t) of the Zeeman qubit, the atom-photon correlation fringes
(1 + V cos(2 beta - offset))/2, the visibility-to-fidelity estimate, the
pair-rate estimate, the damped-Rabi g2(tau) of a driven two-level atom and
the CHSH correlations of the noisy singlet.  Each is a few lines of ``math``;
none needs numpy, so the CLI scenarios that evaluate them (stirap, larmor,
bell, correlations, pair-rate and g2 with the two-level-analytic model)
import this module and nothing numpy-backed.  ``entanglement`` holds the
density-matrix algebra that the singlet law is checked against.
"""

import math

from .constants import HBAR, MU_B

__all__ = [
    "stirap_readout_probability",
    "larmor_frequency",
    "larmor_survival",
    "visibility_to_fidelity",
    "correlation_curve",
    "cos_sin_degrees",
    "singlet_chsh",
    "pair_rate_estimate",
    "two_level_g2",
]


def stirap_readout_probability(prep_phase: float, alpha_pol: float) -> float:
    """Probability that the prepared Zeeman superposition stays dark.

    The prepared state (|m=-1> - e^{i chi} |m=+1>)/sqrt(2) is compared with
    the dark state of a pump field polarized at angle alpha, giving
    sin^2(alpha - chi/2).
    """
    return math.sin(alpha_pol - prep_phase / 2.0) ** 2


def larmor_frequency(b_z: float, g_f: float = -0.5) -> float:
    """Larmor angular frequency |mu_B g_F B_z| / hbar (rad/s)."""
    return abs(MU_B * g_f * b_z) / HBAR


def larmor_survival(b_z: float, g_f: float, t: float) -> float:
    """Overlap probability with the initial superposition, cos^2(w_L t)."""
    return math.cos(larmor_frequency(b_z, g_f) * t) ** 2


def visibility_to_fidelity(v_x: float, v_q: float) -> float:
    """Entanglement fidelity (3*V+1)/4 from the mean of two complementary
    correlation visibilities."""
    v_mean = 0.5 * (v_x + v_q)
    return (3.0 * v_mean + 1.0) / 4.0


def correlation_curve(basis: str, beta_grid, visibility: float = 1.0) -> list[float]:
    """Conditional atom-survival probability versus photon waveplate angle.

    P = (1 + V cos(2*beta - offset))/2 with offset 0 in the x basis and
    pi/2 in the y basis, so the two curves are shifted by beta = pi/4.
    """
    if basis not in ("x", "y"):
        raise ValueError("basis must be 'x' or 'y'")
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    offset = 0.0 if basis == "x" else math.pi / 2.0
    return [0.5 * (1.0 + visibility * math.cos(2.0 * float(b) - offset)) for b in beta_grid]


def cos_sin_degrees(degrees: float) -> tuple[float, float]:
    """(cos, sin) of a finite angle in degrees, with exact reduction.

    ``math.fmod`` takes the angle modulo 360 and ``math.remainder`` splits
    it into a multiple of 90 degrees and a rest in [-45, 45], both exactly;
    cos and sin of the rest are rotated by the quadrant.  So a multiple of
    90 degrees gives exact 0 and +-1, where ``math.cos(math.radians(90))``
    gives 6.1e-17.
    """
    turn = math.fmod(degrees, 360.0)
    rest = math.remainder(turn, 90.0)
    c, s = math.cos(math.radians(rest)), math.sin(math.radians(rest))
    return ((c, s), (-s, c), (-c, -s), (s, -c))[round((turn - rest) / 90.0) % 4]


def singlet_chsh(p: float, a: tuple[float, float], a2: tuple[float, float],
                 b: tuple[float, float], b2: tuple[float, float]) -> list[float]:
    """E(a,b), E(a,b'), E(a',b), E(a',b') and S of p|psi-><psi-| + (1-p)I/4.

    Each analyzer is equatorial, given as the (cos phi, sin phi) of its
    angle phi.  The white noise has no correlation and the singlet gives
    -cos(phi_A - phi_B), so E = -p (cos a cos b + sin a sin b), a zero
    printed as 0, not -0, and S = |E(a,b) - E(a,b')| + |E(a',b) + E(a',b')|
    (Clauser, Horne, Shimony & Holt, PRL 23, 880 (1969)); the local bound is
    S <= 2 and the default CLI angles give 2 sqrt(2) p.
    """
    e = [-p * (x[0] * y[0] + x[1] * y[1]) + 0.0 for x in (a, a2) for y in (b, b2)]
    return [*e, abs(e[0] - e[1]) + abs(e[2] + e[3])]


def _square(x: float) -> float:
    """x**2 through the C library's pow, as numpy squares a float64 scalar
    (not always x*x); an overflow gives inf, as in numpy, instead of raising."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _as_numpy(f, x: float) -> float:
    """f(x) for a ``math`` function, with numpy's value where ``math`` raises:
    nan for cos and sin at +-inf, inf where cosh or sinh of x >= 0 overflows."""
    try:
        return f(x)
    except ValueError:
        return math.nan
    except OverflowError:
        return math.inf


def two_level_g2(omega0_rabi: float, delta: float, gamma: float, tau_grid) -> list[float]:
    """g2(tau) = 1 - exp(-3*G*tau/4) [cos(Or*tau) + (3G/4Or) sin(Or*tau)].

    Or^2 = Omega0^2 + Delta^2 - (G/4)^2.  For Or^2 < 0 the analytically
    continued (overdamped) form with hyperbolic functions is used, and the
    Or = 0 limit is handled explicitly.  g2(0) = 0 for any parameters.
    ``tau_grid`` is a sequence of finite, nonnegative delays.  Each value is
    numpy's float64 arithmetic in numpy's order, and an overflow gives inf
    or nan, as in numpy, instead of raising.
    """
    g = gamma
    or_sq = _square(float(omega0_rabi)) + _square(float(delta)) - _square(g / 4.0)
    if or_sq > 0:
        omega_r = math.sqrt(or_sq)
        ratio = 3 * g / (4 * omega_r)
        osc = [_as_numpy(math.cos, omega_r * t) + ratio * _as_numpy(math.sin, omega_r * t)
               for t in tau_grid]
    elif or_sq < 0:
        kappa = math.sqrt(-or_sq)
        ratio = 3 * g / (4 * kappa)
        osc = [_as_numpy(math.cosh, kappa * t) + ratio * _as_numpy(math.sinh, kappa * t)
               for t in tau_grid]
    else:
        osc = [1.0 + 3 * g * t / 4.0 for t in tau_grid]
    return [1.0 - math.exp(-3.0 * g * t / 4.0) * o for t, o in zip(tau_grid, osc)]


def pair_rate_estimate(eta: float, t_fiber: float, cycle_s: float,
                       duty_factor: float = 1.0) -> float:
    """Entangled atom-atom pairs per minute from two heralded sources.

    Success probability per attempt is eta^2 * T^2 / 4 (one of four photon
    Bell states detected); ``duty_factor`` lumps all duty-cycle losses into
    one multiplier.
    """
    if eta < 0 or t_fiber < 0 or not 0.0 <= duty_factor <= 1.0:
        raise ValueError("eta, t_fiber must be nonnegative and duty_factor in [0, 1]")
    if cycle_s <= 0:
        raise ValueError("cycle time must be positive")
    per_cycle = 0.25 * eta**2 * t_fiber**2
    return per_cycle * duty_factor * 60.0 / cycle_s
