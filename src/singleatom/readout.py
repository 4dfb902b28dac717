"""Closed-form readout and correlation laws, on the standard library alone.

The STIRAP dark-state readout sin^2(alpha - chi/2), the Larmor survival
cos^2(w_L t) of the Zeeman qubit, the atom-photon correlation fringes
(1 + V cos(2 beta - offset))/2, the visibility-to-fidelity estimate and the
pair-rate estimate.  Each is one line of ``math``; none needs numpy, so the CLI
scenarios that evaluate them (stirap, larmor, correlations, pair-rate)
import this module and nothing numpy-backed.
"""

from __future__ import annotations

import math

from .constants import HBAR, MU_B

__all__ = [
    "stirap_readout_probability",
    "larmor_frequency",
    "larmor_survival",
    "visibility_to_fidelity",
    "correlation_curve",
    "pair_rate_estimate",
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
