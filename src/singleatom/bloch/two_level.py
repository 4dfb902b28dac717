"""Second-order correlation function of a driven two-level atom.

After a photon detection the atom is projected to the ground state, so
g2(tau) equals the re-excitation probability rho_ee(tau) normalized by its
steady-state value (quantum regression).  The closed-form damped-Rabi
expression and the exact evolution of the optical Bloch equations (one drive,
one decay e -> g) are both provided; they agree to rounding on resonance.
"""

from __future__ import annotations

import numpy as np

from ..integrator import IntegrationError, _checked_delays, propagate_linear
from .state import lindblad_generator

__all__ = [
    "two_level_g2_analytic",
    "two_level_obe_g2",
    "two_level_steady_excited",
]


def two_level_g2_analytic(omega0_rabi: float, delta: float, gamma: float,
                          tau_grid) -> np.ndarray:
    """g2(tau) = 1 - exp(-3*G*tau/4) [cos(Or*tau) + (3G/4Or) sin(Or*tau)].

    Or^2 = Omega0^2 + Delta^2 - (G/4)^2.  For Or^2 < 0 the analytically
    continued (overdamped) form with hyperbolic functions is used, and the
    Or = 0 limit is handled explicitly.  g2(0) = 0 for any parameters.
    """
    tau = _checked_delays(tau_grid)
    g = gamma
    or_sq = omega0_rabi**2 + delta**2 - (g / 4.0) ** 2
    envelope = np.exp(-3.0 * g * tau / 4.0)
    if or_sq > 0:
        omega_r = np.sqrt(or_sq)
        osc = np.cos(omega_r * tau) + (3 * g / (4 * omega_r)) * np.sin(omega_r * tau)
    elif or_sq < 0:
        kappa = np.sqrt(-or_sq)
        osc = np.cosh(kappa * tau) + (3 * g / (4 * kappa)) * np.sinh(kappa * tau)
    else:
        osc = 1.0 + 3 * g * tau / 4.0
    return 1.0 - envelope * osc


def two_level_steady_excited(omega0_rabi: float, delta: float, gamma: float) -> float:
    """Steady-state excited population (Omega^2/4)/(Delta^2 + Omega^2/2 + Gamma^2/4)."""
    return (omega0_rabi**2 / 4.0) / (delta**2 + omega0_rabi**2 / 2.0 + gamma**2 / 4.0)


def two_level_obe_g2(omega0_rabi: float, delta: float, gamma: float,
                     tau_grid) -> np.ndarray:
    """g2(tau) from the exact solution of the two-level Bloch equations.

    Starts from the post-detection state (all population in the ground
    level, no coherence) and divides by the steady-state excited population.
    On resonance the closed form is exact, so where the generator is too
    close to its exceptional point (Omega0 = Gamma/4) for the
    eigen-propagator, the closed form is returned; off resonance the
    ``IntegrationError`` is raised.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    steady = two_level_steady_excited(omega0_rabi, delta, gamma)
    if steady <= 0:
        raise ValueError("no steady-state excitation: drive is off")
    # basis (g, e): the state is (rho_gg, rho_ee, Re rho_ge, Im rho_ge)
    h = [[0.0, omega0_rabi / 2.0], [omega0_rabi / 2.0, -delta]]
    generator = lindblad_generator(h, [(gamma, 0, 1)])
    try:
        traj = propagate_linear(generator, [1.0, 0.0, 0.0, 0.0], tau_grid)
    except IntegrationError:
        if delta != 0:
            raise
        return two_level_g2_analytic(omega0_rabi, delta, gamma, tau_grid)
    return traj[:, 1] / steady
