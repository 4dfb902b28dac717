"""Second-order correlation function of a driven two-level atom.

After a photon detection the atom is projected to the ground state, so
g2(tau) equals the re-excitation probability rho_ee(tau) normalized by its
steady-state value (quantum regression).  The closed-form damped-Rabi
expression (evaluated on the standard library by ``readout.two_level_g2``)
and the exact evolution of the optical Bloch equations (one drive, one decay
e -> g) are both provided; they agree to rounding on resonance.
"""

from __future__ import annotations

import numpy as np

from ..integrator import IntegrationError, _checked_delays, propagate_linear
from ..readout import two_level_g2
from .state import lindblad_generator

__all__ = [
    "two_level_g2_analytic",
    "two_level_obe_g2",
    "two_level_steady_excited",
]


def two_level_g2_analytic(omega0_rabi: float, delta: float, gamma: float,
                          tau_grid) -> np.ndarray:
    """The damped-Rabi closed form ``readout.two_level_g2`` as an array, for
    finite, nonnegative delays (``ValueError`` otherwise)."""
    tau = _checked_delays(tau_grid)
    return np.array(two_level_g2(omega0_rabi, delta, gamma, tau.tolist()))


def two_level_steady_excited(omega0_rabi: float, delta: float, gamma: float) -> float:
    """Steady-state excited population (Omega^2/4)/(Delta^2 + Omega^2/2 + Gamma^2/4)."""
    return (omega0_rabi**2 / 4.0) / (delta**2 + omega0_rabi**2 / 2.0 + gamma**2 / 4.0)


def two_level_obe_g2(omega0_rabi: float, delta: float, gamma: float,
                     tau_grid, report: dict | None = None) -> np.ndarray:
    """g2(tau) from the exact solution of the two-level Bloch equations.

    Starts from the post-detection state (all population in the ground
    level, no coherence) and divides by the steady-state excited population.
    On resonance the closed form is exact, so where the generator is too
    close to its exceptional point (Omega0 = Gamma/4) for the
    eigen-propagator, the closed form is returned; off resonance the
    ``IntegrationError`` is raised.  A ``report`` dict receives the path
    taken under "method": "eigen-propagator" or "closed-form".
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
        method, g2 = "closed-form", two_level_g2_analytic(omega0_rabi, delta, gamma, tau_grid)
    else:
        method, g2 = "eigen-propagator", traj[:, 1] / steady
    if report is not None:
        report["method"] = method
    return g2
