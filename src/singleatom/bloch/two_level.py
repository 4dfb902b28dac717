"""Second-order correlation function of a driven two-level atom.

After a photon detection the atom is projected to the ground state, so
g2(tau) equals the re-excitation probability rho_ee(tau) normalized by its
steady-state value (quantum regression).  The closed-form damped-Rabi
expression (``readout.two_level_g2``, on the standard library) and the exact
solution of the optical Bloch equations (one drive, one decay e -> g: the
modes of ``obe``, summed by ``integrator.sum_modes``) are given here as
arrays, at delays in any order; they agree to rounding on resonance.
"""

import numpy as np

from ..integrator import _checked_delays, sum_modes
from ..obe import _two_level_modes
from ..readout import two_level_g2

__all__ = [
    "two_level_g2_analytic",
    "two_level_obe_g2",
]


def two_level_g2_analytic(omega0_rabi: float, delta: float, gamma: float,
                          tau_grid) -> np.ndarray:
    """The damped-Rabi closed form ``readout.two_level_g2`` as an array, for
    finite, nonnegative delays (``ValueError`` otherwise)."""
    tau = _checked_delays(tau_grid)
    return np.array(two_level_g2(omega0_rabi, delta, gamma, tau.tolist()))


def two_level_obe_g2(omega0_rabi: float, delta: float, gamma: float,
                     tau_grid) -> np.ndarray:
    """g2(tau) of the two-level Bloch equations at finite, nonnegative delays
    in any order (``ValueError`` otherwise): the modes and the
    exceptional-point rule of ``obe._two_level_modes``, summed by
    ``integrator.sum_modes`` (the CLI sums the same modes on its uniform
    grid, ``obe.two_level_obe_g2``); rows at tau = 0 are exactly 0."""
    tau = _checked_delays(tau_grid)
    steady, modes, _ = _two_level_modes(omega0_rabi, delta, gamma)
    if modes is None:
        return np.array(two_level_g2(float(omega0_rabi), float(delta), float(gamma),
                                     tau.tolist()))
    lam, amp = zip(*(m for group in modes for m in group))
    return sum_modes(np.array(lam, dtype=complex), np.array(amp, dtype=complex), tau,
                     0.0) / steady
