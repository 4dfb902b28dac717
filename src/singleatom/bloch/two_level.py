"""Second-order correlation function of a driven two-level atom.

After a photon detection the atom is projected to the ground state, so
g2(tau) equals the re-excitation probability rho_ee(tau) normalized by its
steady-state value (quantum regression).  The closed-form damped-Rabi
expression (``readout.two_level_g2``) and the exact solution of the optical
Bloch equations (one drive, one decay e -> g; ``obe.two_level_obe_g2``) are
both evaluated on the standard library and given here as arrays; they agree
to rounding on resonance.
"""

from __future__ import annotations

import numpy as np

from ..integrator import _checked_delays
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
    """g2(tau) of the two-level Bloch equations, ``obe.two_level_obe_g2``,
    as an array."""
    # imported here: the four-level runs load this module with the package
    # and do not compile the kernel
    from ..obe import two_level_obe_g2 as kernel

    return np.array(kernel(omega0_rabi, delta, gamma, tau_grid))
