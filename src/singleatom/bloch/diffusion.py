"""Motional contribution to the intensity correlation function.

An atom diffusing through the standing-wave intensity pattern of the
cooling beams multiplies the internal-state g2 (``four_level.four_level_g2``)
by a slowly decaying envelope 1 + A*exp(-tau/tau0); the CLI's ``full``
model is that product.  For free 1-D diffusion in a cos^2(kz) pattern the
amplitude is A = 1/2 and tau0 = 1/(4 k^2 D).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiffusionEnvelope",
    "g2_total_envelope",
]


@dataclass(frozen=True)
class DiffusionEnvelope:
    """Exponential correlation envelope 1 + amplitude * exp(-tau/tau0)."""

    amplitude: float
    tau0: float

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("amplitude must be nonnegative")
        if self.tau0 <= 0:
            raise ValueError("tau0 must be positive")


def g2_total_envelope(env: DiffusionEnvelope, tau_grid) -> np.ndarray:
    """Envelope values 1 + A*exp(-tau/tau0) on the grid."""
    tau = np.asarray(tau_grid, dtype=float)
    return 1.0 + env.amplitude * np.exp(-tau / env.tau0)
