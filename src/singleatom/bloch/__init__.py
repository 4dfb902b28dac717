"""Density-matrix dynamics and photon-correlation functions.

Submodules: :mod:`state` (real layout, Lindblad generator), :mod:`two_level`
(analytic and numeric two-level g2), :mod:`four_level` (hyperfine
four-level model with cooling and repump fields), :mod:`diffusion`
(motional correlation envelope).
"""

from .state import DensityMatrix
from .two_level import (
    two_level_g2_analytic,
    two_level_obe_g2,
    two_level_steady_excited,
)
from .four_level import (
    FourLevelParams,
    FourLevelLiouvillian,
    four_level_g2,
    apply_trap_shifts,
)
from .diffusion import (
    DiffusionEnvelope,
    g2_total_envelope,
    g2_full_model,
)

__all__ = [
    "DensityMatrix",
    "two_level_g2_analytic",
    "two_level_obe_g2",
    "two_level_steady_excited",
    "FourLevelParams",
    "FourLevelLiouvillian",
    "four_level_g2",
    "apply_trap_shifts",
    "DiffusionEnvelope",
    "g2_total_envelope",
    "g2_full_model",
]
