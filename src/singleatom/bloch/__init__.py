"""Density-matrix dynamics and photon-correlation functions.

Submodules: :mod:`state` (density matrices from the real vectors of
``obe``, whose ``_lindblad`` builds every generator here), :mod:`two_level`
(the closed-form and Bloch-equation two-level g2 of ``readout`` and ``obe``
as arrays), :mod:`four_level` (hyperfine four-level model with cooling and
repump fields, on numpy's LAPACK; the CLI runs the same model on ``obe``),
:mod:`diffusion` (motional correlation envelope).
"""

from .two_level import two_level_g2_analytic, two_level_obe_g2
from .four_level import (
    FourLevelParams,
    FourLevelLiouvillian,
    four_level_g2,
    apply_trap_shifts,
)
from .diffusion import DiffusionEnvelope, g2_total_envelope

__all__ = [
    "two_level_g2_analytic",
    "two_level_obe_g2",
    "FourLevelParams",
    "FourLevelLiouvillian",
    "four_level_g2",
    "apply_trap_shifts",
    "DiffusionEnvelope",
    "g2_total_envelope",
]
