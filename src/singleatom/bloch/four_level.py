"""Hyperfine four-level model of a laser-cooled atom's fluorescence.

Levels (bare basis order): ``a`` = 5P3/2 F'=2, ``b`` = 5S1/2 F=1,
``c`` = 5S1/2 F=2, ``d`` = 5P3/2 F'=3.  A cooling field couples c-a and
c-d, a repump field couples b-a.  In the frame rotating with both laser
frequencies the model is a Hamiltonian plus the decays a -> b, a -> c and
d -> c, a time-independent Lindblad generator, so steady states come from
a null-space solve and g2(tau) from one exact linear time evolution
(eigen-expansion of the generator) started in the post-emission
ground-state mixture.

The upper limit g2 = 2 of a two-level atom does not bind here: for cooling
detunings of several linewidths the Rabi oscillations overshoot it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from ..constants import (
    HBAR,
    KB,
    RB87_5P32_F2_F3_SPLITTING,
    RB87_GAMMA_D2,
    RB87_ISAT_F1_F2,
    RB87_ISAT_F2_F2,
    RB87_ISAT_F2_F3,
)
from ..integrator import propagate_linear
from .state import DensityMatrix, from_real_vector, lindblad_generator, to_real_vector

if TYPE_CHECKING:  # the line-table layers load only with a trap field
    from ..lightshift import LaserField, LineTable

__all__ = [
    "BASIS_LABELS",
    "FourLevelParams",
    "FourLevelLiouvillian",
    "four_level_g2",
    "apply_trap_shifts",
]

BASIS_LABELS = ("a:F'=2", "b:F=1", "c:F=2", "d:F'=3")

_IDX_A, _IDX_B, _IDX_C, _IDX_D = 0, 1, 2, 3

# (shift field, line-table level, 2F) of each basis level
_TRAP_SHIFT_LEVELS = (("a", "5P3/2", 4), ("b", "5S1/2", 2), ("c", "5S1/2", 4), ("d", "5P3/2", 6))


@dataclass(frozen=True)
class FourLevelParams:
    """Drive and relaxation parameters of the four-level model.

    Intensities in W/m^2; detunings in rad/s relative to the unperturbed
    transitions (cooling laser vs F=2 -> F'=3, repump vs F=1 -> F'=2).
    ``branching_ab`` is the fraction of the F'=2 decay rate going to F=1;
    the per-level ``shift_*`` entries are AC-Stark offsets in rad/s.
    """

    i_cl: float
    i_rl: float
    delta_cl: float
    delta_rl: float = 0.0
    gamma: float = RB87_GAMMA_D2
    branching_ab: float = 0.5
    excited_splitting: float = RB87_5P32_F2_F3_SPLITTING
    shift_a: float = 0.0
    shift_b: float = 0.0
    shift_c: float = 0.0
    shift_d: float = 0.0

    def __post_init__(self):
        if self.i_cl < 0 or self.i_rl < 0:
            raise ValueError("intensities must be nonnegative")
        if not 0.0 <= self.branching_ab <= 1.0:
            raise ValueError("branching fraction must lie in [0, 1]")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    @property
    def rabi_frequencies(self) -> tuple[float, float, float]:
        """(repump b-a, cooling c-a, cooling c-d) on-resonance Rabi rates."""
        g = self.gamma
        return (
            g * np.sqrt(self.i_rl / (2 * RB87_ISAT_F1_F2)),
            g * np.sqrt(self.i_cl / (2 * RB87_ISAT_F2_F2)),
            g * np.sqrt(self.i_cl / (2 * RB87_ISAT_F2_F3)),
        )

    @property
    def gamma_ab(self) -> float:
        return self.branching_ab * self.gamma

    @property
    def gamma_ac(self) -> float:
        return (1.0 - self.branching_ab) * self.gamma

    @property
    def gamma_dc(self) -> float:
        return self.gamma


def _hamiltonian(params: FourLevelParams) -> np.ndarray:
    om1, om2, om3 = params.rabi_frequencies
    split = params.excited_splitting
    h = np.zeros((4, 4), dtype=complex)
    h[_IDX_A, _IDX_A] = params.shift_a
    h[_IDX_B, _IDX_B] = params.delta_rl + params.shift_b
    h[_IDX_C, _IDX_C] = params.delta_cl + split + params.shift_c
    h[_IDX_D, _IDX_D] = split + params.shift_d
    h[_IDX_A, _IDX_B] = h[_IDX_B, _IDX_A] = -om1 / 2.0
    h[_IDX_A, _IDX_C] = h[_IDX_C, _IDX_A] = -om2 / 2.0
    h[_IDX_C, _IDX_D] = h[_IDX_D, _IDX_C] = -om3 / 2.0
    return h


class FourLevelLiouvillian:
    """Time-independent generator of the rotating-frame master equation.

    ``matrix_real`` acts on the 16 real degrees of freedom of a Hermitian
    4x4 density matrix (``state.to_real_vector``).  Provides the steady
    state (null vector from an SVD, with trace normalization) and
    propagation by a grid of delays.
    """

    def __init__(self, params: FourLevelParams):
        self.params = params
        self.matrix_real = lindblad_generator(_hamiltonian(params), [
            (params.gamma_ab, _IDX_B, _IDX_A),
            (params.gamma_ac, _IDX_C, _IDX_A),
            (params.gamma_dc, _IDX_C, _IDX_D),
        ])

    def steady_state(self) -> DensityMatrix:
        """The trace-one null vector of the generator.

        The null space is spanned by the right singular vectors whose
        singular values are at most eps * 16 * s_max (the rank rule of
        scipy's ``null_space``); it must be one-dimensional, and the
        vector is the last row of ``numpy.linalg.svd``'s V^H.
        """
        m = self.matrix_real
        _, s, vh = np.linalg.svd(m)
        dim = m.shape[1] - np.count_nonzero(s > s[0] * np.finfo(float).eps * max(m.shape))
        if dim != 1:
            raise ValueError(f"steady state not unique: null space dimension {dim}")
        vec = vh[-1]
        trace = vec[:4].sum()
        if abs(trace) < 1e-12:
            raise ValueError("null vector has zero trace; generator is degenerate")
        rho = from_real_vector(vec / trace)
        return DensityMatrix(entries=rho, basis_labels=BASIS_LABELS)

    def propagate(self, rho0: np.ndarray, delays) -> np.ndarray:
        """Evolve ``rho0`` by each delay; returns (len(delays), 4, 4) complex.

        Exact (eigen-expansion of ``matrix_real``); the delays tau >= 0 may
        come in any order, and rows at tau = 0 hold ``rho0``.
        """
        y0 = to_real_vector(rho0)
        return from_real_vector(propagate_linear(self.matrix_real, y0, delays))


def post_emission_state(params: FourLevelParams, steady: DensityMatrix) -> np.ndarray:
    """Ground-state mixture right after a photon emission (all coherences zero)."""
    p_aa = steady.population(BASIS_LABELS[_IDX_A])
    p_dd = steady.population(BASIS_LABELS[_IDX_D])
    denom = (params.gamma_ab + params.gamma_ac) * p_aa + params.gamma_dc * p_dd
    if denom <= 0:
        raise ValueError("no steady-state excitation: g2 undefined")
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[_IDX_B, _IDX_B] = params.gamma_ab * p_aa / denom
    rho0[_IDX_C, _IDX_C] = (params.gamma_ac * p_aa + params.gamma_dc * p_dd) / denom
    return rho0


def four_level_g2(params: FourLevelParams, tau_grid) -> np.ndarray:
    """g2(tau) of the total fluorescence: excited population re-growth
    after an emission, normalized to its steady-state value."""
    liouv = FourLevelLiouvillian(params)
    steady = liouv.steady_state()
    traj = liouv.propagate(post_emission_state(params, steady), tau_grid)
    excited_ss = (
        steady.population(BASIS_LABELS[_IDX_A]) + steady.population(BASIS_LABELS[_IDX_D])
    )
    return (traj[:, _IDX_A, _IDX_A].real + traj[:, _IDX_D, _IDX_D].real) / excited_ss


def apply_trap_shifts(params: FourLevelParams, trap_field: LaserField,
                      kinetic_reduction: float = 0.0,
                      lines: LineTable | None = None) -> FourLevelParams:
    """Fold the dipole-trap AC-Stark shifts of all four levels into the model.

    The Zeeman-averaged shifts of F=1, F=2 (5S1/2) and F'=2, F'=3 (5P3/2)
    are computed for the trap field and scaled by
    (1 - kB*T_kin/U) to account for the thermal motion of the atom sampling
    regions of lower intensity; ``kinetic_reduction`` is that temperature.
    """
    from ..lightshift import ground_shift_alkali, load_default_lines, mean_level_shift

    if trap_field.intensity == 0:
        return params
    lines = lines or load_default_lines()
    depth = abs(ground_shift_alkali(trap_field, 0.5, lines))
    scale = max(1.0 - KB * kinetic_reduction / depth, 0.0) / HBAR
    return replace(params, **{
        f"shift_{key}": mean_level_shift(label, trap_field, lines, two_f=two_f) * scale
        for key, label, two_f in _TRAP_SHIFT_LEVELS
    })
