"""Hyperfine four-level model of a laser-cooled atom's fluorescence.

Levels (bare basis order): ``a`` = 5P3/2 F'=2, ``b`` = 5S1/2 F=1,
``c`` = 5S1/2 F=2, ``d`` = 5P3/2 F'=3.  A cooling field couples c-a and
c-d, a repump field couples b-a.  In the frame rotating with both laser
frequencies the generator of the master equation is time independent, so
steady states come from a null-space solve and g2(tau) from one exact
linear time evolution (eigen-expansion of the generator) started in the
post-emission ground-state mixture.

The upper limit g2 = 2 of a two-level atom does not bind here: for cooling
detunings of several linewidths the Rabi oscillations overshoot it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..constants import (
    KB,
    RB87_5P32_F2_F3_SPLITTING,
    RB87_GAMMA_D2,
    RB87_ISAT_F1_F2,
    RB87_ISAT_F2_F2,
    RB87_ISAT_F2_F3,
)
from ..integrator import propagate_linear
from ..lightshift import HyperfineLevel, LaserField, LineTable, ground_shift_alkali, hyperfine_shift, load_default_lines
from .state import DensityMatrix

__all__ = [
    "BASIS_LABELS",
    "FourLevelParams",
    "FourLevelLiouvillian",
    "four_level_g2",
    "apply_trap_shifts",
]

BASIS_LABELS = ("a:F'=2", "b:F=1", "c:F=2", "d:F'=3")

_IDX_A, _IDX_B, _IDX_C, _IDX_D = 0, 1, 2, 3


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


def _relaxation(params: FourLevelParams, rho: np.ndarray) -> np.ndarray:
    g_ab, g_ac, g_dc = params.gamma_ab, params.gamma_ac, params.gamma_dc
    gam_a = g_ab + g_ac
    # phase relaxation of each coherence: half the summed population loss
    deph = np.array([gam_a, 0.0, 0.0, g_dc]) / 2.0
    out = np.zeros_like(rho)
    out[_IDX_A, _IDX_A] = -gam_a * rho[_IDX_A, _IDX_A]
    out[_IDX_B, _IDX_B] = g_ab * rho[_IDX_A, _IDX_A]
    out[_IDX_C, _IDX_C] = g_ac * rho[_IDX_A, _IDX_A] + g_dc * rho[_IDX_D, _IDX_D]
    out[_IDX_D, _IDX_D] = -g_dc * rho[_IDX_D, _IDX_D]
    for i in range(4):
        for k in range(4):
            if i != k:
                out[i, k] += -(deph[i] + deph[k]) * rho[i, k]
    return out


def _apply_generator(params: FourLevelParams, h: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return -1j * (h @ rho - rho @ h) + _relaxation(params, rho)


# real 16-vector layout: 4 populations, then (Re, Im) of the 6 upper coherences
_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_ROWS, _COLS = np.array(_PAIRS).T


def _to_real_vector(rho: np.ndarray) -> np.ndarray:
    vec = np.empty(16)
    vec[:4] = np.real(np.diag(rho))
    for n, (i, k) in enumerate(_PAIRS):
        vec[4 + 2 * n] = rho[i, k].real
        vec[5 + 2 * n] = rho[i, k].imag
    return vec


def _from_real_vector(vec: np.ndarray) -> np.ndarray:
    """Hermitian 4x4 matrices from real 16-vectors; ``vec`` is (..., 16)."""
    vec = np.asarray(vec)
    rho = np.zeros(vec.shape[:-1] + (4, 4), dtype=complex)
    diag = np.arange(4)
    # filled through the real and imaginary views: no complex temporaries
    rho.real[..., diag, diag] = vec[..., :4]
    rho.real[..., _ROWS, _COLS] = rho.real[..., _COLS, _ROWS] = vec[..., 4::2]
    rho.imag[..., _ROWS, _COLS] = vec[..., 5::2]
    rho.imag[..., _COLS, _ROWS] = -vec[..., 5::2]
    return rho


class FourLevelLiouvillian:
    """Time-independent generator of the rotating-frame master equation.

    Acts on the 16 real degrees of freedom of a Hermitian 4x4 density
    matrix.  Provides the steady state (null vector from an SVD, with trace
    normalization) and trajectory propagation on a time grid.
    """

    def __init__(self, params: FourLevelParams):
        if abs(params.gamma_ab + params.gamma_ac - params.gamma) > 1e-9 * params.gamma:
            raise ValueError("branching rates must sum to the total decay rate")
        self.params = params
        self._h = _hamiltonian(params)
        basis = np.eye(16)
        cols = []
        for k in range(16):
            rho_k = _from_real_vector(basis[k])
            cols.append(_to_real_vector(_apply_generator(params, self._h, rho_k)))
        self.matrix_real = np.array(cols).T

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Generator applied to a Hermitian matrix (returns drho/dt)."""
        return _apply_generator(self.params, self._h, np.asarray(rho, dtype=complex))

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
        rho = _from_real_vector(vec / trace)
        return DensityMatrix(entries=rho, basis_labels=BASIS_LABELS)

    def propagate(self, rho0: np.ndarray, t_grid) -> np.ndarray:
        """Evolve an initial density matrix; returns (len(t), 4, 4) complex.

        The evolution is exact (eigen-expansion of ``matrix_real``);
        ``t_grid`` starts at the time of ``rho0``.
        """
        y0 = _to_real_vector(np.asarray(rho0, dtype=complex))
        return _from_real_vector(propagate_linear(self.matrix_real, y0, t_grid))


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


def four_level_g2(params: FourLevelParams, tau_grid,
                  return_trajectory: bool = False):
    """g2(tau) of the total fluorescence: excited population re-growth
    after an emission, normalized to its steady-state value."""
    tau = np.asarray(tau_grid, dtype=float)
    if np.any(tau < 0):
        raise ValueError("delays must be nonnegative")
    liouv = FourLevelLiouvillian(params)
    steady = liouv.steady_state()
    excited_ss = (
        steady.population(BASIS_LABELS[_IDX_A]) + steady.population(BASIS_LABELS[_IDX_D])
    )
    if excited_ss <= 0:
        raise ValueError("no steady-state excitation: g2 undefined")
    rho0 = post_emission_state(params, steady)
    # the post-emission initial condition lives at tau = 0
    prepend = len(tau) == 0 or tau[0] != 0.0
    grid = np.concatenate([[0.0], tau]) if prepend else tau
    traj = liouv.propagate(rho0, grid)
    if prepend:
        traj = traj[1:]
    excited = traj[:, _IDX_A, _IDX_A].real + traj[:, _IDX_D, _IDX_D].real
    g2 = excited / excited_ss
    if return_trajectory:
        return g2, traj
    return g2


def _mean_f_shift(label: str, two_j: int, two_f: int, field: LaserField,
                  lines: LineTable) -> float:
    """Zeeman-averaged light shift (rad/s) of one hyperfine F level."""
    shifts = [
        hyperfine_shift(
            HyperfineLevel(n_label=label, two_j=two_j, two_f=two_f, two_m_f=tm),
            field, lines,
        )
        for tm in range(-two_f, two_f + 1, 2)
    ]
    return float(np.mean(shifts))


def apply_trap_shifts(params: FourLevelParams, trap_field: LaserField,
                      kinetic_reduction: float = 0.0,
                      lines: LineTable | None = None) -> FourLevelParams:
    """Fold the dipole-trap AC-Stark shifts of all four levels into the model.

    The shifts of F=1, F=2 (5S1/2) and of the Zeeman-averaged F'=2, F'=3
    (5P3/2) levels are computed for the trap field and scaled by
    (1 - kB*T_kin/U) to account for the thermal motion of the atom sampling
    regions of lower intensity; ``kinetic_reduction`` is that temperature.
    """
    if trap_field.intensity == 0:
        return params
    lines = lines or load_default_lines()
    depth = abs(ground_shift_alkali(trap_field, 0.5, lines))
    scale = 1.0 - KB * kinetic_reduction / depth
    scale = max(scale, 0.0)
    shift_b = _mean_f_shift("5S1/2", 1, 2, trap_field, lines) * scale
    shift_c = _mean_f_shift("5S1/2", 1, 4, trap_field, lines) * scale
    shift_a = _mean_f_shift("5P3/2", 3, 4, trap_field, lines) * scale
    shift_d = _mean_f_shift("5P3/2", 3, 6, trap_field, lines) * scale
    return replace(params, shift_a=shift_a, shift_b=shift_b,
                   shift_c=shift_c, shift_d=shift_d)
