"""Hyperfine four-level model of a laser-cooled atom's fluorescence.

Levels (bare basis order): ``a`` = 5P3/2 F'=2, ``b`` = 5S1/2 F=1,
``c`` = 5S1/2 F=2, ``d`` = 5P3/2 F'=3.  A cooling field couples c-a and
c-d, a repump field couples b-a.  In the frame rotating with both laser
frequencies the model is a Hamiltonian plus the decays a -> b, a -> c and
d -> c, a time-independent Lindblad generator M, so steady states come from
a null-space solve.  By the quantum regression theorem g2(tau) is one linear
functional of the state evolved from the post-emission ground-state
mixture y0: the excited population c . exp(M tau) y0, c = e_a + e_d, over
its steady-state value.  It is evaluated as a sum of the generator's modes
(``integrator.linear_modes`` and ``sum_modes``), without building the
state at each delay; ``FourLevelLiouvillian.propagate`` evolves the whole
state.  Every state here is the real 16-vector of ``state.to_real_vector``,
whose first four entries are the populations of a, b, c and d.

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
    rabi_frequency,
)
from ..integrator import linear_modes, sum_modes
from .state import lindblad_generator

if TYPE_CHECKING:  # the line-table layers load only with a trap field
    from ..lightshift import LaserField, LineTable

__all__ = [
    "FourLevelParams",
    "FourLevelLiouvillian",
    "four_level_g2",
    "apply_trap_shifts",
]

_IDX_A, _IDX_B, _IDX_C, _IDX_D = 0, 1, 2, 3

# (shift field, line-table level, 2F) of each basis level
_TRAP_SHIFT_LEVELS = (("a", "5P3/2", 4), ("b", "5S1/2", 2), ("c", "5S1/2", 4), ("d", "5P3/2", 6))


@dataclass(frozen=True)
class FourLevelParams:
    """Drive parameters and AC-Stark offsets of the four-level model.

    Intensities in W/m^2; detunings in rad/s relative to the unperturbed
    transitions (cooling laser vs F=2 -> F'=3, repump vs F=1 -> F'=2).  The
    per-level ``shift_*`` entries are AC-Stark offsets in rad/s.  Decay and
    level structure are Rb-87's: both excited levels decay at the D2 rate
    ``RB87_GAMMA_D2``, F'=2 half to F=1 and half to F=2, and the F'=2 -
    F'=3 splitting is ``RB87_5P32_F2_F3_SPLITTING``.
    """

    i_cl: float
    i_rl: float
    delta_cl: float
    delta_rl: float = 0.0
    shift_a: float = 0.0
    shift_b: float = 0.0
    shift_c: float = 0.0
    shift_d: float = 0.0

    def __post_init__(self):
        if self.i_cl < 0 or self.i_rl < 0:
            raise ValueError("intensities must be nonnegative")

    @property
    def rabi_frequencies(self) -> tuple[float, float, float]:
        """(repump b-a, cooling c-a, cooling c-d) on-resonance Rabi rates."""
        return (
            rabi_frequency(self.i_rl, RB87_ISAT_F1_F2),
            rabi_frequency(self.i_cl, RB87_ISAT_F2_F2),
            rabi_frequency(self.i_cl, RB87_ISAT_F2_F3),
        )

    @property
    def gamma_ab(self) -> float:
        return 0.5 * RB87_GAMMA_D2

    @property
    def gamma_ac(self) -> float:
        return 0.5 * RB87_GAMMA_D2

    @property
    def gamma_dc(self) -> float:
        return RB87_GAMMA_D2


def _hamiltonian(params: FourLevelParams) -> np.ndarray:
    om1, om2, om3 = params.rabi_frequencies
    split = RB87_5P32_F2_F3_SPLITTING
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
    propagation by a grid of delays, both in that real layout.
    """

    def __init__(self, params: FourLevelParams):
        self.params = params
        self.matrix_real = lindblad_generator(_hamiltonian(params), [
            (params.gamma_ab, _IDX_B, _IDX_A),
            (params.gamma_ac, _IDX_C, _IDX_A),
            (params.gamma_dc, _IDX_C, _IDX_D),
        ])

    def steady_state(self) -> np.ndarray:
        """The trace-one null vector of the generator, a real 16-vector.

        The null space is spanned by the right singular vectors whose
        singular values are at most eps * 16 * s_max (the rank rule of
        scipy's ``null_space``); it must be one-dimensional, and the
        vector is the last row of ``numpy.linalg.svd``'s V^H.  Where that
        tolerance reaches the smallest decay rate, the drive or a detuning
        is so far above the linewidth that float64 cannot resolve the
        decays, and the state is refused with that reason.  So is a state
        whose excited population is not above n eps s_max / s_(n-1), the
        rounding error of the null vector: g2 would divide noise by noise.
        """
        m = self.matrix_real
        _, s, vh = np.linalg.svd(m)
        tol = s[0] * np.finfo(float).eps * max(m.shape)
        slowest = min(self.params.gamma_ab, self.params.gamma_ac, self.params.gamma_dc)
        if not tol < slowest:
            raise ValueError(
                "drive or detuning exceeds the linewidth by more than float64 can resolve: "
                f"generator norm {s[0]:.3g} /s against decay rate {slowest:.3g} /s")
        dim = m.shape[1] - np.count_nonzero(s > tol)
        if dim != 1:
            raise ValueError(f"steady state not unique: null space dimension {dim}")
        vec = vh[-1]
        trace = vec[:4].sum()
        if abs(trace) < 1e-12:
            raise ValueError("null vector has zero trace; generator is degenerate")
        vec = vec / trace
        excited = vec[_IDX_A] + vec[_IDX_D]
        noise = len(s) * np.finfo(float).eps * s[0] / s[-2]
        if not excited > noise:
            raise ValueError(
                f"no steady-state excitation: excited population {excited:.3g} is not above "
                f"the null vector's rounding error {noise:.3g}")
        return vec

    def propagate(self, y0: np.ndarray, delays) -> np.ndarray:
        """Evolve the real 16-vector ``y0`` by each delay; returns
        (len(delays), 16).

        Exact: the modes of every component of ``matrix_real``
        (``linear_modes`` with c = I), summed at each delay (``sum_modes``).
        The delays tau >= 0 may come in any order, and rows at tau = 0 hold
        ``y0``.
        """
        lam, amp, _ = linear_modes(self.matrix_real, y0, np.eye(len(y0)))
        return sum_modes(lam, amp, delays, y0)


def post_emission_state(params: FourLevelParams, steady: np.ndarray) -> np.ndarray:
    """Ground-state mixture right after a photon emission, a real 16-vector
    holding the populations of b and c (all coherences zero), from a steady
    state with excitation (``steady_state`` checks it)."""
    p_aa, p_dd = steady[_IDX_A], steady[_IDX_D]
    denom = (params.gamma_ab + params.gamma_ac) * p_aa + params.gamma_dc * p_dd
    y0 = np.zeros(len(steady))
    y0[_IDX_B] = params.gamma_ab * p_aa / denom
    y0[_IDX_C] = (params.gamma_ac * p_aa + params.gamma_dc * p_dd) / denom
    return y0


def four_level_g2(params: FourLevelParams, tau_grid,
                  report: dict | None = None) -> np.ndarray:
    """g2(tau) of the total fluorescence: excited population re-growth
    after an emission, normalized to its steady-state value.

    A ``report`` dict receives "method" ("eigen-propagator"), "min_overlap"
    (the smallest eigenvector overlap of the generator, which the
    exceptional-point guard compares with 1.5e-5) and "steady_residual"
    (the 2-norm of M y_ss, in 1/s, for the trace-one steady state y_ss).
    """
    liouv = FourLevelLiouvillian(params)
    steady = liouv.steady_state()
    y0 = post_emission_state(params, steady)
    excited = np.zeros(len(y0))
    excited[[_IDX_A, _IDX_D]] = 1.0
    lam, amp, overlap = linear_modes(liouv.matrix_real, y0, excited)
    g2 = sum_modes(lam, amp, tau_grid, excited @ y0) / (steady[_IDX_A] + steady[_IDX_D])
    if report is not None:
        residual = liouv.matrix_real @ steady
        report.update(method="eigen-propagator", min_overlap=overlap,
                      steady_residual=float(np.linalg.norm(residual)))
    return g2


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
