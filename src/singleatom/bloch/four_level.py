"""Hyperfine four-level model of a laser-cooled atom's fluorescence, on numpy.

Levels (bare basis order): ``a`` = 5P3/2 F'=2, ``b`` = 5S1/2 F=1,
``c`` = 5S1/2 F=2, ``d`` = 5P3/2 F'=3.  A cooling field couples c-a and
c-d, a repump field couples b-a.  In the frame rotating with both laser
frequencies the model is a Hamiltonian plus the decays a -> b, a -> c and
d -> c, a time-independent Lindblad generator M, so the steady state is
its null vector, from a linear solve bordered by the trace.  By the quantum
regression theorem g2(tau) is one linear functional of the state evolved
from the post-emission ground-state mixture y0: the excited population
c . exp(M tau) y0, c = e_a + e_d, over its steady-state value.  It is evaluated as a sum of the generator's modes
(``integrator.linear_modes`` and ``sum_modes``), without building the
state at each delay; ``FourLevelLiouvillian.propagate`` evolves the whole
state.  Every state here is a real 16-vector in the layout of ``obe``,
whose first four entries are the populations of a, b, c and d.

The level structure (Hamiltonian, decays, trap shifts), the generator
(``obe._lindblad``), the steady-state rule and the post-emission state live
in ``obe``, whose standard-library kernel runs the same model for the CLI
with its own LU and a Francis QR.  This module is the library's kernel:
numpy's ``inv`` and ``eig`` take about a millisecond per call, where the
standard library takes tens, so a study that calls it in a loop runs here.
Each kernel is the other's test reference.

The upper limit g2 = 2 of a two-level atom does not bind here: for cooling
detunings of several linewidths the Rabi oscillations overshoot it.
"""

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..integrator import linear_modes, sum_modes
from ..obe import (_A, _D, _FOUR_LEVEL_DECAYS, _four_level_hamiltonian, _four_level_rabi,
                   _lindblad, _post_emission, _steady_vector, trap_shifts)

if TYPE_CHECKING:  # the line-table layers load only with a trap field
    from ..lightshift import LaserField, LineTable

__all__ = [
    "FourLevelParams",
    "FourLevelLiouvillian",
    "four_level_g2",
    "apply_trap_shifts",
]


@dataclass(frozen=True)
class FourLevelParams:
    """Drive parameters and AC-Stark offsets of the four-level model.

    Intensities in W/m^2; detunings in rad/s relative to the unperturbed
    transitions (cooling laser vs F=2 -> F'=3, repump vs F=1 -> F'=2).  The
    per-level ``shift_*`` entries are AC-Stark offsets in rad/s.  Decay and
    level structure are Rb-87's, from ``obe``: both excited levels decay at
    the D2 rate ``RB87_GAMMA_D2``, F'=2 half to F=1 and half to F=2, and the
    F'=2 - F'=3 splitting is ``RB87_5P32_F2_F3_SPLITTING``.
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
        return _four_level_rabi(self.i_cl, self.i_rl)

    @property
    def gamma_ab(self) -> float:
        return _FOUR_LEVEL_DECAYS[0][0]

    @property
    def gamma_ac(self) -> float:
        return _FOUR_LEVEL_DECAYS[1][0]

    @property
    def gamma_dc(self) -> float:
        return _FOUR_LEVEL_DECAYS[2][0]


class FourLevelLiouvillian:
    """Time-independent generator of the rotating-frame master equation.

    ``matrix_real`` acts on the 16 real degrees of freedom of a Hermitian
    4x4 density matrix, in the layout of ``obe`` (``obe._lindblad`` builds
    it).  Provides the steady state (a bordered linear solve, with trace
    one) and propagation by a grid of delays, both in that layout.
    """

    def __init__(self, params: FourLevelParams):
        h = _four_level_hamiltonian(
            params.rabi_frequencies, params.delta_cl, params.delta_rl,
            (params.shift_a, params.shift_b, params.shift_c, params.shift_d))
        self._rows = _lindblad(h, _FOUR_LEVEL_DECAYS)
        self.matrix_real = np.array(self._rows)

    def steady_state(self) -> np.ndarray:
        """The trace-one null vector of the generator, a real 16-vector: the
        refined bordered solve and refusals of ``obe._steady_vector`` (decays
        resolved, a unique state, excitation above its rounding error), with
        the bordered matrix inverted by ``numpy.linalg.inv``.
        """
        return np.array(_steady_vector(self._rows, _FOUR_LEVEL_DECAYS, _inverse_columns))

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


def _inverse_columns(b: list[list[float]]) -> list[list[float]] | None:
    """The columns of b^-1 from LAPACK's LU, or None where it finds b singular."""
    try:
        return np.linalg.inv(b).T.tolist()
    except np.linalg.LinAlgError:
        return None


def post_emission_state(steady: np.ndarray) -> np.ndarray:
    """Ground-state mixture right after a photon emission, a real 16-vector
    holding the populations of b and c (all coherences zero), from a steady
    state with excitation (``steady_state`` checks it)."""
    return np.array(_post_emission(steady, _FOUR_LEVEL_DECAYS))


def four_level_g2(params: FourLevelParams, tau_grid) -> np.ndarray:
    """g2(tau) of the total fluorescence: excited population re-growth
    after an emission, normalized to its steady-state value, from numpy's
    ``inv`` and eigendecomposition (``integrator.linear_modes``).  The CLI runs
    the same model on the standard library (``obe.four_level_g2``), which
    also reports its diagnostics.
    """
    liouv = FourLevelLiouvillian(params)
    steady = liouv.steady_state()
    y0 = post_emission_state(steady)
    excited = np.zeros(len(y0))
    excited[[_A, _D]] = 1.0
    lam, amp, _ = linear_modes(liouv.matrix_real, y0, excited)
    return sum_modes(lam, amp, tau_grid, excited @ y0) / (steady[_A] + steady[_D])


def apply_trap_shifts(params: FourLevelParams, trap_field: "LaserField",
                      kinetic_reduction: float = 0.0,
                      lines: "LineTable | None" = None) -> FourLevelParams:
    """Fold the dipole-trap AC-Stark shifts of all four levels into the model:
    ``obe.trap_shifts`` in the trap field at the kinetic temperature
    ``kinetic_reduction`` (K), with the trap depth of the field."""
    from ..lightshift import ground_shift_alkali, load_default_lines

    if trap_field.intensity == 0:
        return params
    lines = lines or load_default_lines()
    shift_a, shift_b, shift_c, shift_d = trap_shifts(
        trap_field, lines, ground_shift_alkali(trap_field, 0.5, lines), kinetic_reduction)
    return FourLevelParams(i_cl=params.i_cl, i_rl=params.i_rl, delta_cl=params.delta_cl,
                           delta_rl=params.delta_rl, shift_a=shift_a, shift_b=shift_b,
                           shift_c=shift_c, shift_d=shift_d)
