"""STIRAP transfer in the three-level Lambda system (a excited; b, c ground).

Pure-state dynamics only.  Loss from the optically excited intermediate
level is modeled by a non-Hermitian -i*Gamma/2 term, so the norm leak of
the trajectory equals the accumulated scattering probability.  With
resonant pulses -iH(t) is a real matrix in the basis (i|a>, |b>, |c>)
(Vitanov et al., Rev. Mod. Phys. 89, 015006 (2017)), so a state that
starts real there stays a real three-vector.  STIRAP is propagated by the
fourth-order Magnus integrator (``integrator.magnus4``) on that real
affine generator -iH(t) = A0 + Omega_p(t) B_p + Omega_s(t) B_s, with A0
the loss and B_p, B_s the two resonant couplings, and the scattering is an
independent trapezoid quadrature of Gamma |c_a|^2 over the same
trajectory.  The closed-form STIRAP readout and Larmor survival laws,
which need no state vector, live in ``readout``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrator import magnus4

__all__ = [
    "Pulse",
    "PulseSchedule",
    "StirapResult",
    "ground_start",
    "stirap_evolve",
]

# Magnus-4 steps of stirap_evolve: h ||A|| <= _MAGNUS_STEP, and at least
# _STEPS_PER_PULSE steps per pulse duration.  Measured against DOP853 at
# rtol 1e-12 (peaks 5-140 /us, loss 0 or 3 /us): the transfer, peak |a>
# population and norm leak agree within 1e-10.
_MAGNUS_STEP = 0.1
_STEPS_PER_PULSE = 2000
# Magnus steps per magnus4 call: the substep trajectory held at once stays
# below 0.5 MB however many steps the pulses need
_STEPS_PER_CALL = 4096
# sample times of stirap_evolve over the schedule
_SAMPLES = 4000


@dataclass(frozen=True)
class Pulse:
    """One sin^2 pulse envelope."""

    peak: float
    t_start: float
    duration: float

    def __post_init__(self):
        if self.peak < 0 or self.duration <= 0:
            raise ValueError("peak must be nonnegative and duration positive")

    def envelope(self, t):
        """Rabi frequency at time(s) t, as an array shaped like t."""
        x = (np.asarray(t, dtype=float) - self.t_start) / self.duration
        inside = (x >= 0.0) & (x <= 1.0)
        return np.where(inside, self.peak * np.sin(np.pi * x) ** 2, 0.0)


@dataclass(frozen=True)
class PulseSchedule:
    """Pump (couples a-b) and Stokes (couples a-c) pulse pair."""

    pump: Pulse
    stokes: Pulse

    @classmethod
    def sin2_pair(cls, peak: float, duration: float, delay: float | None = None,
                  order: str = "counterintuitive") -> "PulseSchedule":
        """Two identical sin^2 pulses separated by ``delay``.

        The default delay is half the pulse width (FWHM), i.e. a quarter of
        the full duration, which keeps a long adiabatic overlap.
        Counter-intuitive order puts the Stokes pulse first; intuitive order
        puts the pump first."""
        if delay is None:
            delay = duration / 4.0
        if order == "counterintuitive":
            stokes_start, pump_start = 0.0, delay
        elif order == "intuitive":
            pump_start, stokes_start = 0.0, delay
        else:
            raise ValueError("order must be 'counterintuitive' or 'intuitive'")
        return cls(
            pump=Pulse(peak=peak, t_start=pump_start, duration=duration),
            stokes=Pulse(peak=peak, t_start=stokes_start, duration=duration),
        )

    @property
    def t_end(self) -> float:
        return max(self.pump.t_start + self.pump.duration,
                   self.stokes.t_start + self.stokes.duration)


@dataclass(frozen=True)
class StirapResult:
    """Statistics of one STIRAP trajectory; ``final_state`` holds the final
    amplitudes on (i|a>, |b>, |c>), so the bare |a> amplitude is i * final_state[0]."""

    final_state: np.ndarray
    efficiency: float              # population of |c> at the end
    max_intermediate: float        # max of the |a> population over the sample times
    norm_leak: float               # 1 - final norm^2
    scattered: float               # integral of Gamma |c_a|^2 dt, trapezoid rule over the steps
    magnus_steps: int              # Magnus-4 steps taken: (samples - 1) * steps per interval
    step_norm: float               # h ||A||_1 of those steps, the bound the step rule keeps


def ground_start() -> np.ndarray:
    """All population in |b>, the usual transfer starting point: the real
    amplitudes (0, 1, 0) on (i|a>, |b>, |c>)."""
    return np.array([0.0, 1.0, 0.0])


def stirap_evolve(schedule: PulseSchedule, initial: np.ndarray,
                  loss_gamma: float = 0.0) -> StirapResult:
    """Propagate the resonant three-level Schroedinger equation under the
    pulse pair.

    ``initial`` holds the three amplitudes on (i|a>, |b>, |c>); the
    trajectory is real for a real one and complex for a complex one.
    ``loss_gamma`` adds -i*Gamma/2 on the intermediate level a, so norm is
    non-increasing and the leak equals the scattered population.  The state
    is sampled on 4000 (``_SAMPLES``) equally spaced times over the
    schedule, and ``max_intermediate`` is the largest |a> population among
    them.  Each sampling interval is split into equal fourth-order Magnus
    steps short against 1/||A|| and the pulse duration; ``scattered`` is
    the trapezoid sum over those steps.  Only the sampled statistics are
    kept, so memory does not grow with the number of steps.
    """
    state = np.asarray(initial)
    if state.shape != (3,):
        raise ValueError("initial state must be three amplitudes on (i|a>, |b>, |c>)")
    if loss_gamma < 0:
        raise ValueError("loss_gamma must be nonnegative")
    pump, stokes = schedule.pump, schedule.stokes

    # A(t) = -iH(t) = basis[0] + Omega_p(t) basis[1] + Omega_s(t) basis[2]
    # on the amplitudes of (i|a>, |b>, |c>): with the drive element
    # <a|H|b> = -Omega/2 and c_a = i x_a, dx_a/dt = -Gamma/2 x_a + Omega/2 c_b
    # and dc_b/dt = -Omega/2 x_a, all real.  The stationary dark state is
    # (|b> - |c>)/sqrt(2)
    basis = np.zeros((3, 3, 3))
    basis[0, 0, 0] = -loss_gamma / 2.0
    basis[1, 0, 1] = basis[2, 0, 2] = 0.5
    basis[1, 1, 0] = basis[2, 2, 0] = -0.5

    def coefficients(t):
        return np.stack((np.ones_like(t), pump.envelope(t), stokes.envelope(t)), axis=1)

    t_out = np.linspace(0.0, schedule.t_end, _SAMPLES)
    # largest 1-norm of A over the schedule, that of the |a> column
    a_norm = loss_gamma / 2.0 + (pump.peak + stokes.peak) / 2.0
    h_out = schedule.t_end / (_SAMPLES - 1)
    per_interval = max(1, math.ceil(h_out * max(
        a_norm / _MAGNUS_STEP,
        _STEPS_PER_PULSE / min(pump.duration, stokes.duration))))
    group = max(1, _STEPS_PER_CALL // per_interval)  # sampling intervals per call
    max_a = float(abs(state[0]) ** 2)
    scattered = 0.0
    for k in range(0, _SAMPLES - 1, group):
        end = min(k + group, _SAMPLES - 1)
        t = np.linspace(t_out[k], t_out[end], (end - k) * per_interval + 1)
        traj = magnus4(basis, coefficients, state, t)
        pop_a = np.abs(traj[:, 0]) ** 2
        max_a = max(max_a, float(np.max(pop_a[::per_interval])))
        scattered += loss_gamma * float(np.sum(np.diff(t) * (pop_a[:-1] + pop_a[1:]))) / 2.0
        state = traj[-1]
    return StirapResult(
        final_state=state,
        efficiency=float(abs(state[2]) ** 2),
        max_intermediate=max_a,
        norm_leak=1.0 - float(np.vdot(state, state).real),
        scattered=scattered,
        magnus_steps=(_SAMPLES - 1) * per_interval,
        step_norm=h_out / per_interval * a_norm,
    )
