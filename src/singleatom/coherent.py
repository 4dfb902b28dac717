"""STIRAP transfer in the three-level Lambda system (a excited; b, c ground).

Pure-state dynamics only.  Loss from the optically excited intermediate
level is modeled by a non-Hermitian -i*Gamma/2 term, so the norm leak of
the trajectory equals the accumulated scattering probability.  STIRAP is
propagated by the fourth-order Magnus integrator (``integrator.magnus4``)
on its affine generator -iH(t) = A0 + Omega_p(t) B_p + Omega_s(t) B_s,
with A0 the detunings and the loss and B_p, B_s the two couplings, and the
scattering is an independent trapezoid quadrature of Gamma |c_a|^2 over
the same trajectory.  The closed-form STIRAP readout and Larmor survival
laws, which need no state vector, live in ``readout``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrator import magnus4

__all__ = [
    "PureState",
    "Pulse",
    "PulseSchedule",
    "StirapResult",
    "ground_start",
    "stirap_evolve",
]

LAMBDA_BASIS = ("a", "b", "c")

# Magnus-4 steps of stirap_evolve: h ||A|| <= _MAGNUS_STEP, and at least
# _STEPS_PER_PULSE steps per pulse duration.  Measured against DOP853 at
# rtol 1e-12 (peaks 5-140 /us, detunings to 2e7 rad/s, loss 0 or 3 /us):
# the transfer, peak |a> population and norm leak agree within 1e-10.
_MAGNUS_STEP = 0.1
_STEPS_PER_PULSE = 2000
# Magnus steps per magnus4 call: the substep trajectory held at once stays
# below 0.5 MB however many steps the pulses need, and the default 4000-point
# grid takes one call
_STEPS_PER_CALL = 4096


@dataclass(frozen=True)
class PureState:
    """Complex amplitudes over a labeled basis, normalized unless leaky."""

    amplitudes: np.ndarray
    basis_labels: tuple[str, ...]

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1 or len(amps) != len(self.basis_labels):
            raise ValueError("one amplitude per basis label required")

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def amplitude(self, label: str) -> complex:
        return complex(self.amplitudes[self.basis_labels.index(label)])

    def population(self, label: str) -> float:
        return abs(self.amplitude(label)) ** 2


@dataclass(frozen=True)
class Pulse:
    """One sin^2 pulse envelope."""

    peak: float
    t_start: float
    duration: float
    phase: float = 0.0

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
                  order: str = "counterintuitive",
                  phases: tuple[float, float] = (0.0, 0.0)) -> "PulseSchedule":
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
            pump=Pulse(peak=peak, t_start=pump_start, duration=duration, phase=phases[0]),
            stokes=Pulse(peak=peak, t_start=stokes_start, duration=duration, phase=phases[1]),
        )

    @property
    def t_end(self) -> float:
        return max(self.pump.t_start + self.pump.duration,
                   self.stokes.t_start + self.stokes.duration)


@dataclass(frozen=True)
class StirapResult:
    final_state: PureState
    efficiency: float              # population of |c> at the end
    max_intermediate: float        # max of the |a> population over the sample times
    norm_leak: float               # 1 - final norm^2
    scattered: float               # integral of Gamma |c_a|^2 dt, trapezoid rule over the steps
    magnus_steps: int              # Magnus-4 steps taken: (n_steps - 1) * steps per interval
    step_norm: float               # h ||A||_1 of those steps, the bound the step rule keeps


def ground_start() -> PureState:
    """All population in |b>, the usual transfer starting point."""
    return PureState(amplitudes=np.array([0.0, 1.0, 0.0], dtype=complex),
                     basis_labels=LAMBDA_BASIS)


def stirap_evolve(schedule: PulseSchedule, initial: PureState,
                  detunings: tuple[float, float, float] = (0.0, 0.0, 0.0),
                  loss_gamma: float = 0.0, n_steps: int = 4000) -> StirapResult:
    """Propagate the three-level Schroedinger equation under the pulse pair.

    ``detunings`` are the rotating-frame diagonal terms of (a, b, c);
    ``loss_gamma`` adds -i*Gamma/2 on the intermediate level a, so norm is
    non-increasing and the leak equals the scattered population.  The state
    is sampled on ``n_steps`` equally spaced times over the schedule, and
    ``max_intermediate`` is the largest |a> population among them.  Each
    sampling interval is split into equal fourth-order Magnus steps short
    against 1/||A|| and the pulse duration, so the accuracy does not depend
    on ``n_steps``; ``scattered`` is the trapezoid sum over those steps.
    Only the sampled statistics are kept, so memory does not grow with the
    number of steps.
    """
    if initial.basis_labels != LAMBDA_BASIS:
        raise ValueError("initial state must live on the (a, b, c) basis")
    if loss_gamma < 0:
        raise ValueError("loss_gamma must be nonnegative")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    d_a, d_b, d_c = detunings
    pump, stokes = schedule.pump, schedule.stokes
    # drive element <a|H|b> = -(Omega/2) e^{+i phi}; with this sign the
    # stationary dark state is (|b> - e^{i(phi1-phi2)} |c>)/sqrt(2)
    e_p = np.exp(1j * pump.phase)
    e_s = np.exp(1j * stokes.phase)

    # A(t) = -iH(t) = basis[0] + Omega_p(t) basis[1] + Omega_s(t) basis[2],
    # the columns of the Schroedinger right-hand side
    basis = np.zeros((3, 3, 3), dtype=complex)
    basis[0] = np.diag([-1j * d_a - loss_gamma / 2.0, -1j * d_b, -1j * d_c])
    basis[1, 0, 1], basis[1, 1, 0] = 0.5j * e_p, 0.5j * np.conj(e_p)
    basis[2, 0, 2], basis[2, 2, 0] = 0.5j * e_s, 0.5j * np.conj(e_s)

    def coefficients(t):
        return np.stack((np.ones_like(t), pump.envelope(t), stokes.envelope(t)), axis=1)

    t_out = np.linspace(0.0, schedule.t_end, n_steps)
    # largest 1-norm of A over the schedule
    a_norm = max(abs(d_a) + loss_gamma / 2.0 + (pump.peak + stokes.peak) / 2.0,
                 abs(d_b) + pump.peak / 2.0, abs(d_c) + stokes.peak / 2.0)
    h_out = schedule.t_end / max(n_steps - 1, 1)
    per_interval = max(1, math.ceil(h_out * max(
        a_norm / _MAGNUS_STEP,
        _STEPS_PER_PULSE / min(pump.duration, stokes.duration))))
    group = max(1, _STEPS_PER_CALL // per_interval)  # sampling intervals per call
    state = initial.amplitudes
    max_a = float(abs(state[0]) ** 2)
    scattered = 0.0
    for k in range(0, n_steps - 1, group):
        end = min(k + group, n_steps - 1)
        t = np.linspace(t_out[k], t_out[end], (end - k) * per_interval + 1)
        traj = magnus4(basis, coefficients, state, t)
        pop_a = traj[:, 0].real ** 2 + traj[:, 0].imag ** 2
        max_a = max(max_a, float(np.max(pop_a[::per_interval])))
        scattered += loss_gamma * float(np.sum(np.diff(t) * (pop_a[:-1] + pop_a[1:]))) / 2.0
        state = traj[-1]
    final = PureState(amplitudes=state, basis_labels=LAMBDA_BASIS)
    return StirapResult(
        final_state=final,
        efficiency=float(abs(state[2]) ** 2),
        max_intermediate=max_a,
        norm_leak=1.0 - final.norm_sq,
        scattered=scattered,
        magnus_steps=(n_steps - 1) * per_interval,
        step_norm=h_out / per_interval * a_norm,
    )
