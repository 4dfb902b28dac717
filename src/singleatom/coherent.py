"""STIRAP transfer in the three-level Lambda system (a excited; b, c ground).

Pure-state dynamics only.  Loss from the optically excited intermediate
level is modeled by a non-Hermitian -i*Gamma/2 term, so the norm leak of
the trajectory equals the accumulated scattering probability.  With
resonant pulses -iH(t) is a real matrix in the basis (i|a>, |b>, |c>)
(Vitanov et al., Rev. Mod. Phys. 89, 015006 (2017)), so a state that
starts real there stays a real three-vector.  STIRAP is propagated by the
fourth-order Magnus integrator (``integrator.magnus4``) on that real
affine generator -iH(t) = A0 + Omega_p(t) B_p + Omega_s(t) B_s, with A0
the loss and B_p, B_s the two resonant couplings.  The steps run on a grid
with a node at every pulse edge, where the envelopes' second derivative
jumps, so each step sees a smooth generator; the step count follows from
||A|| and the pulse duration.  The scattering is an independent trapezoid
quadrature of Gamma |c_a|^2 over the same trajectory.  The
closed-form STIRAP readout and Larmor survival laws, which need no state
vector, live in ``readout``.
"""

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

# Magnus-4 steps of stirap_evolve, equal within each segment between pulse
# edges: h ||A|| <= _MAGNUS_STEP, and at least _STEPS_PER_PULSE steps per
# pulse duration.  Measured against DOP853 at rtol 1e-12 (peaks 5-160 /us,
# loss 0 or 3 /us, delays of a quarter, 0.2 and 0.3 of the duration, both
# orders): the norm leak agrees within 1e-10, and so does the transfer in
# counterintuitive order; in intuitive order, where |a> Rabi-cycles up to 20
# times, the transfer errs by up to 1.0e-9 (160 /us, no loss).
_MAGNUS_STEP = 0.1
_STEPS_PER_PULSE = 1600
# Magnus steps per magnus4 call: the trajectory held at once stays below
# 0.5 MB however many steps the pulses need
_STEPS_PER_CALL = 4096
# Magnus steps of one stirap_evolve, at most: about 10 s of propagation (a
# lib-sweep point takes about 2300, the longest test about 500 000)
_MAX_STEPS = 10**7


@dataclass(frozen=True)
class Pulse:
    """One sin^2 pulse envelope."""

    peak: float
    t_start: float
    duration: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.peak, self.t_start, self.duration))):
            raise ValueError("pulse peak, start and duration must be finite")
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
    norm_leak: float               # 1 - final norm^2
    scattered: float               # integral of Gamma |c_a|^2 dt, trapezoid rule over the steps
    magnus_steps: int              # Magnus-4 steps on the grid aligned with the pulse edges
    step_norm: float               # largest h ||A||_1 of those steps, the bound the step rule keeps


def ground_start() -> np.ndarray:
    """All population in |b>, the usual transfer starting point: the real
    amplitudes (0, 1, 0) on (i|a>, |b>, |c>)."""
    return np.array([0.0, 1.0, 0.0])


def _generator(schedule: PulseSchedule, loss_gamma: float):
    """(basis, coefficients, a_norm) of the real generator
    A(t) = -iH(t) = basis[0] + Omega_p(t) basis[1] + Omega_s(t) basis[2] on
    the amplitudes of (i|a>, |b>, |c>), the form ``magnus4`` takes, and the
    largest 1-norm of A over the schedule.

    With the drive element <a|H|b> = -Omega/2 and c_a = i x_a,
    dx_a/dt = -Gamma/2 x_a + Omega/2 c_b and dc_b/dt = -Omega/2 x_a, all
    real.  The stationary dark state is (|b> - |c>)/sqrt(2).  The largest
    1-norm is that of the |a> column; it bounds ||A||_2 too, since the |a>
    row has the same sum.
    """
    pump, stokes = schedule.pump, schedule.stokes
    basis = np.zeros((3, 3, 3))
    basis[0, 0, 0] = -loss_gamma / 2.0
    basis[1, 0, 1] = basis[2, 0, 2] = 0.5
    basis[1, 1, 0] = basis[2, 2, 0] = -0.5

    def coefficients(t):
        return np.stack((np.ones_like(t), pump.envelope(t), stokes.envelope(t)), axis=1)

    return basis, coefficients, loss_gamma / 2.0 + (pump.peak + stokes.peak) / 2.0


def _step_grid(schedule: PulseSchedule, a_norm: float):
    """(edges, steps): the segment ends 0 < ... < t_end, which are 0, t_end
    and every pulse start or end between them, and the number of equal
    Magnus steps each segment between two edges takes.

    Inside a segment the envelopes are smooth, so the fourth-order Magnus
    steps keep their order; across a pulse edge the envelope's second
    derivative jumps (Blanes et al., Phys. Rep. 470, 151 (2009)).  A segment
    of length L takes ceil(L max(||A||_1 / _MAGNUS_STEP,
    _STEPS_PER_PULSE / shortest duration)) steps.  Raises ``ValueError``
    where the step rate overflows or the steps exceed ``_MAX_STEPS`` in all.
    """
    t_end = schedule.t_end
    pulses = (schedule.pump, schedule.stokes)
    inner = {t for p in pulses for t in (p.t_start, p.t_start + p.duration) if 0.0 < t < t_end}
    edges = np.array([0.0, *sorted(inner), t_end])
    rate = max(a_norm / _MAGNUS_STEP, _STEPS_PER_PULSE / min(p.duration for p in pulses))
    if not math.isfinite(rate):
        raise ValueError("the pulses need more Magnus steps per second than a float holds")
    steps = [math.ceil(length * rate) for length in np.diff(edges).tolist()]
    if sum(steps) > _MAX_STEPS:
        raise ValueError(f"the pulses need {sum(steps):.3g} Magnus steps, more than"
                         f" {_MAX_STEPS:.0e}")
    return edges, steps


def _node_times(edges: np.ndarray, steps: list[int], nodes: np.ndarray) -> np.ndarray:
    """Times of the grid nodes with the given indices (node 0 at t = 0):
    segment s runs over nodes sum(steps[:s]) .. sum(steps[:s+1]) in equal
    steps, and the first node of each segment is its edge exactly."""
    first = np.concatenate(([0], np.cumsum(steps)))
    seg = np.minimum(np.searchsorted(first, nodes, side="right") - 1, len(steps) - 1)
    times = edges[seg] + (nodes - first[seg]) * (np.diff(edges) / steps)[seg]
    times[nodes == first[-1]] = edges[-1]
    return times


def stirap_evolve(schedule: PulseSchedule, initial: np.ndarray,
                  loss_gamma: float = 0.0) -> StirapResult:
    """Propagate the resonant three-level Schroedinger equation under the
    pulse pair.

    ``initial`` holds the three amplitudes on (i|a>, |b>, |c>); the
    trajectory is real for a real one and complex for a complex one.
    ``loss_gamma`` adds -i*Gamma/2 on the intermediate level a, so norm is
    non-increasing and the leak equals the scattered population.
    Propagation runs from t = 0 to the schedule's end by fourth-order Magnus
    steps on a grid whose nodes include every pulse edge in between; each
    segment between two edges takes equal steps, short against 1/||A|| and
    the pulse duration (``_step_grid``).  ``scattered`` is the trapezoid
    sum over those steps.  The steps run in calls of at most
    ``_STEPS_PER_CALL``, so memory does not grow with the number of steps.
    Raises ``ValueError`` for an initial state that is not three finite
    amplitudes, a negative or non-finite loss, a schedule that ends at or
    before t = 0, or one whose step rate overflows or that needs more than
    ``_MAX_STEPS`` steps.
    """
    state = np.asarray(initial)
    if state.shape != (3,) or not np.all(np.isfinite(state)):
        raise ValueError("initial state must be three finite amplitudes on (i|a>, |b>, |c>)")
    if not (math.isfinite(loss_gamma) and loss_gamma >= 0):
        raise ValueError("loss_gamma must be finite and nonnegative")
    if not schedule.t_end > 0:
        raise ValueError("the pulses must end after t = 0")
    basis, coefficients, a_norm = _generator(schedule, loss_gamma)
    edges, steps = _step_grid(schedule, a_norm)
    n_steps = sum(steps)
    scattered = 0.0
    for k in range(0, n_steps, _STEPS_PER_CALL):
        t = _node_times(edges, steps, np.arange(k, min(k + _STEPS_PER_CALL, n_steps) + 1))
        traj = magnus4(basis, coefficients, state, t)
        pop_a = np.abs(traj[:, 0]) ** 2
        scattered += loss_gamma * float(np.sum(np.diff(t) * (pop_a[:-1] + pop_a[1:]))) / 2.0
        state = traj[-1]
    return StirapResult(
        final_state=state,
        efficiency=float(abs(state[2]) ** 2),
        norm_leak=1.0 - float(np.vdot(state, state).real),
        scattered=scattered,
        magnus_steps=n_steps,
        step_norm=float(np.max(np.diff(edges) / steps)) * a_norm,
    )
