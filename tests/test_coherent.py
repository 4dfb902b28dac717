"""STIRAP transfer, the dark-state readout law, Larmor precession."""

import math
import time

import numpy as np
import pytest

from singleatom.coherent import (
    _MAGNUS_STEP,
    Pulse,
    PulseSchedule,
    _generator,
    _node_times,
    _step_grid,
    ground_start,
    stirap_evolve,
)
from singleatom.integrator import magnus6
from singleatom.readout import larmor_frequency, larmor_survival, stirap_readout_probability

T_PULSE = 1e-6
ADIABATIC = 140.0 / T_PULSE   # peak Rabi frequency well inside the adiabatic regime
LOSS = 3.0 / T_PULSE


def schedule(order="counterintuitive", peak=ADIABATIC, delay=None):
    return PulseSchedule.sin2_pair(peak=peak, duration=T_PULSE, delay=delay, order=order)


def larmor_evolve(b_z, g_f, t):
    """State-vector oracle of ``larmor_survival``: the Zeeman superposition
    (|m=-1> - e^{i phi}|m=+1>)/sqrt(2) after precessing for time t, its
    relative phase phi advancing at twice the Larmor frequency."""
    phase = 2.0 * larmor_frequency(b_z, g_f) * t
    return np.array([1.0, -np.exp(1j * phase)]) / math.sqrt(2.0)


class TestStirap:
    def test_counterintuitive_transfer(self):
        result = stirap_evolve(schedule("counterintuitive"), ground_start())
        assert result.efficiency >= 0.99

    def test_intuitive_order_fails_with_loss(self):
        result = stirap_evolve(schedule("intuitive"), ground_start(),
                               loss_gamma=LOSS)
        assert result.efficiency < 0.9

    def test_counterintuitive_survives_loss(self):
        result = stirap_evolve(schedule("counterintuitive"), ground_start(),
                               loss_gamma=LOSS)
        assert result.efficiency >= 0.99

    def test_no_pump_leaves_state_unchanged(self):
        sched = PulseSchedule(
            pump=Pulse(peak=0.0, t_start=0.25e-6, duration=T_PULSE),
            stokes=Pulse(peak=ADIABATIC, t_start=0.0, duration=T_PULSE),
        )
        result = stirap_evolve(sched, ground_start())
        assert abs(result.final_state[1]) ** 2 == pytest.approx(1.0, abs=1e-9)
        assert result.efficiency < 1e-12

    def test_norm_conserved_without_loss(self):
        result = stirap_evolve(schedule(), ground_start())
        assert abs(np.vdot(result.final_state, result.final_state) - 1.0) < 1e-9

    def test_norm_leak_equals_scattered_population(self):
        result = stirap_evolve(schedule(), ground_start(), loss_gamma=LOSS)
        assert result.norm_leak == pytest.approx(result.scattered, abs=1e-6)

    def test_dark_state_defect_small_in_adiabatic_regime(self):
        # with sin^2 pulses and quarter-duration delay the <1% defect needs
        # pulse areas of about 100; tested across the regime actually used,
        # on the |a> population at every node of stirap_evolve's grid
        for area in (100.0, 140.0, 180.0):
            sched = schedule(peak=area / T_PULSE)
            basis, coefficients, a_norm = _generator(sched, 0.0)
            edges, steps = _step_grid(sched, a_norm)
            nodes = _node_times(edges, steps, 0, sum(steps))
            traj = magnus6(basis, coefficients, ground_start(), nodes)
            assert np.max(np.abs(traj[:, 0]) ** 2) < 0.01
            assert stirap_evolve(sched, ground_start()).efficiency > 0.99

    def test_loss_requires_nonnegative_gamma(self):
        with pytest.raises(ValueError):
            stirap_evolve(schedule(), ground_start(), loss_gamma=-1.0)

    @pytest.mark.parametrize("sched,edges,steps", [
        # 400 steps per 1 us pulse set the step: the segments of 0.25,
        # 0.75 and 0.25 us take 100, 300 and 100 steps
        pytest.param(schedule(), [0.0, 0.25e-6, 1e-6, 1.25e-6], [100, 300, 100],
                     id="140-per-us"),
        # ||A||_1 = 401.5 /us (with the loss) sets it: 1003.75 steps per us
        pytest.param(schedule(peak=400.0 / T_PULSE), [0.0, 0.25e-6, 1e-6, 1.25e-6],
                     [251, 753, 251], id="400-per-us"),
        # a pulse that starts before t = 0: propagation starts at 0, so its
        # start is no edge
        pytest.param(PulseSchedule(
            pump=Pulse(peak=ADIABATIC, t_start=0.0, duration=T_PULSE),
            stokes=Pulse(peak=ADIABATIC, t_start=-0.5e-6, duration=T_PULSE)),
            [0.0, 0.5e-6, 1e-6], [200, 200], id="start-before-zero"),
    ])
    def test_step_diagnostics(self, sched, edges, steps):
        result = stirap_evolve(sched, ground_start(), loss_gamma=LOSS)
        assert result.magnus_steps == sum(steps)
        assert 0.0 < result.step_norm <= _MAGNUS_STEP
        grid_edges, grid_steps = _step_grid(sched, _generator(sched, LOSS)[2])
        assert grid_steps == steps
        assert np.allclose(grid_edges, edges, rtol=0.0, atol=1e-18)
        nodes = _node_times(grid_edges, grid_steps, 0, sum(steps))
        # every pulse edge inside (0, t_end) is a node
        for pulse in (sched.pump, sched.stokes):
            for edge in (pulse.t_start, pulse.t_start + pulse.duration):
                if 0.0 < edge < sched.t_end:
                    assert edge in nodes
        # each segment between two edges takes equal steps
        first = np.concatenate(([0], np.cumsum(steps)))
        for k, n in enumerate(steps):
            segment = nodes[first[k]:first[k + 1] + 1]
            assert segment[0] == grid_edges[k] and segment[-1] == grid_edges[k + 1]
            width = (grid_edges[k + 1] - grid_edges[k]) / n
            assert np.allclose(np.diff(segment), width, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("field,value", [
        ("peak", math.nan), ("peak", math.inf), ("t_start", math.nan),
        ("t_start", -math.inf), ("duration", math.inf), ("duration", math.nan),
    ])
    def test_pulse_refuses_non_finite(self, field, value):
        values = {"peak": ADIABATIC, "t_start": 0.0, "duration": T_PULSE, field: value}
        with pytest.raises(ValueError, match="finite"):
            Pulse(**values)

    def test_sin2_pair_refuses_nan_peak(self):
        with pytest.raises(ValueError, match="finite"):
            schedule(peak=math.nan)

    @pytest.mark.parametrize("loss", [math.nan, math.inf])
    def test_refuses_non_finite_loss(self, loss):
        with pytest.raises(ValueError, match="loss_gamma must be finite"):
            stirap_evolve(schedule(), ground_start(), loss_gamma=loss)

    def test_refuses_non_finite_initial_state(self):
        with pytest.raises(ValueError, match="finite amplitudes"):
            stirap_evolve(schedule(), np.array([0.0, math.nan, 0.0]))

    def test_refuses_overflowing_step_rate(self):
        # each peak is finite, but ||A||_1 = (peak_p + peak_s) / 2 overflows
        with pytest.raises(ValueError, match="Magnus steps"):
            stirap_evolve(schedule(peak=1.5e308), ground_start())

    def test_refuses_too_many_steps(self):
        # a finite step rate that asks for 1.25e15 steps over 1 us: refused
        # before any trajectory is allocated
        sched = PulseSchedule.sin2_pair(peak=1e20, duration=1e-6)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="Magnus steps, more than 1e"):
            stirap_evolve(sched, ground_start())
        assert time.perf_counter() - start < 1.0

    def test_refuses_schedule_ending_before_start(self):
        pulse = Pulse(peak=ADIABATIC, t_start=-2e-6, duration=T_PULSE)
        with pytest.raises(ValueError, match="end after t = 0"):
            stirap_evolve(PulseSchedule(pump=pulse, stokes=pulse), ground_start())


def dop853_reference(sched, loss, y0):
    """(efficiency, norm leak, final amplitudes) of the resonant three-level
    problem on the bare basis (a, b, c), started from ``y0``, from DOP853 at
    rtol 1e-12."""
    from scipy.integrate import solve_ivp

    pump, stokes = sched.pump, sched.stokes

    def env(pulse, t):
        x = (t - pulse.t_start) / pulse.duration
        return pulse.peak * math.sin(math.pi * x) ** 2 if 0.0 <= x <= 1.0 else 0.0

    def rhs(t, y):
        op, os_ = env(pump, t), env(stokes, t)
        h = np.array([
            [-0.5j * loss, -op / 2, -os_ / 2],
            [-op / 2, 0.0, 0.0],
            [-os_ / 2, 0.0, 0.0],
        ])
        return -1j * (h @ y)

    sol = solve_ivp(rhs, (0.0, sched.t_end), y0, method="DOP853", rtol=1e-12, atol=1e-14)
    assert sol.success
    final = sol.y[:, -1]
    return abs(final[2]) ** 2, 1.0 - float(np.vdot(final, final).real), final


class TestStirapAgainstDop853:
    @pytest.mark.parametrize("order,loss,peak,delay", [
        pytest.param(*row, id="-".join(map(str, row[:3] if row[3] is None else row)))
        for row in (
            ("counterintuitive", 0.0, ADIABATIC, None),
            ("counterintuitive", LOSS, ADIABATIC, None),
            ("counterintuitive", LOSS, 40e6, None),
            ("intuitive", LOSS, ADIABATIC, None),
            ("intuitive", 0.0, 40e6, None),
            # the corners of the benchmark's library sweep
            ("counterintuitive", LOSS, 120e6, 0.2e-6),
            ("counterintuitive", LOSS, 160e6, 0.3e-6),
        )
    ])
    def test_matches_reference(self, order, loss, peak, delay):
        sched = schedule(order, peak=peak, delay=delay)
        result = stirap_evolve(sched, ground_start(), loss_gamma=loss)
        # no |a> amplitude at the start, so the bare basis and (i|a>, |b>, |c>)
        # hold the same initial state
        efficiency, leak, _ = dop853_reference(sched, loss, ground_start().astype(complex))
        assert abs(result.efficiency - efficiency) <= 1e-9
        assert abs(result.norm_leak - leak) <= 1e-9
        assert abs(result.scattered - leak) <= 1e-9

    def test_ground_start_stays_real(self):
        result = stirap_evolve(schedule(), ground_start(), loss_gamma=LOSS)
        assert result.final_state.dtype == np.float64
        assert result.final_state.shape == (3,)

    def test_complex_start_matches_reference(self):
        # (|b> + i|c>)/sqrt(2): a complex state on the real generator; the
        # final |a> amplitude of the bare basis is i times final_state[0]
        sched = schedule("counterintuitive", peak=40e6)
        y0 = np.array([0.0, 1.0, 1.0j]) / math.sqrt(2.0)
        result = stirap_evolve(sched, y0, loss_gamma=LOSS)
        efficiency, leak, final = dop853_reference(sched, LOSS, y0)
        assert result.final_state.dtype == np.complex128
        assert abs(result.efficiency - efficiency) <= 1e-9
        assert abs(result.norm_leak - leak) <= 1e-9
        assert abs(result.scattered - leak) <= 1e-9
        assert np.abs(result.final_state * [1j, 1.0, 1.0] - final).max() <= 1e-9


# id -> (schedule, initial state, loss) of each pinned STIRAP run
PINNED_RUNS = {
    # the corners of the benchmark's library sweep
    "corner-120-per-us": (schedule(peak=120e6, delay=0.2e-6), ground_start(), LOSS),
    "corner-160-per-us": (schedule(peak=160e6, delay=0.3e-6), ground_start(), LOSS),
    **{f"140-per-us-{order}-{'lossy' if loss else 'lossless'}":
       (schedule(order), ground_start(), loss)
       for order in ("counterintuitive", "intuitive") for loss in (0.0, LOSS)},
    "complex-start": (schedule(peak=40e6), np.array([0.0, 1.0, 1.0j]) / math.sqrt(2.0), LOSS),
}
# id -> repr of (efficiency, norm_leak, scattered, magnus_steps, step_norm),
# recorded under numpy PINNED_NUMPY
PINNED = {
    "corner-120-per-us": ("0.992179813083777", "0.0064797559318698905",
                          "0.006479755942121562", "480", "0.30375"),
    "corner-160-per-us": ("0.9980000116514847", "0.0018886842392086267",
                          "0.0018886842514186414", "527", "0.39946996466431095"),
    "140-per-us-counterintuitive-lossless": ("0.9988925299013214", "1.5543122344752192e-15",
                                             "0.0", "500", "0.35000000000000003"),
    "140-per-us-counterintuitive-lossy": ("0.9966763731400718", "0.002778859270411105",
                                          "0.0027788592781501377", "500", "0.35375"),
    "140-per-us-intuitive-lossless": ("0.9937118511331705", "0.0",
                                      "0.0", "500", "0.35000000000000003"),
    "140-per-us-intuitive-lossy": ("0.2085176014011199", "0.7902950267518017",
                                   "0.7902950267445228", "500", "0.35375"),
    "complex-start": ("0.47862949258033544", "0.3902176936385505",
                      "0.3902176936399612", "500", "0.10375000000000001"),
}
PINNED_NUMPY = "2.4.6"


@pytest.mark.parametrize("run", list(PINNED))
def test_stirap_outputs_pinned(run):
    # the outputs bit for bit under the recording numpy, so a refactor of the
    # step loop cannot move them unseen; under another numpy at 1e-11
    # relative, and a norm leak of rounding size at 1e-14
    sched, initial, loss = PINNED_RUNS[run]
    result = stirap_evolve(sched, initial, loss_gamma=loss)
    got = (result.efficiency, result.norm_leak, result.scattered, result.magnus_steps,
           result.step_norm)
    if np.__version__ == PINNED_NUMPY:
        assert tuple(map(repr, got)) == PINNED[run]
    else:
        assert result.magnus_steps == int(PINNED[run][3])
        assert all(math.isclose(value, float(pin), rel_tol=1e-11, abs_tol=1e-14)
                   for value, pin in zip(got, PINNED[run]))


class TestReadout:
    def test_sin_squared_law_exact(self):
        for alpha in np.linspace(0.0, math.pi, 37):
            assert stirap_readout_probability(0.0, alpha) == pytest.approx(
                math.sin(alpha) ** 2, abs=1e-12)

    def test_bright_and_dark_endpoints(self):
        assert stirap_readout_probability(0.0, 0.0) == 0.0
        assert stirap_readout_probability(0.0, math.pi / 2) == pytest.approx(1.0)
        assert stirap_readout_probability(0.0, math.pi / 4) == pytest.approx(0.5)

    def test_general_prep_phase(self):
        chi = 0.8
        assert stirap_readout_probability(chi, 1.1) == pytest.approx(
            math.sin(1.1 - chi / 2) ** 2, abs=1e-12)


class TestLarmor:
    B = 1.32e-5   # 132 mGauss in tesla
    GF = -0.5

    def test_zero_field_stationary(self):
        s0 = larmor_evolve(0.0, self.GF, 0.0)
        s1 = larmor_evolve(0.0, self.GF, 1.0)
        assert abs(np.vdot(s0, s1)) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_after_quarter_phase_period(self):
        omega_l = larmor_frequency(self.B, self.GF)
        t_orth = math.pi / (2 * omega_l)
        s0 = larmor_evolve(self.B, self.GF, 0.0)
        st = larmor_evolve(self.B, self.GF, t_orth)
        assert abs(np.vdot(s0, st)) < 1e-12

    def test_survival_law(self):
        omega_l = larmor_frequency(self.B, self.GF)
        for t in np.linspace(0.0, 20e-6, 23):
            s0 = larmor_evolve(self.B, self.GF, 0.0)
            st = larmor_evolve(self.B, self.GF, t)
            assert abs(np.vdot(s0, st)) ** 2 == pytest.approx(
                math.cos(omega_l * t) ** 2, abs=1e-12)
            assert larmor_survival(self.B, self.GF, t) == pytest.approx(
                math.cos(omega_l * t) ** 2, abs=1e-12)

    def test_precession_rate_at_132_mgauss(self):
        # the observable bright-state recurrence rate 1/t_orth at 132 mGauss
        # corresponds to the quoted 370 kHz within 5%
        omega_l = larmor_frequency(self.B, self.GF)
        t_orth = math.pi / (2 * omega_l)
        assert 1.0 / t_orth == pytest.approx(370e3, rel=0.05)
