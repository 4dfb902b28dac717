"""Dark states, STIRAP transfer, tripod readout, Larmor precession."""

import math

import numpy as np
import pytest

from singleatom.coherent import (
    _MAGNUS_STEP,
    LAMBDA_BASIS,
    Pulse,
    PulseSchedule,
    ground_start,
    lambda_dark_state,
    larmor_evolve,
    larmor_frequency,
    larmor_survival,
    stirap_evolve,
    stirap_readout_probability,
    tripod_dark_states,
)

T_PULSE = 1e-6
ADIABATIC = 140.0 / T_PULSE   # peak Rabi frequency well inside the adiabatic regime
LOSS = 3.0 / T_PULSE


def schedule(order="counterintuitive", peak=ADIABATIC, phases=(0.0, 0.0)):
    return PulseSchedule.sin2_pair(peak=peak, duration=T_PULSE, order=order,
                                   phases=phases)


class TestDarkState:
    def test_printed_form(self):
        state = lambda_dark_state(0.0, 0.0)
        assert state.amplitude("a") == 0.0
        assert state.amplitude("b") == pytest.approx(1 / math.sqrt(2))
        assert state.amplitude("c") == pytest.approx(-1 / math.sqrt(2))

    def test_decoupled_from_equal_drives(self):
        # H psi_d has no |a> component for Omega1 = Omega2 at any phase pair
        for phi1, phi2 in ((0.0, 0.0), (0.7, -1.2), (2.1, 0.4)):
            state = lambda_dark_state(phi1, phi2)
            omega = 1.0
            coupling = (-omega / 2 * np.exp(1j * phi1) * state.amplitude("b")
                        - omega / 2 * np.exp(1j * phi2) * state.amplitude("c"))
            assert abs(coupling) < 1e-14

    def test_bright_state_couples_fully(self):
        # orthogonal combination (|b> + e^{i dphi} |c>)/sqrt(2) sees the full
        # two-arm drive Omega/sqrt(2)
        phi1, phi2 = 0.9, -0.3
        omega = 1.0
        bright_b = 1 / math.sqrt(2)
        bright_c = np.exp(1j * (phi1 - phi2)) / math.sqrt(2)
        coupling = (-omega / 2 * np.exp(1j * phi1) * bright_b
                    - omega / 2 * np.exp(1j * phi2) * bright_c)
        assert abs(coupling) == pytest.approx(omega / math.sqrt(2), rel=1e-12)


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
        assert result.final_state.population("b") == pytest.approx(1.0, abs=1e-9)
        assert result.efficiency < 1e-12

    def test_norm_conserved_without_loss(self):
        result = stirap_evolve(schedule(), ground_start())
        assert abs(result.final_state.norm_sq - 1.0) < 1e-9

    def test_norm_leak_equals_scattered_population(self):
        result = stirap_evolve(schedule(), ground_start(), loss_gamma=LOSS)
        assert result.norm_leak == pytest.approx(result.scattered, abs=1e-6)

    def test_dark_state_defect_small_in_adiabatic_regime(self):
        # with sin^2 pulses and quarter-duration delay the <1% defect needs
        # pulse areas of about 100; tested across the regime actually used
        for area in (100.0, 140.0, 180.0):
            result = stirap_evolve(schedule(peak=area / T_PULSE), ground_start())
            assert result.max_intermediate < 0.01
            assert result.efficiency > 0.99

    def test_depends_only_on_phase_difference(self):
        base = stirap_evolve(schedule(phases=(0.4, 1.1)), ground_start())
        for shift in np.linspace(0.0, 2 * math.pi, 5):
            shifted = stirap_evolve(schedule(phases=(0.4 + shift, 1.1 + shift)),
                                    ground_start())
            assert shifted.efficiency == pytest.approx(base.efficiency, abs=1e-9)

    def test_loss_requires_nonnegative_gamma(self):
        with pytest.raises(ValueError):
            stirap_evolve(schedule(), ground_start(), loss_gamma=-1.0)

    def test_requires_a_sample(self):
        with pytest.raises(ValueError):
            stirap_evolve(schedule(), ground_start(), n_steps=0)

    @pytest.mark.parametrize("peak,n_steps,steps", [
        # 2000 steps per 1 us pulse set the step: 2500 over the 1.25 us
        # schedule, one per sampling interval on 4000 samples
        (ADIABATIC, 2, 2500),
        (ADIABATIC, 4000, 3999),
        # ||A||_1 = 401.5 /us (with the loss) sets it: ceil(1.25 * 401.5 / 0.1)
        # on one interval, two per sampling interval on 4000 samples
        (400.0 / T_PULSE, 2, 5019),
        (400.0 / T_PULSE, 4000, 2 * 3999),
    ])
    def test_step_diagnostics(self, peak, n_steps, steps):
        result = stirap_evolve(schedule(peak=peak), ground_start(), loss_gamma=LOSS,
                               n_steps=n_steps)
        assert result.magnus_steps == steps
        assert 0.0 < result.step_norm <= _MAGNUS_STEP


def dop853_reference(sched, detunings, loss, n_steps):
    """(efficiency, max |a> population, norm leak) of the three-level problem
    sampled on the n_steps grid, from DOP853 at rtol 1e-12."""
    from scipy.integrate import solve_ivp

    d_a, d_b, d_c = detunings
    pump, stokes = sched.pump, sched.stokes

    def env(pulse, t):
        x = (t - pulse.t_start) / pulse.duration
        return pulse.peak * math.sin(math.pi * x) ** 2 if 0.0 <= x <= 1.0 else 0.0

    def rhs(t, y):
        op, os_ = env(pump, t), env(stokes, t)
        h = np.array([
            [d_a - 0.5j * loss, -op / 2 * np.exp(1j * pump.phase),
             -os_ / 2 * np.exp(1j * stokes.phase)],
            [-op / 2 * np.exp(-1j * pump.phase), d_b, 0.0],
            [-os_ / 2 * np.exp(-1j * stokes.phase), 0.0, d_c],
        ])
        return -1j * (h @ y)

    t = np.linspace(0.0, sched.t_end, n_steps)
    sol = solve_ivp(rhs, (0.0, sched.t_end), ground_start().amplitudes, method="DOP853",
                    t_eval=t, rtol=1e-12, atol=1e-14)
    assert sol.success
    final = sol.y[:, -1]
    return (abs(final[2]) ** 2, float(np.max(np.abs(sol.y[0]) ** 2)),
            1.0 - float(np.vdot(final, final).real))


class TestStirapAgainstDop853:
    @pytest.mark.parametrize("order,loss,detunings,phases,peak,n_steps", [
        ("counterintuitive", 0.0, (0.0, 0.0, 0.0), (0.0, 0.0), ADIABATIC, 4000),
        ("counterintuitive", LOSS, (2e7, -1e7, 5e6), (0.4, 1.3), ADIABATIC, 2),
        ("counterintuitive", LOSS, (0.0, 3e6, -3e6), (1.0, -0.5), 40e6, 17),
        ("intuitive", LOSS, (0.0, 0.0, 0.0), (0.4, 1.3), ADIABATIC, 1),
        ("intuitive", LOSS, (-5e6, 0.0, 2e6), (0.0, 0.0), ADIABATIC, 3),
        ("intuitive", 0.0, (2e7, -1e7, 5e6), (2.0, 0.3), 40e6, 2),
    ])
    def test_matches_reference(self, order, loss, detunings, phases, peak, n_steps):
        sched = schedule(order, peak=peak, phases=phases)
        result = stirap_evolve(sched, ground_start(), detunings=detunings,
                               loss_gamma=loss, n_steps=n_steps)
        efficiency, max_a, leak = dop853_reference(sched, detunings, loss, n_steps)
        assert abs(result.efficiency - efficiency) <= 1e-9
        assert abs(result.max_intermediate - max_a) <= 1e-9
        assert abs(result.norm_leak - leak) <= 1e-9
        assert abs(result.scattered - leak) <= 1e-6


class TestTripod:
    def test_equal_pump_components(self):
        d1, d2 = tripod_dark_states(theta=0.0, big_phi=math.pi / 4, phi1=0.3, phi2=0.0)
        assert d1.amplitude("b-") == pytest.approx(1 / math.sqrt(2))
        assert d1.amplitude("b+") == pytest.approx(np.exp(0.3j) / math.sqrt(2))
        assert d1.amplitude("c") == 0.0

    def test_orthogonality(self):
        for theta in (0.0, 0.4, 1.1, math.pi / 2):
            d1, d2 = tripod_dark_states(theta, math.pi / 4, 0.2, -0.9)
            assert abs(d1.overlap(d2)) < 1e-14
            assert d1.norm_sq == pytest.approx(1.0, abs=1e-14)
            assert d2.norm_sq == pytest.approx(1.0, abs=1e-14)
            assert d1.population("a") == d2.population("a") == 0.0

    def test_full_transfer_limit(self):
        d1, _ = tripod_dark_states(math.pi / 2, math.pi / 4, 0.0, 0.7)
        assert abs(d1.amplitude("c")) == pytest.approx(1.0, abs=1e-14)


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
        assert abs(s0.overlap(s1)) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_after_quarter_phase_period(self):
        omega_l = larmor_frequency(self.B, self.GF)
        t_orth = math.pi / (2 * omega_l)
        s0 = larmor_evolve(self.B, self.GF, 0.0)
        st = larmor_evolve(self.B, self.GF, t_orth)
        assert abs(s0.overlap(st)) < 1e-12

    def test_survival_law(self):
        omega_l = larmor_frequency(self.B, self.GF)
        for t in np.linspace(0.0, 20e-6, 23):
            s0 = larmor_evolve(self.B, self.GF, 0.0)
            st = larmor_evolve(self.B, self.GF, t)
            assert abs(s0.overlap(st)) ** 2 == pytest.approx(
                math.cos(omega_l * t) ** 2, abs=1e-12)
            assert larmor_survival(self.B, self.GF, t) == pytest.approx(
                math.cos(omega_l * t) ** 2, abs=1e-12)

    def test_precession_rate_at_132_mgauss(self):
        # the observable bright-state recurrence rate 1/t_orth at 132 mGauss
        # corresponds to the quoted 370 kHz within 5%
        omega_l = larmor_frequency(self.B, self.GF)
        t_orth = math.pi / (2 * omega_l)
        assert 1.0 / t_orth == pytest.approx(370e3, rel=0.05)
