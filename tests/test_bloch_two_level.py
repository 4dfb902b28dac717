"""Two-level g2: closed form vs direct Bloch-equation integration."""

import math

import numpy as np
import pytest
from scipy.linalg import eig, expm

from singleatom.constants import RB87_GAMMA_D2
from singleatom.bloch.state import lindblad_generator
from singleatom.integrator import _MIN_OVERLAP, IntegrationError, linear_modes, sum_modes
from singleatom.bloch.two_level import two_level_g2_analytic, two_level_obe_g2
from singleatom import obe
from singleatom.obe import two_level_steady_excited

G = RB87_GAMMA_D2


def rabi_for(omega_r_over_gamma, delta=0.0):
    """Bare Rabi frequency giving the requested generalized Rabi frequency."""
    return math.sqrt((omega_r_over_gamma * G) ** 2 - delta**2 + (G / 4) ** 2)


def affine_bloch_matrix(omega, delta, gamma):
    """Oracle: the optical Bloch equations for y = (rho_ee, u, v, 1), with
    (u, v) the coherence quadratures, rho_gg eliminated by the trace and the
    constant last component carrying the affine drive term of v."""
    return np.array([
        [-gamma, 0.0, omega, 0.0],
        [0.0, -gamma / 2.0, -delta, 0.0],
        [-omega, delta, -gamma / 2.0, omega / 2.0],
        [0.0, 0.0, 0.0, 0.0],
    ])


class TestAnalytic:
    def test_antibunching_at_zero_delay(self):
        for omega in (0.1 * G, G, 10 * G):
            for delta in (0.0, -3 * G):
                assert two_level_g2_analytic(omega, delta, G, [0.0])[0] == 0.0

    def test_asymptote_is_one(self):
        tau = np.array([40.0 / G])
        assert two_level_g2_analytic(4 * G, 0.0, G, tau)[0] == pytest.approx(1.0, abs=1e-3)

    def test_strong_drive_overshoot_bounded_by_two(self):
        tau = np.linspace(0.0, 30 / G, 4000)
        g2 = two_level_g2_analytic(rabi_for(4.0), 0.0, G, tau)
        assert g2.max() > 1.0
        assert g2.max() <= 2.0

    def test_weak_drive_monotonic(self):
        tau = np.linspace(0.0, 30 / G, 2000)
        g2 = two_level_g2_analytic(rabi_for(0.1), 0.0, G, tau)
        assert np.all(np.diff(g2) > -1e-12)

    def test_overdamped_branch_continuous(self):
        # generalized Rabi frequency crosses zero smoothly
        tau = np.linspace(0.0, 10 / G, 50)
        eps = 1e-4 * G
        osc = two_level_g2_analytic(math.sqrt((G / 4) ** 2 + eps**2), 0.0, G, tau)
        hyp = two_level_g2_analytic(math.sqrt((G / 4) ** 2 - eps**2), 0.0, G, tau)
        crit = two_level_g2_analytic(G / 4, 0.0, G, tau)
        assert np.abs(osc - hyp).max() < 1e-6
        assert np.abs(crit - hyp).max() < 1e-6


class TestObe:
    @pytest.mark.parametrize("ratio", [0.4, 4.0])
    def test_matches_analytic_on_resonance(self, ratio):
        tau = np.linspace(0.0, 25 / G, 600)
        omega = rabi_for(ratio)
        numeric = two_level_obe_g2(omega, 0.0, G, tau)
        analytic = two_level_g2_analytic(omega, 0.0, G, tau)
        assert np.abs(numeric - analytic).max() <= 1e-9

    @pytest.mark.parametrize("omega,delta", [
        (0.3, -0.5), (1.7, -2.3), (2.0, 1.0), (10.0, -4.0), (0.05, 3.0),
    ])
    def test_matches_affine_bloch_expm_off_resonance(self, omega, delta):
        tau = np.linspace(0.0, 15 / G, 40)
        numeric = two_level_obe_g2(omega * G, delta * G, G, tau)
        m = affine_bloch_matrix(omega * G, delta * G, G)
        rho_ee = np.array([(expm(m * t) @ [0.0, 0.0, 0.0, 1.0])[0] for t in tau])
        steady = two_level_steady_excited(omega * G, delta * G, G)
        assert np.abs(numeric - rho_ee / steady).max() <= 1e-10

    @pytest.mark.parametrize("offset", [1e-6, -1e-6])
    def test_near_exceptional_point(self, offset):
        # critical damping on resonance: the two decay rates nearly coincide
        tau = np.linspace(0.0, 25 / G, 600)
        omega = G / 4 * (1 + offset)
        numeric = two_level_obe_g2(omega, 0.0, G, tau)
        analytic = two_level_g2_analytic(omega, 0.0, G, tau)
        assert np.abs(numeric - analytic).max() <= 1e-7

    def test_exceptional_point_off_resonance_refused(self):
        # an exactly defective generator off resonance (a zero of the
        # discriminant of the Bloch matrix's characteristic cubic, found by
        # bisection at Delta = 0.05 Gamma) has no closed form to fall back
        # on: refused instead of returning rounding noise
        with pytest.raises(IntegrationError):
            two_level_obe_g2(0.25516490602389 * G, 0.05 * G, G,
                             np.linspace(0.0, 25 / G, 50))

    @pytest.mark.parametrize("offset", [0.0, 1e-14, -1e-14, 1e-12, -1e-12])
    def test_exceptional_point_on_resonance_answered(self, offset):
        # the exact resonant exceptional point (reached from the CLI by
        # --icl 0.4475) and its neighbourhood, where the eigen-propagator
        # gives up: the closed form is exact on resonance
        tau = np.linspace(0.0, 25 / G, 50)
        omega = G / 4 * (1 + offset)
        numeric = two_level_obe_g2(omega, 0.0, G, tau)
        analytic = two_level_g2_analytic(omega, 0.0, G, tau)
        assert np.all(np.isfinite(numeric))
        assert np.abs(numeric - analytic).max() <= 1e-12

    @pytest.mark.parametrize("omega,delta", [(0.3, -0.5), (2.0, 1.0), (0.2, 0.0), (4.0, 0.0)])
    def test_mode_sum_matches_propagated_state(self, omega, delta):
        # g2 projects on rho_ee before propagating; against the whole state
        # propagated, then its rho_ee read
        omega, delta = omega * G, delta * G
        tau = np.concatenate([[0.0], np.random.default_rng(3).uniform(0.0, 25 / G, 200)])
        h = [[0.0, omega / 2.0], [omega / 2.0, -delta]]
        y0 = [1.0, 0.0, 0.0, 0.0]
        lam, amp, _ = linear_modes(lindblad_generator(h, [(G, 0, 1)]), y0, np.eye(4))
        traj = sum_modes(lam, amp, tau, y0)
        ref = traj[:, 1] / two_level_steady_excited(omega, delta, G)
        assert np.abs(two_level_obe_g2(omega, delta, G, tau) - ref).max() <= 1e-12

    @pytest.mark.parametrize("omega,delta,method", [
        (2.0, -1.0, "eigen-propagator"), (0.25, 0.0, "closed-form")])
    def test_report(self, omega, delta, method):
        # the smallest overlap against scipy's unit left and right
        # eigenvectors, also where the guard refused and the closed form answered
        omega, delta = omega * G, delta * G
        report = {}
        obe.two_level_obe_g2(omega, delta, G, 1e-9, 2, report)
        assert set(report) == {"method", "min_overlap"} and report["method"] == method
        h = [[0.0, omega / 2.0], [omega / 2.0, -delta]]
        _, w, v = eig(lindblad_generator(h, [(G, 0, 1)]), left=True)
        overlap = np.abs(np.einsum("ij,ij->j", w.conj(), v)).min()
        if method == "eigen-propagator":
            assert report["min_overlap"] == pytest.approx(overlap, rel=1e-9)
        else:  # rounding dominates the overlaps at the exceptional point
            assert report["min_overlap"] < _MIN_OVERLAP and overlap < _MIN_OVERLAP

    def test_zero_delay(self):
        assert two_level_obe_g2(2 * G, -G, G, [0.0, 1e-9])[0] == 0.0
        # every row at tau = 0 holds the post-detection state exactly
        assert np.array_equal(two_level_obe_g2(2 * G, -G, G, [0.0, 0.0, 1e-9])[:2],
                              [0.0, 0.0])
        # every delay is measured from the detection, so a grid may start later
        assert len(two_level_obe_g2(2 * G, -G, G, [1e-9, 2e-9])) == 2

    def test_non_finite_delay_rejected(self):
        with pytest.raises(ValueError):
            two_level_obe_g2(2 * G, -G, G, [0.0, math.nan])

    def test_unsorted_delays_match_sorted(self):
        tau = np.linspace(0.0, 25 / G, 700)
        order = np.random.default_rng(12).permutation(len(tau))
        assert np.array_equal(two_level_obe_g2(2 * G, -G, G, tau[order]),
                              two_level_obe_g2(2 * G, -G, G, tau)[order])

    def test_empty_grid(self):
        g2 = two_level_obe_g2(2 * G, -G, G, [])
        assert isinstance(g2, np.ndarray) and g2.shape == (0,)

    def test_steady_state_closed_form(self):
        # long-time value of rho_ee against the standard saturation formula
        omega, delta = 1.7 * G, -2.3 * G
        tau = np.linspace(0.0, 200 / G, 400)
        g2 = two_level_obe_g2(omega, delta, G, tau)
        assert g2[-1] == pytest.approx(1.0, abs=1e-6)
        steady = two_level_steady_excited(omega, delta, G)
        assert steady == pytest.approx(
            (omega**2 / 4) / (delta**2 + omega**2 / 2 + G**2 / 4), rel=1e-12)

    def test_no_drive_rejected(self):
        with pytest.raises(ValueError):
            two_level_obe_g2(0.0, 0.0, G, [0.0, 1e-9])


@pytest.mark.parametrize("delays", [[0.0, -1e-6, 1e-8], [0.0, math.nan], [math.inf]],
                         ids=["negative", "nan", "inf"])
@pytest.mark.parametrize("model", ["analytic", "obe", "four-level"])
def test_every_model_refuses_bad_delays(model, delays):
    # one delay rule for the three g2 models
    from singleatom.bloch import FourLevelParams, four_level_g2
    g2 = {"analytic": lambda tau: two_level_g2_analytic(G, 0.0, G, tau),
          "obe": lambda tau: two_level_obe_g2(G, 0.0, G, tau),
          "four-level": lambda tau: four_level_g2(
              FourLevelParams(i_cl=300.0, i_rl=100.0, delta_cl=-5 * G), tau)}[model]
    with pytest.raises(ValueError, match="nonnegative"):
        g2(delays)
