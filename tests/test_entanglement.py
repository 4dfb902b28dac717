"""Bell states, correlations, CHSH, fidelity, aperture state, readout laws."""

import itertools
import math

import numpy as np
import pytest

from singleatom.entanglement import (
    MeasurementSetting,
    TwoQubitState,
    atom_photon_state,
    bell_state,
    chsh,
    correlation,
    fidelity,
    noisy_channel,
    swap_decompose,
    teleport_decompose,
)
from singleatom.entanglement import _BELL_VECTORS
from singleatom.readout import (
    correlation_curve,
    pair_rate_estimate,
    visibility_to_fidelity,
)

CANONICAL = tuple(MeasurementSetting(phi=x)
                  for x in (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4))


def random_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng):
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = x @ x.conj().T
    return TwoQubitState(rho=rho / np.trace(rho).real)


class TestBellStates:
    def test_mutually_orthogonal_and_pure(self):
        names = ("psi+", "psi-", "phi+", "phi-")
        for a, b in itertools.combinations_with_replacement(names, 2):
            overlap = fidelity(bell_state(a), bell_state(b))
            assert overlap == pytest.approx(1.0 if a == b else 0.0, abs=1e-12)

    def test_completeness(self):
        total = sum(bell_state(n).rho for n in ("psi+", "psi-", "phi+", "phi-"))
        assert np.allclose(total, np.eye(4), atol=1e-12)

    def test_singlet_rotationally_invariant(self):
        rng = np.random.default_rng(8)
        singlet = bell_state("psi-")
        for _ in range(10):
            u = random_unitary(rng)
            uu = np.kron(u, u)
            rotated = uu @ singlet.rho @ uu.conj().T
            assert np.allclose(rotated, singlet.rho, atol=1e-12)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            bell_state("sigma+")


class TestCorrelation:
    def test_singlet_equatorial_form(self):
        singlet = bell_state("psi-")
        for pa, pb in ((0.0, 0.3), (1.0, -0.6), (2.0, 2.0)):
            e = correlation(singlet, MeasurementSetting(phi=pa),
                            MeasurementSetting(phi=pb))
            assert e == pytest.approx(-math.cos(pa - pb), abs=1e-12)

    def test_parallel_settings_anticorrelated(self):
        singlet = bell_state("psi-")
        setting = MeasurementSetting(direction=(0.0, 0.0, 1.0))
        assert correlation(singlet, setting, setting) == pytest.approx(-1.0)

    def test_maximally_mixed_uncorrelated(self):
        mixed = TwoQubitState(rho=np.eye(4, dtype=complex) / 4)
        rng = np.random.default_rng(2)
        for _ in range(5):
            phi_a, phi_b = rng.uniform(0, 2 * math.pi, size=2)
            assert correlation(mixed, MeasurementSetting(phi=phi_a),
                               MeasurementSetting(phi=phi_b)) == pytest.approx(0.0, abs=1e-12)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            state = random_state(rng)
            phi_a, phi_b = rng.uniform(0, 2 * math.pi, size=2)
            e = correlation(state, MeasurementSetting(phi=phi_a),
                            MeasurementSetting(phi=phi_b))
            assert abs(e) <= 1.0 + 1e-10


class TestChsh:
    def test_maximal_violation(self):
        assert chsh(bell_state("psi-"), *CANONICAL) == pytest.approx(
            2 * math.sqrt(2), abs=1e-12)

    def test_product_states_classical(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            psi_a = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi_b = rng.normal(size=2) + 1j * rng.normal(size=2)
            state = TwoQubitState.from_vector(np.kron(psi_a, psi_b))
            settings = [MeasurementSetting(phi=x)
                        for x in rng.uniform(0, 2 * math.pi, size=4)]
            assert chsh(state, *settings) <= 2.0 + 1e-9

    def test_degenerate_settings_classical(self):
        rng = np.random.default_rng(10)
        a = MeasurementSetting(phi=0.3)
        b = MeasurementSetting(phi=1.2)
        for _ in range(20):
            state = random_state(rng)
            assert chsh(state, a, a, b, b) <= 2.0 + 1e-9

    def test_tsirelson_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            state = random_state(rng)
            settings = [MeasurementSetting(phi=x)
                        for x in rng.uniform(0, 2 * math.pi, size=4)]
            assert chsh(state, *settings) <= 2 * math.sqrt(2) + 1e-9

    def test_invariant_under_common_rotation(self):
        rng = np.random.default_rng(13)
        singlet = bell_state("psi-")
        base = chsh(singlet, *CANONICAL)
        for _ in range(5):
            u = random_unitary(rng)
            uu = np.kron(u, u)
            rotated = TwoQubitState(rho=uu @ singlet.rho @ uu.conj().T)
            # the singlet is invariant, so the same settings give the same S
            assert chsh(rotated, *CANONICAL) == pytest.approx(base, abs=1e-10)


class TestFidelity:
    def test_self_fidelity(self):
        for name in ("psi+", "psi-", "phi+", "phi-"):
            state = bell_state(name)
            assert fidelity(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        mixed = TwoQubitState(rho=np.eye(4, dtype=complex) / 4)
        assert fidelity(mixed, bell_state("psi+")) == pytest.approx(0.25, abs=1e-12)

    def test_mixed_target_rejected(self):
        mixed = TwoQubitState(rho=np.eye(4, dtype=complex) / 4)
        with pytest.raises(ValueError):
            fidelity(bell_state("psi+"), mixed)


class TestNoisyChannel:
    def test_pure_limit(self):
        target = bell_state("psi-")
        assert np.allclose(noisy_channel(target, 1.0).rho, target.rho, atol=1e-14)

    def test_white_noise_limit(self):
        target = bell_state("psi-")
        assert fidelity(noisy_channel(target, 0.0), target) == pytest.approx(0.25)

    def test_fidelity_formula_on_grid(self):
        target = bell_state("psi-")
        for p in np.linspace(0.0, 1.0, 21):
            f = fidelity(noisy_channel(target, p), target)
            assert f == pytest.approx(p + (1 - p) / 4, abs=1e-12)

    def test_violation_threshold(self):
        target = bell_state("psi-")
        grid = np.arange(0.5, 1.0, 1e-4)
        s_values = np.array([chsh(noisy_channel(target, p), *CANONICAL) for p in grid])
        threshold = grid[np.argmax(s_values > 2.0)]
        assert threshold == pytest.approx(1 / math.sqrt(2), abs=1e-3)
        assert fidelity(noisy_channel(target, threshold), target) == pytest.approx(
            0.78, abs=5e-3)


class TestVisibilityFidelity:
    def test_measured_point(self):
        assert visibility_to_fidelity(0.81, 0.70) == pytest.approx(0.82, abs=5e-3)

    def test_limits(self):
        assert visibility_to_fidelity(1.0, 1.0) == pytest.approx(1.0)
        assert visibility_to_fidelity(0.0, 0.0) == pytest.approx(0.25)


class TestAtomPhotonState:
    def test_na_029_gives_099(self):
        state = atom_photon_state(math.asin(0.29))
        assert state.fidelity == pytest.approx(0.99, abs=5e-3)

    def test_small_aperture_limit(self):
        assert atom_photon_state(1e-4).fidelity == pytest.approx(1.0, abs=1e-6)

    def test_monotone_degradation(self):
        thetas = np.linspace(0.05, math.pi / 2, 12)
        fids = [atom_photon_state(t).fidelity for t in thetas]
        assert all(a > b for a, b in zip(fids, fids[1:]))
        assert fids[-1] < fids[0]

    def test_state_is_physical(self):
        state = atom_photon_state(math.asin(0.29))
        rho = state.rho
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_invalid_aperture_rejected(self):
        for bad in (0.0, -0.1, math.pi / 2 + 0.01):
            with pytest.raises(ValueError):
                atom_photon_state(bad)


class TestCorrelationCurve:
    def test_x_basis_peak(self):
        assert correlation_curve("x", [0.0], 1.0)[0] == pytest.approx(1.0)

    def test_y_curve_shifted_quarter_turn(self):
        beta = np.linspace(0.0, math.pi, 50)
        x_curve = correlation_curve("x", beta, 0.81)
        y_curve = correlation_curve("y", beta + math.pi / 4, 0.81)
        assert np.allclose(x_curve, y_curve, atol=1e-12)

    def test_peak_to_peak_equals_visibility(self):
        beta = np.linspace(0.0, math.pi, 721)
        curve = correlation_curve("x", beta, 0.81)
        assert max(curve) - min(curve) == pytest.approx(0.81, abs=1e-4)


class TestTeleportAndSwap:
    def test_branch_states_and_corrections(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            alpha, beta = rng.normal(size=2) + 1j * rng.normal(size=2)
            norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
            target = np.array([alpha, beta]) / norm
            for label, amps, correction in teleport_decompose(alpha, beta):
                restored = correction @ amps
                overlap = abs(np.vdot(target, restored))
                assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_decomposition_identity(self):
        # |psi>_A |psi->_BC = 1/2 sum_bell |bell>_AB |cond>_C, exactly
        for alpha, beta in ((1.0, 0.0), (0.6, 0.8), (0.3 + 0.4j, 0.5 - 0.2j)):
            norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
            psi_in = np.array([alpha, beta]) / norm
            total = np.kron(psi_in, _BELL_VECTORS["psi-"])
            rebuilt = np.zeros(8, dtype=complex)
            for label, amps, _ in teleport_decompose(alpha, beta):
                rebuilt += 0.5 * np.kron(_BELL_VECTORS[label], amps)
            assert np.abs(total - rebuilt).max() < 1e-12

    def test_spin_up_through_singlet_branch(self):
        branches = dict(
            (label, amps) for label, amps, _ in teleport_decompose(1.0, 0.0))
        assert np.allclose(branches["psi-"], [-1.0, 0.0], atol=1e-12)

    def test_swap_coefficients(self):
        coeffs = swap_decompose()
        expected = {("psi+", "psi+"): 0.5, ("psi-", "psi-"): -0.5,
                    ("phi+", "phi+"): -0.5, ("phi-", "phi-"): 0.5}
        assert set(coeffs) == set(expected)
        for key, value in expected.items():
            assert coeffs[key] == pytest.approx(value, abs=1e-12)
        assert sum(v**2 for v in coeffs.values()) == pytest.approx(1.0, abs=1e-12)


class TestPairRate:
    def test_heralded_source_operating_point(self):
        rate = pair_rate_estimate(5e-4, math.sqrt(0.95), 1e-6)
        assert rate == pytest.approx(3.5625, rel=1e-6)

    def test_duty_factor_reconciles_quoted_rate(self):
        rate = pair_rate_estimate(5e-4, math.sqrt(0.95), 1e-6, duty_factor=0.22)
        assert rate == pytest.approx(0.8, rel=0.05)

    def test_zero_efficiency(self):
        assert pair_rate_estimate(0.0, 1.0, 1e-6) == 0.0

    def test_quadratic_in_eta(self):
        assert pair_rate_estimate(2e-4, 1.0, 1e-6) == pytest.approx(
            4 * pair_rate_estimate(1e-4, 1.0, 1e-6), rel=1e-12)
