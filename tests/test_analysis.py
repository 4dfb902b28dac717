"""Coincidence normalization, spectral convolution and the Doppler fit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singleatom.analysis import (
    CoincidenceHistogram,
    SpectrumProfile,
    convolve_profiles,
    dark_count_floor,
    dominant_oscillation_frequency,
    fit_doppler_sigma,
    gaussian_profile,
    kinetic_energy_from_sigma,
    lorentzian_profile,
    normalize_g2,
)
from singleatom.constants import KB, RB87_MASS

LAMBDA_D2 = 780.246e-9  # m, the D2 line of the bundled table


def grid(span=8e6, step=0.02e6):
    return np.arange(-span, span + step / 2, step)


def reference_profile():
    f = grid()
    cavity = lorentzian_profile(f, 0.45e6)
    laser = gaussian_profile(f, 0.6e6 / 2.3548)
    return convolve_profiles(cavity, laser)


class TestNormalizeG2:
    def test_uncorrelated_poisson_counts_give_unity(self):
        rng = np.random.default_rng(1)
        r1, r2, dt, t_int = 700.0, 650.0, 1e-9, 3600.0
        expect = r1 * r2 * dt * t_int
        counts = rng.poisson(expect, size=4000)
        hist = CoincidenceHistogram(bin_width=dt, counts=counts, rate_1=r1,
                                    rate_2=r2, t_integration=t_int)
        g2 = normalize_g2(hist)
        mean = g2.mean()
        sigma = g2.std(ddof=1) / math.sqrt(len(g2))
        assert abs(mean - 1.0) < 3 * sigma + 1e-3

    def test_zero_counts(self):
        hist = CoincidenceHistogram(bin_width=1e-9, counts=np.zeros(10, dtype=int),
                                    rate_1=100.0, rate_2=100.0, t_integration=10.0)
        assert np.all(normalize_g2(hist) == 0.0)

    def test_integration_time_scale_invariance(self):
        counts = np.arange(10)
        h1 = CoincidenceHistogram(1e-9, counts, 100.0, 100.0, 10.0)
        h2 = CoincidenceHistogram(1e-9, 2 * counts, 100.0, 100.0, 20.0)
        assert np.allclose(normalize_g2(h1), normalize_g2(h2))

    @given(st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=25, deadline=None)
    def test_inverse_linearity_in_rates(self, factor):
        counts = np.array([5, 10, 3])
        base = normalize_g2(CoincidenceHistogram(1e-9, counts, 100.0, 80.0, 10.0))
        scaled = normalize_g2(CoincidenceHistogram(1e-9, counts, factor * 100.0,
                                                   80.0, 10.0))
        assert np.allclose(scaled, base / factor, rtol=1e-12)


class TestDarkCountFloor:
    def test_no_dark_counts(self):
        assert dark_count_floor(0.0, (700.0, 700.0)) == 0.0

    def test_dark_floor_corrects_antibunching_minimum(self):
        # 300/s dark per detector, atomic signal ~1500/s split on two arms:
        # raw minimum 0.52 corrects to about 0.02
        floor = dark_count_floor(300.0, (750.0, 750.0))
        corrected = 0.52 - floor
        assert corrected == pytest.approx(0.02, abs=0.05)

    def test_linear_in_dark_rate_when_small(self):
        f1 = dark_count_floor(3.0, (750.0, 750.0))
        f2 = dark_count_floor(6.0, (750.0, 750.0))
        assert f2 == pytest.approx(2 * f1, rel=0.02)


class TestConvolution:
    def test_delta_is_identity(self):
        f = grid()
        ref = lorentzian_profile(f, 0.8e6)
        delta = gaussian_profile(f, 0.0)
        out = convolve_profiles(ref, delta)
        interp = np.interp(f, out.frequency, out.amplitude)
        assert np.allclose(interp, ref.amplitude / ref.amplitude.max(), atol=1e-9)

    def test_gaussian_closure(self):
        f = grid()
        a = gaussian_profile(f, 0.5e6 / 2.3548)
        b = gaussian_profile(f, 1.2e6 / 2.3548)
        out = convolve_profiles(a, b)
        expected = math.hypot(0.5e6, 1.2e6)
        assert out.fwhm() == pytest.approx(expected, rel=0.01)

    def test_cavity_laser_reference_width(self):
        assert reference_profile().fwhm() == pytest.approx(0.94e6, rel=0.10)

    def test_area_preserved_before_renormalization(self):
        f = grid()
        a = lorentzian_profile(f, 0.45e6)
        b = gaussian_profile(f, 0.3e6)
        raw = np.convolve(a.amplitude, b.amplitude) * a.spacing
        area_product = (np.sum(a.amplitude) * a.spacing) * (np.sum(b.amplitude) * b.spacing)
        assert np.sum(raw) * a.spacing == pytest.approx(area_product, rel=1e-6)

    def test_mismatched_grids_rejected(self):
        a = lorentzian_profile(grid(step=0.02e6), 0.45e6)
        b = lorentzian_profile(grid(step=0.05e6), 0.45e6)
        with pytest.raises(ValueError):
            convolve_profiles(a, b)


class TestDopplerFit:
    def test_identical_profiles_give_zero_width(self):
        ref = reference_profile()
        sigma, _ = fit_doppler_sigma(ref, ref)
        assert sigma < ref.spacing

    def test_round_trip_with_noise(self):
        ref = reference_profile()
        e_kin = 110e-6
        sigma_true = math.sqrt(2 * KB * e_kin / (3 * RB87_MASS)) / LAMBDA_D2
        doppler = gaussian_profile(ref.frequency - ref.frequency.mean(), sigma_true)
        fluor = convolve_profiles(ref, doppler)
        rng = np.random.default_rng(7)
        noisy = SpectrumProfile(
            fluor.frequency,
            np.clip(fluor.amplitude + 0.01 * rng.normal(size=len(fluor.amplitude)),
                    0.0, None))
        sigma_fit, stderr = fit_doppler_sigma(ref, noisy)
        assert sigma_fit == pytest.approx(sigma_true, rel=0.05)
        assert 0.0 < stderr < 0.1 * sigma_fit

    def test_noiseless_recovery_sub_half_percent(self):
        ref = reference_profile()
        sigma_true = 1.3e5
        doppler = gaussian_profile(ref.frequency - ref.frequency.mean(), sigma_true)
        fluor = convolve_profiles(ref, doppler)
        sigma_fit, _ = fit_doppler_sigma(ref, fluor)
        assert sigma_fit == pytest.approx(sigma_true, rel=0.005)

    def test_quadrature_consistency_for_gaussian_pair(self):
        # if both spectra were pure Gaussians the fitted width would be the
        # quadrature difference of the two FWHM values
        f = grid()
        ref = gaussian_profile(f, 0.94e6 / 2.3548)
        fluor = gaussian_profile(f, 1.04e6 / 2.3548)
        sigma_fit, _ = fit_doppler_sigma(ref, fluor)
        expected = math.sqrt(1.04e6**2 - 0.94e6**2) / 2.3548
        assert sigma_fit == pytest.approx(expected, rel=0.05)


class TestKineticEnergy:
    def test_zero_width(self):
        assert kinetic_energy_from_sigma(0.0, LAMBDA_D2, RB87_MASS) == 0.0

    def test_quadratic_scaling(self):
        e1 = kinetic_energy_from_sigma(1e5, LAMBDA_D2, RB87_MASS)
        e2 = kinetic_energy_from_sigma(2e5, LAMBDA_D2, RB87_MASS)
        assert e2 == pytest.approx(4 * e1, rel=1e-12)

    def test_round_trip_definition(self):
        e_kin = 110e-6
        sigma = math.sqrt(2 * KB * e_kin / (3 * RB87_MASS)) / LAMBDA_D2
        assert kinetic_energy_from_sigma(sigma, LAMBDA_D2,
                                         RB87_MASS) == pytest.approx(e_kin, rel=1e-12)


class TestOscillationFrequency:
    def test_recovers_known_rabi_frequency(self):
        from singleatom.bloch import two_level_g2_analytic
        from singleatom.constants import RB87_GAMMA_D2
        omega = 2 * math.pi * 40e6
        omega_r = math.sqrt(omega**2 - (RB87_GAMMA_D2 / 4) ** 2)
        tau = np.linspace(0.0, 150e-9, 2000)
        g2 = two_level_g2_analytic(omega, 0.0, RB87_GAMMA_D2, tau)
        est = dominant_oscillation_frequency(tau, g2)
        assert est == pytest.approx(omega_r, rel=0.01)
