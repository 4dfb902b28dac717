"""Spectral convolution, the bounded minimizer and the Doppler and envelope fits."""

import functools
import math

import numpy as np
import pytest

from singleatom import analysis
from singleatom.analysis import (
    SpectrumProfile,
    convolve_profiles,
    dominant_oscillation_frequency,
    fit_doppler_sigma,
    fit_envelope,
    gaussian_profile,
    kinetic_energy_from_sigma,
    lorentzian_profile,
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


def fwhm(profile):
    """Full width at half maximum of a profile, by linear interpolation."""
    a, f = profile.amplitude, profile.frequency
    half = a.max() / 2.0
    above = np.nonzero(a >= half)[0]
    assert len(above) >= 2, "profile too narrow for the grid"
    lo, hi = above[0], above[-1]

    def cross(i, j):
        if a[j] == a[i]:
            return f[i]
        return f[i] + (half - a[i]) * (f[j] - f[i]) / (a[j] - a[i])

    left = cross(lo - 1, lo) if lo > 0 else f[0]
    right = cross(hi + 1, hi) if hi < len(a) - 1 else f[-1]
    return right - left


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
        assert fwhm(out) == pytest.approx(expected, rel=0.01)

    def test_cavity_laser_reference_width(self):
        assert fwhm(reference_profile()) == pytest.approx(0.94e6, rel=0.10)

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


class TestProfileChecks:
    @pytest.mark.parametrize("column, value", [
        ("amplitude", math.nan), ("amplitude", math.inf), ("frequency", math.inf),
        ("frequency", math.nan)])
    def test_non_finite_refused(self, column, value):
        f, a = grid(), np.ones(len(grid()))
        (a if column == "amplitude" else f)[-1] = value
        with pytest.raises(ValueError, match="must be finite"):
            SpectrumProfile(f, a)

    def test_uniformity_checked_once_per_profile(self, monkeypatch):
        checks = []
        allclose = np.allclose
        monkeypatch.setattr(np, "allclose", lambda *a, **k: checks.append(1) or allclose(*a, **k))
        profile = SpectrumProfile(grid(), np.ones(len(grid())))
        assert [profile.spacing for _ in range(3)] == [0.02e6] * 3 and len(checks) == 1

    def test_non_uniform_grid_refused_on_every_read(self):
        f = grid()
        f[-1] += 0.01e6
        profile = SpectrumProfile(f, np.ones(len(f)))
        for _ in range(2):
            with pytest.raises(ValueError, match="must be uniform"):
                profile.spacing


def doppler_cost(rng):
    """A seeded Doppler-fit cost and its bounds and xatol, as the fit builds
    them: a Gaussian or Lorentzian reference of 101-800 points, blurred by a
    random Gaussian, with or without noise."""
    n = int(rng.integers(101, 801))
    span = rng.uniform(4e6, 20e6)
    f = np.linspace(-span / 2, span / 2, n)
    if rng.random() < 0.5:
        ref = lorentzian_profile(f, rng.uniform(0.02, 0.1) * span)
    else:
        ref = gaussian_profile(f, rng.uniform(0.01, 0.05) * span)
    blur = gaussian_profile(ref.frequency - ref.frequency.mean(),
                            rng.uniform(0.001, 0.05) * span)
    fluor = convolve_profiles(ref, blur)
    amp = fluor.amplitude
    if rng.random() < 0.5:
        amp = np.clip(amp + 0.01 * rng.normal(size=len(amp)), 0.0, None)
    ref, target = ref.peak_normalized(), SpectrumProfile(fluor.frequency, amp).peak_normalized()

    def cost(sigma):
        model = analysis._model_on_grid(ref, sigma, target.frequency)
        return float(np.sum((model - target.amplitude) ** 2))

    return cost, (0.0, (target.frequency[-1] - target.frequency[0]) / 2), ref.spacing * 1e-4


class TestBoundedMinimizer:
    def test_matches_scipy_bit_for_bit(self):
        # scipy is only the oracle: same x, same cost, same evaluation count
        from scipy.optimize import minimize_scalar
        rng = np.random.default_rng(1973)
        for _ in range(40):
            cost, bounds, xatol = doppler_cost(rng)
            x, fx, nfev = analysis._minimize_bounded(cost, *bounds, xatol)
            ref = minimize_scalar(cost, bounds=bounds, method="bounded",
                                  options={"xatol": xatol})
            assert ref.success
            assert (x, fx, nfev) == (ref.x, ref.fun, ref.nfev)

    def test_matches_scipy_on_plateaus(self):
        # a quantized cost has ties, which exercise the point-replacement rules
        from scipy.optimize import minimize_scalar
        rng = np.random.default_rng(1973)
        for _ in range(40):
            c, lo = rng.uniform(-1, 1), rng.uniform(-3, -1)
            hi, step = lo + rng.uniform(2, 6), 10.0 ** rng.uniform(-4, -1)

            def cost(x):
                return step * round(((x - c) ** 2 + 0.1 * math.sin(5 * x)) / step)

            xatol = 10.0 ** rng.uniform(-9, -3)
            x, fx, nfev = analysis._minimize_bounded(cost, lo, hi, xatol)
            ref = minimize_scalar(cost, bounds=(lo, hi), method="bounded",
                                  options={"xatol": xatol})
            assert (x, fx, nfev) == (ref.x, ref.fun, ref.nfev)

    def test_evaluation_cap_and_nan_raise(self):
        costs = []

        def parabola(x):
            costs.append((x - 0.5) ** 2)
            return costs[-1]

        with pytest.raises(RuntimeError) as exc:
            analysis._minimize_bounded(parabola, 0.0, 4.0, 1e-12, maxfev=3)
        assert len(costs) == 3
        assert str(exc.value) == f"failed to converge; residual norm {min(costs):.3g}"
        with pytest.raises(RuntimeError, match="residual norm nan"):
            analysis._minimize_bounded(lambda x: math.nan, 0.0, 1.0, 1e-6)

    @pytest.mark.parametrize("bounds", [(0.0, math.inf), (math.nan, 1.0), (1.0, 0.0)])
    def test_bad_bounds_refused(self, bounds):
        with pytest.raises(ValueError, match="bounds"):
            analysis._minimize_bounded(abs, *bounds, 1e-6)


class TestDopplerFit:
    def test_evaluation_cap_raises(self, monkeypatch):
        monkeypatch.setattr(analysis, "_minimize_bounded",
                            functools.partial(analysis._minimize_bounded, maxfev=4))
        ref = reference_profile()
        with pytest.raises(RuntimeError,
                           match=r"^Doppler fit failed to converge; residual norm \d"):
            fit_doppler_sigma(ref, ref)

    def test_nan_cost_raises(self, monkeypatch):
        monkeypatch.setattr(analysis, "_model_on_grid",
                            lambda ref, sigma, freq: np.full(len(freq), math.nan))
        ref = reference_profile()
        with pytest.raises(RuntimeError,
                           match="^Doppler fit failed to converge; residual norm nan$"):
            fit_doppler_sigma(ref, ref)

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


class TestEnvelopeFit:
    @staticmethod
    def curve_fit_reference(tau, values):
        # the least-squares fit this one replaced, as the oracle
        from scipy.optimize import curve_fit
        popt, _ = curve_fit(lambda t, amp, tau0: 1.0 + amp * np.exp(-t / tau0), tau, values,
                            p0=(max(values[0] - 1.0, 1e-3), (tau[-1] - tau[0]) / 5.0),
                            bounds=([0.0, 0.0], [np.inf, np.inf]), maxfev=10000)
        return popt

    def test_matches_curve_fit(self):
        rng = np.random.default_rng(1973)

        def residual(tau, values, amp, tau0):
            return float(np.sum((1.0 + amp * np.exp(-tau / tau0) - values) ** 2))

        for _ in range(100):
            tau = np.linspace(0.0, rng.uniform(3e-6, 20e-6), int(rng.integers(40, 500)))
            amp, tau0 = rng.uniform(0.05, 0.6), rng.uniform(0.05, 0.4) * tau[-1]
            values = (1.0 + amp * np.exp(-tau / tau0)
                      + rng.uniform(5e-4, 1e-2) * rng.normal(size=len(tau)))
            fit = fit_envelope(tau, values)
            ref = self.curve_fit_reference(tau, values)
            assert residual(tau, values, *fit) <= residual(tau, values, *ref) * (1 + 1e-6)
            assert fit == pytest.approx(tuple(ref), rel=5e-3)

    def test_no_decay_gives_zero_amplitude(self):
        tau = np.linspace(0.0, 1e-6, 50)
        amp, tau0 = fit_envelope(tau, 1.0 - 0.01 * np.exp(-tau / 2e-7))
        assert amp == 0.0 and math.isfinite(tau0)

    @pytest.mark.parametrize("tau, values", [
        ([0.0, 1.0, 2.0], [1.5, math.nan, 1.0]),
        ([0.0, math.inf, 2.0], [1.5, 1.2, 1.0]),
        ([1.0, 1.0], [1.5, 1.2]),
        ([0.0, 1.0], [1.5, 1.2, 1.0]),
    ], ids=["nan-value", "inf-delay", "one-delay", "lengths"])
    def test_bad_input_refused(self, tau, values):
        with pytest.raises(ValueError):
            fit_envelope(tau, values)


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

    def test_overflowing_velocity_squared_is_inf(self):
        # as numpy's float64 square would be, so the CLI refuses the value by name
        assert kinetic_energy_from_sigma(1e6, 1e291, RB87_MASS) == math.inf
        assert kinetic_energy_from_sigma(1e6, 1e145, RB87_MASS) < math.inf


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
