"""Gaussian-beam trap geometry, temperatures, heating and effective volume."""

import math
import sys

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from singleatom.constants import KB, PI, RB87_GAMMA_D2, RB87_MASS, TWO_PI
from singleatom.trapgeometry import (
    GaussianBeam,
    TrapSpec,
    doppler_temperature,
    harmonic_frequencies,
    heating_rate,
    recoil_temperature,
    trap_volume,
)

BEAM = GaussianBeam(power=0.044, waist_w0=3.5e-6, wavelength=856e-9)
TRAP = TrapSpec.from_beam(BEAM, depth_u=KB * 1e-3, atom_mass=RB87_MASS)


def intensity(beam, r, z):
    """Oracle of the beam's peak intensity and Rayleigh length: the TEM00
    intensity (W/m^2) at radius r and axial position z."""
    w_sq = beam.waist_w0**2 * (1.0 + (z / beam.rayleigh_length) ** 2)
    return 2 * beam.power / (PI * w_sq) * math.exp(-2 * r**2 / w_sq)


def trap_potential(trap, r, z):
    """Oracle of the harmonic frequencies: the exact Gaussian-beam potential
    (J), normalized to -depth at the focus."""
    w_sq_rel = 1.0 + (z / trap.z_r) ** 2
    return -trap.depth_u / w_sq_rel * math.exp(-2 * r**2 / (trap.waist_w0**2 * w_sq_rel))


class TestIntensity:
    def test_peak_value(self):
        assert intensity(BEAM, 0.0, 0.0) == pytest.approx(BEAM.peak_intensity, rel=1e-12)

    def test_half_peak_at_rayleigh_length(self):
        assert intensity(BEAM, 0.0, BEAM.rayleigh_length) == pytest.approx(
            BEAM.peak_intensity / 2, rel=1e-12)

    @pytest.mark.parametrize("z", [0.0, 2e-5, 1e-4])
    def test_radial_integral_gives_total_power(self, z):
        # independent radial quadrature of I * 2 pi r dr
        power, _ = quad(lambda r: intensity(BEAM, r, z) * TWO_PI * r, 0.0, 1e-3,
                        limit=200)
        assert power == pytest.approx(BEAM.power, rel=1e-6)


class TestHarmonicFrequencies:
    def test_against_curvature_of_exact_potential(self):
        # finite-difference curvature of the Gaussian-beam potential
        omega_r, omega_z = harmonic_frequencies(TRAP)
        h = 1e-9
        curv_r = (trap_potential(TRAP, h, 0.0) - 2 * trap_potential(TRAP, 0.0, 0.0)
                  + trap_potential(TRAP, -h, 0.0)) / h**2
        assert math.sqrt(curv_r / TRAP.atom_mass) == pytest.approx(omega_r, rel=1e-5)
        hz = 1e-7
        curv_z = (trap_potential(TRAP, 0.0, hz) - 2 * trap_potential(TRAP, 0.0, 0.0)
                  + trap_potential(TRAP, 0.0, -hz)) / hz**2
        assert math.sqrt(curv_z / TRAP.atom_mass) == pytest.approx(omega_z, rel=1e-5)

    def test_sqrt_depth_scaling(self):
        deep = TrapSpec(depth_u=4 * TRAP.depth_u, waist_w0=TRAP.waist_w0,
                        z_r=TRAP.z_r, atom_mass=TRAP.atom_mass)
        wr1, wz1 = harmonic_frequencies(TRAP)
        wr2, wz2 = harmonic_frequencies(deep)
        assert wr2 == pytest.approx(2 * wr1, rel=1e-12)
        assert wz2 == pytest.approx(2 * wz1, rel=1e-12)

    def test_aspect_ratio_identity(self):
        wr, wz = harmonic_frequencies(TRAP)
        assert wr / wz == pytest.approx(
            math.sqrt(2) * TRAP.z_r / TRAP.waist_w0, rel=1e-12)

    def test_harmonic_expansion_within_one_percent(self):
        # quadratic expansion vs the exact beam potential close to the focus
        for fr in np.linspace(0.0, 0.19, 8):
            for fz in np.linspace(0.0, 0.19, 8):
                r, z = fr * TRAP.waist_w0, fz * TRAP.z_r
                exact = trap_potential(TRAP, r, z)
                harmonic = -TRAP.depth_u * (
                    1 - 2 * (r / TRAP.waist_w0) ** 2 - (z / TRAP.z_r) ** 2)
                assert abs(exact - harmonic) / abs(exact) < 0.01


class TestTemperatures:
    def test_doppler_rb87(self):
        assert doppler_temperature(RB87_GAMMA_D2) == pytest.approx(146e-6, rel=0.01)

    def test_doppler_scaling(self):
        assert doppler_temperature(2 * RB87_GAMMA_D2) == pytest.approx(
            2 * doppler_temperature(RB87_GAMMA_D2), rel=1e-12)
        assert doppler_temperature(0.0) == 0.0

    def test_recoil_rb87(self):
        assert recoil_temperature(780.246e-9, RB87_MASS) == pytest.approx(
            361.95e-9, rel=1e-3)

    def test_recoil_scaling(self):
        base = recoil_temperature(780e-9, RB87_MASS)
        assert recoil_temperature(2 * 780e-9, RB87_MASS) == pytest.approx(
            base / 4, rel=1e-12)
        assert recoil_temperature(780e-9, 2 * RB87_MASS) == pytest.approx(
            base / 2, rel=1e-12)


class TestHeating:
    def test_harmonic_virial_value(self):
        assert heating_rate(361.95e-9, 24.0) == pytest.approx(
            361.95e-9 * 24.0 / 3.0, rel=1e-12)

    def test_far_detuned_trap_operating_point(self):
        assert heating_rate(362e-9, 24.0) == pytest.approx(2.9e-6, rel=0.01)


class TestTrapVolume:
    def test_frozen_value(self):
        # Uhat = 1 mK * kB, T = 0.1 mK, w0 = 3.5 um, lambda = 856 nm
        assert trap_volume(TRAP, 1e-4) == pytest.approx(6.0765180303e-17, rel=1e-6)

    def test_vanishes_at_zero_temperature(self):
        volumes = [trap_volume(TRAP, t) for t in (1e-7, 1e-6, 1e-5)]
        assert volumes[0] < volumes[1] < volumes[2]
        assert volumes[0] < 1e-19

    def test_monotone_in_temperature(self):
        temps = np.linspace(1e-5, 9e-4, 30)
        volumes = [trap_volume(TRAP, t) for t in temps]
        assert all(a < b for a, b in zip(volumes, volumes[1:]))

    @pytest.mark.parametrize("eta", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_cold_sample_against_mpmath(self, eta):
        # ln(1/(1 - eta)) of a cold sample, eta = kB*T/U, loses no digits
        temperature = eta * TRAP.depth_u / KB
        eta = KB * temperature / TRAP.depth_u  # as trap_volume rounds it
        with mpmath.workdps(50):
            e = mpmath.mpf(eta)
            exact = (mpmath.mpf(PI) * mpmath.mpf(TRAP.waist_w0) ** 2 * mpmath.mpf(TRAP.z_r)
                     * mpmath.log(1 / (1 - e)) * mpmath.sqrt(e / (1 - e)))
            error = abs(trap_volume(TRAP, temperature) - exact) / exact
        assert error <= 4 * sys.float_info.epsilon

    def test_untrapped_sample_rejected(self):
        with pytest.raises(ValueError):
            trap_volume(TRAP, 1.1e-3)
        with pytest.raises(ValueError):
            trap_volume(TRAP, 1.0e-3)
