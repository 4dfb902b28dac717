"""Light shifts: oscillator model, D-line formulas, hyperfine sums, magic point."""

import hashlib
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singleatom import angular
from singleatom.constants import (
    C,
    EPS0,
    HBAR,
    KB,
    PI,
    RB87_GAMMA_D2,
    angular_frequency,
)
from singleatom.lightshift import (
    HyperfineLevel,
    LaserField,
    LineTable,
    SpectralLine,
    classical_polarizability,
    dipole_potential_two_level,
    find_magic_wavelength,
    ground_shift_alkali,
    hyperfine_shift,
    load_default_lines,
    mean_level_shift,
    scattering_rate_alkali,
    scattering_rate_two_level,
)

LINES = load_default_lines()


def trap_field(power=0.044, waist=3.5e-6, wavelength=856e-9, epsilon=0):
    intensity = 2 * power / (PI * waist**2)
    return LaserField(wavelength=wavelength, intensity=intensity, epsilon=epsilon)


class TestPolarizability:
    def test_static_limit_real_positive(self):
        alpha = classical_polarizability(0.0, 2.4e15, 3.8e7)
        assert alpha.imag == 0.0
        assert alpha.real == pytest.approx(6 * PI * EPS0 * C**3 * 3.8e7 / 2.4e15**4,
                                           rel=1e-12)

    def test_real_part_changes_sign_across_resonance(self):
        w0 = 2.4e15
        below = classical_polarizability(0.99 * w0, w0, 3.8e7)
        above = classical_polarizability(1.01 * w0, w0, 3.8e7)
        assert below.real > 0 > above.real

    def test_equivalent_to_driven_oscillator_form(self):
        # independent evaluation with the frequency-dependent damping rate
        w0 = 2.4e15
        gamma = 1e-8 * w0
        w = 0.9 * w0
        gamma_w = (w / w0) ** 2 * gamma
        e2_over_me = 6 * PI * EPS0 * C**3 * gamma / w0**2
        oracle = e2_over_me / (w0**2 - w**2 - 1j * w * gamma_w)
        assert classical_polarizability(w, w0, gamma) == pytest.approx(oracle, rel=1e-12)


class TestTwoLevel:
    W0 = angular_frequency(780.246e-9)
    G = RB87_GAMMA_D2

    def test_zero_intensity(self):
        f = LaserField(wavelength=856e-9, intensity=0.0)
        assert dipole_potential_two_level(f, self.W0, self.G) == 0.0
        assert scattering_rate_two_level(f, self.W0, self.G) == 0.0

    def test_red_detuning_attracts(self):
        assert dipole_potential_two_level(trap_field(), self.W0, self.G) < 0.0

    def test_rwa_scaling_with_detuning(self):
        f1 = LaserField(wavelength=790e-9, intensity=1e7)
        delta1 = f1.omega - self.W0
        omega2 = self.W0 + 2 * delta1
        f2 = LaserField(wavelength=2 * PI * C / omega2, intensity=1e7)
        u1 = dipole_potential_two_level(f1, self.W0, self.G, rwa=True)
        u2 = dipole_potential_two_level(f2, self.W0, self.G, rwa=True)
        assert u2 == pytest.approx(u1 / 2, rel=1e-9)
        r1 = scattering_rate_two_level(f1, self.W0, self.G, rwa=True)
        r2 = scattering_rate_two_level(f2, self.W0, self.G, rwa=True)
        assert r2 == pytest.approx(r1 / 4, rel=1e-9)

    def test_rwa_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            wl = rng.uniform(760e-9, 810e-9)
            inten = rng.uniform(1e3, 1e9)
            f = LaserField(wavelength=wl, intensity=inten)
            delta = f.omega - self.W0
            u = dipole_potential_two_level(f, self.W0, self.G, rwa=True)
            rate = scattering_rate_two_level(f, self.W0, self.G, rwa=True)
            assert HBAR * rate == pytest.approx((self.G / delta) * u, rel=1e-12)

    def test_rwa_agrees_with_full_close_to_resonance(self):
        for rel_det in (-0.019, -0.005, 0.005, 0.019):
            w = self.W0 * (1 + rel_det)
            f = LaserField(wavelength=2 * PI * C / w, intensity=1e7)
            full = dipole_potential_two_level(f, self.W0, self.G, rwa=False)
            rwa = dipole_potential_two_level(f, self.W0, self.G, rwa=True)
            assert abs(full - rwa) / abs(full) < 0.01

    def test_zero_detuning_rejected(self):
        f = LaserField(wavelength=780.246e-9, intensity=1e6)
        w0 = f.omega
        with pytest.raises(ValueError):
            dipole_potential_two_level(f, w0, self.G, rwa=True)


class TestGroundShift:
    def test_trap_depth_one_millikelvin(self):
        u = ground_shift_alkali(trap_field(), 0.5, LINES)
        assert abs(u) / KB == pytest.approx(1e-3, rel=0.10)
        assert u < 0

    def test_linear_polarization_mj_independent(self):
        f = trap_field(epsilon=0)
        assert ground_shift_alkali(f, 0.5, LINES) == ground_shift_alkali(f, -0.5, LINES)

    def test_circular_polarization_splits_and_flips(self):
        up = trap_field(epsilon=1)
        dn = trap_field(epsilon=-1)
        diff_plus = ground_shift_alkali(up, 0.5, LINES) - ground_shift_alkali(up, -0.5, LINES)
        diff_minus = ground_shift_alkali(dn, 0.5, LINES) - ground_shift_alkali(dn, -0.5, LINES)
        assert diff_plus != 0.0
        assert diff_minus == pytest.approx(-diff_plus, rel=1e-12)

    def test_scattering_rate_24_per_s(self):
        assert scattering_rate_alkali(trap_field(), LINES) == pytest.approx(24.0, rel=0.15)

    def test_scattering_zero_intensity(self):
        f = LaserField(wavelength=856e-9, intensity=0.0)
        assert scattering_rate_alkali(f, LINES) == 0.0

    def test_scattering_positive_for_blue_detuning(self):
        f = LaserField(wavelength=740e-9, intensity=1e7)
        assert scattering_rate_alkali(f, LINES) > 0.0

    @given(st.floats(min_value=1e2, max_value=1e10))
    @settings(max_examples=30, deadline=None)
    def test_linearity_in_intensity(self, intensity):
        f1 = LaserField(wavelength=856e-9, intensity=intensity)
        f2 = LaserField(wavelength=856e-9, intensity=2 * intensity)
        u1 = ground_shift_alkali(f1, 0.5, LINES)
        u2 = ground_shift_alkali(f2, 0.5, LINES)
        assert u2 == pytest.approx(2 * u1, rel=1e-12)


class TestHyperfineShift:
    def test_linear_polarization_zeeman_degenerate(self):
        f = trap_field()
        minus = hyperfine_shift(HyperfineLevel("5S1/2", 1, 2, -2), f, LINES)
        plus = hyperfine_shift(HyperfineLevel("5S1/2", 1, 2, 2), f, LINES)
        assert minus == pytest.approx(plus, rel=1e-12)

    def test_zero_intensity(self):
        f = LaserField(wavelength=856e-9, intensity=0.0)
        assert hyperfine_shift(HyperfineLevel("5S1/2", 1, 4, 0), f, LINES) == 0.0

    def test_consistency_with_ground_formula(self):
        f = trap_field()
        u_ground = ground_shift_alkali(f, 0.5, LINES)
        for two_f in (2, 4):
            shifts = [
                hyperfine_shift(HyperfineLevel("5S1/2", 1, two_f, tm), f, LINES)
                for tm in range(-two_f, two_f + 1, 2)
            ]
            avg = np.mean(shifts) * HBAR
            assert avg == pytest.approx(u_ground, rel=0.02)

    def test_zeeman_average_matches_scalar_shift(self):
        f = trap_field()
        scalar = mean_level_shift("5P3/2", f, LINES) / HBAR
        for two_f in (0, 2, 4, 6):
            shifts = [
                hyperfine_shift(HyperfineLevel("5P3/2", 3, two_f, tm), f, LINES)
                for tm in range(-two_f, two_f + 1, 2)
            ]
            assert np.mean(shifts) == pytest.approx(scalar, rel=5e-3)

    def test_cached_angular_factors_give_identical_shift(self):
        # the 6j and CG factors are cached; their arithmetic is exact, so a
        # second evaluation from the cache is the identical float
        level, f = HyperfineLevel("5P3/2", 3, 4, 2), trap_field()
        angular.wigner_6j.cache_clear()
        angular.clebsch_gordan.cache_clear()
        first = hyperfine_shift(level, f, LINES)
        hits = angular.wigner_6j.cache_info().hits + angular.clebsch_gordan.cache_info().hits
        second = hyperfine_shift(level, f, LINES)
        assert second == first
        assert angular.wigner_6j.cache_info().hits + angular.clebsch_gordan.cache_info().hits > hits

    def test_missing_coupling_named(self):
        with pytest.raises(KeyError, match="4D5/2"):
            hyperfine_shift(HyperfineLevel("4D5/2", 5, 4, 0), trap_field(),
                            LineTable(lines=LINES.lines[:2]))

    def test_level_validation(self):
        with pytest.raises(ValueError):
            HyperfineLevel("5S1/2", 1, 2, 4)   # |m_F| > F
        with pytest.raises(ValueError):
            HyperfineLevel("5S1/2", 1, 8, 0)   # F incompatible with J, I


class TestMagicWavelength:
    def test_magic_near_1400_nm(self):
        magic = find_magic_wavelength(LINES, (1.2e-6, 1.6e-6))
        assert magic == pytest.approx(1.40e-6, abs=0.05e-6)

    def test_ground_and_excited_shifts_cross_there(self):
        magic = find_magic_wavelength(LINES, (1.2e-6, 1.6e-6))
        f = LaserField(wavelength=magic, intensity=1e7)
        ground = mean_level_shift("5S1/2", f, LINES)
        excited = mean_level_shift("5P3/2", f, LINES)
        assert ground == pytest.approx(excited, rel=5e-3)

    def test_hyperfine_route_agrees_at_magic(self):
        magic = find_magic_wavelength(LINES, (1.2e-6, 1.6e-6))
        f = LaserField(wavelength=magic, intensity=1e7)
        ground = np.mean([
            hyperfine_shift(HyperfineLevel("5S1/2", 1, 4, tm), f, LINES)
            for tm in range(-4, 5, 2)
        ])
        excited = np.mean([
            hyperfine_shift(HyperfineLevel("5P3/2", 3, 6, tm), f, LINES)
            for tm in range(-6, 7, 2)
        ])
        assert ground == pytest.approx(excited, rel=0.02)

    def test_bracket_without_root_raises(self):
        with pytest.raises(ValueError):
            find_magic_wavelength(LINES, (2.0e-6, 2.5e-6))

    def test_shrunken_bracket_returns_same_root(self):
        first = find_magic_wavelength(LINES, (1.2e-6, 1.6e-6))
        second = find_magic_wavelength(LINES, (first - 0.02e-6, first + 0.02e-6))
        assert second == pytest.approx(first, rel=2e-4)


class TestLineTable:
    def test_checksum_pinned(self):
        raw = resources.files("singleatom.data").joinpath("rb87_lines.json").read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        assert digest == PINNED_LINE_DATA_SHA256

    def test_duplicate_coupling_rejected(self):
        line = LINES.lines[0]
        with pytest.raises(ValueError):
            LineTable(lines=(line, line))

    def test_env_override(self, tmp_path, monkeypatch):
        import json
        alt = {
            "version": 99, "nuclear_two_i": 3,
            "lines": [{"label": "D2", "lower": "5S1/2", "upper": "5P3/2",
                       "lambda_nm": 780.246, "lifetime_ns": 26.24,
                       "two_j_lower": 1, "two_j_upper": 3}],
        }
        path = tmp_path / "alt.json"
        path.write_text(json.dumps(alt))
        monkeypatch.setenv("SINGLEATOM_LINE_DATA", str(path))
        table = load_default_lines()
        assert len(table.lines) == 1


PINNED_LINE_DATA_SHA256 = "51e1eecc62fc4feabecf3e3a99903d53898c36bf917b507d1d62c5824dc0d56c"
