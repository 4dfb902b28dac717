"""Light shifts: D-line formulas, hyperfine sums, magic point, line data."""

import hashlib
import json
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singleatom import angular, lightshift
from singleatom.constants import C, HBAR, KB, PI, RB87_GJ_GROUND
from singleatom.lightshift import (
    HyperfineLevel,
    LaserField,
    LineDataError,
    LineTable,
    find_magic_wavelength,
    ground_shift_alkali,
    hyperfine_shift,
    load_default_lines,
    load_lines,
    mean_level_shift,
    scattering_rate_alkali,
    shortest_resolved_wavelength,
)

LINES = load_default_lines()


def trap_field(power=0.044, waist=3.5e-6, wavelength=856e-9, epsilon=0):
    intensity = 2 * power / (PI * waist**2)
    return LaserField(wavelength=wavelength, intensity=intensity, epsilon=epsilon)


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

    def test_closed_form_matches_explicit_zeeman_mean(self):
        # the m_F mean in closed form against the mean of every sublevel,
        # any polarization, random wavelengths kept 1 nm off every line
        rng = np.random.default_rng(12)
        resonances = np.array([line.wavelength for line in LINES.lines])
        levels = [("5S1/2", 1, 2), ("5S1/2", 1, 4), ("5P3/2", 3, 4), ("5P3/2", 3, 6)]
        for _ in range(25):
            wavelength = rng.uniform(700e-9, 1600e-9)
            if np.min(np.abs(resonances - wavelength)) < 1e-9:
                continue
            intensity = 10 ** rng.uniform(3, 10)
            for eps in (-1, 0, 1):
                f = LaserField(wavelength=wavelength, intensity=intensity, epsilon=eps)
                for label, two_j, two_f in levels:
                    explicit = np.mean([
                        hyperfine_shift(HyperfineLevel(label, two_j, two_f, tm), f, LINES)
                        for tm in range(-two_f, two_f + 1, 2)
                    ])
                    closed = mean_level_shift(label, f, LINES, two_f=two_f) / HBAR
                    assert closed == pytest.approx(explicit, rel=1e-12)

    def test_j_other_than_table_rejected(self):
        # F = 1 exists for J = 1/2 and J = 3/2; the table says 5P3/2 has J = 3/2
        with pytest.raises(ValueError, match="2J = 3"):
            hyperfine_shift(HyperfineLevel("5P3/2", 1, 2, 0), trap_field(), LINES)

    @pytest.mark.parametrize("label,two_f", [
        ("5S1/2", 0), ("5S1/2", 3), ("5S1/2", 6), ("5P3/2", 8), ("5P3/2", -2),
    ])
    def test_invalid_two_f_rejected(self, label, two_f):
        with pytest.raises(ValueError, match="not a hyperfine level"):
            mean_level_shift(label, trap_field(), LINES, two_f=two_f)

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


class TestCoefficientCache:
    """The intensity enters each shift as a last factor, so the coefficient
    of ``mean_level_shift`` and of ``ground_shift_alkali`` is cached per
    level, wavelength and line table; the shift is the float that the
    uncached formula gives."""

    LEVELS = [("5S1/2", None), ("5S1/2", 2), ("5S1/2", 4),
              ("5P3/2", None), ("5P3/2", 2), ("5P3/2", 4), ("5P3/2", 6)]

    @staticmethod
    def ground_formula(field, m_j, lines):
        d1, d2 = lines.d_lines()
        eps, gjm = field.epsilon, RB87_GJ_GROUND * m_j
        delta1 = lightshift._signed_detuning(d1.omega, field.omega)
        delta2 = lightshift._signed_detuning(d2.omega, field.omega)
        return (3 * PI * C**2 / 2
                * (d1.rate * (1 - eps * gjm) / (3 * d1.omega**3 * delta1)
                   + d2.rate * (2 + eps * gjm) / (3 * d2.omega**3 * delta2))
                * field.intensity)

    def test_shifts_equal_the_uncached_formula(self):
        for wavelength in (856e-9, 1064e-9, 1.4e-6):
            for intensity in (0.0, 2.2870e9, 1.3e9, 7.1e11, 2.2870e9):
                for eps in (-1, 0, 1):
                    f = LaserField(wavelength, intensity, eps)
                    for m_j in (0.5, -0.5):
                        got = ground_shift_alkali(f, m_j, LINES)
                        assert got.hex() == self.ground_formula(f, m_j, LINES).hex()
                for label, two_f in self.LEVELS:
                    terms = lightshift._scalar_terms(label, two_f, f.omega, LINES)
                    expected = sum(c for _, c, _ in terms) * f.intensity
                    assert mean_level_shift(label, f, LINES, two_f=two_f).hex() == expected.hex()

    def test_copy_of_table_and_second_wavelength_miss(self):
        level, ground = lightshift._level_coefficient, lightshift._ground_coefficient
        level.cache_clear()
        ground.cache_clear()

        def shifts(field, lines):
            mean_level_shift("5P3/2", field, lines, two_f=6)
            ground_shift_alkali(field, 0.5, lines)
            return level.cache_info()[:2], ground.cache_info()[:2]

        assert shifts(trap_field(), LINES) == ((0, 1), (0, 1))
        assert shifts(trap_field(power=0.03), LINES) == ((1, 1), (1, 1))
        # the table is keyed by identity: an equal copy is another key
        assert shifts(trap_field(), LineTable(lines=LINES.lines)) == ((1, 2), (1, 2))
        assert shifts(trap_field(wavelength=1064e-9), LINES) == ((1, 3), (1, 3))
        assert shifts(trap_field(power=0.05, wavelength=1064e-9), LINES) == ((2, 3), (2, 3))

    def test_refusals_raise_on_every_call(self):
        # no exception is cached: a resonant field and a bad 2F raise again
        resonant = LaserField(LINES.d_lines()[1].wavelength, 1e9)
        for _ in range(2):
            with pytest.raises(ValueError, match="resonant"):
                ground_shift_alkali(resonant, 0.5, LINES)
            with pytest.raises(ValueError, match="resonant"):
                mean_level_shift("5S1/2", resonant, LINES)
            with pytest.raises(ValueError, match="not a hyperfine level"):
                mean_level_shift("5S1/2", trap_field(), LINES, two_f=6)


class TestMagicWavelength:
    def test_magic_near_1400_nm(self):
        magic = find_magic_wavelength(LINES, (1.2e-6, 1.6e-6))
        assert magic == pytest.approx(1.40e-6, abs=0.05e-6)

    def test_bracket_below_resolution_refused(self):
        # eps times the longest line of either level, 5P3/2 - 4D3/2 at 1529.37 nm
        floor = shortest_resolved_wavelength(LINES)
        assert floor == np.finfo(float).eps * (1529.37 * 1e-9)
        for lo in (1e-26, 1e-22, 0.99 * floor):
            with pytest.raises(ValueError, match=r"eps \* \(longest line\) <= lo < hi"):
                find_magic_wavelength(LINES, (lo, 1.6e-6))
        magic = find_magic_wavelength(LINES, (1e-21, 1.6e-6))
        assert magic == pytest.approx(0.7913e-6, abs=1e-10)

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
        path = tmp_path / "alt.json"
        path.write_text(json.dumps(D_LINES_ONLY))
        monkeypatch.setenv("SINGLEATOM_LINE_DATA", str(path))
        table = load_default_lines()
        assert len(table.lines) == 2

    @pytest.mark.parametrize("label, upper", [("D1", "5P1/2"), ("D2", "5P3/2")])
    def test_missing_d_line_refused(self, tmp_path, label, upper):
        # every trap computation needs both D lines of the ground state
        raw = dict(D_LINES_ONLY, lines=[e for e in D_LINES_ONLY["lines"] if e["label"] != label])
        path = tmp_path / "lines.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(LineDataError, match=f"no line data for the coupling 5S1/2 -> "
                                                f"{upper}, a D line of the ground state"):
            load_lines(str(path))

    def test_override_read_once_per_file_version(self, tmp_path, monkeypatch):
        from singleatom import lightshift
        from singleatom.bloch import FourLevelParams, apply_trap_shifts
        path = tmp_path / "lines.json"
        bundled = resources.files("singleatom.data").joinpath("rb87_lines.json").read_text()
        path.write_text(bundled)
        monkeypatch.setenv("SINGLEATOM_LINE_DATA", str(path))
        calls = []
        load_lines = lightshift.load_lines
        monkeypatch.setattr(lightshift, "load_lines",
                            lambda p: calls.append(p) or load_lines(p))
        params = FourLevelParams(i_cl=1e3, i_rl=1e2, delta_cl=-1e8)
        first = [apply_trap_shifts(params, trap_field()) for _ in range(3)]
        assert calls == [str(path)] and first[0] == first[2]
        # a rewritten file (of another size, so even a coarse mtime clock
        # cannot hide the change) is read again, and its table is the one used
        path.write_text(bundled.replace('"lifetime_ns": 26.24', '"lifetime_ns": 52.5'))
        again = apply_trap_shifts(params, trap_field())
        assert calls == [str(path)] * 2 and again.shift_d != first[0].shift_d


D_LINES_ONLY = {
    "version": 99, "nuclear_two_i": 3,
    "lines": [{"label": "D1", "lower": "5S1/2", "upper": "5P1/2",
               "lambda_nm": 794.979, "lifetime_ns": 27.70,
               "two_j_lower": 1, "two_j_upper": 1},
              {"label": "D2", "lower": "5S1/2", "upper": "5P3/2",
               "lambda_nm": 780.246, "lifetime_ns": 26.24,
               "two_j_lower": 1, "two_j_upper": 3}],
}

PINNED_LINE_DATA_SHA256 = "51e1eecc62fc4feabecf3e3a99903d53898c36bf917b507d1d62c5824dc0d56c"
