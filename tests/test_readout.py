"""The stdlib closed forms against numpy's evaluation of the same laws.

The CLI's stirap, larmor, bell, correlations, pair-rate and
two-level-analytic g2 runs compute with ``singleatom.readout`` and the
standard library only; their outputs must stay those of the numpy
expressions they replaced: bit for bit, except where ``math.exp``, ``cos`` or
``sin`` round differently from numpy's vectorized functions, by an ulp.  The
noisy-singlet CHSH law is checked against the density-matrix algebra of
``singleatom.entanglement`` instead, to rounding.
"""

import argparse
import math

import numpy as np
import pytest
from scipy.linalg import expm

from singleatom.cli import (_args, _parse_grid, run_bell, run_correlations, run_g2,
                            run_larmor)
from singleatom.cli_g2 import _check_g2
from singleatom.cli_readout import _radians
from singleatom.constants import RB87_GAMMA_D2 as G, linspace
from singleatom.obe import two_level_obe_g2, two_level_steady_excited
from singleatom.entanglement import (MeasurementSetting, bell_state, chsh, correlation,
                                     noisy_channel)
from singleatom.readout import (correlation_curve, cos_sin_degrees, larmor_survival,
                                singlet_chsh, two_level_g2)


def bits(values) -> np.ndarray:
    """The IEEE bit patterns of a float sequence, so -0.0 differs from 0.0."""
    return np.asarray(values, dtype=float).view(np.int64)


def larmor_args(t_max_us: float, points: int) -> argparse.Namespace:
    return argparse.Namespace(b_mgauss=132.0, g_f=-0.5, t_max_us=t_max_us, points=points)


class TestLarmorGrid:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_linspace(self, seed):
        rng = np.random.default_rng(seed)
        for trial in range(200):
            t_max_us = 10.0 ** rng.uniform(-6.0, 4.0)
            points = 2 if trial == 0 else int(rng.integers(2, 4000))
            stop = t_max_us * 1e-6
            _, (t_ns, survival) = run_larmor(larmor_args(t_max_us, points))
            grid = np.linspace(0.0, stop, points)
            assert (bits(t_ns) == bits(grid * 1e9)).all()
            # the survival column pins the time grid itself, not only its nanoseconds
            expected = [larmor_survival(132.0 * 1e-7, -0.5, t) for t in grid]
            assert (bits(survival) == bits(expected)).all()


class TestCorrelationCurve:
    @pytest.mark.parametrize("basis, offset", [("x", 0.0), ("y", math.pi / 2.0)])
    def test_matches_numpy_cos(self, basis, offset):
        rng = np.random.default_rng(11)
        for _ in range(50):
            grid = rng.uniform(-720.0, 720.0, size=int(rng.integers(1, 2000)))
            visibility = rng.uniform()
            curve = correlation_curve(basis, [math.radians(b) for b in grid], visibility)
            expected = 0.5 * (1.0 + visibility * np.cos(2.0 * np.radians(grid) - offset))
            assert isinstance(curve, list)
            assert (bits(curve) == bits(expected)).all()

    def test_cli_columns_match_numpy(self):
        # the grid as validation parses it for the runner
        args = argparse.Namespace(basis="y", visibility=0.81,
                                  beta_deg_grid=_parse_grid("-90..270:0.37", "--beta-deg"))
        _, (beta_deg, probs) = run_correlations(args)
        grid = -90.0 + 0.37 * np.arange(len(beta_deg))
        beta = np.radians(grid)
        assert (bits(beta_deg) == bits([math.degrees(b) for b in beta])).all()
        assert (bits(probs) == bits(0.5 * (1.0 + 0.81 * np.cos(2.0 * beta - math.pi / 2)))).all()

    @pytest.mark.parametrize("basis, visibility", [("z", 1.0), ("x", 1.5), ("y", -0.1)])
    def test_bad_arguments_rejected(self, basis, visibility):
        with pytest.raises(ValueError):
            correlation_curve(basis, [0.0], visibility)


def bloch_generator(omega, delta, gamma):
    """Oracle: the two-level master equation written out on (rho_gg, rho_ee,
    Re rho_ge, Im rho_ge), for the drive h = [[0, Omega/2], [Omega/2, -Delta]]
    and the decay e -> g at gamma."""
    return np.array([
        [0.0, gamma, 0.0, -omega],
        [0.0, -gamma, 0.0, omega],
        [0.0, 0.0, -gamma / 2.0, delta],
        [omega / 2.0, -omega / 2.0, -delta, -gamma / 2.0],
    ])


def numpy_two_level_g2(omega0_rabi, delta, gamma, tau):
    """The numpy evaluation of the closed form that ``readout.two_level_g2``
    replaced, kept as its oracle."""
    g = gamma
    or_sq = omega0_rabi**2 + delta**2 - (g / 4.0) ** 2
    envelope = np.exp(-3.0 * g * tau / 4.0)
    if or_sq > 0:
        omega_r = np.sqrt(or_sq)
        osc = np.cos(omega_r * tau) + (3 * g / (4 * omega_r)) * np.sin(omega_r * tau)
    elif or_sq < 0:
        kappa = np.sqrt(-or_sq)
        osc = np.cosh(kappa * tau) + (3 * g / (4 * kappa)) * np.sinh(kappa * tau)
    else:
        osc = 1.0 + 3 * g * tau / 4.0
    return 1.0 - envelope * osc


def within_ulps(got, expected, ulps=4) -> bool:
    """Equal to a few ulps of max(1, |expected|), the rounding of one exp, cos or sin."""
    got, expected = np.asarray(got), np.asarray(expected)
    tolerance = ulps * np.spacing(np.maximum(1.0, np.abs(expected)))
    return bool((np.abs(got - expected) <= tolerance).all())


class TestLinspace:
    @pytest.mark.parametrize("stop,points", [
        (2e-7, 801), (1e-3, 2), (3.3e-6, 20001),
        (1e-318, 3),       # a subnormal step
        (0.0, 5),
    ])
    def test_matches_numpy_bit_for_bit(self, stop, points):
        got = linspace(stop, points)
        assert all(type(v) is float for v in got)
        assert (bits(got) == bits(np.linspace(0.0, stop, points))).all()


class TestTwoLevelG2:
    def test_squares_as_numpy_scalars(self):
        # numpy squares a float64 scalar with the C library's pow, which is
        # not always x*x; the closed form must square the same way
        from singleatom.readout import _square

        x = np.random.default_rng(31).uniform(-1e10, 1e10, 20000)
        with np.errstate(over="ignore"):
            expected = [float(np.float64(v) ** 2) for v in [*x.tolist(), 1e200, -1e300]]
        got = [_square(v) for v in [*x.tolist(), 1e200, -1e300]]
        assert (bits(got) == bits(expected)).all()

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_numpy_expression(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            # every branch: Or^2 > 0, < 0, and the exact Or^2 = 0 of Omega0 = G/4
            omega = rng.choice([10 ** rng.uniform(-2, 1.5) * G, G / 4])
            delta = rng.choice([0.0, rng.uniform(-10.0, 10.0) * G])
            tau = np.linspace(0.0, 10 ** rng.uniform(-8.0, -5.0), int(rng.integers(2, 3000)))
            got = two_level_g2(omega, delta, G, tau.tolist())
            assert isinstance(got, list) and all(type(v) is float for v in got)
            assert got[0] == 0.0
            assert within_ulps(got, numpy_two_level_g2(np.float64(omega), delta, G, tau))

    @pytest.mark.parametrize("omega,delta,tau_max", [
        (1e200, 0.0, 1e-7),          # Omega0^2 overflows: cos(inf) and inf*0
        (0.0, 1e200, 1e-7),          # Delta^2 overflows
        (1e9, 0.0, 1e300),           # Or * tau overflows
        (1e6, 0.0, 1e290),           # cosh and sinh overflow, exp underflows: 0 * inf
    ], ids=["omega-overflow", "delta-overflow", "phase-overflow", "cosh-overflow"])
    def test_overflow_as_numpy(self, omega, delta, tau_max):
        # math raises where numpy returns inf or nan; the closed form returns numpy's values
        tau = np.linspace(0.0, tau_max, 5)
        got = np.array(two_level_g2(omega, delta, G, tau.tolist()))
        with np.errstate(all="ignore"):
            expected = numpy_two_level_g2(np.float64(omega), np.float64(delta), G, tau)
        assert np.array_equal(np.isnan(got), np.isnan(expected))
        assert np.isnan(got).any()
        finite = np.isfinite(expected)
        assert (got[finite] == expected[finite]).all()

    @pytest.mark.parametrize("omega", [2 * G, 10 * G, 0.6 * G, 0.1 * G, 0.01 * G])
    def test_agrees_with_bloch_equations(self, omega):
        # on resonance the closed form is exact: Or^2 > 0 oscillates, Or^2 < 0
        # is overdamped
        tau = np.linspace(0.0, 25 / G, 400)
        report = {}
        exact = two_level_obe_g2(omega, 0.0, G, 25 / G, 400, report)
        assert report["method"] == "eigen-propagator" and set(report) == {"method", "min_overlap"}
        closed_form = np.array(two_level_g2(omega, 0.0, G, tau.tolist()))
        assert np.abs(closed_form - exact).max() <= 1e-12

    def test_agrees_with_matrix_exponential_at_or_zero(self):
        # Omega0 = G/4 on resonance is the exceptional point, where
        # two_level_obe_g2 answers with this closed form: expm is the oracle
        omega, tau = G / 4, np.linspace(0.0, 25 / G, 200)
        generator = bloch_generator(omega, 0.0, G)
        exact = np.array([(expm(generator * t) @ [1.0, 0.0, 0.0, 0.0])[1] for t in tau])
        exact /= two_level_steady_excited(omega, 0.0, G)
        got = two_level_g2(omega, 0.0, G, tau.tolist())
        assert np.abs(np.array(got) - exact).max() <= 1e-12
        report = {}
        assert np.array_equal(two_level_obe_g2(omega, 0.0, G, 25 / G, 200, report), got)
        assert report["method"] == "closed-form" and set(report) == {"method", "min_overlap"}

    def test_cli_columns_match_numpy(self):
        args = _args(["g2", "--model", "two-level-analytic", "--delta-mhz", "-31", "--icl",
                      "103", "--points", "801"])
        _check_g2(args)  # derives the drive rates that run_g2 reads
        _, (tau_ns, g2) = run_g2(args)
        tau = np.linspace(0.0, 200.0 * 1e-9, 801)
        assert (bits(tau_ns) == bits(tau * 1e9)).all()
        omega3 = G * np.sqrt(1030.0 / (2 * 35.8))  # FourLevelParams.rabi_frequencies[2]
        assert within_ulps(g2, numpy_two_level_g2(omega3, 2 * math.pi * -31.0 * 1e6, G, tau))


def directions(phis):
    """The (cos, sin) of each analyzer angle (radians), as singlet_chsh takes them."""
    return [(math.cos(phi), math.sin(phi)) for phi in phis]


def density_matrix_chsh(p, *phis):
    """The four correlations and S from p|psi-><psi-| + (1-p)I/4 as a 4x4
    density matrix, in ``singlet_chsh``'s order."""
    state = noisy_channel(bell_state("psi-"), p)
    a, a2, b, b2 = (MeasurementSetting(phi=phi) for phi in phis)
    return [correlation(state, x, y) for x in (a, a2) for y in (b, b2)] + [
        chsh(state, a, a2, b, b2)]


def agrees_with_density_matrix(got, p, *phis) -> bool:
    """Within 1e-15 of the density-matrix values, relative to max(1, |value|).

    The oracle's singlet entries are 0.5000000000000001, so its correlations
    differ from the closed form by up to about 3e-16, and S, which sums four
    of them, by up to about 1.5e-15 where it nears 2 sqrt(2)."""
    expected = np.array(density_matrix_chsh(p, *phis))
    return bool((np.abs(np.subtract(got, expected))
                 <= 1e-15 * np.maximum(1.0, np.abs(expected))).all())


class TestSingletChsh:
    DEFAULT_DEG = (0.0, 90.0, 45.0, 135.0)  # the CLI's analyzer angles

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_density_matrix(self, seed):
        rng = np.random.default_rng(seed)
        for trial in range(300):
            p = (0.0, 1.0)[trial] if trial < 2 else float(rng.uniform())
            phis = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 4).tolist()
            got = singlet_chsh(p, *directions(phis))
            assert all(type(v) is float for v in got)
            assert agrees_with_density_matrix(got, p, *phis)

    @pytest.mark.parametrize("p", [0.0, 0.37, 0.9, 1.0])
    def test_default_angles_reach_tsirelson_times_p(self, p):
        got = singlet_chsh(p, *map(cos_sin_degrees, self.DEFAULT_DEG))
        assert got[4] == pytest.approx(2.0 * math.sqrt(2.0) * p, abs=1e-15)
        assert agrees_with_density_matrix(got, p, *map(math.radians, self.DEFAULT_DEG))

    @pytest.mark.parametrize("degrees", [
        (1e300, 90.0, 45.0, 135.0),
        (400.0, -450.0, 765.0, 1e17),
        (-3.7e16, 2e16, -1e20, 5e18),
    ])
    def test_huge_angles_reduced_as_the_cli(self, degrees):
        # the CLI reduces degrees exactly modulo 360 (cos_sin_degrees, and
        # cli_readout._radians for the other scenarios); integer arithmetic gives the
        # same reduced angles
        reduced = [math.radians(math.copysign(int(abs(d)) % 360, d) + math.fmod(d, 1.0))
                   for d in degrees]
        phis = [_radians(d) for d in degrees]
        assert phis == pytest.approx(reduced, abs=1e-15)
        for d, phi in zip(degrees, reduced):
            assert cos_sin_degrees(d) == pytest.approx((math.cos(phi), math.sin(phi)), abs=1e-15)
        p = 0.83
        got = singlet_chsh(p, *map(cos_sin_degrees, degrees))
        assert agrees_with_density_matrix(got, p, *phis)

    @pytest.mark.parametrize("quarter", [-8, -5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5, 7, 2**40 + 3])
    def test_quadrant_angles_exact(self, quarter):
        # cos and sin of a multiple of 90 degrees are exactly 0 and +-1
        ideal = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)][quarter % 4]
        assert cos_sin_degrees(90.0 * quarter) == ideal

    def test_cli_rows(self):
        args = argparse.Namespace(phi_a_deg=1e300, phi_a2_deg=-450.0, phi_b_deg=45.0,
                                  phi_b2_deg=1e17, noise_p=0.6)
        header, columns = run_bell(args)
        assert header == ["setting_a", "setting_b", "phi_a_deg", "phi_b_deg", "value"]
        assert list(columns[0]) == ["a", "a", "a2", "a2", "S"]
        assert list(columns[1]) == ["b", "b2", "b", "b2", ""]
        phis = [_radians(d) for d in (1e300, -450.0, 45.0, 1e17)]
        assert agrees_with_density_matrix(columns[4], 0.6, *phis)
