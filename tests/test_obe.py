"""The standard-library two-level Bloch kernel: its generator against the
numpy Lindblad builder, its modes against numpy's eigendecomposition, and its
g2 against a 50-digit matrix exponential."""

import math

import mpmath as mp
import numpy as np
import pytest

from singleatom import integrator
from singleatom.bloch.state import lindblad_generator
from singleatom.constants import (RB87_GAMMA_D2 as G, RB87_ISAT_F2_F3, TWO_PI,
                                  intensity_from_mw_cm2, rabi_frequency)
from singleatom.obe import (_checked_delays, _cubic_roots, _generator, _modes,
                            two_level_obe_g2)

README_OMEGA = rabi_frequency(intensity_from_mw_cm2(103.0), RB87_ISAT_F2_F3)


def exact_g2(omega, delta, taus, dps=50):
    """g2 at each delay from mpmath's expm of the float64 generator, taken as
    exact, over the steady excitation of the same inputs."""
    with mp.workdps(dps):
        gen = mp.matrix(_generator(omega, delta, G))
        o, d = mp.mpf(omega), mp.mpf(delta)
        steady = (o**2 / 4) / (d**2 + o**2 / 2 + mp.mpf(G)**2 / 4)
        return [(mp.expm(gen * mp.mpf(t)) * mp.matrix([1, 0, 0, 0]))[1] / steady
                for t in taus]


class TestGenerator:
    def test_bit_for_bit_with_the_lindblad_builder(self):
        # every entry and the sign of every zero, over twelve decades of each
        # parameter, signed zero detunings included
        rng = np.random.default_rng(25)
        for k in range(2000):
            omega = float(rng.uniform(-1, 1) * 10 ** rng.uniform(-300, 300))
            delta = (0.0, -0.0)[k % 2] if k % 5 == 0 else float(
                rng.uniform(-1, 1) * 10 ** rng.uniform(-300, 300))
            gamma = float(10 ** rng.uniform(-300, 300))
            h = [[0.0, omega / 2.0], [omega / 2.0, -delta]]
            ref = lindblad_generator(h, [(gamma, 0, 1)])
            assert np.array(_generator(omega, delta, gamma)).tobytes() == ref.tobytes()


class TestModes:
    def test_eigenvalues_match_numpy(self):
        # the three cubic roots and the exact 0 against numpy's eig of the
        # same generator, underdamped, overdamped and far detuned
        rng = np.random.default_rng(7)
        for _ in range(300):
            omega = float(G * 10 ** rng.uniform(-2, 2))
            delta = float(rng.choice([-1, 1]) * G * 10 ** rng.uniform(-3, 3))
            gen = _generator(omega, delta, G)
            real, pairs, _ = _modes(gen)
            ours = [complex(lam) for lam, _ in real]
            ours += [lam for lam, _ in pairs] + [lam.conjugate() for lam, _ in pairs]
            ref = list(np.linalg.eigvals(np.array(gen)))
            for lam in ours:
                gap = min(abs(lam - r) for r in ref)
                assert gap <= 1e-12 * max(abs(lam), G)

    def test_real_root_is_bracketed(self):
        # a root in [-a2, 0] for weak, strong, resonant and far-detuned drives
        for a2, a1, a0 in [(0.5, 0.25, 0.0), (0.5, 1.0, 0.5), (0.5, 1e-6, 1e-7),
                           (1.0, 4.0, 0.0), (1e-3, 1.0, 1e-3 * 0.999)]:
            root = _cubic_roots(a2, a1, a0)[0]
            assert -a2 <= root <= 0.0
            assert abs(((root + a2) * root + a1) * root + a0) <= 1e-15 * (a1 + a2 + a0)

    def test_refusal_matches_linear_modes(self):
        # the same guard: the off-resonance exceptional point is refused by
        # both with the same text, and both give the same floor
        gen = _generator(0.25516490602389 * G, 0.05 * G, G)
        with pytest.raises(integrator.IntegrationError, match="exceptional point") as ours:
            _modes(gen)
        with pytest.raises(integrator.IntegrationError) as ref:
            integrator.linear_modes(np.array(gen), [1.0, 0, 0, 0], [0, 1.0, 0, 0])
        assert str(ours.value) == str(ref.value)
        assert ours.value.min_overlap < integrator._MIN_OVERLAP


class TestMpmathOracle:
    """g2 at tau = 5 ns, 50 ns, 300 ns and 5 us against mpmath's 50-digit
    expm of the float64 generator, taken as exact.  Measured largest relative
    errors over the four delays: 4.3e-16 (README drive, -31 MHz at
    103 mW/cm^2), 1.7e-15 (resonance, same intensity), 8.5e-14 (-3.1e4 MHz),
    1.2e-14 (+1e5 MHz), and 8.3e-9 and 1.9e-8 for Omega0 = Gamma/4 (1 + 1e-6)
    and (1 - 1e-6) on resonance, where the rounding grows like eps / s^2 with
    the smallest eigenvector overlap s near the exceptional point (both at
    5 ns).  The bounds are 1e-12 and 1e-7."""

    TAUS = [5e-9, 50e-9, 300e-9, 5e-6]

    @pytest.mark.parametrize("omega,delta_mhz,bound", [
        (README_OMEGA, -31.0, 1e-12),
        (README_OMEGA, 0.0, 1e-12),
        (README_OMEGA, -3.1e4, 1e-12),
        (README_OMEGA, 1e5, 1e-12),
        (G / 4 * (1 + 1e-6), 0.0, 1e-7),
        (G / 4 * (1 - 1e-6), 0.0, 1e-7),
    ], ids=["readme", "resonance", "-3.1e4MHz", "+1e5MHz", "ep-above", "ep-below"])
    def test_relative_error(self, omega, delta_mhz, bound):
        delta = TWO_PI * delta_mhz * 1e6
        report = {}
        got = two_level_obe_g2(omega, delta, G, self.TAUS, report)
        assert report["method"] == "eigen-propagator"
        for value, ref in zip(got, exact_g2(omega, delta, self.TAUS)):
            assert abs(value - ref) <= bound * abs(ref)

    @pytest.mark.parametrize("omega,delta", [(0.0024, 36738.3), (0.0012, -17358.6),
                                             (0.27, -5276.6)])
    def test_weak_far_detuned_drive(self, omega, delta):
        # the excited population is of order (Omega0/Delta)^2 = 1e-14 of the
        # other components: the closed-form null vectors keep it to 1e-11,
        # where a Gaussian elimination on G - lambda I lost it to 1e-2
        omega, delta = omega * G, delta * G
        taus = [1e-9, 5e-9, 5e-8, 3e-7]
        got = two_level_obe_g2(omega, delta, G, taus)
        for value, ref in zip(got, exact_g2(omega, delta, taus)):
            assert abs(value - ref) <= 1e-11


class TestKernel:
    def test_returns_floats_and_zero_at_zero_delay(self):
        g2 = two_level_obe_g2(README_OMEGA, TWO_PI * -31e6, G, [0.0, 1e-9, 0.0])
        assert all(type(v) is float for v in g2)
        assert g2[0] == 0.0 and g2[2] == 0.0 and g2[1] > 0.0

    def test_overdamped_resonant_drive_sums_four_real_modes(self):
        real, pairs, _ = _modes(_generator(0.2 * G, 0.0, G))
        assert len(real) == 4 and not pairs
        tau = np.linspace(0.0, 25 / G, 300)
        from singleatom.readout import two_level_g2
        assert np.abs(np.array(two_level_obe_g2(0.2 * G, 0.0, G, tau))
                      - two_level_g2(0.2 * G, 0.0, G, tau.tolist())).max() <= 1e-12

    def test_overflowing_drive_gives_nan(self):
        # the CLI's --icl 1e300: the steady excitation is inf / inf
        g2 = two_level_obe_g2(4e157, TWO_PI * -31e6, G, [0.0, 1e-9])
        assert all(math.isnan(v) for v in g2)

    @pytest.mark.parametrize("delays", [[0.0, -1e-9], [math.nan], [math.inf], [[0.0, 1e-9]],
                                        0.5, ["x"], [0.0, 1e-9], [], np.array([0.0, 2e-9]),
                                        ["1e-9"]])
    def test_delay_rule_is_the_integrators(self, delays):
        try:
            expected = integrator._checked_delays(delays).tolist()
        except ValueError:
            with pytest.raises(ValueError):
                _checked_delays(delays)
        else:
            assert _checked_delays(delays) == expected
