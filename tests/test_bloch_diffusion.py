"""Motional correlation envelope and full g2 model."""

import numpy as np
import pytest

from singleatom.analysis import fit_envelope
from singleatom.bloch import (
    DiffusionEnvelope,
    FourLevelParams,
    four_level_g2,
    g2_full_model,
    g2_total_envelope,
)
from singleatom.constants import TWO_PI, intensity_from_mw_cm2

ENV = DiffusionEnvelope(amplitude=0.5, tau0=1.8e-6)
PARAMS = FourLevelParams(i_cl=intensity_from_mw_cm2(103),
                         i_rl=intensity_from_mw_cm2(12),
                         delta_cl=-TWO_PI * 31e6)


class TestEnvelope:
    def test_value_at_zero_delay(self):
        assert g2_total_envelope(ENV, [0.0])[0] == pytest.approx(1.5, abs=1e-12)

    def test_asymptote(self):
        assert g2_total_envelope(ENV, [1.0])[0] == pytest.approx(1.0, abs=1e-10)

    def test_fit_round_trip(self):
        rng = np.random.default_rng(21)
        tau = np.linspace(0.0, 10e-6, 400)
        target = DiffusionEnvelope(amplitude=0.24, tau0=1.8e-6)
        data = g2_total_envelope(target, tau) + 0.002 * rng.normal(size=len(tau))
        amp, tau0 = fit_envelope(tau, data)
        assert amp == pytest.approx(0.24, rel=0.05)
        assert tau0 == pytest.approx(1.8e-6, rel=0.05)


class TestFullModel:
    def test_reduces_to_internal_g2_without_motion(self):
        env = DiffusionEnvelope(amplitude=0.0, tau0=1.8e-6)
        tau = np.linspace(0.0, 100e-9, 60)
        assert np.allclose(g2_full_model(PARAMS, env, tau),
                           four_level_g2(PARAMS, tau), atol=1e-12)

    def test_long_time_asymptote(self):
        tau = np.array([40e-6])
        env = DiffusionEnvelope(amplitude=0.24, tau0=1.8e-6)
        assert g2_full_model(PARAMS, env, tau)[0] == pytest.approx(1.0, abs=5e-3)

    def test_frozen_snapshot(self):
        env = DiffusionEnvelope(amplitude=0.24, tau0=1.8e-6)
        tau = np.array([0.0, 10e-9, 25e-9, 50e-9, 100e-9])
        expected = [0.0, 2.9523821471, 0.5007919827, 0.8563624533, 1.1726926289]
        assert np.allclose(g2_full_model(PARAMS, env, tau), expected, atol=1e-6)
