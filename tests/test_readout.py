"""The stdlib closed forms against numpy's evaluation of the same laws, bit for bit.

The CLI's stirap, larmor, correlations and pair-rate scenarios compute with
``singleatom.readout`` and the standard library only; their outputs must
stay those of the numpy expressions they replaced.
"""

import argparse
import math

import numpy as np
import pytest

from singleatom.cli import run_correlations, run_larmor
from singleatom.readout import correlation_curve, larmor_survival


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
        args = argparse.Namespace(basis="y", beta_deg="-90..270:0.37", visibility=0.81)
        _, (beta_deg, probs) = run_correlations(args)
        grid = -90.0 + 0.37 * np.arange(len(beta_deg))
        beta = np.radians(grid)
        assert (bits(beta_deg) == bits([math.degrees(b) for b in beta])).all()
        assert (bits(probs) == bits(0.5 * (1.0 + 0.81 * np.cos(2.0 * beta - math.pi / 2)))).all()

    @pytest.mark.parametrize("basis, visibility", [("z", 1.0), ("x", 1.5), ("y", -0.1)])
    def test_bad_arguments_rejected(self, basis, visibility):
        with pytest.raises(ValueError):
            correlation_curve(basis, [0.0], visibility)
