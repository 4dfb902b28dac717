"""The real layout of Hermitian matrices, and the one Lindblad builder on it."""

import numpy as np

from singleatom.bloch.state import from_real_vector
from singleatom.obe import _lindblad


class TestRealLayout:
    def test_round_trip_two_levels(self):
        vecs = np.random.default_rng(4).normal(size=(5, 4))
        rhos = from_real_vector(vecs)
        for (gg, ee, re, im), rho in zip(vecs, rhos):
            assert np.array_equal(rho, [[gg, re + 1j * im], [re - 1j * im, ee]])
        assert np.array_equal(from_real_vector(vecs[0]), rhos[0])


class TestLindbladGenerator:
    def test_single_decay(self):
        # rho_ee decays at gamma, the coherence at gamma / 2, into rho_gg
        m = np.array(_lindblad([[0.0, 0.0], [0.0, 0.0]], [(3.0, 0, 1)]))
        assert np.array_equal(m, np.array([
            [0.0, 3.0, 0.0, 0.0],
            [0.0, -3.0, 0.0, 0.0],
            [0.0, 0.0, -1.5, 0.0],
            [0.0, 0.0, 0.0, -1.5],
        ]))

    def test_three_levels_match_direct_evaluation(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 3))
        h = x + x.T
        jumps = [(1.3, 0, 2), (0.4, 1, 2), (0.7, 0, 1)]
        m = np.array(_lindblad(h.tolist(), jumps))
        # every column's populations sum to zero: d(trace)/dt = 0
        assert np.abs(m[:3].sum(axis=0)).max() <= 1e-14
        # m y is -i[h, rho] + D(rho) evaluated on the matrices
        y = rng.normal(size=9)
        rho = from_real_vector(y)
        direct = -1j * (h @ rho - rho @ h)
        for rate, to, frm in jumps:
            direct[to, to] += rate * rho[frm, frm]
            direct[frm, :] -= rate / 2 * rho[frm, :]
            direct[:, frm] -= rate / 2 * rho[:, frm]
        assert np.abs(from_real_vector(m @ y) - direct).max() <= 1e-13
