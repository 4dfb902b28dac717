"""Four-level fluorescence model: generator, steady state, g2, trap shifts."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import eig, expm, null_space

from singleatom.bloch import (
    FourLevelParams,
    apply_trap_shifts,
    four_level_g2,
    two_level_g2_analytic,
)
from singleatom.bloch.four_level import FourLevelLiouvillian, post_emission_state
from singleatom import obe
from singleatom.bloch.state import from_real_vector
from singleatom.constants import (
    KB,
    PI,
    RB87_5P32_F2_F3_SPLITTING,
    RB87_GAMMA_D2,
    RB87_ISAT_F2_F3,
    intensity_from_mw_cm2,
)
from singleatom.dense import jacobi_svd
from singleatom.lightshift import LaserField

G = RB87_GAMMA_D2
# upper coherences of the real 16-vector layout, in order
PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def params_at(delta_over_gamma, icl=100.0, irl=12.0, trap_power=None):
    params = FourLevelParams(
        i_cl=intensity_from_mw_cm2(icl),
        i_rl=intensity_from_mw_cm2(irl),
        delta_cl=delta_over_gamma * G,
    )
    if trap_power is not None:
        params = apply_trap_shifts(params, trap_field(trap_power),
                                   kinetic_reduction=100e-6)
    return params


def trap_field(power):
    waist = 3.5e-6
    return LaserField(wavelength=856e-9, intensity=2 * power / (PI * waist**2),
                      epsilon=0)


def expm_trajectory(liouv, y0, delays):
    """Reference: exact exponential of the real generator at each delay."""
    return np.array([expm(liouv.matrix_real * tau) @ y0 for tau in delays])


def matrix_distance(a, b):
    """Largest entry-wise distance of the density matrices of two real layouts."""
    return np.abs(from_real_vector(a - b)).max()


def lindblad_by_element(params, rho):
    """Oracle: the four-level master equation written out element by element."""
    om1, om2, om3 = params.rabi_frequencies
    split = RB87_5P32_F2_F3_SPLITTING
    h = np.diag([params.shift_a, params.delta_rl + params.shift_b,
                 params.delta_cl + split + params.shift_c, split + params.shift_d])
    h[0, 1] = h[1, 0] = -om1 / 2
    h[0, 2] = h[2, 0] = -om2 / 2
    h[2, 3] = h[3, 2] = -om3 / 2
    # (rate, to, from): a -> b, a -> c, d -> c
    jumps = [(params.gamma_ab, 1, 0), (params.gamma_ac, 2, 0), (params.gamma_dc, 2, 3)]
    out = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for k in range(4):
            value = sum(-1j * (h[i, j] * rho[j, k] - rho[i, j] * h[j, k]) for j in range(4))
            for rate, to, frm in jumps:
                if i == k == to:
                    value += rate * rho[frm, frm]
                value -= rate / 2 * ((i == frm) + (k == frm)) * rho[i, k]
            out[i, k] = value
    return out


def layout_matrix(vec):
    """Oracle: the Hermitian matrix of one real 16-vector, entry by entry."""
    rho = np.diag(vec[:4]).astype(complex)
    for n, (i, k) in enumerate(PAIRS):
        rho[i, k] = vec[4 + 2 * n] + 1j * vec[5 + 2 * n]
        rho[k, i] = rho[i, k].conjugate()
    return rho


def layout_vector(rho):
    """Oracle: the real 16-vector of one Hermitian matrix, entry by entry."""
    vec = [rho[i, i].real for i in range(4)]
    for i, k in PAIRS:
        vec += [rho[i, k].real, rho[i, k].imag]
    return np.array(vec)


def post_emission(params):
    liouv = FourLevelLiouvillian(params)
    return liouv, post_emission_state(liouv.steady_state())


def populations(*values):
    """The real 16-vector of a diagonal density matrix."""
    y = np.zeros(16)
    y[:len(values)] = values
    return y


class TestGenerator:
    def test_annihilates_trace(self):
        liouv = FourLevelLiouvillian(params_at(-5.0))
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = x + x.conj().T
            # traceless relative to the natural rate scale of the generator
            drho = from_real_vector(liouv.matrix_real @ layout_vector(rho))
            assert abs(np.trace(drho)) / G < 1e-12 * np.abs(rho).max()

    def test_lasers_off_pure_decay(self):
        params = FourLevelParams(i_cl=0.0, i_rl=0.0, delta_cl=-5 * G)
        liouv = FourLevelLiouvillian(params)
        t = np.linspace(0.0, 40 / G, 30)
        traj = liouv.propagate(populations(0.4, 0.1, 0.1, 0.4), t)
        excited = traj[:, 0] + traj[:, 3]
        assert excited[-1] < 1e-9  # integrator noise floor ~ atol
        # decay rate Gamma: excited population follows exp(-G t)
        assert excited[10] == pytest.approx(0.8 * np.exp(-G * t[10]), rel=1e-5)
        assert traj[-1, 1] + traj[-1, 2] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    def test_matches_per_element_lindblad(self, seed):
        params = params_at(-5.0)
        if seed is not None:
            # random detunings and level shifts
            rng = np.random.default_rng(seed)
            params = replace(params, delta_rl=rng.normal() * G,
                             delta_cl=rng.normal() * 5 * G,
                             **{f"shift_{x}": rng.normal() * 3 * G for x in "abcd"})
        m = FourLevelLiouvillian(params).matrix_real
        ref = np.array([layout_vector(lindblad_by_element(params, layout_matrix(e)))
                        for e in np.eye(16)]).T
        assert np.abs(m - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_steady_state_frozen_regression(self):
        # reference vector from an independent dense eigensolver run
        liouv = FourLevelLiouvillian(params_at(-5.0))
        steady = liouv.steady_state()
        # populations of a (F'=2), b (F=1), c (F=2) and d (F'=3)
        expected = [0.00168557, 0.00178213, 0.88742178, 0.10911053]
        for got, value in zip(steady[:4], expected):
            assert got == pytest.approx(value, abs=1e-6)

    @pytest.mark.parametrize("trap_power", [None, 0.044])
    @pytest.mark.parametrize("icl,irl,delta", [
        (30.0, 3.0, -1.0), (103.0, 12.0, -5.0), (400.0, 0.5, -12.0), (5.0, 40.0, 0.0),
    ])
    def test_steady_state_matches_scipy_null_space(self, icl, irl, delta, trap_power):
        liouv = FourLevelLiouvillian(params_at(delta, icl, irl, trap_power))
        kernel = null_space(liouv.matrix_real)
        assert kernel.shape[1] == 1
        expected = kernel[:, 0] / kernel[:4, 0].sum()
        got = liouv.steady_state()
        assert np.abs(got - expected).max() <= 1e-12

    def test_steady_state_not_unique_without_lasers(self):
        # both ground levels are stationary: the null space is not a line
        liouv = FourLevelLiouvillian(FourLevelParams(i_cl=0.0, i_rl=0.0, delta_cl=-5 * G))
        dim = null_space(liouv.matrix_real).shape[1]
        assert dim > 1
        with pytest.raises(ValueError, match=f"not unique: null space dimension {dim}"):
            liouv.steady_state()

    @pytest.mark.parametrize("delta_over_gamma,icl", [(-5.0, 0.0), (1.65e5, 103.0)],
                             ids=["cooling-off", "detuned-1e6-mhz"])
    def test_steady_state_without_resolved_excitation_refused(self, delta_over_gamma, icl):
        # an excited population not above n eps s_max / s_(n-1), the rounding
        # error of the null vector
        liouv = FourLevelLiouvillian(params_at(delta_over_gamma, icl))
        s = np.linalg.svd(liouv.matrix_real, compute_uv=False)
        noise = 16 * np.finfo(float).eps * s[0] / s[-2]
        with pytest.raises(ValueError, match="no steady-state excitation: the excited population"
                                             f" is not above .* {noise:.3g}$"):
            liouv.steady_state()

    def test_steady_state_matches_long_time_integration(self):
        liouv = FourLevelLiouvillian(params_at(-5.0))
        steady = liouv.steady_state()
        traj = liouv.propagate(populations(0.0, 0.0, 1.0), np.linspace(0.0, 3e-6, 10))
        assert matrix_distance(traj[-1], steady) < 1e-6


class TestPropagator:
    @pytest.mark.parametrize("trap_power", [None, 0.044])
    @pytest.mark.parametrize("icl,irl,delta", [
        (30.0, 3.0, -1.0), (30.0, 12.0, -5.0), (103.0, 3.0, -5.0), (103.0, 12.0, -1.0),
    ])
    def test_matches_expm_and_rk45(self, icl, irl, delta, trap_power):
        params = params_at(delta, icl, irl, trap_power)
        liouv, y0 = post_emission(params)
        t = np.linspace(0.0, 100e-9, 41)
        traj = liouv.propagate(y0, t)
        assert matrix_distance(traj, expm_trajectory(liouv, y0, t)) <= 1e-9
        m = liouv.matrix_real
        rk45 = solve_ivp(lambda _t, y: m @ y, (t[0], t[-1]), y0,
                         method="RK45", t_eval=t, rtol=1e-12, atol=1e-14)
        assert rk45.success
        assert matrix_distance(traj, rk45.y.T) <= 1e-9

    @pytest.mark.parametrize("grid", [
        np.linspace(50e-9, 150e-9, 21),  # no delay at 0
        np.concatenate([[0.0], np.sort(np.random.default_rng(5).uniform(0.0, 200e-9, 60))]),
        np.linspace(0.0, 500e-9, 2500),  # spans three blocks of exponentials
    ], ids=["offset", "nonuniform", "multichunk"])
    def test_grids(self, grid):
        # every delay is measured from y0
        liouv, y0 = post_emission(params_at(-5.0, trap_power=0.044))
        traj = liouv.propagate(y0, grid)
        assert traj.shape == (len(grid), 16)
        if grid[0] == 0.0:
            assert np.array_equal(traj[0], y0)
        # about 40 delays, plus both sides of each block boundary
        n = len(grid)
        idx = np.unique(np.r_[0:n:max(1, n // 40), 1023, 1024, 2047, 2048, n - 1])
        idx = idx[idx < n]
        assert matrix_distance(traj[idx], expm_trajectory(liouv, y0, grid[idx])) <= 1e-9

    def test_real_vector_round_trip_matches_loop(self):
        rng = np.random.default_rng(3)
        vecs = rng.normal(size=(7, 16))
        rhos = from_real_vector(vecs)
        for vec, rho in zip(vecs, rhos):
            assert np.array_equal(rho, layout_matrix(vec))
            assert np.array_equal(layout_vector(rho), vec)


class TestG2:
    def test_antibunched_at_zero(self):
        tau = np.linspace(0.0, 100e-9, 50)
        for trap_power in (None, 0.044):
            g2 = four_level_g2(params_at(-5.0, trap_power=trap_power), tau)
            assert g2[0] == 0.0

    def test_agrees_with_two_level_at_small_detuning(self):
        from singleatom.bloch import two_level_obe_g2
        tau = np.linspace(0.0, 300e-9, 600)
        params = params_at(-1.0)
        g2_four = four_level_g2(params, tau)
        omega3 = params.rabi_frequencies[2]
        # compare against the two-level model solved exactly (the detuned
        # closed-form expression is itself a resonance approximation)
        g2_two = two_level_obe_g2(omega3, -1.0 * G, G, tau)
        rel = np.abs(g2_four - g2_two) / np.maximum(1.0, np.abs(g2_two))
        assert rel.max() < 0.05

    @pytest.mark.parametrize("detuning", [-5.0, -8.0, -10.0])
    def test_exceeds_two_level_bound_at_large_detuning(self, detuning):
        tau = np.linspace(0.0, 300e-9, 900)
        g2 = four_level_g2(params_at(detuning), tau)
        assert g2.max() > 2.0

    def test_two_level_never_exceeds_two(self):
        tau = np.linspace(0.0, 300e-9, 900)
        for detuning in (-1.0, -5.0, -8.0, -10.0):
            omega3 = G * np.sqrt(intensity_from_mw_cm2(100) / (2 * RB87_ISAT_F2_F3))
            g2 = two_level_g2_analytic(omega3, detuning * G, G, tau)
            assert g2.max() <= 2.0 + 1e-9

    def test_relaxes_to_one(self):
        tau = np.linspace(0.0, 2000e-9, 400)
        g2 = four_level_g2(params_at(-2.0), tau)
        assert g2[-1] == pytest.approx(1.0, abs=1e-3)
        assert np.all(g2 >= 0.0)

    def test_post_emission_state_normalized(self):
        params = params_at(-5.0)
        steady = FourLevelLiouvillian(params).steady_state()
        y0 = post_emission_state(steady)
        assert y0[:4].sum() == pytest.approx(1.0, abs=1e-12)
        assert y0[0] == y0[3] == 0.0
        assert not y0[4:].any()  # no coherences

    def test_unsorted_delays_match_sorted(self):
        # the delays are independent: a permuted grid permutes g2; 1500
        # delays span two blocks of exponentials
        tau = np.linspace(0.0, 300e-9, 1500)
        order = np.random.default_rng(10).permutation(len(tau))
        params = params_at(-5.0, trap_power=0.044)
        assert np.array_equal(four_level_g2(params, tau[order]),
                              four_level_g2(params, tau)[order])

    def test_empty_grid(self):
        g2 = four_level_g2(params_at(-5.0), [])
        assert isinstance(g2, np.ndarray) and g2.shape == (0,)

    def test_no_excitation_rejected(self):
        params = FourLevelParams(i_cl=0.0, i_rl=0.0, delta_cl=-5 * G)
        with pytest.raises(ValueError):
            four_level_g2(params, np.linspace(0.0, 1e-7, 10))

    @pytest.mark.parametrize("trap_power", [None, 0.044])
    @pytest.mark.parametrize("seed", range(8))
    def test_mode_sum_matches_projected_trajectory(self, seed, trap_power):
        # g2 projects on the excited population before propagating; against
        # the whole density matrix propagated, then projected
        rng = np.random.default_rng(seed)
        params = params_at(rng.uniform(-12.0, 2.0), icl=rng.uniform(1.0, 400.0),
                           irl=rng.uniform(0.5, 50.0), trap_power=trap_power)
        params = replace(params, delta_rl=rng.normal() * G)
        tau = np.concatenate([[0.0], rng.uniform(0.0, 1e-6, 300)])
        liouv, y0 = post_emission(params)
        traj = liouv.propagate(y0, tau)
        steady = liouv.steady_state()
        ref = (traj[:, 0] + traj[:, 3]) / (steady[0] + steady[3])
        assert np.abs(four_level_g2(params, tau) - ref).max() <= 1e-12

    @pytest.mark.parametrize("trap_power", [None, 0.044])
    @pytest.mark.parametrize("icl,irl,delta", [(30.0, 3.0, -1.0), (103.0, 12.0, -5.0),
                                               (400.0, 0.5, -12.0)])
    def test_report(self, icl, irl, delta, trap_power):
        # the report of the CLI's kernel (obe.four_level_g2): the smallest
        # overlap against scipy's unit left and right eigenvectors, and the
        # residual against the exact 2-norm of M y of its steady state y,
        # within its rounding
        params = params_at(delta, icl, irl, trap_power)
        drive = (params.rabi_frequencies, params.delta_cl, params.delta_rl,
                 (params.shift_a, params.shift_b, params.shift_c, params.shift_d))
        report = {}
        assert obe.four_level_g2(*drive, 1e-7, 11, report) == obe.four_level_g2(*drive, 1e-7, 11)
        assert set(report) == {"method", "min_overlap", "steady_residual"}
        assert report["method"] == "eigen-propagator"
        m = FourLevelLiouvillian(params).matrix_real
        _, w, v = eig(m, left=True)
        overlap = np.abs(np.einsum("ij,ij->j", w.conj(), v)).min()
        assert report["min_overlap"] == pytest.approx(overlap, rel=1e-9)
        s, vecs = jacobi_svd(m.tolist())
        y_ss = obe._steady_vector(s, vecs[-1], obe._FOUR_LEVEL_DECAYS)
        rows = [sum(Fraction(x) * Fraction(y) for x, y in zip(row, y_ss)) for row in m.tolist()]
        exact = math.sqrt(sum(r * r for r in rows))
        rounding = 32 * np.finfo(float).eps * (np.abs(m) @ np.abs(y_ss)).max()
        assert abs(report["steady_residual"] - exact) <= rounding
        assert report["steady_residual"] <= 1e-12 * np.abs(m).max()

    def test_trajectory_invariants(self):
        # trace, Hermiticity and positivity along the full g2 trajectory
        tau = np.linspace(0.0, 300e-9, 200)
        liouv, y0 = post_emission(params_at(-8.0))
        traj = liouv.propagate(y0, tau)
        for rho in from_real_vector(traj[::10]):
            assert abs(np.trace(rho).real - 1.0) < 1e-8
            assert np.abs(rho - rho.conj().T).max() < 1e-9
            assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() > -1e-7


class TestTrapShifts:
    def test_trap_off_is_identity(self):
        params = params_at(-5.0)
        off = LaserField(wavelength=856e-9, intensity=0.0)
        assert apply_trap_shifts(params, off, kinetic_reduction=1e-4) == params

    def test_full_kinetic_suppression(self):
        params = params_at(-5.0)
        field = trap_field(0.044)
        from singleatom.lightshift import ground_shift_alkali, load_default_lines
        depth_k = abs(ground_shift_alkali(field, 0.5, load_default_lines())) / KB
        shifted = apply_trap_shifts(params, field, kinetic_reduction=depth_k)
        assert shifted.shift_a == shifted.shift_b == shifted.shift_c == shifted.shift_d == 0.0

    def test_signs_of_shifts(self):
        # red trap pushes the ground levels down and the excited levels up
        shifted = apply_trap_shifts(params_at(-5.0), trap_field(0.0167))
        assert shifted.shift_b < 0 and shifted.shift_c < 0
        assert shifted.shift_a > 0 and shifted.shift_d > 0

    def test_deeper_trap_raises_oscillation_frequency(self):
        from singleatom.analysis import dominant_oscillation_frequency
        tau = np.linspace(0.0, 120e-9, 1200)
        freqs = []
        for power in (0.0167, 0.0355):
            params = FourLevelParams(
                i_cl=intensity_from_mw_cm2(103), i_rl=intensity_from_mw_cm2(12),
                delta_cl=-2 * PI * 31e6)
            shifted = apply_trap_shifts(params, trap_field(power),
                                        kinetic_reduction=100e-6)
            g2 = four_level_g2(shifted, tau)
            freqs.append(dominant_oscillation_frequency(tau, g2))
        assert freqs[1] > freqs[0]
        assert freqs[1] / freqs[0] - 1.0 > 0.20
