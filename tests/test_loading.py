"""Loading dynamics: mean-number ODE and the birth-death number distribution."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.stats import poisson

from singleatom.loading import (
    AtomNumberDist,
    LoadingParams,
    mean_number_ode,
    rate_generator,
    stationary_distribution,
    transfer_matrix,
)

# effective volumes of the 44 mW / 856 nm trap at T = 100 uK (see lightshift tests)
V_BLOCKADE = 5.9815e-17    # w0 = 3.5 um
V_POISSON = 3.9126e-13     # w0 = 10 um

BLOCKADE = LoadingParams(loading_rate=1.0, gamma=0.2, beta=5e-16,
                         volume=V_BLOCKADE, n_max=5)


class TestParams:
    @pytest.mark.parametrize("field", ["loading_rate", "gamma", "beta", "volume"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        kwargs = dict(loading_rate=1.0, gamma=0.2, beta=5e-16, volume=V_BLOCKADE)
        kwargs[field] = value
        with pytest.raises(ValueError, match="finite"):
            LoadingParams(**kwargs)


class TestMeanNumberODE:
    def test_linear_fixed_point(self):
        params = LoadingParams(loading_rate=2.0, gamma=0.5, beta=0.0,
                               volume=1e-15, n_max=5)
        traj = mean_number_ode(params, 0.0, np.linspace(0.0, 60.0, 200))
        assert traj[-1] == pytest.approx(2.0 / 0.5, rel=1e-6)

    def test_pure_decay_bound(self):
        params = LoadingParams(loading_rate=0.0, gamma=0.3, beta=5e-16,
                               volume=V_BLOCKADE, n_max=5)
        t = np.linspace(0.0, 10.0, 100)
        traj = mean_number_ode(params, 1.0, t)
        assert np.all(traj <= np.exp(-0.3 * t) + 1e-9)

    def test_blockade_steady_state_below_1p2(self):
        traj = mean_number_ode(BLOCKADE, 0.0, np.linspace(0.0, 100.0, 300))
        assert traj[-1] < 1.2
        assert abs(traj[-1] - traj[-2]) < 1e-9

    def test_rejects_negative_initial_number(self):
        with pytest.raises(ValueError):
            mean_number_ode(BLOCKADE, -1.0, [0.0, 1.0])


class TestTransferMatrix:
    def test_columns_sum_to_one(self):
        m = transfer_matrix(BLOCKADE, dt=1e-3)
        assert np.allclose(m.sum(axis=0), 1.0, atol=1e-12)

    def test_no_pair_loss_from_single_atom(self):
        m = transfer_matrix(BLOCKADE, dt=1e-3)
        # pair loss enters two rows above the diagonal; column N=1 has none
        assert m[0, 1] == pytest.approx(BLOCKADE.gamma * 1e-3)

    def test_pair_loss_pattern(self):
        # second superdiagonal carries N(N-1)/2 * beta' * dt: 1, 3, 6, 10 pairs
        dt = 1e-4
        m = transfer_matrix(BLOCKADE, dt=dt)
        bp = BLOCKADE.beta_prime
        for n, pairs in ((2, 1), (3, 3), (4, 6), (5, 10)):
            assert m[n - 2, n] == pytest.approx(pairs * bp * dt, rel=1e-12)
        # first superdiagonal carries N * gamma * dt; subdiagonal the loading R * dt
        for n in range(1, 6):
            assert m[n - 1, n] == pytest.approx(n * BLOCKADE.gamma * dt, rel=1e-12)
        for n in range(5):
            assert m[n + 1, n] == pytest.approx(BLOCKADE.loading_rate * dt, rel=1e-12)

    def test_too_large_dt_names_offender(self):
        with pytest.raises(ValueError, match="N=2"):
            transfer_matrix(BLOCKADE, dt=0.5)

    def test_survival_probabilities(self):
        dt = 1e-3
        m = transfer_matrix(BLOCKADE, dt=dt)
        bp = BLOCKADE.beta_prime
        for n in range(5):
            out_rate = BLOCKADE.loading_rate + n * BLOCKADE.gamma + n * (n - 1) * bp / 2
            assert m[n, n] == pytest.approx(1.0 - out_rate * dt, rel=1e-12)
        # the top state only loses (conservative truncation)
        assert m[5, 5] == pytest.approx(1.0 - (5 * BLOCKADE.gamma + 10 * bp) * dt,
                                        rel=1e-12)


class TestStationaryDistribution:
    def test_empty_trap_absorbing(self):
        params = LoadingParams(loading_rate=0.0, gamma=0.2, beta=5e-16,
                               volume=V_BLOCKADE, n_max=5)
        dist = stationary_distribution(params)
        assert dist.probabilities[0] == pytest.approx(1.0, abs=1e-12)

    def test_blockade_locks_to_one(self):
        dist = stationary_distribution(BLOCKADE)
        assert dist.probabilities[2:].sum() < 0.05
        # occupied-trap probability dominated by single atoms
        occupied = dist.probabilities[1:].sum()
        assert dist.probabilities[1] / occupied > 0.9
        assert dist.probabilities[1] == max(dist.probabilities[1:])

    def test_large_trap_close_to_poisson(self):
        params = LoadingParams(loading_rate=1.0, gamma=0.2, beta=5e-16,
                               volume=V_POISSON, n_max=40)
        dist = stationary_distribution(params)
        reference = poisson.pmf(np.arange(41), 1.0 / 0.2)
        tv = 0.5 * np.abs(dist.probabilities - reference).sum()
        assert tv < 0.05

    def test_dt_independence(self):
        # (M - 1) r = 0 for any admissible dt is the same null space as Q r = 0
        dist = stationary_distribution(BLOCKADE)
        for dt in (1e-4, 1e-3, 1e-2):
            m = transfer_matrix(BLOCKADE, dt=dt)
            resid = (m - np.eye(6)) @ dist.probabilities
            assert np.abs(resid).max() < 1e-12

    def test_truncation_insensitive(self):
        dist5 = stationary_distribution(BLOCKADE)
        params10 = LoadingParams(loading_rate=1.0, gamma=0.2, beta=5e-16,
                                 volume=V_BLOCKADE, n_max=10)
        dist10 = stationary_distribution(params10)
        assert np.abs(dist10.probabilities[:6] - dist5.probabilities).max() < 1e-6

    def test_matches_ode_mean_for_weak_pair_loss(self):
        # mean-field closure is only valid when pair loss is a perturbation;
        # in the deep blockade regime the ODE overestimates the mean
        params = LoadingParams(loading_rate=1.0, gamma=0.2, beta=5e-16,
                               volume=V_POISSON, n_max=40)
        dist = stationary_distribution(params)
        traj = mean_number_ode(params, 0.0, np.linspace(0.0, 200.0, 400))
        assert dist.probabilities[-1] < 1e-3
        assert dist.mean == pytest.approx(traj[-1], rel=0.10)

    def test_all_zero_rates_rejected(self):
        params = LoadingParams(loading_rate=0.0, gamma=0.0, beta=0.0,
                               volume=1e-15, n_max=5)
        with pytest.raises(ValueError):
            stationary_distribution(params)

    def test_generator_columns_sum_to_zero(self):
        q = rate_generator(BLOCKADE)
        assert np.allclose(q.sum(axis=0), 0.0, atol=1e-12)


def null_space_law(params):
    """Independent oracle: the normalized null vector of the generator."""
    kernel = null_space(rate_generator(params))
    assert kernel.shape[1] == 1
    return kernel[:, 0] / kernel[:, 0].sum()


def exact_law(params):
    """Q p = 0 with sum(p) = 1 solved in 50-digit arithmetic, without BLAS.

    With p_N = 1 the first N balance rows are a banded system (one entry
    below the diagonal, two above) with diagonally dominant columns, so
    Gaussian elimination needs no pivoting and stays inside the band.
    """
    q = rate_generator(params)
    top = len(q) - 1
    with mpmath.workdps(50):
        rows = [{j: mpmath.mpf(q[i, j]) for j in range(max(i - 1, 0), min(i + 3, top))}
                for i in range(top)]
        rhs = [-mpmath.mpf(q[i, top]) for i in range(top)]
        for k in range(top - 1):
            factor = rows[k + 1][k] / rows[k][k]
            for j in range(k, min(k + 3, top)):
                rows[k + 1][j] -= factor * rows[k][j]
            rhs[k + 1] -= factor * rhs[k]
        p = [mpmath.mpf(0)] * top + [mpmath.mpf(1)]
        for k in range(top - 1, -1, -1):
            tail = sum(rows[k][j] * p[j] for j in range(k + 1, min(k + 3, top)))
            p[k] = (rhs[k] - tail) / rows[k][k]
        total = mpmath.fsum(p)
        return np.array([float(x / total) for x in p])


class TestStationaryAgainstOracles:
    def test_matches_null_space_on_random_chains(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            params = LoadingParams(
                loading_rate=10 ** rng.uniform(-1, 1),
                gamma=rng.choice([0.0, 10 ** rng.uniform(-2, 0)]),
                beta=10 ** rng.uniform(-18, -14), volume=V_BLOCKADE,
                n_max=int(rng.integers(1, 61)))
            got = stationary_distribution(params).probabilities
            assert np.abs(got - null_space_law(params)).max() <= 1e-10

    @pytest.mark.parametrize("volume", [V_BLOCKADE, V_POISSON])
    def test_matches_exact_solve_at_n_max_1000(self, volume):
        params = LoadingParams(loading_rate=1.0, gamma=0.2, beta=5e-16,
                               volume=volume, n_max=1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = stationary_distribution(params).probabilities
        assert np.all(np.isfinite(got)) and abs(got.sum() - 1.0) < 1e-12
        assert np.abs(got - exact_law(params)).max() <= 1e-10

    @pytest.mark.parametrize("rate,gamma,beta", [
        (0.1, 0.02, 1e-18), (1.0, 0.0, 5e-16), (3.0, 0.2, 1e-13), (0.01, 0.0, 1e-13),
    ])
    def test_matches_exact_solve(self, rate, gamma, beta):
        # including stiff chains (pair loss 10^4 times the loading), where
        # the null-space solve itself is off by up to 3e-11
        params = LoadingParams(loading_rate=rate, gamma=gamma, beta=beta,
                               volume=V_BLOCKADE, n_max=12)
        got = stationary_distribution(params).probabilities
        assert np.abs(got - exact_law(params)).max() <= 1e-15

    def test_rescaled_without_overflow_at_n_max_1000(self):
        # each step back from N = 1000 grows by ~ n*gamma/R: the values pass
        # the double range many times over and are rescaled each time
        params = LoadingParams(loading_rate=1e-3, gamma=50.0, beta=5e-16,
                               volume=V_BLOCKADE, n_max=1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = stationary_distribution(params).probabilities
        assert np.all(np.isfinite(p)) and np.all(p >= 0)
        # cut balance 0|1: R p0 = gamma p1 + beta' p2
        assert p[1] == pytest.approx(1e-3 / 50.0 * p[0], rel=1e-4)
        assert p[0] == pytest.approx(1.0, abs=1e-4)

    def test_no_loss_fills_the_top_state(self):
        params = LoadingParams(loading_rate=1.0, gamma=0.0, beta=0.0,
                               volume=V_BLOCKADE, n_max=5)
        assert stationary_distribution(params).probabilities.tolist() == [0, 0, 0, 0, 0, 1]

    @pytest.mark.parametrize("n_max,message", [
        (5, "degenerate chain: null space has dimension 2"),
        (1, "all rates are zero"),  # pair loss needs two atoms
    ])
    def test_pair_loss_alone_without_loading_rejected(self, n_max, message):
        # N = 0 and N = 1 both absorb: no unique stationary law
        params = LoadingParams(loading_rate=0.0, gamma=0.0, beta=5e-16,
                               volume=V_BLOCKADE, n_max=n_max)
        with pytest.raises(ValueError, match=message):
            stationary_distribution(params)

    def test_overflowing_rates_rejected(self):
        params = LoadingParams(loading_rate=1.0, gamma=1e307, beta=5e-16,
                               volume=V_BLOCKADE, n_max=60)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
            stationary_distribution(params)


class TestAtomNumberDist:
    def test_mean_and_p_single(self):
        empty = AtomNumberDist(probabilities=np.array([1.0, 0.0, 0.0]))
        assert (empty.mean, empty.p_single) == (0.0, 0.0)
        single = AtomNumberDist(probabilities=np.array([0.0, 1.0, 0.0]))
        assert (single.mean, single.p_single) == (1.0, 1.0)
        only_empty = AtomNumberDist(probabilities=np.array([1.0]))
        assert (only_empty.mean, only_empty.p_single) == (0.0, 0.0)

    def test_blockade_mean_range(self):
        dist = stationary_distribution(BLOCKADE)
        assert 0.3 < dist.mean < 1.1
        assert dist.p_single > 0.4

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            AtomNumberDist(probabilities=np.array([0.5, 0.2]))
