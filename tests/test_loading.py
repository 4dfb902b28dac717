"""Loading dynamics: the birth-death number distribution and its mean."""

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.stats import poisson

from singleatom.loading import (
    AtomNumberDist,
    LoadingParams,
    mean_number,
    stationary_distribution,
    stationary_law,
)

# effective volumes of the 44 mW / 856 nm trap at T = 100 uK (see lightshift tests)
V_BLOCKADE = 5.9815e-17    # w0 = 3.5 um
V_POISSON = 3.9126e-13     # w0 = 10 um

BLOCKADE = LoadingParams(loading_rate=1.0, gamma=0.2, beta=5e-16,
                         volume=V_BLOCKADE, n_max=5)


def rate_generator(params):
    """Continuous-time generator Q (columns sum to zero) of the number chain,
    the oracle of the stationary law.

    Column n holds the outflow -[R + n*gamma + n(n-1)*beta'/2] on the
    diagonal, loading R one row below, one-body loss n*gamma one row above
    and pair loss n(n-1)*beta'/2 two rows above.  The top state only loses
    (conservative truncation).
    """
    dim = params.n_max + 1
    q = np.zeros((dim, dim))
    for n in range(dim):
        gain = params.loading_rate if n < params.n_max else 0.0
        one, pair = params.gamma * n, params.beta_prime * n * (n - 1) / 2.0
        q[n, n] = -(gain + one + pair)
        if n + 1 < dim:
            q[n + 1, n] = gain
        if n - 1 >= 0:
            q[n - 1, n] += one
        if n - 2 >= 0:
            q[n - 2, n] += pair
    return q


class TestParams:
    @pytest.mark.parametrize("field", ["loading_rate", "gamma", "beta", "volume"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        kwargs = dict(loading_rate=1.0, gamma=0.2, beta=5e-16, volume=V_BLOCKADE)
        kwargs[field] = value
        with pytest.raises(ValueError, match="finite"):
            LoadingParams(**kwargs)


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
            m = np.eye(6) + rate_generator(BLOCKADE) * dt
            resid = (m - np.eye(6)) @ dist.probabilities
            assert np.abs(resid).max() < 1e-12

    def test_truncation_insensitive(self):
        dist5 = stationary_distribution(BLOCKADE)
        params10 = LoadingParams(loading_rate=1.0, gamma=0.2, beta=5e-16,
                                 volume=V_BLOCKADE, n_max=10)
        dist10 = stationary_distribution(params10)
        assert np.abs(dist10.probabilities[:6] - dist5.probabilities).max() < 1e-6

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


def numpy_law(params):
    """The numpy arithmetic of the cut-balance recursion that the standard
    library's ``stationary_law`` replaced, normalized by one ``math.fsum`` of
    the values as ``stationary_law`` is, kept as its oracle (chains with
    loading only)."""
    r, top = params.loading_rate, params.n_max
    n = np.arange(top, dtype=float)
    down = params.gamma * (n + 1) + params.beta_prime * (n + 1) * n / 2.0
    skip = params.beta_prime * (n + 2) * (n + 1) / 2.0
    limit = sys.float_info.max / ((top + 2) * max(float((down + skip).max()), 1.0))
    down, skip = down.tolist(), skip.tolist()
    p = [0.0] * (top + 2)
    p[top] = 1.0
    for k in range(top - 1, -1, -1):
        flow = down[k] * p[k + 1] + skip[k] * p[k + 2]
        if flow > limit * r:
            scale = r / flow
            p[k + 1:] = [x * scale for x in p[k + 1:]]
            p[k] = 1.0
        else:
            p[k] = flow / r
    p = np.array(p[:top + 1])
    return p / math.fsum(p)


class TestStdlibArithmetic:
    def test_law_is_the_numpy_arithmetic(self):
        # including chains rescaled on the way down from n_max 1000
        rng = np.random.default_rng(23)
        for trial in range(200):
            params = LoadingParams(
                loading_rate=10 ** rng.uniform(-3, 3),
                gamma=rng.choice([0.0, 10 ** rng.uniform(-3, 2)]),
                beta=10 ** rng.uniform(-18, -12), volume=10 ** rng.uniform(-17, -12),
                n_max=1000 if trial == 0 else int(rng.integers(1, 1001)))
            law = stationary_law(params)
            assert all(type(v) is float for v in law)
            assert law == numpy_law(params).tolist()
            assert stationary_distribution(params).probabilities.tolist() == law

    def test_mean_is_one_rounding_of_the_summed_products(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            params = LoadingParams(loading_rate=10 ** rng.uniform(-1, 2), gamma=0.2,
                                   beta=5e-16, volume=V_POISSON,
                                   n_max=int(rng.integers(1, 400)))
            law = stationary_law(params)
            with mpmath.workdps(60):  # exact: the products span fewer than 60 digits
                exact = float(mpmath.fsum(mpmath.mpf(k * p) for k, p in enumerate(law)))
            assert mean_number(law) == exact
            dist = stationary_distribution(params)
            assert mean_number(dist.probabilities.tolist()) == mean_number(law)


class TestAtomNumberDist:
    def test_mean(self):
        empty = AtomNumberDist(probabilities=np.array([1.0, 0.0, 0.0]))
        assert mean_number(empty.probabilities.tolist()) == 0.0
        single = AtomNumberDist(probabilities=np.array([0.0, 1.0, 0.0]))
        assert mean_number(single.probabilities.tolist()) == 1.0
        only_empty = AtomNumberDist(probabilities=np.array([1.0]))
        assert mean_number(only_empty.probabilities.tolist()) == 0.0

    def test_blockade_mean_range(self):
        dist = stationary_distribution(BLOCKADE)
        assert 0.3 < mean_number(dist.probabilities.tolist()) < 1.1
        assert dist.probabilities[1] > 0.4

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            AtomNumberDist(probabilities=np.array([0.5, 0.2]))
