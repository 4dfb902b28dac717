"""Single-atom loading dynamics with light-assisted two-body loss.

The mean atom number follows dN/dt = R - gamma*N - beta'*N(N-1), and the
full number distribution comes from a birth-death Markov chain whose jumps
are loading (+1), background-gas loss (-1) and pair loss (-2).  In a
microscopic trap the pair-loss rate beta' = beta/V dominates and locks the
occupation to at most one atom (collisional blockade).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrator import integrate

_FLOAT_MAX = float(np.finfo(float).max)

__all__ = [
    "LoadingParams",
    "AtomNumberDist",
    "mean_number_ode",
    "stationary_distribution",
]


@dataclass(frozen=True)
class LoadingParams:
    """Loading rate R (atoms/s), one-body loss gamma (1/s), two-body loss
    coefficient beta (m^3/s), effective trap volume (m^3), truncation N_max."""

    loading_rate: float
    gamma: float
    beta: float
    volume: float
    n_max: int = 5

    def __post_init__(self):
        rates = (self.loading_rate, self.gamma, self.beta)
        if not (all(0 <= r < np.inf for r in rates) and 0 < self.volume < np.inf):
            raise ValueError("rates must be finite and nonnegative, volume finite and positive")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")

    @property
    def beta_prime(self) -> float:
        """Pair-loss rate coefficient beta/V (1/s)."""
        return self.beta / self.volume


@dataclass(frozen=True)
class AtomNumberDist:
    """Probabilities p_0..p_N of finding that many atoms in the trap."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", p)
        if np.any(p < -1e-12) or np.any(p > 1 + 1e-12):
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {p.sum()}, not 1")

    @property
    def mean(self) -> float:
        return float(np.dot(np.arange(len(self.probabilities)), self.probabilities))


def mean_number_ode(params: LoadingParams, n0: float, t_grid) -> np.ndarray:
    """Mean-number trajectory N(t) of dN/dt = R - gamma*N - beta'*N(N-1).

    The pair term stands for the nonnegative moment <N(N-1)>; its mean-field
    factorization is clamped at zero below one atom so the two-body term
    never turns into a gain.
    """
    if n0 < 0:
        raise ValueError("initial atom number must be nonnegative")
    r, g, bp = params.loading_rate, params.gamma, params.beta_prime

    def rhs(_t, y):
        n = y[0]
        return np.array([r - g * n - bp * n * max(n - 1.0, 0.0)])

    return integrate(rhs, np.array([float(n0)]), t_grid)[:, 0]


def stationary_distribution(params: LoadingParams) -> AtomNumberDist:
    """Stationary distribution of the loading chain, from cut balance.

    The chain gains atoms only one at a time, so in the steady state the flow
    up across the cut between {0..n} and {n+1..N} equals the flow down:

        R p_n = (gamma (n+1) + beta' (n+1) n / 2) p_{n+1}
                + beta' (n+2)(n+1) / 2 p_{n+2},

    an exact backward recursion from p_N with positive terms only (no
    cancellation, and no linear algebra).  The values are rescaled before
    they can overflow, and normalized to unit total probability.  Without
    loading (R = 0) the mass sits in the absorbing state: N = 0 when one-body
    loss empties every occupied trap, and a ``ValueError`` names the
    degenerate chain when pair loss alone leaves both N = 0 and N = 1
    absorbing; a chain with no rates at all raises ``ValueError`` too.
    """
    r, top = params.loading_rate, params.n_max
    n = np.arange(top, dtype=float)
    # down[n]: rate from n+1 across the cut; skip[n]: pair loss n+2 -> n
    down = params.gamma * (n + 1) + params.beta_prime * (n + 1) * n / 2.0
    skip = params.beta_prime * (n + 2) * (n + 1) / 2.0
    if not np.all(np.isfinite(r + down + skip)):
        raise ValueError("rates are not finite: stationary distribution undefined")
    if r == 0.0:
        if not down.any():
            raise ValueError("all rates are zero: stationary distribution undefined")
        if params.gamma == 0.0:  # and pair loss, else no rate at all
            raise ValueError("degenerate chain: null space has dimension 2")
        p = np.zeros(top + 1)
        p[0] = 1.0
        return AtomNumberDist(probabilities=p)
    # no value passes `limit` (or 1), so neither a flow nor the sum overflows
    limit = _FLOAT_MAX / ((top + 2) * max(float((down + skip).max()), 1.0))
    down, skip = down.tolist(), skip.tolist()
    p = [0.0] * (top + 2)
    p[top] = 1.0
    for k in range(top - 1, -1, -1):
        flow = down[k] * p[k + 1] + skip[k] * p[k + 2]
        if flow > limit * r:
            # p_k would pass the limit: scale the tail so that p_k = 1
            scale = r / flow
            p[k + 1:] = [x * scale for x in p[k + 1:]]
            p[k] = 1.0
        else:
            p[k] = flow / r
    p = np.array(p[:top + 1])
    return AtomNumberDist(probabilities=p / p.sum())
