"""Single-atom loading dynamics with light-assisted two-body loss.

The atom number follows a birth-death Markov chain whose jumps are loading
(+1), background-gas loss (-1) and pair loss (-2).  In a microscopic trap
the pair-loss rate beta' = beta/V dominates and locks the occupation to at
most one atom (collisional blockade).

The stationary law (``stationary_law``) and its mean (``mean_number``) use
the standard library alone, so the CLI's loading scenario imports no numpy;
``stationary_distribution`` wraps the law in an array.
"""

import math
import sys

__all__ = [
    "LoadingParams",
    "AtomNumberDist",
    "mean_number",
    "stationary_distribution",
    "stationary_law",
]


class LoadingParams:
    """Loading rate R (atoms/s), one-body loss gamma (1/s), two-body loss
    coefficient beta (m^3/s), effective trap volume (m^3), truncation N_max."""

    __slots__ = ("loading_rate", "gamma", "beta", "volume", "n_max")

    def __init__(self, loading_rate: float, gamma: float, beta: float, volume: float,
                 n_max: int = 5):
        self.loading_rate, self.gamma, self.beta = loading_rate, gamma, beta
        self.volume, self.n_max = volume, n_max
        if not (all(0 <= r < math.inf for r in (loading_rate, gamma, beta))
                and 0 < volume < math.inf):
            raise ValueError("rates must be finite and nonnegative, volume finite and positive")
        if n_max < 1:
            raise ValueError("n_max must be at least 1")

    @property
    def beta_prime(self) -> float:
        """Pair-loss rate coefficient beta/V (1/s)."""
        return self.beta / self.volume


def mean_number(probabilities) -> float:
    """Mean atom number sum_k k p_k, as one correctly rounded sum."""
    return math.fsum(k * p for k, p in enumerate(probabilities))


class AtomNumberDist:
    """Probabilities p_0..p_N of finding that many atoms in the trap, held as
    a numpy array."""

    __slots__ = ("probabilities",)

    def __init__(self, probabilities):
        import numpy as np

        self.probabilities = p = np.asarray(probabilities, dtype=float)
        if np.any(p < -1e-12) or np.any(p > 1 + 1e-12):
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {p.sum()}, not 1")


def _pairwise_sum(values: list[float]) -> float:
    """The sum of ``values`` as ``np.sum`` of a float64 vector adds them, bit
    for bit: numpy's pairwise summation, added to the identity 0.0.

    Below 8 values the sum runs in sequence; up to 128 values eight strided
    accumulators are combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and the
    remainder is added in sequence; a longer run splits at half its length,
    rounded down to a multiple of 8, and sums both halves so.
    """
    def block(lo: int, n: int) -> float:
        if n < 8:
            total = 0.0
            for x in values[lo:lo + n]:
                total += x
            return total
        if n <= 128:
            stop = lo + n - n % 8
            r = values[lo:lo + 8]
            for i in range(lo + 8, stop, 8):
                r = [a + b for a, b in zip(r, values[i:i + 8])]
            total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
            for x in values[stop:lo + n]:
                total += x
            return total
        half = n // 2
        half -= half % 8
        return block(lo, half) + block(lo + half, n - half)

    return 0.0 + block(0, len(values))


def stationary_law(params: LoadingParams) -> list[float]:
    """Stationary distribution p_0..p_N of the loading chain, from cut balance.

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
    top = params.n_max
    r, gamma, bp = float(params.loading_rate), float(params.gamma), float(params.beta_prime)
    # down[n]: rate from n+1 across the cut; skip[n]: pair loss n+2 -> n
    down = [gamma * (n + 1.0) + bp * (n + 1.0) * n / 2.0 for n in range(top)]
    skip = [bp * (n + 2.0) * (n + 1.0) / 2.0 for n in range(top)]
    if not all(math.isfinite(r + d + s) for d, s in zip(down, skip)):
        raise ValueError("rates are not finite: stationary distribution undefined")
    if r == 0.0:
        if not any(down):
            raise ValueError("all rates are zero: stationary distribution undefined")
        if gamma == 0.0:  # and pair loss, else no rate at all
            raise ValueError("degenerate chain: null space has dimension 2")
        return [1.0] + [0.0] * top
    # no value passes `limit` (or 1), so neither a flow nor the sum overflows
    largest = max(d + s for d, s in zip(down, skip))
    limit = sys.float_info.max / ((top + 2) * max(largest, 1.0))
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
    del p[top + 1]
    total = _pairwise_sum(p)
    return [x / total for x in p]


def stationary_distribution(params: LoadingParams) -> AtomNumberDist:
    """The stationary law of the loading chain (``stationary_law``) as an
    ``AtomNumberDist``."""
    import numpy as np

    return AtomNumberDist(probabilities=np.array(stationary_law(params)))
