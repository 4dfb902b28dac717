"""Angular-momentum algebra for dipole transitions.

Clebsch-Gordan coefficients and Wigner 6j symbols are evaluated with the
Racah sum formulas using exact integer factorial ratios (``fractions``),
so selection rules are decided in integer arithmetic and the only rounding
happens in a final square root.  All angular momenta are carried as doubled
integers (``two_j``) so that half-integer values stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .constants import C, EPS0, HBAR, PI

__all__ = [
    "AngMom",
    "ReducedME",
    "as_two_j",
    "clebsch_gordan",
    "wigner_6j",
    "reduced_me_from_lifetime",
    "emission_amplitude",
]


@dataclass(frozen=True)
class AngMom:
    """An angular momentum quantum number stored as 2j (exact half-integers)."""

    two_j: int

    def __post_init__(self):
        if not isinstance(self.two_j, int) or self.two_j < 0:
            raise ValueError(f"two_j must be a nonnegative integer, got {self.two_j!r}")


@dataclass(frozen=True)
class ReducedME:
    """Reduced dipole matrix element of a fine-structure transition."""

    value: float          # C*m
    j_lower: AngMom
    j_upper: AngMom
    lifetime: float       # s, partial lifetime of the upper level for this channel
    omega_if: float       # rad/s

    def __post_init__(self):
        if self.value <= 0 or self.lifetime <= 0:
            raise ValueError("reduced matrix element and lifetime must be positive")


def as_two_j(value) -> int:
    """Coerce an AngMom, integer or half-integer float to a doubled integer."""
    if isinstance(value, AngMom):
        return value.two_j
    two_j = _doubled(value)
    if two_j < 0:
        raise ValueError(f"angular momentum must be nonnegative, got {value!r}")
    return two_j


def _doubled(value) -> int:
    # 2*value as an integer; m values may be negative
    doubled = 2 * value
    rounded = round(doubled)
    if abs(doubled - rounded) > 1e-9:
        raise ValueError(f"{value!r} is not an integer or half-integer")
    return int(rounded)


def _triangle_ok(ta: int, tb: int, tc: int) -> bool:
    # triangle inequality plus integer perimeter (parity match)
    if (ta + tb + tc) % 2 != 0:
        return False
    return abs(ta - tb) <= tc <= ta + tb


def _fact2(twice: int) -> int:
    # factorial of a quantity given as a doubled (necessarily even) integer
    assert twice % 2 == 0 and twice >= 0
    return math.factorial(twice // 2)


def _tri_fraction(ta: int, tb: int, tc: int) -> Fraction:
    """Squared triangle coefficient Delta^2(a,b,c) as an exact fraction."""
    return Fraction(
        _fact2(ta + tb - tc) * _fact2(ta - tb + tc) * _fact2(-ta + tb + tc),
        _fact2(ta + tb + tc + 2),
    )


def clebsch_gordan(j1, m1, j2, m2, J, M) -> float:
    """Clebsch-Gordan coefficient <j1 m1, j2 m2 | J M> (Condon-Shortley phase).

    Returns 0 when M != m1+m2 or when the triangle rule fails.  Raises
    ``ValueError`` for negative j or non-half-integer arguments.
    """
    tj1, tj2, tJ = as_two_j(j1), as_two_j(j2), as_two_j(J)
    tm1, tm2, tM = _doubled(m1), _doubled(m2), _doubled(M)
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tJ, tM)):
        if abs(tm) > tj or (tj + tm) % 2 != 0:
            if abs(tm) > tj:
                raise ValueError("|m| exceeds j")
            return 0.0
    if tm1 + tm2 != tM or not _triangle_ok(tj1, tj2, tJ):
        return 0.0

    # Racah sum over k, all factorial arguments as doubled integers
    k_min = max(0, tj2 - tJ - tm1, tj1 + tm2 - tJ)
    k_max = min(tj1 + tj2 - tJ, tj1 - tm1, tj2 + tm2)
    total = Fraction(0)
    for tk in range(k_min, k_max + 1, 2):
        denom = (
            _fact2(tk)
            * _fact2(tj1 + tj2 - tJ - tk)
            * _fact2(tj1 - tm1 - tk)
            * _fact2(tj2 + tm2 - tk)
            * _fact2(tJ - tj2 + tm1 + tk)
            * _fact2(tJ - tj1 - tm2 + tk)
        )
        sign = -1 if (tk // 2) % 2 else 1
        total += Fraction(sign, denom)
    if total == 0:
        return 0.0

    norm = (
        Fraction(tJ + 1)
        * _tri_fraction(tj1, tj2, tJ)
        * _fact2(tj1 + tm1) * _fact2(tj1 - tm1)
        * _fact2(tj2 + tm2) * _fact2(tj2 - tm2)
        * _fact2(tJ + tM) * _fact2(tJ - tM)
    )
    return float(total) * math.sqrt(float(norm))


def wigner_6j(j1, j2, j3, j4, j5, j6) -> float:
    """Wigner 6j symbol {j1 j2 j3; j4 j5 j6} via the Racah sum.

    Returns 0 when any of the four triads violates the triangle or
    integer-perimeter rules.
    """
    t = [as_two_j(j) for j in (j1, j2, j3, j4, j5, j6)]
    triads = ((t[0], t[1], t[2]), (t[0], t[4], t[5]), (t[3], t[1], t[5]), (t[3], t[4], t[2]))
    if not all(_triangle_ok(*tr) for tr in triads):
        return 0.0

    f1 = (t[0] + t[1] + t[2]) // 2
    f2 = (t[0] + t[4] + t[5]) // 2
    f3 = (t[3] + t[1] + t[5]) // 2
    f4 = (t[3] + t[4] + t[2]) // 2
    g1 = (t[0] + t[1] + t[3] + t[4]) // 2
    g2 = (t[1] + t[2] + t[4] + t[5]) // 2
    g3 = (t[2] + t[0] + t[5] + t[3]) // 2

    total = Fraction(0)
    for k in range(max(f1, f2, f3, f4), min(g1, g2, g3) + 1):
        denom = (
            math.factorial(k - f1) * math.factorial(k - f2)
            * math.factorial(k - f3) * math.factorial(k - f4)
            * math.factorial(g1 - k) * math.factorial(g2 - k) * math.factorial(g3 - k)
        )
        sign = -1 if k % 2 else 1
        total += Fraction(sign * math.factorial(k + 1), denom)
    if total == 0:
        return 0.0

    norm = (
        _tri_fraction(*triads[0]) * _tri_fraction(*triads[1])
        * _tri_fraction(*triads[2]) * _tri_fraction(*triads[3])
    )
    return float(total) * math.sqrt(float(norm))


def _line_strength_sq(omega_if: float, two_j_lower: int, two_j_upper: int,
                      rate: float) -> float:
    """|<J||er||J'>|^2 (C^2 m^2) from the partial decay rate of J' into J."""
    return (3 * PI * EPS0 * HBAR * C**3 / omega_if**3
            * (two_j_upper + 1) / (two_j_lower + 1) * rate)


def reduced_me_from_lifetime(lifetime: float, omega_if: float, j, j_prime) -> ReducedME:
    """Reduced dipole matrix element <J||er||J'> from the transition lifetime.

    ``lifetime`` is the (partial) lifetime of the upper level J' for decay
    into J, and ``omega_if`` the transition angular frequency.
    """
    if lifetime <= 0 or omega_if <= 0:
        raise ValueError("lifetime and omega_if must be positive")
    jl = AngMom(as_two_j(j))
    ju = AngMom(as_two_j(j_prime))
    value = math.sqrt(_line_strength_sq(omega_if, jl.two_j, ju.two_j, 1.0 / lifetime))
    return ReducedME(value=value, j_lower=jl, j_upper=ju, lifetime=lifetime, omega_if=omega_if)


def emission_amplitude(delta_m: int, theta: float) -> float:
    """Angular emission amplitude of a dipole photon at polar angle theta.

    ``delta_m=0`` gives sin(theta) (no emission along the quantization axis);
    ``delta_m=+-1`` gives sqrt((1+cos^2 theta)/2).
    """
    if delta_m not in (-1, 0, 1):
        raise ValueError("delta_m must be -1, 0 or +1")
    if not 0.0 <= theta <= PI:
        raise ValueError("theta must lie in [0, pi]")
    if delta_m == 0:
        return math.sin(theta)
    return math.sqrt((1.0 + math.cos(theta) ** 2) / 2.0)
