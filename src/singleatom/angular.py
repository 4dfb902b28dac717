"""Angular-momentum algebra for dipole transitions.

Clebsch-Gordan coefficients and Wigner 6j symbols are evaluated with the
Racah sum formulas in exact integer arithmetic: the terms of a sum are put
over one common denominator (``math.lcm``), so selection rules are decided
exactly and the value is ``num / den * sqrt(n / d)``, two correctly rounded
integer quotients and one square root.  All angular momenta are carried as
doubled integers (``two_j``) so that half-integer values stay exact.
"""

import functools
import math

__all__ = [
    "as_two_j",
    "clebsch_gordan",
    "wigner_6j",
]


def as_two_j(value) -> int:
    """Coerce an integer or half-integer float to a doubled integer."""
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


def _tri_ratio(ta: int, tb: int, tc: int) -> tuple[int, int]:
    """Squared triangle coefficient Delta^2(a,b,c) as (numerator, denominator)."""
    return (_fact2(ta + tb - tc) * _fact2(ta - tb + tc) * _fact2(-ta + tb + tc),
            _fact2(ta + tb + tc + 2))


def _racah_value(terms: list[tuple[int, int]], norm_num: int, norm_den: int) -> float:
    """sum(n_k / d_k) * sqrt(norm_num / norm_den) for the terms (n_k, d_k) of a
    Racah sum.  The sum is exact over the common denominator; int / int is
    correctly rounded, as ``float`` of a ``fractions.Fraction`` is."""
    den = math.lcm(*(d for _, d in terms))
    num = sum(n * (den // d) for n, d in terms)
    if num == 0:
        return 0.0
    return num / den * math.sqrt(norm_num / norm_den)


@functools.lru_cache(maxsize=None)
def clebsch_gordan(j1, m1, j2, m2, J, M) -> float:
    """Clebsch-Gordan coefficient <j1 m1, j2 m2 | J M> (Condon-Shortley phase).

    Returns 0 when M != m1+m2 or when the triangle rule fails.  Raises
    ``ValueError`` for negative j or non-half-integer arguments.  Results
    are cached per argument tuple; the arithmetic is exact, so a cached
    value is the one a fresh evaluation would give.
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
    terms = [(-1 if (tk // 2) % 2 else 1,
              _fact2(tk)
              * _fact2(tj1 + tj2 - tJ - tk)
              * _fact2(tj1 - tm1 - tk)
              * _fact2(tj2 + tm2 - tk)
              * _fact2(tJ - tj2 + tm1 + tk)
              * _fact2(tJ - tj1 - tm2 + tk))
             for tk in range(k_min, k_max + 1, 2)]
    tri_num, tri_den = _tri_ratio(tj1, tj2, tJ)
    norm = (
        (tJ + 1) * tri_num
        * _fact2(tj1 + tm1) * _fact2(tj1 - tm1)
        * _fact2(tj2 + tm2) * _fact2(tj2 - tm2)
        * _fact2(tJ + tM) * _fact2(tJ - tM)
    )
    return _racah_value(terms, norm, tri_den)


@functools.lru_cache(maxsize=None)
def wigner_6j(j1, j2, j3, j4, j5, j6) -> float:
    """Wigner 6j symbol {j1 j2 j3; j4 j5 j6} via the Racah sum.

    Returns 0 when any of the four triads violates the triangle or
    integer-perimeter rules.  Cached per argument tuple, like
    ``clebsch_gordan``.
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

    terms = []
    for k in range(max(f1, f2, f3, f4), min(g1, g2, g3) + 1):
        denom = (
            math.factorial(k - f1) * math.factorial(k - f2)
            * math.factorial(k - f3) * math.factorial(k - f4)
            * math.factorial(g1 - k) * math.factorial(g2 - k) * math.factorial(g3 - k)
        )
        sign = -1 if k % 2 else 1
        terms.append((sign * math.factorial(k + 1), denom))

    norm_num, norm_den = 1, 1
    for triad in triads:
        num, den = _tri_ratio(*triad)
        norm_num, norm_den = norm_num * num, norm_den * den
    return _racah_value(terms, norm_num, norm_den)
