"""Angular-momentum algebra against an independent sympy oracle, and the
integer Racah sums bit for bit against the same sums in ``fractions``."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from sympy import Rational
from sympy.physics.wigner import clebsch_gordan as sympy_cg
from sympy.physics.wigner import wigner_6j as sympy_6j

from singleatom import angular


def sy_cg(tj1, tm1, tj2, tm2, tJ, tM):
    return float(sympy_cg(Rational(tj1, 2), Rational(tj2, 2), Rational(tJ, 2),
                          Rational(tm1, 2), Rational(tm2, 2), Rational(tM, 2)))


def sy_6j(ts):
    try:
        return float(sympy_6j(*[Rational(t, 2) for t in ts]))
    except ValueError:
        return 0.0


# The Racah sums as exact fractions, float(total) * sqrt(float(norm)); the
# package sums the same terms over one integer common denominator and must
# round to the same float.  Arguments are doubled integers.

def _f2(twice):
    return math.factorial(twice // 2)


def _tri(ta, tb, tc):
    return Fraction(_f2(ta + tb - tc) * _f2(ta - tb + tc) * _f2(-ta + tb + tc),
                    _f2(ta + tb + tc + 2))


def fraction_cg(tj1, tm1, tj2, tm2, tJ, tM):
    """A CG tuple with |m| <= j, M = m1 + m2 and (j1, j2, J) a triangle."""
    k_min = max(0, tj2 - tJ - tm1, tj1 + tm2 - tJ)
    k_max = min(tj1 + tj2 - tJ, tj1 - tm1, tj2 + tm2)
    total = Fraction(0)
    for tk in range(k_min, k_max + 1, 2):
        denom = (_f2(tk) * _f2(tj1 + tj2 - tJ - tk) * _f2(tj1 - tm1 - tk)
                 * _f2(tj2 + tm2 - tk) * _f2(tJ - tj2 + tm1 + tk) * _f2(tJ - tj1 - tm2 + tk))
        total += Fraction(-1 if (tk // 2) % 2 else 1, denom)
    if total == 0:
        return 0.0
    norm = (Fraction(tJ + 1) * _tri(tj1, tj2, tJ) * _f2(tj1 + tm1) * _f2(tj1 - tm1)
            * _f2(tj2 + tm2) * _f2(tj2 - tm2) * _f2(tJ + tM) * _f2(tJ - tM))
    return float(total) * math.sqrt(float(norm))


def fraction_6j(t):
    """A 6j tuple whose four triads pass the triangle and parity rules."""
    f = [(t[0] + t[1] + t[2]) // 2, (t[0] + t[4] + t[5]) // 2,
         (t[3] + t[1] + t[5]) // 2, (t[3] + t[4] + t[2]) // 2]
    g = [(t[0] + t[1] + t[3] + t[4]) // 2, (t[1] + t[2] + t[4] + t[5]) // 2,
         (t[2] + t[0] + t[5] + t[3]) // 2]
    total = Fraction(0)
    for k in range(max(f), min(g) + 1):
        denom = math.prod(math.factorial(k - x) for x in f) * math.prod(
            math.factorial(x - k) for x in g)
        total += Fraction((-1 if k % 2 else 1) * math.factorial(k + 1), denom)
    if total == 0:
        return 0.0
    norm = (_tri(t[0], t[1], t[2]) * _tri(t[0], t[4], t[5]) * _tri(t[3], t[1], t[5])
            * _tri(t[3], t[4], t[2]))
    return float(total) * math.sqrt(float(norm))


def triangle(ta, tb, tc):
    return (ta + tb + tc) % 2 == 0 and abs(ta - tb) <= tc <= ta + tb


class TestIntegerRacahSums:
    """The uncached functions (``__wrapped__``), so the sweeps fill no cache."""

    def test_every_cg_up_to_j4_bit_for_bit(self):
        cg = angular.clebsch_gordan.__wrapped__
        checked = nonzero = 0
        for tj1, tj2, tJ in itertools.product(range(9), repeat=3):
            for tm1, tm2 in itertools.product(range(-tj1, tj1 + 1, 2), range(-tj2, tj2 + 1, 2)):
                tM = tm1 + tm2
                if abs(tM) > tJ:
                    continue
                ok = triangle(tj1, tj2, tJ)
                expected = fraction_cg(tj1, tm1, tj2, tm2, tJ, tM) if ok else 0.0
                mine = cg(tj1 / 2, tm1 / 2, tj2 / 2, tm2 / 2, tJ / 2, tM / 2)
                assert mine == expected and math.copysign(1, mine) == math.copysign(
                    1, expected), (tj1, tm1, tj2, tm2, tJ, tM)
                checked += 1
                nonzero += expected != 0.0
        assert (checked, nonzero) == (9753, 4338)

    def test_every_6j_up_to_j3_bit_for_bit(self):
        six_j = angular.wigner_6j.__wrapped__
        nonzero = 0
        for t in itertools.product(range(7), repeat=6):
            triads = ((t[0], t[1], t[2]), (t[0], t[4], t[5]), (t[3], t[1], t[5]),
                      (t[3], t[4], t[2]))
            expected = fraction_6j(t) if all(triangle(*tr) for tr in triads) else 0.0
            mine = six_j(*[x / 2 for x in t])
            assert mine == expected and math.copysign(1, mine) == math.copysign(
                1, expected), t
            nonzero += expected != 0.0
        assert nonzero == 3408


class TestClebschGordan:
    def test_spot_values(self):
        assert angular.clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0) == pytest.approx(
            1 / math.sqrt(2), abs=1e-15)
        assert angular.clebsch_gordan(1, 0, 1, 0, 2, 0) == pytest.approx(
            math.sqrt(2 / 3), abs=1e-15)

    def test_m_selection_rule(self):
        assert angular.clebsch_gordan(1, 1, 1, 1, 1, 1) == 0.0

    def test_triangle_violation(self):
        assert angular.clebsch_gordan(1, 0, 1, 0, 3, 0) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            angular.clebsch_gordan(0.3, 0, 1, 0, 1, 0)
        with pytest.raises(ValueError):
            angular.clebsch_gordan(-1, 0, 1, 0, 1, 0)
        with pytest.raises(ValueError):
            angular.clebsch_gordan(1, 2, 1, 0, 2, 2)  # |m| > j

    def test_oracle_equivalence_small(self):
        for tj1, tj2, tJ in itertools.product(range(6), repeat=3):
            for tm1 in range(-tj1, tj1 + 1, 2):
                for tm2 in range(-tj2, tj2 + 1, 2):
                    tM = tm1 + tm2
                    if abs(tM) > tJ:
                        continue
                    mine = angular.clebsch_gordan(
                        tj1 / 2, tm1 / 2, tj2 / 2, tm2 / 2, tJ / 2, tM / 2)
                    assert mine == pytest.approx(
                        sy_cg(tj1, tm1, tj2, tm2, tJ, tM), abs=1e-12)

    def test_orthogonality(self):
        # sum over (m1, m2) of CG(J, M) * CG(J', M') = delta_JJ' delta_MM'
        tj1, tj2 = 3, 4
        for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
            for tJp in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                for tM in range(-min(tJ, tJp), min(tJ, tJp) + 1, 2):
                    total = sum(
                        angular.clebsch_gordan(tj1 / 2, tm1 / 2, tj2 / 2,
                                               (tM - tm1) / 2, tJ / 2, tM / 2)
                        * angular.clebsch_gordan(tj1 / 2, tm1 / 2, tj2 / 2,
                                                 (tM - tm1) / 2, tJp / 2, tM / 2)
                        for tm1 in range(-tj1, tj1 + 1, 2)
                        if abs(tM - tm1) <= tj2
                    )
                    expected = 1.0 if tJ == tJp else 0.0
                    assert total == pytest.approx(expected, abs=1e-12)


class TestWigner6j:
    def test_spot_values(self):
        assert angular.wigner_6j(0.5, 0.5, 1, 0.5, 0.5, 1) == pytest.approx(
            1 / 6, abs=1e-15)
        for j in (1, 2, 3):
            assert angular.wigner_6j(0, j, j, 0, j, j) == pytest.approx(
                1 / (2 * j + 1), abs=1e-15)

    def test_triangle_violation_gives_zero(self):
        assert angular.wigner_6j(1, 1, 3, 1, 1, 1) == 0.0

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            angular.wigner_6j(0.4, 1, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            angular.wigner_6j(-1, 1, 1, 1, 1, 1)

    def test_oracle_equivalence_small(self):
        for ts in itertools.product(range(5), repeat=6):
            mine = angular.wigner_6j(*[t / 2 for t in ts])
            assert mine == pytest.approx(sy_6j(ts), abs=1e-12), ts

    def test_column_symmetries(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            ts = tuple(rng.integers(0, 7, size=6))
            base = angular.wigner_6j(*[t / 2 for t in ts])
            j1, j2, j3, j4, j5, j6 = ts
            # column permutations
            perms = [
                (j2, j1, j3, j5, j4, j6),
                (j3, j2, j1, j6, j5, j4),
                (j1, j3, j2, j4, j6, j5),
            ]
            # exchange of upper/lower pairs in two columns
            swaps = [
                (j4, j5, j3, j1, j2, j6),
                (j4, j2, j6, j1, j5, j3),
                (j1, j5, j6, j4, j2, j3),
            ]
            for other in perms + swaps:
                assert angular.wigner_6j(*[t / 2 for t in other]) == pytest.approx(
                    base, abs=1e-13)
