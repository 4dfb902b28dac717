"""The standard-library Bloch kernels of ``obe``.

The two-level kernel: its modes against numpy's eigendecomposition, and its
g2 against a 50-digit matrix exponential.  The four-level kernel, whose
generator ``FourLevelLiouvillian`` shares: the dense routines against
LAPACK, its g2 and its refusals against the numpy kernel
``bloch.four_level_g2``, and both kernels against a 60-digit oracle.  The mode sum on the uniform grid
against the exponential at each delay (``per_delay_sum``).
"""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from singleatom import dense, integrator
from singleatom.bloch import FourLevelParams, four_level_g2 as numpy_four_level_g2
from singleatom.bloch.four_level import FourLevelLiouvillian
from singleatom.cli import main
from singleatom.constants import (RB87_GAMMA_D2 as G, RB87_ISAT_F2_F3, TWO_PI,
                                  intensity_from_mw_cm2, linspace, rabi_frequency)
from singleatom.guards import IntegrationError
from singleatom.lightshift import LaserField, ground_shift_alkali, load_default_lines
from singleatom.obe import (_FOUR_LEVEL_DECAYS, _cubic_roots, _eigen_modes,
                            _four_level_hamiltonian, _generator, _lindblad, _modes,
                            _post_emission, _steady_vector, _sum_modes, _two_level_modes,
                            four_level_g2, trap_shifts, two_level_obe_g2)

README_OMEGA = rabi_frequency(intensity_from_mw_cm2(103.0), RB87_ISAT_F2_F3)
# the oracles' delays 5 ns, 50 ns, 300 ns and 5 us on one grid of step 5 ns:
# its rows 1, 10, 60 and 1000, at the offsets 1, 10, 60 and 40 of their blocks
ORACLE_GRID = (5e-6, 1001)
ORACLE_ROWS = (1, 10, 60, 1000)
ORACLE_TAUS = [linspace(*ORACLE_GRID)[k] for k in ORACLE_ROWS]


def exact_g2(omega, delta, taus, dps=50):
    """g2 at each delay from mpmath's expm of the float64 generator, taken as
    exact, over the steady excitation of the same inputs."""
    with mp.workdps(dps):
        gen = mp.matrix(_generator(omega, delta, G))
        o, d = mp.mpf(omega), mp.mpf(delta)
        steady = (o**2 / 4) / (d**2 + o**2 / 2 + mp.mpf(G)**2 / 4)
        return [(mp.expm(gen * mp.mpf(t)) * mp.matrix([1, 0, 0, 0]))[1] / steady
                for t in taus]


class TestModes:
    def test_eigenvalues_match_numpy(self):
        # the three cubic roots and the exact 0 against numpy's eig of the
        # same generator, underdamped, overdamped and far detuned
        rng = np.random.default_rng(7)
        for _ in range(300):
            omega = float(G * 10 ** rng.uniform(-2, 2))
            delta = float(rng.choice([-1, 1]) * G * 10 ** rng.uniform(-3, 3))
            gen = _generator(omega, delta, G)
            real, pairs, _ = _modes(gen)
            ours = [complex(lam) for lam, _ in real]
            ours += [lam for lam, _ in pairs] + [lam.conjugate() for lam, _ in pairs]
            ref = list(np.linalg.eigvals(np.array(gen)))
            for lam in ours:
                gap = min(abs(lam - r) for r in ref)
                assert gap <= 1e-12 * max(abs(lam), G)

    def test_real_root_is_bracketed(self):
        # a root in [-a2, 0] for weak, strong, resonant and far-detuned drives
        for a2, a1, a0 in [(0.5, 0.25, 0.0), (0.5, 1.0, 0.5), (0.5, 1e-6, 1e-7),
                           (1.0, 4.0, 0.0), (1e-3, 1.0, 1e-3 * 0.999)]:
            root = _cubic_roots(a2, a1, a0)[0]
            assert -a2 <= root <= 0.0
            assert abs(((root + a2) * root + a1) * root + a0) <= 1e-15 * (a1 + a2 + a0)

    def test_refusal_matches_linear_modes(self):
        # the same guard: the off-resonance exceptional point is refused by
        # both with the same text, and both give the same floor
        gen = _generator(0.25516490602389 * G, 0.05 * G, G)
        with pytest.raises(integrator.IntegrationError, match="exceptional point") as ours:
            _modes(gen)
        with pytest.raises(integrator.IntegrationError) as ref:
            integrator.linear_modes(np.array(gen), [1.0, 0, 0, 0], [0, 1.0, 0, 0])
        assert str(ours.value) == str(ref.value)
        assert ours.value.min_overlap < integrator._MIN_OVERLAP


class TestMpmathOracle:
    """g2 at tau = 5 ns, 50 ns, 300 ns and 5 us against mpmath's 50-digit
    expm of the float64 generator, taken as exact, at the rows of
    ``ORACLE_GRID``.  Measured largest relative errors over the four delays:
    1.4e-16 (README drive, -31 MHz at 103 mW/cm^2), 1.6e-15 (resonance, same
    intensity), 1.0e-13 (-3.1e4 MHz, where the phase reaches 1e6 rad at 5 us),
    2.5e-14 (+1e5 MHz), and 8.3e-9 and 1.9e-8 for Omega0 = Gamma/4 (1 + 1e-6)
    and (1 - 1e-6) on resonance, where the rounding grows like eps / s^2 with
    the smallest eigenvector overlap s near the exceptional point (both at
    5 ns).  The bounds are 1e-12 and 1e-7."""

    @pytest.mark.parametrize("omega,delta_mhz,bound", [
        (README_OMEGA, -31.0, 1e-12),
        (README_OMEGA, 0.0, 1e-12),
        (README_OMEGA, -3.1e4, 1e-12),
        (README_OMEGA, 1e5, 1e-12),
        (G / 4 * (1 + 1e-6), 0.0, 1e-7),
        (G / 4 * (1 - 1e-6), 0.0, 1e-7),
    ], ids=["readme", "resonance", "-3.1e4MHz", "+1e5MHz", "ep-above", "ep-below"])
    def test_relative_error(self, omega, delta_mhz, bound):
        delta = TWO_PI * delta_mhz * 1e6
        report = {}
        g2 = two_level_obe_g2(omega, delta, G, *ORACLE_GRID, report)
        assert report["method"] == "eigen-propagator"
        for k, ref in zip(ORACLE_ROWS, exact_g2(omega, delta, ORACLE_TAUS)):
            assert abs(g2[k] - ref) <= bound * abs(ref)

    @pytest.mark.parametrize("omega,delta", [(0.0024, 36738.3), (0.0012, -17358.6),
                                             (0.27, -5276.6)])
    def test_weak_far_detuned_drive(self, omega, delta):
        # the excited population is of order (Omega0/Delta)^2 = 1e-14 of the
        # other components: the closed-form null vectors keep it to 1e-11,
        # where a Gaussian elimination on G - lambda I lost it to 1e-2
        # 1 ns, 5 ns, 50 ns and 300 ns on a grid of step 1 ns
        omega, delta = omega * G, delta * G
        rows = (1, 5, 50, 300)
        g2 = two_level_obe_g2(omega, delta, G, 3e-7, 301)
        tau = linspace(3e-7, 301)
        for k, ref in zip(rows, exact_g2(omega, delta, [tau[k] for k in rows])):
            assert abs(g2[k] - ref) <= 1e-11


class TestKernel:
    def test_returns_floats_and_zero_at_zero_delay(self):
        g2 = two_level_obe_g2(README_OMEGA, TWO_PI * -31e6, G, 1e-9, 3)
        assert all(type(v) is float for v in g2)
        assert g2[0] == 0.0 and g2[1] > 0.0 and g2[2] > 0.0

    def test_overdamped_resonant_drive_sums_four_real_modes(self):
        real, pairs, _ = _modes(_generator(0.2 * G, 0.0, G))
        assert len(real) == 4 and not pairs
        from singleatom.readout import two_level_g2
        assert np.abs(np.array(two_level_obe_g2(0.2 * G, 0.0, G, 25 / G, 300))
                      - two_level_g2(0.2 * G, 0.0, G, linspace(25 / G, 300))).max() <= 1e-12

    def test_overflowing_drive_gives_nan(self):
        # the CLI's --icl 1e300: the steady excitation is inf / inf
        g2 = two_level_obe_g2(4e157, TWO_PI * -31e6, G, 1e-9, 2)
        assert all(math.isnan(v) for v in g2)

    @pytest.mark.parametrize("tau_max,points", [(-1e-9, 3), (math.nan, 3), (math.inf, 3),
                                                (1e-9, 1), (1e-9, 0)])
    def test_bad_grid_refused(self, tau_max, points):
        with pytest.raises(ValueError, match="delay grid"):
            two_level_obe_g2(README_OMEGA, TWO_PI * -31e6, G, tau_max, points)

    @pytest.mark.parametrize("delays", [[0.0, -1e-9], [math.nan], [math.inf], [[0.0, 1e-9]],
                                        0.5, ["x"], [0.0, 1e-9], [], np.array([0.0, 2e-9]),
                                        ["1e-9"]])
    def test_delay_rule_is_the_integrators(self, delays):
        # the library's entry point to these modes at delays in any order,
        # bloch.two_level_obe_g2, refuses and accepts what integrator does
        from singleatom.bloch import two_level_obe_g2 as any_order_g2

        try:
            expected = integrator._checked_delays(delays)
        except ValueError:
            with pytest.raises(ValueError):
                any_order_g2(README_OMEGA, TWO_PI * -31e6, G, delays)
        else:
            assert any_order_g2(README_OMEGA, TWO_PI * -31e6, G, delays).shape == expected.shape


# --- the four-level kernel ----------------------------------------------------

def four_level_drive(delta_mhz, icl, irl=12.0, trap_mw=0.0, delta_rl_mhz=0.0):
    """One four-level drive in CLI units (MHz, mW/cm^2, a trap of ``trap_mw``
    in a 3.5 um waist at 856 nm, 100 uK): the arguments of
    ``obe.four_level_g2`` before the delays, and the same drive as
    ``FourLevelParams``."""
    shifts = (0.0, 0.0, 0.0, 0.0)
    if trap_mw:
        field = LaserField(wavelength=856e-9,
                           intensity=2 * trap_mw * 1e-3 / (math.pi * 3.5e-6**2))
        lines = load_default_lines()
        shifts = trap_shifts(field, lines, ground_shift_alkali(field, 0.5, lines), 100e-6)
    params = FourLevelParams(i_cl=intensity_from_mw_cm2(icl), i_rl=intensity_from_mw_cm2(irl),
                             delta_cl=TWO_PI * delta_mhz * 1e6,
                             delta_rl=TWO_PI * delta_rl_mhz * 1e6,
                             **dict(zip(("shift_a", "shift_b", "shift_c", "shift_d"), shifts)))
    return (params.rabi_frequencies, params.delta_cl, params.delta_rl, shifts), params


def scan(seed, count):
    """Seeded drives over the CLI's working range: -60 to +20 MHz, 0.5 to
    300 mW/cm^2 cooling, 0.1 to 50 mW/cm^2 repump, traps of 0 to 60 mW."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        yield four_level_drive(float(rng.uniform(-60.0, 20.0)),
                               float(10 ** rng.uniform(math.log10(0.5), math.log10(300.0))),
                               float(10 ** rng.uniform(-1.0, math.log10(50.0))),
                               0.0 if k % 3 == 0 else float(rng.uniform(0.0, 60.0)),
                               float(rng.uniform(-5.0, 5.0)) if k % 2 else 0.0)


class TestDense:
    """The LU inverse and the Francis QR against LAPACK (numpy's inv and
    eigvals) on the generators of a seeded scan and of far-detuned drives."""

    DRIVES = [d for _, d in scan(1, 12)] + [four_level_drive(dm, 103.0)[1]
                                           for dm in (-3.1e4, 1e5, -1e4)]

    @pytest.mark.parametrize("params", DRIVES)
    def test_inverse_matches_numpy(self, params):
        # the bordered generator's inverse (from its columns) within
        # n eps cond_1(B) of LAPACK's, relative to its 1-norm
        m = FourLevelLiouvillian(params).matrix_real
        b = m.copy()
        b[0] = np.r_[np.full(4, np.linalg.norm(m, 1)), np.zeros(12)]
        ref = np.linalg.inv(b)
        got = np.array(dense.inverse(b.tolist())).T
        bound = 16 * np.finfo(float).eps * np.linalg.norm(b, 1) * np.linalg.norm(ref, 1)
        assert np.linalg.norm(got - ref, 1) <= bound * np.linalg.norm(ref, 1)

    @pytest.mark.parametrize("params", DRIVES)
    def test_eigenvalues_match_numpy(self, params):
        # every eigenvalue within 1e-12 ||M||_F of LAPACK's, a real one as a
        # float and a pair as its member with Im > 0, so conjugates are exact
        m = FourLevelLiouvillian(params).matrix_real
        found = dense.eigenvalues(m.tolist())
        pairs = [lam for lam in found if isinstance(lam, complex)]
        assert all(lam.imag > 0 for lam in pairs)
        full = [complex(lam) for lam in found] + [lam.conjugate() for lam in pairs]
        ref = list(np.linalg.eigvals(m))
        assert len(full) == len(ref) == 16
        for lam in full:
            nearest = min(ref, key=lambda r: abs(r - lam))
            assert abs(nearest - lam) <= 1e-12 * np.linalg.norm(m)
            ref.remove(nearest)

    @pytest.mark.parametrize("params", DRIVES[:4])
    def test_eigenvectors_are_right_and_left(self, params):
        m = FourLevelLiouvillian(params).matrix_real
        for lam in dense.eigenvalues(m.tolist()):
            v, w = map(np.array, dense.eigenvectors(m.tolist(), lam))
            assert np.abs(m @ v - lam * v).max() <= 1e-14 * np.linalg.norm(m)
            assert np.abs(w @ m - lam * w).max() <= 1e-14 * np.linalg.norm(m)

    def test_non_finite_entry_named(self):
        # a drive or detuning whose rate overflows to inf in rad/s: refused
        # by the eigenvalues and by the steady-state rule of both kernels,
        # before any refusal that reads the generator's norm
        drive, params = four_level_drive(-31.0, 103.0)
        for bad in (math.inf, math.nan):
            for refused in (lambda: dense.eigenvalues([[bad, 0.0], [0.0, 1.0]]),
                            lambda: four_level_g2((bad, *drive[0][1:]), *drive[1:], 1e-7, 11),
                            lambda: numpy_four_level_g2(replace(params, delta_cl=bad),
                                                        np.zeros(3))):
                with pytest.raises(IntegrationError, match="^the matrix has an entry that is"
                                                           " not finite$"):
                    refused()

    def test_unconverged_iterations_named(self, monkeypatch):
        # the iteration cap raises IntegrationError, a numerical failure
        m = FourLevelLiouvillian(four_level_drive(-31.0, 103.0)[1]).matrix_real.tolist()
        monkeypatch.setattr(dense, "_STEPS_PER_EIGENVALUE", 0)
        with pytest.raises(IntegrationError, match="QR iteration did not converge in 0 steps"):
            dense.eigenvalues(m)


class TestFourLevelKernel:
    def test_matches_numpy_kernel(self):
        # g2 of the two kernels over the seeded scan, relative to the numpy
        # kernel's value with an absolute floor of 1e-12
        tau = np.linspace(0.0, 3e-6, 151)
        for drive, params in scan(2, 30):
            got = np.array(four_level_g2(*drive, 3e-6, 151))
            ref = numpy_four_level_g2(params, tau)
            assert (np.abs(got - ref) <= 1e-10 * np.abs(ref) + 1e-12).all()

    @pytest.mark.parametrize("delta_mhz,icl,irl,delta_rl_mhz", [
        (1e100, 103.0, 12.0, 0.0), (-31.0, 1e300, 12.0, 0.0), (-31.0, 103.0, 1e300, 0.0),
        (-31.0, 103.0, 12.0, 1e300), (1e6, 103.0, 12.0, 0.0), (1e11, 103.0, 12.0, 0.0),
        (1e12, 103.0, 12.0, 0.0), (-31.0, 0.0, 12.0, 0.0), (1e5, 103.0, 12.0, 0.0),
        (-1e5, 103.0, 12.0, 0.0), (-1e6, 103.0, 12.0, 0.0),
    ])
    def test_refuses_the_drives_the_numpy_kernel_refuses(self, delta_mhz, icl, irl,
                                                         delta_rl_mhz):
        # the drives of the CLI's extreme-drive and rounding-level tests and
        # +-1e5, +-1e6 MHz: both kernels run, or both refuse with one message
        drive, params = four_level_drive(delta_mhz, icl, irl, 0.0, delta_rl_mhz)
        outcomes = []
        for kernel, args in ((four_level_g2, (*drive, 1e-8, 2)),
                             (numpy_four_level_g2, (params, np.array([0.0, 1e-8])))):
            try:
                kernel(*args)
            except ValueError as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append("ran")
        assert outcomes[0] == outcomes[1]

    def test_floats_and_zero_at_zero_delay(self):
        drive, _ = four_level_drive(-31.0, 103.0, trap_mw=40.0)
        g2 = four_level_g2(*drive, 5e-8, 51)
        assert all(type(v) is float for v in g2)
        assert g2[0] == 0.0 and min(g2[1:]) > 0.0

    def test_zero_overlap_refused_before_any_amplitude(self, monkeypatch):
        # one left eigenvector orthogonal to its right one, w . v == 0
        # exactly: the overlap guard refuses it before the amplitude formula
        # divides by w . v
        exact, patched = dense.eigenvectors, []

        def orthogonal_first(a, lam):
            v, w = exact(a, lam)
            if not patched:
                i, j = [k for k, x in enumerate(v) if x][:2]
                w = [0.0] * len(v)
                w[i], w[j] = v[j], -v[i]
                assert sum(x * y for x, y in zip(w, v)) == 0.0
                patched.append(lam)
            return v, w

        monkeypatch.setattr(dense, "eigenvectors", orthogonal_first)
        drive, _ = four_level_drive(-31.0, 103.0)
        with pytest.raises(IntegrationError) as info:
            four_level_g2(*drive, 2e-7, 801)
        assert patched and info.value.min_overlap == 0.0

    def test_bad_delays_refused(self):
        # a grid that is not finite and nonnegative with 2 points or more,
        # before any linear algebra
        drive, _ = four_level_drive(-31.0, 103.0)
        for tau_max, points in [(-1e-9, 3), (math.nan, 3), (math.inf, 3), (1e-9, 1)]:
            with pytest.raises(ValueError, match="delay grid"):
                four_level_g2(*drive, tau_max, points)


def exact_steady(gen):
    """The steady state of the generator ``gen`` (an mpmath matrix of float64
    entries) by mpmath's LU solve with row 0 replaced by the trace, at the
    working precision: the exact solution of the kernels' bordered system,
    whose row 0 is ||M||_1 on the populations and whose right side is
    ||M||_1 e_0."""
    bordered = gen.copy()
    for k in range(16):
        bordered[0, k] = 1 if k < 4 else 0
    return mp.lu_solve(bordered, mp.matrix([1] + [0] * 15))


def exact_four_level_g2(params, taus, dps=60):
    """g2 at each delay from the float64 generator taken as exact: the steady
    state of ``exact_steady``, the post-emission state from the decays, and
    mpmath's expm, at ``dps`` digits."""
    m = FourLevelLiouvillian(params).matrix_real.tolist()
    with mp.workdps(dps):
        gen = mp.matrix(m)
        steady = exact_steady(gen)
        emitted = sum(mp.mpf(rate) * steady[frm] for rate, _, frm in _FOUR_LEVEL_DECAYS)
        y0 = mp.matrix(16, 1)
        for rate, to, frm in _FOUR_LEVEL_DECAYS:
            y0[to] += mp.mpf(rate) * steady[frm] / emitted
        excited = steady[0] + steady[3]
        return [(lambda y: (y[0] + y[3]) / excited)(mp.expm(gen * mp.mpf(t)) * y0)
                for t in taus]


@pytest.mark.slow
class TestFourLevelMpmathOracle:
    """Both four-level kernels against a 60-digit oracle at tau = 5 ns, 50 ns,
    300 ns and 5 us (about 1.5 s per drive).  Largest relative errors
    measured over the four delays, numpy kernel / stdlib kernel: 2.7e-14 /
    1.6e-15 at the README drive (-31 MHz, 103 and 12 mW/cm^2), 1.2e-14 /
    6.2e-15 at -10 MHz, 30 and 3 mW/cm^2, 1.5e-15 / 1.6e-15 at +5 MHz, 300
    and 50 mW/cm^2, both bounded by 1e-11.  At -3.1e4 MHz: 1.4e-6 / 5.2e-10,
    and at +1e5 MHz: 2.7e-5 / 9.6e-9 (103 and 12 mW/cm^2).  There the numpy
    kernel's eigendecomposition loses digits to a generator norm 10^4 to
    10^5 above the decay rates (ROADMAP item 4); the stdlib kernel is held
    to at most twice the numpy kernel's error."""

    @staticmethod
    def errors(delta_mhz, icl, irl):
        drive, params = four_level_drive(delta_mhz, icl, irl)
        exact = exact_four_level_g2(params, ORACLE_TAUS)
        g2 = four_level_g2(*drive, *ORACLE_GRID)
        ours = [g2[k] for k in ORACLE_ROWS]
        numpy_g2 = numpy_four_level_g2(params, np.array(ORACLE_TAUS))
        return [max(float(abs((v - r) / r)) for v, r in zip(g2, exact))
                for g2 in (ours, numpy_g2)]

    @pytest.mark.parametrize("delta_mhz,icl,irl", [(-31.0, 103.0, 12.0), (-10.0, 30.0, 3.0),
                                                   (5.0, 300.0, 50.0)],
                             ids=["readme", "moderate-red", "moderate-blue"])
    def test_both_kernels_to_1e_11(self, delta_mhz, icl, irl):
        ours, numpy_error = self.errors(delta_mhz, icl, irl)
        assert ours <= 1e-11 and numpy_error <= 1e-11

    @pytest.mark.parametrize("delta_mhz", [-3.1e4, 1e5], ids=["-3.1e4MHz", "+1e5MHz"])
    def test_far_detuned_no_worse_than_numpy(self, delta_mhz):
        ours, numpy_error = self.errors(delta_mhz, 103.0, 12.0)
        assert ours <= 2.0 * numpy_error


class TestSteadyStateOracle:
    """The excited population of both kernels' steady state against the
    60-digit solve of the same float64 generator, within 4 eps relative:
    the bordered solve refined once with an exactly summed residual
    (measured: at most 1.9e-16)."""

    @pytest.mark.parametrize("kernel", ["stdlib", "numpy"])
    @pytest.mark.parametrize("trap_mw", [0.0, 40.0], ids=["free", "trap"])
    @pytest.mark.parametrize("delta_mhz", [-31.0, -3.1e4, 1e5])
    def test_excited_population_to_4_eps(self, delta_mhz, trap_mw, kernel):
        _, params = four_level_drive(delta_mhz, 103.0, trap_mw=trap_mw)
        m = FourLevelLiouvillian(params).matrix_real
        if kernel == "stdlib":  # the rule and inverse of obe.four_level_g2
            steady = _steady_vector(m.tolist(), _FOUR_LEVEL_DECAYS, dense.inverse)
        else:
            steady = FourLevelLiouvillian(params).steady_state()
        with mp.workdps(60):
            exact = exact_steady(mp.matrix(m.tolist()))
            exact_excited = exact[0] + exact[3]
            error = abs((steady[0] + steady[3] - exact_excited) / exact_excited)
        assert error <= 4 * np.finfo(float).eps


# --- the mode sum on the uniform grid ------------------------------------------

def per_delay_sum(real, pairs, tau, steady):
    """sum_k a_k exp(lambda_k tau) / steady with exp, cos and sin taken at each
    delay, the modes added one at a time in the kernel's order: the evaluator
    that the grid recurrence of ``obe._sum_modes`` replaced, kept here as its
    reference.  Rows at tau = 0 are 0 / steady."""
    exp, cos, sin = math.exp, math.cos, math.sin
    (lam, amp), *rest = real
    acc = [amp * exp(lam * t) for t in tau]
    for lam, amp in rest:
        acc = [s + amp * exp(lam * t) for s, t in zip(acc, tau)]
    for lam, amp in pairs:
        rate, freq, ac, asin = lam.real, lam.imag, 2.0 * amp.real, -2.0 * amp.imag
        acc = [(s + (decay := exp(rate * t)) * cos(phase := freq * t) * ac)
               + decay * sin(phase) * asin for s, t in zip(acc, tau)]
    return [s / steady if t else 0.0 / steady for s, t in zip(acc, tau)]


def four_level_modes(drive):
    """(real, pairs, steady excited population) of ``obe.four_level_g2``'s
    mode sum for one drive."""
    rabi, delta_cl, delta_rl, shifts = drive
    m = _lindblad(_four_level_hamiltonian(rabi, delta_cl, delta_rl, shifts), _FOUR_LEVEL_DECAYS)
    steady = _steady_vector(m, _FOUR_LEVEL_DECAYS, dense.inverse)
    excited = [0.0] * 16
    excited[0] = excited[3] = 1.0
    real, pairs, _ = _eigen_modes(m, _post_emission(steady, _FOUR_LEVEL_DECAYS), excited)
    return real, pairs, steady[0] + steady[3]


# (tau_max, points): the CLI's longest grid, a long and a short deck-like one,
# and grids whose last block is partial; up to 20 001 delays over 5 us
GRIDS = [(5e-6, 20001), (4.846e-6, 15782), (1e-6, 5001), (2e-7, 801), (3e-7, 100)]


class TestGridEvaluator:
    """The recurrence q = exp(lambda step) in blocks of 64 delays, with the
    modes cut off below 2^-64 of the steady state, against the exponential
    at each delay: at most 1e-13 apart (9e-15 measured on the CLI's drives)."""

    @staticmethod
    def assert_close(got, ref):
        assert len(got) == len(ref) and all(type(v) is float for v in got)
        assert max(abs(a - b) for a, b in zip(got, ref)) <= 1e-13
        assert got[0] == 0.0

    def test_two_level_seeded_drives(self):
        # the CLI's working range of scan (-60 to +20 MHz, 0.5 to 300 mW/cm^2),
        # under- and overdamped, on resonance.  Far outside it both sums lose
        # eps |Im lambda| / |Re lambda| of a mode to the rounding of its phase
        # while it lasts (1.8e-13 at Omega0 = 100 Gamma), whichever way they
        # are summed
        rng = np.random.default_rng(28)
        for k in range(24):
            omega = rabi_frequency(intensity_from_mw_cm2(
                float(10 ** rng.uniform(math.log10(0.5), math.log10(300.0)))), RB87_ISAT_F2_F3)
            delta = 0.0 if k % 6 == 0 else TWO_PI * float(rng.uniform(-60.0, 20.0)) * 1e6
            tau_max, points = GRIDS[k % len(GRIDS)]
            steady, (real, pairs), _ = _two_level_modes(omega, delta, G)
            self.assert_close(two_level_obe_g2(omega, delta, G, tau_max, points),
                              per_delay_sum(real, pairs, linspace(tau_max, points), steady))

    @pytest.mark.parametrize("omega,delta", [(0.26, 0.05), (0.2552, 0.06), (0.26, 0.5),
                                             (0.2, 3.0)],
                             ids=["near-ep", "nearer-ep", "near-ep-detuned", "overdamped"])
    def test_two_level_near_the_exceptional_point(self, omega, delta):
        # off resonance, where no closed form answers.  On resonance within
        # 1e-6 of the exceptional point the modes' amplitudes cancel so far
        # that either sum errs by up to 2e-8 (TestMpmathOracle)
        steady, (real, pairs), _ = _two_level_modes(omega * G, delta * G, G)
        for tau_max, points in GRIDS[:3]:
            self.assert_close(two_level_obe_g2(omega * G, delta * G, G, tau_max, points),
                              per_delay_sum(real, pairs, linspace(tau_max, points), steady))

    @pytest.mark.parametrize("seed", [3, 4])
    def test_four_level_seeded_drives(self, seed):
        # scan's drives alternate with and without a trap
        for k, (drive, _) in enumerate(scan(seed, 4)):
            real, pairs, steady = four_level_modes(drive)
            tau_max, points = GRIDS[(k + seed) % 3]
            self.assert_close(four_level_g2(*drive, tau_max, points),
                              per_delay_sum(real, pairs, linspace(tau_max, points), steady))

    @pytest.mark.parametrize("trap_mw", [0.0, 40.0])
    def test_full_model(self, trap_mw):
        # the envelope 1 + A exp(-tau / tau0) from the same evaluator, times g2
        drive, _ = four_level_drive(-31.0, 103.0, trap_mw=trap_mw)
        real, pairs, steady = four_level_modes(drive)
        a, tau0 = 0.3, 1.2e-6
        for tau_max, points in GRIDS[:2]:
            tau = linspace(tau_max, points)
            envelope = _sum_modes([(0.0, 1.0), (-1.0 / tau0, a)], [], tau_max, points, 1.0)
            assert envelope[0] == 1.0 + a
            assert max(abs(e - (1.0 + a * math.exp(-t / tau0)))
                       for e, t in zip(envelope, tau)) <= 1e-13
            got = [g * e for g, e in zip(four_level_g2(*drive, tau_max, points), envelope)]
            ref = [g * (1.0 + a * math.exp(-t / tau0))
                   for g, t in zip(per_delay_sum(real, pairs, tau, steady), tau)]
            self.assert_close(got, ref)

    def test_step_underflowing_to_zero(self):
        # g2 --tau-max-ns 1e-314 --points 1001: the step is 0, so the grid
        # would not be uniform; the kernels and the mode sum refuse it (the
        # CLI refuses it in validation)
        tau_max, points = 1e-314 * 1e-9, 1001
        assert tau_max > 0.0 and tau_max / (points - 1) == 0.0
        drive, _ = four_level_drive(-31.0, 103.0, trap_mw=40.0)
        steady, (real, pairs), _ = _two_level_modes(README_OMEGA, TWO_PI * -31e6, G)
        for refused in (lambda: two_level_obe_g2(README_OMEGA, TWO_PI * -31e6, G, tau_max,
                                                 points),
                        lambda: four_level_g2(*drive, tau_max, points),
                        lambda: _sum_modes(real, pairs, tau_max, points, steady)):
            with pytest.raises(ValueError, match="delay grid"):
                refused()

    @pytest.mark.parametrize("real,pairs,steady", [
        ([(-1e7, 0.0), (0.0, 1.0)], [(complex(-1e7, 1e8), 0j)], 0.5),
        ([(-1e7, math.nan)], [(complex(-1e7, 1e8), complex(math.nan, 0.0))], 0.5),
        ([(-1e7, math.inf), (0.0, 1.0)], [], 0.5),
        ([(-math.inf, 0.3), (0.0, 1.0)], [], 1.0),
        ([(-1e7, 0.3)], [(complex(-1e7, 1e8), 0.1j)], math.nan),
        ([(-1e7, 0.3)], [], 1e-320),
        ([(-1e7, 1e-300)], [(complex(-1e7, 1e8), 1e-300j)], 0.5),
    ], ids=["zero-amplitudes", "nan-amplitudes", "inf-amplitude", "infinite-rate",
            "nan-steady", "subnormal-steady", "modes-below-the-floor"])
    def test_cut_off_never_raises(self, real, pairs, steady):
        # the cut-off takes logarithms of |a| and of the floor: no value here
        # may reach them as 0, inf or NaN and raise
        for tau_max, points in [(5e-6, 2001), (1e-318, 3)]:
            g2 = _sum_modes(real, pairs, tau_max, points, steady)
            assert len(g2) == points and all(type(v) is float for v in g2)


class TestCliGridEdges:
    """Exit codes and lines of the grid kernels at the edges of the CLI's input."""

    @pytest.mark.parametrize("icl,model,code,line", [
        ("1e150", ["--model", "two-level-obe"], 2,
         "validation: --icl-mw-cm2 1e+150 with --delta-mhz -31 and --tau-max-ns 5000: the"
         " generalized Rabi phase at the longest delay (7.12e+76 rad) has a rounding error"
         " above 0.001 rad\n"),
        ("1e150", [], 3, "numerical failure: drive or detuning exceeds the linewidth by more"
                         " than float64 can resolve: generator norm 3.27e+82 /s against decay"
                         " rate 1.91e+07 /s\n"),
        ("1e150", ["--model", "full", "--env-a", "0.3", "--env-tau-us", "2"], 3,
         "numerical failure: drive or detuning exceeds the linewidth by more than float64 can"
         " resolve: generator norm 3.27e+82 /s against decay rate 1.91e+07 /s\n"),
        # the intensity in W/m^2 overflows, and with it the Rabi rates
        ("1.7e308", ["--model", "two-level-obe"], 2,
         "validation: --icl-mw-cm2 1.7e+308: the cooling Rabi rate on F=2 -> F'=3 (rad/s)"
         " overflows\n"),
        ("1.7e308", [], 2, "validation: --icl-mw-cm2 1.7e+308: the cooling Rabi rate on"
                           " F=2 -> F'=2 (rad/s) overflows\n"),
        ("1.7e308", ["--model", "full", "--env-a", "0.3", "--env-tau-us", "2"], 2,
         "validation: --icl-mw-cm2 1.7e+308: the cooling Rabi rate on F=2 -> F'=2 (rad/s)"
         " overflows\n"),
    ], ids=["obe-1e150", "four-level-1e150", "full-1e150", "obe-1.7e308", "four-level-1.7e308",
            "full-1.7e308"])
    def test_overflowing_drive(self, tmp_path, capsys, icl, model, code, line):
        argv = ["g2", "--delta-mhz", "-31", "--icl", icl, *model, "--points", "2001",
                "--tau-max-ns", "5000", "--out", str(tmp_path / "g2.csv")]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err == line
        assert "math domain error" not in err and "division by zero" not in err

    def test_envelope_below_the_floor_on_a_short_grid(self, tmp_path):
        # A = 1e-30 is below the cut-off from tau = 0 and tau0 is so long that
        # cut / step overflows to -inf: the mode is dropped, and no int(-inf)
        # raises
        out = tmp_path / "g2.csv"
        argv = ["g2", "--model", "full", "--delta-mhz", "-31", "--icl", "103", "--env-a",
                "1e-30", "--env-tau-us", "1e300", "--tau-max-ns", "1e-5", "--points", "2",
                "--out", str(out)]
        assert main(argv) == 0
        g2 = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        drive, _ = four_level_drive(-31.0, 103.0)
        assert g2 == [float(f"{v:.12g}") for v in four_level_g2(*drive, 1e-5 * 1e-9, 2)]

    @pytest.mark.parametrize("env_a,env_tau_us", [("0", "1e-310"), ("0.3", "1e-310"),
                                                  ("1e-30", "1e-310"), ("0.3", "1e300")])
    def test_envelope_edges_match_the_formula(self, tmp_path, env_a, env_tau_us):
        # 1 / tau0 overflows to inf, or tau0 is far beyond the grid
        out = tmp_path / "g2.csv"
        argv = ["g2", "--model", "full", "--delta-mhz", "-31", "--icl", "103", "--env-a", env_a,
                "--env-tau-us", env_tau_us, "--points", "201", "--out", str(out)]
        assert main(argv) == 0
        g2 = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        drive, _ = four_level_drive(-31.0, 103.0)
        tau, a, tau0 = linspace(200e-9, 201), float(env_a), float(env_tau_us) * 1e-6
        ref = [g * (1.0 + a * math.exp(-t / tau0))
               for g, t in zip(four_level_g2(*drive, 200e-9, 201), tau)]
        assert g2 == [float(f"{v:.12g}") for v in ref]
