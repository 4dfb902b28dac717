"""The standard-library Bloch kernels of ``obe``.

The two-level kernel: its generator against the numpy Lindblad builder, its
modes against numpy's eigendecomposition, and its g2 against a 50-digit
matrix exponential.  The four-level kernel: its generator bit for bit
against ``FourLevelLiouvillian``, the dense routines against LAPACK, its g2
and its refusals against the numpy kernel ``bloch.four_level_g2``, and both
kernels against a 60-digit oracle.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from singleatom import dense, integrator
from singleatom.bloch import FourLevelParams, four_level_g2 as numpy_four_level_g2
from singleatom.bloch.four_level import FourLevelLiouvillian
from singleatom.bloch.state import lindblad_generator
from singleatom.constants import (RB87_GAMMA_D2 as G, RB87_ISAT_F2_F3, TWO_PI,
                                  intensity_from_mw_cm2, rabi_frequency)
from singleatom.guards import IntegrationError
from singleatom.lightshift import LaserField, ground_shift_alkali, load_default_lines
from singleatom.obe import (_FOUR_LEVEL_DECAYS, _checked_delays, _cubic_roots,
                            _four_level_hamiltonian, _generator, _lindblad, _modes,
                            four_level_g2, trap_shifts, two_level_obe_g2)

README_OMEGA = rabi_frequency(intensity_from_mw_cm2(103.0), RB87_ISAT_F2_F3)


def exact_g2(omega, delta, taus, dps=50):
    """g2 at each delay from mpmath's expm of the float64 generator, taken as
    exact, over the steady excitation of the same inputs."""
    with mp.workdps(dps):
        gen = mp.matrix(_generator(omega, delta, G))
        o, d = mp.mpf(omega), mp.mpf(delta)
        steady = (o**2 / 4) / (d**2 + o**2 / 2 + mp.mpf(G)**2 / 4)
        return [(mp.expm(gen * mp.mpf(t)) * mp.matrix([1, 0, 0, 0]))[1] / steady
                for t in taus]


class TestGenerator:
    def test_bit_for_bit_with_the_lindblad_builder(self):
        # every entry and the sign of every zero, over twelve decades of each
        # parameter, signed zero detunings included
        rng = np.random.default_rng(25)
        for k in range(2000):
            omega = float(rng.uniform(-1, 1) * 10 ** rng.uniform(-300, 300))
            delta = (0.0, -0.0)[k % 2] if k % 5 == 0 else float(
                rng.uniform(-1, 1) * 10 ** rng.uniform(-300, 300))
            gamma = float(10 ** rng.uniform(-300, 300))
            h = [[0.0, omega / 2.0], [omega / 2.0, -delta]]
            ref = lindblad_generator(h, [(gamma, 0, 1)])
            assert np.array(_generator(omega, delta, gamma)).tobytes() == ref.tobytes()


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
    expm of the float64 generator, taken as exact.  Measured largest relative
    errors over the four delays: 4.3e-16 (README drive, -31 MHz at
    103 mW/cm^2), 1.7e-15 (resonance, same intensity), 8.5e-14 (-3.1e4 MHz),
    1.2e-14 (+1e5 MHz), and 8.3e-9 and 1.9e-8 for Omega0 = Gamma/4 (1 + 1e-6)
    and (1 - 1e-6) on resonance, where the rounding grows like eps / s^2 with
    the smallest eigenvector overlap s near the exceptional point (both at
    5 ns).  The bounds are 1e-12 and 1e-7."""

    TAUS = [5e-9, 50e-9, 300e-9, 5e-6]

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
        got = two_level_obe_g2(omega, delta, G, self.TAUS, report)
        assert report["method"] == "eigen-propagator"
        for value, ref in zip(got, exact_g2(omega, delta, self.TAUS)):
            assert abs(value - ref) <= bound * abs(ref)

    @pytest.mark.parametrize("omega,delta", [(0.0024, 36738.3), (0.0012, -17358.6),
                                             (0.27, -5276.6)])
    def test_weak_far_detuned_drive(self, omega, delta):
        # the excited population is of order (Omega0/Delta)^2 = 1e-14 of the
        # other components: the closed-form null vectors keep it to 1e-11,
        # where a Gaussian elimination on G - lambda I lost it to 1e-2
        omega, delta = omega * G, delta * G
        taus = [1e-9, 5e-9, 5e-8, 3e-7]
        got = two_level_obe_g2(omega, delta, G, taus)
        for value, ref in zip(got, exact_g2(omega, delta, taus)):
            assert abs(value - ref) <= 1e-11


class TestKernel:
    def test_returns_floats_and_zero_at_zero_delay(self):
        g2 = two_level_obe_g2(README_OMEGA, TWO_PI * -31e6, G, [0.0, 1e-9, 0.0])
        assert all(type(v) is float for v in g2)
        assert g2[0] == 0.0 and g2[2] == 0.0 and g2[1] > 0.0

    def test_overdamped_resonant_drive_sums_four_real_modes(self):
        real, pairs, _ = _modes(_generator(0.2 * G, 0.0, G))
        assert len(real) == 4 and not pairs
        tau = np.linspace(0.0, 25 / G, 300)
        from singleatom.readout import two_level_g2
        assert np.abs(np.array(two_level_obe_g2(0.2 * G, 0.0, G, tau))
                      - two_level_g2(0.2 * G, 0.0, G, tau.tolist())).max() <= 1e-12

    def test_overflowing_drive_gives_nan(self):
        # the CLI's --icl 1e300: the steady excitation is inf / inf
        g2 = two_level_obe_g2(4e157, TWO_PI * -31e6, G, [0.0, 1e-9])
        assert all(math.isnan(v) for v in g2)

    @pytest.mark.parametrize("delays", [[0.0, -1e-9], [math.nan], [math.inf], [[0.0, 1e-9]],
                                        0.5, ["x"], [0.0, 1e-9], [], np.array([0.0, 2e-9]),
                                        ["1e-9"]])
    def test_delay_rule_is_the_integrators(self, delays):
        try:
            expected = integrator._checked_delays(delays).tolist()
        except ValueError:
            with pytest.raises(ValueError):
                _checked_delays(delays)
        else:
            assert _checked_delays(delays) == expected


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


class TestFourLevelGenerator:
    def test_bit_for_bit_with_the_numpy_generator(self):
        # FourLevelLiouvillian builds it with state.lindblad_generator; every
        # entry and the sign of every zero, signed zero detunings and shifts,
        # drives off and far detunings included
        rng = np.random.default_rng(26)
        for k in range(300):
            value = (lambda: float(rng.uniform(-1, 1) * 10 ** rng.uniform(-20, 20)))
            zero = (0.0, -0.0)[k % 2]
            params = FourLevelParams(
                i_cl=0.0 if k % 7 == 0 else abs(value()), i_rl=0.0 if k % 11 == 0 else abs(value()),
                delta_cl=zero if k % 5 == 0 else value(), delta_rl=zero if k % 3 == 0 else value(),
                shift_a=value(), shift_b=zero if k % 4 == 0 else value(), shift_c=value(),
                shift_d=zero if k % 6 == 0 else value())
            shifts = (params.shift_a, params.shift_b, params.shift_c, params.shift_d)
            h = _four_level_hamiltonian(params.rabi_frequencies, params.delta_cl,
                                        params.delta_rl, shifts)
            got = np.array(_lindblad(h, _FOUR_LEVEL_DECAYS))
            assert got.tobytes() == FourLevelLiouvillian(params).matrix_real.tobytes()


class TestDense:
    """The Jacobi SVD and the Francis QR against LAPACK (numpy's svd and
    eigvals) on the generators of a seeded scan and of far-detuned drives."""

    DRIVES = [d for _, d in scan(1, 12)] + [four_level_drive(dm, 103.0)[1]
                                           for dm in (-3.1e4, 1e5, -1e4)]

    @pytest.mark.parametrize("params", DRIVES)
    def test_singular_values_match_numpy(self, params):
        m = FourLevelLiouvillian(params).matrix_real
        s, vecs = dense.jacobi_svd(m.tolist())
        ref = np.linalg.svd(m, compute_uv=False)
        assert np.abs(np.array(s) - ref).max() <= 1e-13 * ref[0]
        # each v[k] is a unit right singular vector of s[k]
        for value, v in zip(s, vecs):
            assert np.linalg.norm(m @ v) == pytest.approx(value, abs=1e-13 * ref[0])
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)

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
        # a drive or detuning whose rate overflows to inf in rad/s
        for routine in (dense.jacobi_svd, dense.eigenvalues):
            with pytest.raises(IntegrationError, match="an entry that is not finite"):
                routine([[math.inf, 0.0], [0.0, 1.0]])

    def test_unconverged_iterations_named(self, monkeypatch):
        # the iteration caps raise IntegrationError, a numerical failure
        m = FourLevelLiouvillian(four_level_drive(-31.0, 103.0)[1]).matrix_real.tolist()
        monkeypatch.setattr(dense, "_MAX_SWEEPS", 1)
        with pytest.raises(IntegrationError, match="Jacobi SVD did not converge in 1 sweeps"):
            dense.jacobi_svd(m)
        monkeypatch.setattr(dense, "_STEPS_PER_EIGENVALUE", 0)
        with pytest.raises(IntegrationError, match="QR iteration did not converge in 0 steps"):
            dense.eigenvalues(m)


class TestFourLevelKernel:
    def test_matches_numpy_kernel(self):
        # g2 of the two kernels over the seeded scan, relative to the numpy
        # kernel's value with an absolute floor of 1e-12
        tau = np.concatenate([[0.0], np.linspace(1e-9, 3e-6, 150)])
        for drive, params in scan(2, 30):
            got = np.array(four_level_g2(*drive, tau.tolist()))
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
        for kernel, args in ((four_level_g2, (*drive, [0.0, 1e-8])),
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
        g2 = four_level_g2(*drive, [0.0, 1e-9, 0.0, 5e-8])
        assert all(type(v) is float for v in g2)
        assert g2[0] == g2[2] == 0.0 and g2[1] > 0.0

    def test_bad_delays_refused(self):
        drive, _ = four_level_drive(-31.0, 103.0)
        with pytest.raises(ValueError, match="finite, nonnegative"):
            four_level_g2(*drive, [0.0, -1e-9])


def exact_four_level_g2(params, taus, dps=60):
    """g2 at each delay from the float64 generator taken as exact: the steady
    state by mpmath's LU solve with row 0 replaced by the trace, the
    post-emission state from the decays, and mpmath's expm, at ``dps`` digits."""
    m = FourLevelLiouvillian(params).matrix_real.tolist()
    with mp.workdps(dps):
        gen = mp.matrix(m)
        bordered = gen.copy()
        for k in range(16):
            bordered[0, k] = 1 if k < 4 else 0
        steady = mp.lu_solve(bordered, mp.matrix([1] + [0] * 15))
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
    measured over the four delays, numpy kernel / stdlib kernel: 4.7e-14 /
    4.3e-15 at the README drive (-31 MHz, 103 and 12 mW/cm^2), 8.9e-15 /
    5.8e-15 at -10 MHz, 30 and 3 mW/cm^2, 4.1e-15 / 2.6e-15 at +5 MHz, 300
    and 50 mW/cm^2, both bounded by 1e-11.  At -3.1e4 MHz: 1.5e-6 / 2.2e-9,
    and at +1e5 MHz: 9.6e-5 / 1.3e-8 (103 and 12 mW/cm^2).  There the numpy
    kernel's SVD null vector and eigendecomposition lose digits to a
    generator norm 10^4 to 10^5 above the decay rates (ROADMAP item 4); the
    stdlib kernel is held to at most twice the numpy kernel's error."""

    TAUS = [5e-9, 50e-9, 300e-9, 5e-6]

    @staticmethod
    def errors(delta_mhz, icl, irl):
        drive, params = four_level_drive(delta_mhz, icl, irl)
        exact = exact_four_level_g2(params, TestFourLevelMpmathOracle.TAUS)
        ours = four_level_g2(*drive, TestFourLevelMpmathOracle.TAUS)
        numpy_g2 = numpy_four_level_g2(params, np.array(TestFourLevelMpmathOracle.TAUS))
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
