"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to runtime
calibration.
"""

import itertools
import math
import time

import numpy as np
import pytest

from singleatom.analysis import (
    SpectrumProfile,
    convolve_profiles,
    dominant_oscillation_frequency,
    fit_doppler_sigma,
    fit_envelope,
    gaussian_profile,
    kinetic_energy_from_sigma,
    lorentzian_profile,
)
from singleatom.bloch import (
    DensityMatrix,
    DiffusionEnvelope,
    FourLevelParams,
    apply_trap_shifts,
    four_level_g2,
    g2_total_envelope,
    two_level_g2_analytic,
    two_level_obe_g2,
)
from singleatom.bloch.four_level import (
    BASIS_LABELS,
    FourLevelLiouvillian,
    post_emission_state,
)
from singleatom.coherent import (
    PulseSchedule,
    ground_start,
    stirap_evolve,
)
from singleatom.constants import (
    KB,
    PI,
    RB87_GAMMA_D2,
    RB87_MASS,
    TWO_PI,
    intensity_from_mw_cm2,
)
from singleatom.entanglement import (
    MeasurementSetting,
    atom_photon_state,
    bell_state,
    chsh,
    fidelity,
    noisy_channel,
    swap_decompose,
    teleport_decompose,
)
from singleatom.entanglement import _BELL_VECTORS
from singleatom.lightshift import (
    LaserField,
    find_magic_wavelength,
    ground_shift_alkali,
    load_default_lines,
    scattering_rate_alkali,
)
from singleatom.loading import LoadingParams, stationary_distribution
from singleatom.readout import stirap_readout_probability, visibility_to_fidelity
from singleatom.trapgeometry import (
    GaussianBeam,
    TrapSpec,
    doppler_temperature,
    harmonic_frequencies,
    recoil_temperature,
    trap_volume,
)

G = RB87_GAMMA_D2
LAMBDA_D2 = 780.246e-9  # m, the D2 line of the bundled table
LINES = load_default_lines()


def report(number, ok, detail):
    print(f"[acceptance] criterion {number:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def canonical_beam(power=0.044, waist=3.5e-6):
    return GaussianBeam(power=power, waist_w0=waist, wavelength=856e-9)


def canonical_field(power=0.044, waist=3.5e-6):
    beam = canonical_beam(power, waist)
    return LaserField(wavelength=beam.wavelength, intensity=beam.peak_intensity,
                      epsilon=0)


def test_criterion_01_trap_depth_and_scattering():
    t0 = time.perf_counter()
    field = canonical_field()
    depth_mk = abs(ground_shift_alkali(field, 0.5, LINES)) / KB * 1e3
    rate = scattering_rate_alkali(field, LINES)
    elapsed = time.perf_counter() - t0
    ok = (abs(depth_mk - 1.0) <= 0.10 and abs(rate - 24.0) <= 0.15 * 24.0
          and elapsed < 1.0)
    assert report(1, ok, f"U = {depth_mk:.3f} mK, rate = {rate:.1f}/s, {elapsed:.2f}s")


def test_criterion_02_trap_frequencies():
    t0 = time.perf_counter()
    trap = TrapSpec.from_beam(canonical_beam(), depth_u=KB * 1e-3,
                              atom_mass=RB87_MASS)
    omega_r, omega_z = harmonic_frequencies(trap)
    f_r = omega_r / TWO_PI / 1e3
    f_z = omega_z / TWO_PI / 1e3
    elapsed = time.perf_counter() - t0
    ok = (abs(f_r - 26.2) <= 0.02 * 26.2 and abs(f_z - 1.3) <= 0.02 * 1.3
          and elapsed < 1.0)
    # Known defect of the reference values: the harmonic-expansion formula
    # with U = 1 mK, w0 = 3.5 um, lambda = 856 nm gives 28.1 kHz / 1.55 kHz;
    # the printed 26.2 kHz / 1.3 kHz pair is not reproducible from the stated
    # inputs (see the decisions ledger).  Reported honestly as a failure.
    assert report(2, ok, f"f_r = {f_r:.2f} kHz (target 26.2), "
                         f"f_z = {f_z:.3f} kHz (target 1.3), {elapsed:.2f}s")


def test_criterion_03_magic_wavelength():
    t0 = time.perf_counter()
    magic = find_magic_wavelength(LINES, (1.2e-6, 1.6e-6))
    elapsed = time.perf_counter() - t0
    ok = abs(magic - 1.40e-6) <= 0.05e-6 and elapsed < 5.0
    assert report(3, ok, f"magic = {magic * 1e6:.4f} um, {elapsed:.2f}s")


def test_criterion_04_characteristic_temperatures():
    t0 = time.perf_counter()
    t_d = doppler_temperature(G)
    t_rec = recoil_temperature(LAMBDA_D2, RB87_MASS)
    elapsed = time.perf_counter() - t0
    ok = (abs(t_d - 146e-6) <= 0.01 * 146e-6
          and abs(t_rec - 361.95e-9) <= 0.001 * 361.95e-9
          and elapsed < 1.0)
    assert report(4, ok, f"T_D = {t_d * 1e6:.1f} uK, T_rec = {t_rec * 1e9:.2f} nK, "
                         f"{elapsed:.2f}s")


def test_criterion_05_blockade_statistics():
    t0 = time.perf_counter()
    # volumes at fixed 44 mW trap power and T = 100 uK
    results = {}
    for waist in (3.5e-6, 10e-6):
        beam = canonical_beam(waist=waist)
        field = canonical_field(waist=waist)
        depth = abs(ground_shift_alkali(field, 0.5, LINES))
        trap = TrapSpec.from_beam(beam, depth, RB87_MASS)
        results[waist] = trap_volume(trap, 100e-6)
    blockade = stationary_distribution(LoadingParams(
        loading_rate=1.0, gamma=0.2, beta=5e-16, volume=results[3.5e-6], n_max=5))
    p_multi = blockade.probabilities[2:].sum()

    poisson_params = LoadingParams(loading_rate=1.0, gamma=0.2, beta=5e-16,
                                   volume=results[10e-6], n_max=40)
    dist = stationary_distribution(poisson_params)
    mean = 1.0 / 0.2
    reference = np.exp(-mean) * mean ** np.arange(41) / np.array(
        [math.factorial(n) for n in range(41)])
    tv = 0.5 * np.abs(dist.probabilities - reference).sum()
    elapsed = time.perf_counter() - t0
    ok = p_multi < 0.05 and tv < 0.05 and elapsed < 5.0
    assert report(5, ok, f"p(N>=2) = {p_multi:.4f}, TV to Poisson(5) = {tv:.4f}, "
                         f"{elapsed:.2f}s")


def test_criterion_06_g2_engine():
    t0 = time.perf_counter()
    # (a) numeric OBE matches the closed form pointwise within 1e-3
    tau = np.linspace(0.0, 25 / G, 600)
    max_diff = 0.0
    for ratio in (0.4, 4.0):
        omega = math.sqrt((ratio * G) ** 2 + (G / 4) ** 2)
        diff = np.abs(two_level_obe_g2(omega, 0.0, G, tau)
                      - two_level_g2_analytic(omega, 0.0, G, tau)).max()
        max_diff = max(max_diff, diff)
    ok_a = max_diff < 1e-3

    # (b) exact antibunching at the initial condition
    omega = math.sqrt((4 * G) ** 2 + (G / 4) ** 2)
    ok_b = (two_level_obe_g2(omega, 0.0, G, [0.0, 1e-9])[0] == 0.0
            and two_level_g2_analytic(omega, 0.0, G, [0.0])[0] == 0.0)

    # (c) four-level overshoot above 2; two-level capped at 2
    tau4 = np.linspace(0.0, 300e-9, 900)
    omega3 = G * math.sqrt(intensity_from_mw_cm2(100) / (2 * 35.8))
    four_max, two_max = [], []
    for det in (-5.0, -6.5, -8.0, -10.0):
        params = FourLevelParams(i_cl=intensity_from_mw_cm2(100),
                                 i_rl=intensity_from_mw_cm2(12),
                                 delta_cl=det * G)
        four_max.append(four_level_g2(params, tau4).max())
        two_max.append(two_level_g2_analytic(omega3, det * G, G, tau4).max())
    ok_c = all(m > 2.0 for m in four_max) and all(m <= 2.0 + 1e-9 for m in two_max)
    elapsed = time.perf_counter() - t0
    ok = ok_a and ok_b and ok_c and elapsed < 30.0
    assert report(6, ok, f"obe-analytic diff = {max_diff:.2e}, "
                         f"max g2(4lvl) = {max(four_max):.2f} > 2 > "
                         f"{max(two_max):.2f} = max g2(2lvl), {elapsed:.1f}s")


def test_criterion_07_trap_shift_monotonicity():
    t0 = time.perf_counter()
    tau = np.linspace(0.0, 120e-9, 1200)
    freqs = []
    for power in (0.0167, 0.0355):
        field = canonical_field(power=power)
        params = FourLevelParams(i_cl=intensity_from_mw_cm2(103),
                                 i_rl=intensity_from_mw_cm2(12),
                                 delta_cl=-TWO_PI * 31e6)
        shifted = apply_trap_shifts(params, field, kinetic_reduction=100e-6)
        g2 = four_level_g2(shifted, tau)
        freqs.append(dominant_oscillation_frequency(tau, g2))
    increase = freqs[1] / freqs[0] - 1.0
    elapsed = time.perf_counter() - t0
    ok = freqs[1] > freqs[0] and increase > 0.20 and elapsed < 60.0
    assert report(7, ok, f"f_osc {freqs[0] / TWO_PI / 1e6:.1f} -> "
                         f"{freqs[1] / TWO_PI / 1e6:.1f} MHz (+{increase:.0%}), "
                         f"{elapsed:.1f}s")


def test_criterion_08_stirap():
    t0 = time.perf_counter()
    # analytic readout law exact to 1e-12
    ok_law = all(
        abs(stirap_readout_probability(0.0, a) - math.sin(a) ** 2) < 1e-12
        for a in np.linspace(0.0, math.pi, 181))
    # adiabatic time-domain transfer with intermediate-state loss
    duration = 1e-6
    peak = 140.0 / duration
    loss = 3.0 / duration
    counter = stirap_evolve(
        PulseSchedule.sin2_pair(peak=peak, duration=duration,
                                order="counterintuitive"),
        ground_start(), loss_gamma=loss)
    intuitive = stirap_evolve(
        PulseSchedule.sin2_pair(peak=peak, duration=duration, order="intuitive"),
        ground_start(), loss_gamma=loss)
    elapsed = time.perf_counter() - t0
    ok = (ok_law and counter.efficiency >= 0.99 and intuitive.efficiency < 0.9
          and elapsed < 30.0)
    assert report(8, ok, f"law exact: {ok_law}, counter = {counter.efficiency:.4f}, "
                         f"intuitive = {intuitive.efficiency:.4f}, {elapsed:.1f}s")


def test_criterion_09_bell_and_fidelity():
    t0 = time.perf_counter()
    singlet = bell_state("psi-")
    settings = tuple(MeasurementSetting(phi=x)
                     for x in (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4))
    s_max = chsh(singlet, *settings)
    ok_s = abs(s_max - 2 * math.sqrt(2)) < 1e-12

    grid = np.arange(0.5, 1.0, 1e-4)
    s_vals = np.array([chsh(noisy_channel(singlet, p), *settings) for p in grid])
    threshold = float(grid[np.argmax(s_vals > 2.0)])
    f_threshold = fidelity(noisy_channel(singlet, threshold), singlet)
    ok_noise = (abs(threshold - 0.707) <= 1e-3
                and abs(f_threshold - 0.78) <= 5e-3)

    f_vis = visibility_to_fidelity(0.81, 0.70)
    ok_vis = abs(f_vis - 0.82) <= 5e-3
    elapsed = time.perf_counter() - t0
    ok = ok_s and ok_noise and ok_vis and elapsed < 5.0
    assert report(9, ok, f"S = {s_max:.6f}, p* = {threshold:.4f}, "
                         f"F(p*) = {f_threshold:.4f}, F(vis) = {f_vis:.4f}, "
                         f"{elapsed:.1f}s")


def test_criterion_10_aperture_fidelity():
    t0 = time.perf_counter()
    state = atom_photon_state(math.asin(0.29))
    elapsed = time.perf_counter() - t0
    ok = abs(state.fidelity - 0.99) <= 5e-3 and elapsed < 5.0
    assert report(10, ok, f"F(NA=0.29) = {state.fidelity:.4f}, {elapsed:.2f}s")


def test_criterion_11_spectrum_fit_round_trip():
    t0 = time.perf_counter()
    f = np.arange(-8e6, 8e6, 0.02e6)
    reference = convolve_profiles(lorentzian_profile(f, 0.45e6),
                                  gaussian_profile(f, 0.6e6 / 2.3548))
    e_true = 110e-6
    sigma_true = math.sqrt(2 * KB * e_true / (3 * RB87_MASS)) / LAMBDA_D2
    fluor = convolve_profiles(
        reference,
        gaussian_profile(reference.frequency - reference.frequency.mean(),
                         sigma_true))
    rng = np.random.default_rng(7)
    noisy = SpectrumProfile(
        fluor.frequency,
        np.clip(fluor.amplitude + 0.01 * rng.normal(size=len(fluor.amplitude)),
                0.0, None))
    sigma_fit, _ = fit_doppler_sigma(reference, noisy)
    e_fit = kinetic_energy_from_sigma(sigma_fit, LAMBDA_D2, RB87_MASS)
    elapsed = time.perf_counter() - t0
    ok = abs(e_fit - e_true) <= 15e-6 and elapsed < 10.0
    assert report(11, ok, f"E_kin = {e_fit * 1e6:.1f} uK (target 110 +/- 15), "
                          f"{elapsed:.1f}s")


def test_criterion_12_envelope_fit_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    tau = np.linspace(0.0, 10e-6, 400)
    target = DiffusionEnvelope(amplitude=0.24, tau0=1.8e-6)
    data = g2_total_envelope(target, tau) + 0.002 * rng.normal(size=len(tau))
    amp, tau0 = fit_envelope(tau, data)
    elapsed = time.perf_counter() - t0
    ok = (abs(amp - 0.24) <= 0.05 * 0.24 and abs(tau0 - 1.8e-6) <= 0.05 * 1.8e-6
          and elapsed < 5.0)
    assert report(12, ok, f"A = {amp:.4f}, tau0 = {tau0 * 1e6:.3f} us, {elapsed:.1f}s")


def _sympy_cg(tj1, tm1, tj2, tm2, tJ, tM):
    from sympy import Rational
    from sympy.physics.wigner import clebsch_gordan
    return float(clebsch_gordan(Rational(tj1, 2), Rational(tj2, 2), Rational(tJ, 2),
                                Rational(tm1, 2), Rational(tm2, 2), Rational(tM, 2)))


def _sympy_6j(ts):
    from sympy import Rational
    from sympy.physics.wigner import wigner_6j
    try:
        return float(wigner_6j(*[Rational(t, 2) for t in ts]))
    except ValueError:
        return 0.0


def test_criterion_13_property_suites():
    from singleatom import angular

    t0 = time.perf_counter()
    # density-matrix invariants along a g2 trajectory
    params = FourLevelParams(i_cl=intensity_from_mw_cm2(100),
                             i_rl=intensity_from_mw_cm2(12), delta_cl=-8 * G)
    tau = np.linspace(0.0, 300e-9, 300)
    liouv = FourLevelLiouvillian(params)
    traj = liouv.propagate(post_emission_state(params, liouv.steady_state()), tau)
    ok_dm = True
    for rho in traj:
        dm = DensityMatrix(entries=rho, basis_labels=BASIS_LABELS)
        ok_dm &= abs(dm.trace - 1.0) < 1e-8
        ok_dm &= dm.hermiticity_defect() < 1e-9
        ok_dm &= dm.min_eigenvalue() > -1e-7

    # CG oracle equivalence for all two_j <= 8
    ok_cg = True
    for tj1, tj2, tJ in itertools.product(range(9), repeat=3):
        if (tj1 + tj2 + tJ) % 2 or not abs(tj1 - tj2) <= tJ <= tj1 + tj2:
            continue
        for tm1 in range(-tj1, tj1 + 1, 2):
            for tm2 in range(-tj2, tj2 + 1, 2):
                tM = tm1 + tm2
                if abs(tM) > tJ:
                    continue
                mine = angular.clebsch_gordan(tj1 / 2, tm1 / 2, tj2 / 2, tm2 / 2,
                                              tJ / 2, tM / 2)
                ok_cg &= abs(mine - _sympy_cg(tj1, tm1, tj2, tm2, tJ, tM)) < 1e-12

    # 6j oracle equivalence for all valid tuples with two_j <= 8 (and zero
    # on a sample of invalid ones)
    def triangle(a, b, c):
        return (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b

    ok_6j = True
    for ts in itertools.product(range(9), repeat=6):
        valid = (triangle(ts[0], ts[1], ts[2]) and triangle(ts[0], ts[4], ts[5])
                 and triangle(ts[3], ts[1], ts[5]) and triangle(ts[3], ts[4], ts[2]))
        mine = angular.wigner_6j(*[t / 2 for t in ts])
        if valid:
            ok_6j &= abs(mine - _sympy_6j(ts)) < 1e-12
        else:
            ok_6j &= mine == 0.0

    # teleportation and swap identities exact to 1e-12
    ok_tel = True
    for alpha, beta in ((1.0, 0.0), (0.6, 0.8), (0.3 + 0.4j, 0.5 - 0.2j)):
        norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        total = np.kron(np.array([alpha, beta]) / norm, _BELL_VECTORS["psi-"])
        rebuilt = np.zeros(8, dtype=complex)
        for label, amps, _ in teleport_decompose(alpha, beta):
            rebuilt += 0.5 * np.kron(_BELL_VECTORS[label], amps)
        ok_tel &= bool(np.abs(total - rebuilt).max() < 1e-12)
    coeffs = swap_decompose()
    expected = {("psi+", "psi+"): 0.5, ("psi-", "psi-"): -0.5,
                ("phi+", "phi+"): -0.5, ("phi-", "phi-"): 0.5}
    ok_swap = set(coeffs) == set(expected) and all(
        abs(coeffs[k] - v) < 1e-12 for k, v in expected.items())

    elapsed = time.perf_counter() - t0
    ok = ok_dm and ok_cg and ok_6j and ok_tel and ok_swap
    assert report(13, ok, f"dm: {ok_dm}, cg: {ok_cg}, 6j: {ok_6j}, "
                          f"teleport: {ok_tel}, swap: {ok_swap}, {elapsed:.0f}s")
