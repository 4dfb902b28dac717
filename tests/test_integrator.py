"""Eigen-mode sum and propagator, stacked matrix exponential and the
sixth-order Magnus propagator."""

import numpy as np
import pytest
from scipy.linalg import eig, expm

from singleatom.integrator import (
    _CHUNK,
    _MIN_OVERLAP,
    IntegrationError,
    _eigen_expansion,
    _expm,
    _prefix_states,
    linear_modes,
    magnus6,
    sum_modes,
)


def propagate_linear(m, y0, delays):
    """The whole state at each delay: the modes of every component
    (``linear_modes`` with c = I), summed by ``sum_modes``."""
    y0 = np.asarray(y0, dtype=float)
    lam, amp, _ = linear_modes(m, y0, np.eye(len(y0)))
    return sum_modes(lam, amp, delays, y0)


def test_overlaps_match_scipy_left_eigenvectors():
    # s_k = 1 / (||(V^-1)_k|| ||v_k||) is |w_k^H v_k| of the unit left and
    # right eigenvectors, which scipy returns directly
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = rng.standard_normal((16, 16))
        lam, _, _, overlap = _eigen_expansion(m)
        ref_lam, w, v = eig(m, left=True)
        ref = np.abs(np.einsum("ij,ij->j", w.conj(), v))
        match = np.abs(lam[:, None] - ref_lam[None, :]).argmin(axis=1)
        assert sorted(match) == list(range(16))
        assert np.abs(overlap - ref[match]).max() <= 1e-12


@pytest.mark.parametrize("m", [
    [[-1.0, 1.0], [0.0, -1.0]],             # a Jordan block: defective
    [[-1.0, 1.0], [1e-30, -1.0]],           # split by far less than eps
], ids=["jordan", "near-jordan"])
def test_propagate_linear_refuses_defective(m):
    with pytest.raises(IntegrationError, match="exceptional point"):
        propagate_linear(np.array(m), [1.0, 0.0], [0.0, 1.0])


def test_propagate_linear_accepts_repeated_eigenvalue():
    # -I has one eigenvalue twice but a full set of eigenvectors
    got = propagate_linear(-np.eye(2), [1.0, 2.0], [0.0, 1.0])
    assert np.abs(got[1] - np.exp(-1.0) * np.array([1.0, 2.0])).max() <= 1e-15


def test_propagate_linear_delay_grids():
    # each delay evolves y0 on its own: any order, rows at 0 hold y0, an
    # empty grid gives no rows, and negative or non-finite delays are refused
    m, y0 = np.array([[-1.0, 2.0], [0.0, -3.0]]), [1.0, 0.5]
    got = propagate_linear(m, y0, [2.0, 0.0, 1.0])
    assert np.array_equal(got[1], y0)
    assert np.abs(got[[0, 2]] - [expm(m * 2.0) @ y0, expm(m) @ y0]).max() <= 1e-14
    assert propagate_linear(m, y0, []).shape == (0, 2)
    for bad in ([0.0, -1e-300], [np.nan], [np.inf], [[0.0, 1.0]]):
        with pytest.raises(ValueError):
            propagate_linear(m, y0, bad)


def random_stable(rng, n=6):
    """A real matrix with complex and real eigenvalues in the left half-plane."""
    m = rng.standard_normal((n, n))
    return m - (np.abs(np.linalg.eigvals(m).real).max() + 0.5) * np.eye(n)


def test_mode_sum_matches_expm():
    # one observable and a matrix of observables, against expm at each delay
    rng = np.random.default_rng(9)
    for _ in range(10):
        m, y0 = random_stable(rng), rng.standard_normal(6)
        c = rng.standard_normal((2, 6))
        tau = np.concatenate([[0.0], rng.uniform(0.0, 3.0, 30)])
        ref = np.array([c @ expm(m * t) @ y0 for t in tau])
        lam, amp, _ = linear_modes(m, y0, c[0])
        assert np.abs(sum_modes(lam, amp, tau, c[0] @ y0) - ref[:, 0]).max() <= 1e-12
        lam, amp, _ = linear_modes(m, y0, c)
        assert amp.shape == (6, 2)
        assert np.abs(sum_modes(lam, amp, tau, c @ y0) - ref).max() <= 1e-12


def test_mode_sum_delay_contract():
    # each delay on its own: any order and repeats give the same values bit
    # for bit, rows at 0 hold the value given for the initial state, an
    # empty grid gives no rows, and negative or non-finite delays are refused
    rng = np.random.default_rng(10)
    m, y0, c = random_stable(rng), rng.standard_normal(6), rng.standard_normal(6)
    y0[0] = 0.0
    c[1:] = 0.0  # c . y0 == 0.0 exactly, as for g2
    lam, amp, _ = linear_modes(m, y0, c)
    tau = np.concatenate([[0.0], rng.uniform(0.0, 2.0, 2 * _CHUNK + 5), [0.0]])
    got = sum_modes(lam, amp, tau, c @ y0)
    assert got[0] == got[-1] == 0.0
    order = rng.permutation(len(tau))
    assert np.array_equal(sum_modes(lam, amp, tau[order], 0.0), got[order])
    for n in (1, 2, 3, 7, _CHUNK - 1, _CHUNK + 1):
        assert np.array_equal(sum_modes(lam, amp, tau[:n], 0.0), got[:n])
    repeated = np.repeat(tau[:5], 3)
    assert np.array_equal(sum_modes(lam, amp, repeated, 0.0), np.repeat(got[:5], 3))
    assert sum_modes(lam, amp, [], 0.0).shape == (0,)
    for bad in ([0.0, -1e-300], [np.nan], [np.inf], [-np.inf], [[0.0, 1.0]]):
        with pytest.raises(ValueError):
            sum_modes(lam, amp, bad, 0.0)


def sum_modes_by_loop(lam, amp, delays, at_zero):
    """The mode sum of ``sum_modes`` added one mode at a time in a Python
    loop over all delays at once: the real modes, then 2 Re a times the
    cosine and -2 Im a times the sine of each conjugate pair, from the same
    half-angle kernel."""
    tau = np.asarray(delays, dtype=float)
    real, upper = lam.imag == 0, lam.imag > 0
    n_real = int(real.sum())
    decay = np.exp(np.multiply.outer(tau, np.concatenate((lam.real[real], lam.real[upper]))))
    t = np.tan(np.multiply.outer(tau, lam.imag[upper] / 2.0))
    scale = decay[:, n_real:] / (1.0 + t * t)
    kernel = np.concatenate((decay[:, :n_real], scale * (1.0 - t * t), scale * (2.0 * t)),
                            axis=1)
    coef = np.concatenate((amp[real].real, 2.0 * amp[upper].real, -2.0 * amp[upper].imag))
    out = np.multiply.outer(kernel[:, 0], coef[0])
    for k in range(1, len(coef)):
        out = out + np.multiply.outer(kernel[:, k], coef[k])
    out[tau == 0.0] = at_zero
    return out


def test_mode_sum_adds_modes_in_order_bit_for_bit():
    # the blocks of sum_modes sum an array of terms over its leading (mode)
    # axis; that is the running sum over the modes, bit for bit, for one
    # observable and for a matrix of them, on unsorted delays with zeros
    # over more than one block of either size
    from singleatom.bloch import FourLevelLiouvillian, FourLevelParams

    rng = np.random.default_rng(12)
    four_level = FourLevelLiouvillian(FourLevelParams(
        i_cl=1030.0, i_rl=120.0, delta_cl=-2 * np.pi * 31e6)).matrix_real
    cases = [(random_stable(rng, 8), 1.0) for _ in range(4)] + [(four_level, 1e-7)]
    for m, span in cases:
        n = len(m)
        y0, c = rng.standard_normal(n), rng.standard_normal((3, n))
        tau = rng.permutation(np.concatenate(
            (np.zeros(4), rng.uniform(0.0, span, 2 * _CHUNK + 37))))
        for rows in (c[0], c, np.eye(n)):
            lam, amp, _ = linear_modes(m, y0, rows)
            got = sum_modes(lam, amp, tau, rows @ y0)
            assert got.tobytes() == sum_modes_by_loop(lam, amp, tau, rows @ y0).tobytes()


def test_mode_sum_at_large_phases():
    # a weakly damped rotation, exp(m tau) = exp(-g tau) R(w tau), at
    # phases up to 1e4 rad: the half-angle tangent gives cos and sin to a
    # few 1e-16, as the scalar cos and sin of the same rounded phase do
    g, w = 1e-2, 1e3
    m = np.array([[-g, w], [-w, -g]])
    tau = np.random.default_rng(11).uniform(0.0, 10.0, 3000)
    lam, amp, _ = linear_modes(m, [1.0, 0.0], np.eye(2))
    ref = np.exp(-g * tau)[:, None] * np.column_stack([np.cos(w * tau), -np.sin(w * tau)])
    assert np.abs(sum_modes(lam, amp, tau, [1.0, 0.0]) - ref).max() <= 2e-15


def test_mode_sum_of_real_spectrum():
    # a diagonalizable matrix with real eigenvalues only: no conjugate pairs
    m = np.array([[-1.0, 2.0, 0.0], [0.0, -3.0, 1.0], [0.0, 0.0, -0.5]])
    y0, c = np.array([1.0, -0.5, 2.0]), np.array([0.3, 1.0, -1.0])
    lam, amp, _ = linear_modes(m, y0, c)
    tau = np.linspace(0.0, 4.0, 9)
    ref = [c @ expm(m * t) @ y0 for t in tau]
    assert np.abs(sum_modes(lam, amp, tau, c @ y0) - ref).max() <= 1e-13


def test_linear_modes_pins_a_stationary_rate_to_zero():
    # a rate matrix with one stationary distribution; scaled so that eig's
    # noise on that mode is far above 1e-300 but far below the other rates
    rates = np.array([[-3.0, 1.0, 0.5], [2.0, -1.0, 0.5], [1.0, 0.0, -1.0]]) * 1e7
    lam, amp, _ = linear_modes(rates, [1.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    assert np.count_nonzero(lam == 0.0) == 1
    assert np.abs(lam[lam != 0.0]).min() > 1e6
    # the total population stays 1 at any delay, however long
    assert sum_modes(lam, amp, [1e3, 1e9], 1.0) == pytest.approx([1.0, 1.0], abs=1e-12)


DEFECTIVE_OR_NEAR = [
    [[-1.0, 1.0], [0.0, -1.0]],              # a Jordan block: defective
    [[-1.0, 1.0], [1e-30, -1.0]],            # split by far less than eps
    [[-1.0, 1.0], [1e-12, -1.0]],            # s = 2e-6: refused
    [[-1.0, 1.0], [1e-8, -1.0]],             # s = 2e-4: accepted
    [[-1.0, 1.0], [-1e-9, -1.0]],            # a conjugate pair, s = 6e-5: accepted
    [[-1.0, 1.0], [-1e-11, -1.0]],           # a conjugate pair, s = 6e-6: refused
    [[-2.0, 0.0], [0.0, -2.0]],              # a repeated eigenvalue, not defective
    [[0.0, 1e300], [0.0, 0.0]],              # an exactly singular eigenvector matrix
]


@pytest.mark.parametrize("m", DEFECTIVE_OR_NEAR)
def test_linear_modes_refuses_where_the_overlap_guard_does(m):
    # refused exactly when the smallest overlap of _eigen_expansion is below
    # _MIN_OVERLAP, and the refusal carries that overlap
    m = np.array(m)
    try:
        smallest = _eigen_expansion(m)[3].min()
    except IntegrationError as exc:
        smallest = exc.min_overlap
        assert smallest == 0.0
    if smallest >= _MIN_OVERLAP:
        assert linear_modes(m, [1.0, 0.0], [0.0, 1.0])[2] == smallest
    else:
        with pytest.raises(IntegrationError, match="exceptional point") as exc:
            linear_modes(m, [1.0, 0.0], [0.0, 1.0])
        assert exc.value.min_overlap == smallest


def test_linear_modes_refuses_nan_overlap(monkeypatch):
    import singleatom.integrator as integrator

    real = integrator._eigen_expansion

    def nan_overlap(m):
        lam, v, vinv, overlap = real(m)
        return lam, v, vinv, np.full_like(overlap, np.nan)

    monkeypatch.setattr(integrator, "_eigen_expansion", nan_overlap)
    with pytest.raises(IntegrationError, match="exceptional point"):
        linear_modes(-np.eye(2), [1.0, 0.0], [0.0, 1.0])


def with_one_norm(x, norm):
    """Scale each matrix of a stack to the given 1-norm."""
    return x * (norm / np.abs(x).sum(axis=-2).max(axis=-1))[:, None, None]


@pytest.mark.parametrize("norm", [1e-3, 0.1, 1.0, 5.0, 50.0])
def test_expm_matches_scipy(norm):
    rng = np.random.default_rng(1)
    general = with_one_norm(rng.standard_normal((20, 6, 6)), norm)
    # the real STIRAP generator on (i|a>, |b>, |c>): loss on the first level
    # and two antisymmetric couplings
    loss, pump, stokes = rng.standard_normal((3, 20))
    lossy = np.zeros((20, 3, 3))
    lossy[:, 0, 0] = -np.abs(loss) / 2.0
    lossy[:, 0, 1], lossy[:, 1, 0] = pump / 2.0, -pump / 2.0
    lossy[:, 0, 2], lossy[:, 2, 0] = stokes / 2.0, -stokes / 2.0
    lossy = with_one_norm(lossy, norm)
    for stack in (general, lossy):
        got = _expm(stack)
        for mine, m in zip(got, stack):
            ref = expm(m)
            assert np.abs(mine - ref).max() <= 1e-12 * max(1.0, norm) * np.abs(ref).max()


def test_expm_of_zero_is_identity():
    assert np.array_equal(_expm(np.zeros((3, 4, 4))), np.broadcast_to(np.eye(4), (3, 4, 4)))


@pytest.mark.parametrize("norm", [0.1, 50.0], ids=["unscaled", "squared"])
def test_expm_leaves_input_unchanged(norm):
    x = with_one_norm(np.random.default_rng(5).standard_normal((8, 6, 6)), norm)
    kept = x.copy()
    _expm(x)
    assert np.array_equal(x, kept)


def test_expm_of_strided_stack():
    # exp(x^T) = exp(x)^T also for a transposed view of the stack
    x = with_one_norm(np.random.default_rng(8).standard_normal((8, 6, 6)), 3.0)
    got = _expm(x.transpose(0, 2, 1))
    assert np.abs(got - _expm(x).transpose(0, 2, 1)).max() <= 1e-13


def constant(times):
    """Weight 1 on a one-matrix basis."""
    return np.ones((len(times), 1))


def test_magnus6_exact_for_constant_generator():
    # A constant: every step is exp(h A) and the commutators vanish, on a
    # grid of 2499 steps in one tree scan.  A complex A, and a real one with
    # a real and a complex state: the trajectory takes the dtype of A and y0
    # together
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    t = np.linspace(0.0, 2.0, 2500)
    for gen, y0 in ((a, np.array([1.0, 0.5j, -0.25])),
                    (a.real, np.array([1.0, 0.5, -0.25])),
                    (a.real, np.array([1.0, 0.5j, -0.25]))):
        traj = magnus6(gen[None], constant, y0, t)
        assert traj.dtype == np.result_type(gen, y0)
        assert np.array_equal(traj[0], y0)
        for k in (1, 1023, 1024, 1025, 2048, 2499):
            ref = expm(gen * t[k]) @ y0
            assert np.abs(traj[k] - ref).max() <= 1e-11 * np.abs(ref).max()


def test_magnus6_sixth_order():
    # a generator whose values at different times do not commute: against a
    # much finer grid, halving h divides the error by about 2^6
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    basis = -1j * np.array([sx, sz])

    def coefficients(times):
        return np.stack((np.cos(times), times), axis=1)

    y0 = np.array([1.0, 0.0])
    fine = magnus6(basis, coefficients, y0, np.linspace(0.0, 2.0, 4097))[-1]
    errors = [np.abs(magnus6(basis, coefficients, y0, np.linspace(0.0, 2.0, n + 1))[-1]
                     - fine).max()
              for n in (8, 16, 32, 64)]
    for coarse, finer in zip(errors, errors[1:]):
        assert 48.0 < coarse / finer < 80.0


def test_magnus6_single_point_and_bad_grid():
    y0 = np.array([0.0, 1.0])
    basis = np.zeros((1, 2, 2))
    assert np.array_equal(magnus6(basis, constant, y0, [0.0]), [[0.0, 1.0]])
    with pytest.raises(ValueError):
        magnus6(basis, constant, y0, [1.0, 0.0])


def random_basis(rng, m, d):
    return rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))


def test_magnus6_step_matches_explicit_commutators():
    # one step from the weighted basis against the same step built from the
    # full A1, A2 and A3 at the Gauss-Legendre nodes, with every commutator
    # written out
    rng = np.random.default_rng(6)
    basis = random_basis(rng, 4, 3)
    rates = rng.standard_normal((4, 2))

    def coefficients(times):
        return np.sin(np.outer(times, rates[:, 0]) + rates[:, 1])

    y0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    t0, h = 0.3, 0.05
    mid, offset = t0 + h / 2.0, h * np.sqrt(15.0) / 10.0
    a1, a2, a3 = (np.einsum("i,ijk->jk", coefficients(np.array([t]))[0], basis)
                  for t in (mid - offset, mid, mid + offset))
    alpha1 = h * a2
    alpha2 = np.sqrt(15.0) * h / 3.0 * (a3 - a1)
    alpha3 = 10.0 * h / 3.0 * (a3 - 2.0 * a2 + a1)
    c1 = alpha1 @ alpha2 - alpha2 @ alpha1
    x = 2.0 * alpha3 + c1
    c2 = -(alpha1 @ x - x @ alpha1) / 60.0
    left, right = -20.0 * alpha1 - alpha3 + c1, alpha2 + c2
    omega = alpha1 + alpha3 / 12.0 + (left @ right - right @ left) / 240.0
    got = magnus6(basis, coefficients, y0, [t0, t0 + h])[-1]
    assert np.abs(got - expm(omega) @ y0).max() <= 1e-14 * np.abs(y0).max()


@pytest.mark.parametrize("n", [1, 2, 3, 1023, 1024, 1025, 2500])
def test_prefix_states_match_sequential_product(n):
    # orthogonal steps keep every state of unit size, so the comparison is
    # absolute; the reference multiplies one step at a time
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, 6, 6)) * 0.1
    steps = _expm(x - x.transpose(0, 2, 1))
    y = rng.standard_normal(6)
    y /= np.linalg.norm(y)
    got = _prefix_states(steps, y)
    for k, step in enumerate(steps):
        assert np.abs(got[k] - y).max() <= 1e-13
        y = step @ y


@pytest.mark.parametrize("n", [1, 2, 3, 1023, 1024, 1025, 2500])
def test_magnus6_scan_matches_one_call_per_step(n):
    # the tree scan over the whole grid against one magnus6 call per
    # interval: odd tails of the scan's levels, and grids about the 1024-step
    # calls of stirap_evolve.  A complex basis, and a real one with a real
    # and a complex state
    rng = np.random.default_rng(7)
    h = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    unitary = -1j * (h + h.conj().transpose(0, 2, 1))
    orthogonal = h.real - h.real.transpose(0, 2, 1)

    def coefficients(times):
        return np.stack((np.cos(times), np.sin(3.0 * times), np.ones_like(times)), axis=1)

    t = np.linspace(0.0, 0.01 * n, n + 1)
    for basis, y in ((unitary, np.array([1.0, 0.0, 0.0], dtype=complex)),
                     (orthogonal, np.array([1.0, 0.0, 0.0])),
                     (orthogonal, np.array([0.6, 0.8j, 0.0]))):
        traj = magnus6(basis, coefficients, y, t)
        assert traj.dtype == np.result_type(basis, y)
        for k in range(n):
            assert np.abs(traj[k] - y).max() <= 1e-13
            y = magnus6(basis, coefficients, y, t[k:k + 2])[-1]
        assert np.abs(traj[n] - y).max() <= 1e-13
