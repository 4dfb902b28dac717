"""Eigen-propagator, stacked matrix exponential and the fourth-order Magnus
propagator."""

import numpy as np
import pytest
from scipy.linalg import eig, expm

from singleatom.integrator import (
    IntegrationError,
    _eigen_expansion,
    _expm,
    _real_form,
    magnus4,
    propagate_linear,
)


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


def with_one_norm(x, norm):
    """Scale each matrix of a stack to the given 1-norm."""
    return x * (norm / np.abs(x).sum(axis=-2).max(axis=-1))[:, None, None]


@pytest.mark.parametrize("norm", [1e-3, 0.1, 1.0, 5.0, 50.0])
def test_expm_matches_scipy(norm):
    rng = np.random.default_rng(1)
    general = with_one_norm(rng.standard_normal((20, 6, 6)), norm)
    # real forms of -iH with loss on one level, as in the STIRAP steps
    h = rng.standard_normal((20, 3, 3)) + 1j * rng.standard_normal((20, 3, 3))
    h = h + h.conj().transpose(0, 2, 1)
    h[:, 0, 0] -= 0.5j * np.abs(h[:, 0, 0])
    lossy = with_one_norm(_real_form(-1j * h), norm)
    for stack in (general, lossy):
        got = _expm(stack)
        for mine, m in zip(got, stack):
            ref = expm(m)
            assert np.abs(mine - ref).max() <= 1e-12 * max(1.0, norm) * np.abs(ref).max()


def test_expm_of_zero_is_identity():
    assert np.array_equal(_expm(np.zeros((3, 4, 4))), np.broadcast_to(np.eye(4), (3, 4, 4)))


def test_magnus4_exact_for_constant_generator():
    # A constant: every step is exp(h A) and the commutator vanishes; the
    # grid spans several blocks of the prefix product
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y0 = np.array([1.0, 0.5j, -0.25])
    t = np.linspace(0.0, 2.0, 2500)
    traj = magnus4(lambda times: np.broadcast_to(a, (len(times), 3, 3)), y0, t)
    assert np.array_equal(traj[0], y0)
    for k in (1, 256, 257, 1024, 2499):
        ref = expm(a * t[k]) @ y0
        assert np.abs(traj[k] - ref).max() <= 1e-11 * np.abs(ref).max()


def test_magnus4_fourth_order():
    # a generator whose values at different times do not commute: against a
    # much finer grid, halving h divides the error by about 2^4
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])

    def gen(times):
        return -1j * (np.cos(times)[:, None, None] * sx + times[:, None, None] * sz)

    y0 = np.array([1.0, 0.0])
    fine = magnus4(gen, y0, np.linspace(0.0, 2.0, 4097))[-1]
    errors = [np.abs(magnus4(gen, y0, np.linspace(0.0, 2.0, n + 1))[-1] - fine).max()
              for n in (16, 32, 64)]
    for coarse, finer in zip(errors, errors[1:]):
        assert 12.0 < coarse / finer < 20.0


def test_magnus4_single_point_and_bad_grid():
    y0 = np.array([0.0, 1.0])
    gen = lambda times: np.zeros((len(times), 2, 2))  # noqa: E731
    assert np.array_equal(magnus4(gen, y0, [0.0]), [[0.0, 1.0]])
    with pytest.raises(ValueError):
        magnus4(gen, y0, [1.0, 0.0])
