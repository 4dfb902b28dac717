"""Density matrices as real vectors, and the Lindblad generator on them.

A Hermitian n x n matrix is carried as a real n^2-vector: the n populations,
then (Re, Im) of each upper coherence rho[i, k], i < k, in row order.
"""

from __future__ import annotations

import numpy as np


def _upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the upper coherences, in layout order."""
    return np.nonzero(np.arange(n)[:, None] < np.arange(n))


def to_real_vector(rho) -> np.ndarray:
    """Real n^2-vectors of Hermitian n x n matrices; ``rho`` is (..., n, n)."""
    rho = np.asarray(rho)
    n = rho.shape[-1]
    rows, cols = _upper(n)
    vec = np.empty(rho.shape[:-2] + (n * n,))
    vec[..., :n] = np.diagonal(rho, axis1=-2, axis2=-1).real
    vec[..., n::2] = rho.real[..., rows, cols]
    vec[..., n + 1::2] = rho.imag[..., rows, cols]
    return vec


def from_real_vector(vec) -> np.ndarray:
    """Hermitian n x n matrices from real n^2-vectors; ``vec`` is (..., n^2)."""
    vec = np.asarray(vec)
    n = round(vec.shape[-1] ** 0.5)
    rows, cols = _upper(n)
    rho = np.zeros(vec.shape[:-1] + (n, n), dtype=complex)
    diag = np.arange(n)
    # filled through the real and imaginary views: no complex temporaries
    rho.real[..., diag, diag] = vec[..., :n]
    rho.real[..., rows, cols] = rho.real[..., cols, rows] = vec[..., n::2]
    rho.imag[..., rows, cols] = vec[..., n + 1::2]
    rho.imag[..., cols, rows] = -vec[..., n + 1::2]
    return rho


def lindblad_generator(h, jumps) -> np.ndarray:
    """Real n^2 x n^2 matrix of the master equation (Lindblad 1976)
    drho/dt = -i[h, rho] + sum rate (|to><from| rho |from><to|
    - {|from><from|, rho}/2), ``jumps`` holding (rate, to, from) triples.

    Column k is the image of basis vector k; all n^2 are taken at once.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    basis = from_real_vector(np.eye(n * n))
    dissipator = np.zeros_like(basis)
    loss = np.zeros(n)
    for rate, to, frm in jumps:
        loss[frm] += rate
        dissipator[:, to, to] += rate * basis[:, frm, frm]
    # a level decaying at rate G loses population at G and coherence at G/2
    dissipator -= (loss[:, None] + loss[None, :]) / 2.0 * basis
    return to_real_vector(-1j * (h @ basis - basis @ h) + dissipator).T

