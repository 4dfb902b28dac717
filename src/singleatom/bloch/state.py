"""Density matrices from the real vectors of ``obe``'s layout, as numpy arrays.

``obe._lindblad`` builds the generator of both four-level kernels on that
layout, and its docstring gives the layout.
"""

from __future__ import annotations

import numpy as np


def _upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the upper coherences, in layout order."""
    return np.nonzero(np.arange(n)[:, None] < np.arange(n))


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

