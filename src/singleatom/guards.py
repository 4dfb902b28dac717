"""Refusals shared by the eigen-expansions, on the standard library alone.

The numpy expansion of ``integrator`` and the kernels of ``obe`` refuse a
generator too close to an exceptional point with the same error, floor and
text.
"""

import math
import sys

# The rounding error of the eigen-expansion grows like eps / s^2, with s the
# smallest overlap |w_k^H v_k| of the unit left and right eigenvectors
# (measured towards the two-level exceptional point, where s -> 0).  Below
# this s it would pass 1e-6, so the propagation is refused instead of
# returning noise.
_MIN_OVERLAP = math.sqrt(sys.float_info.epsilon / 1e-6)
_DEFECTIVE = "generator is too close to an exceptional point for the eigen-propagator"
# the refusal of a matrix with an inf or NaN entry (such as a drive whose
# Rabi rate overflows), by the dense routines and the steady-state rule
_NOT_FINITE = "the matrix has an entry that is not finite"


class IntegrationError(RuntimeError):
    """Raised when a trajectory cannot be computed to working accuracy.

    ``min_overlap`` is the smallest eigenvector overlap s_k of a generator
    refused as too close to an exceptional point (0.0 when its eigenvector
    matrix is singular), and None otherwise.
    """

    def __init__(self, message: str, min_overlap: float | None = None):
        super().__init__(message)
        self.min_overlap = min_overlap
