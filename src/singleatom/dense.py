"""Small dense real matrices on the standard library alone.

A matrix is a list of rows of floats.  Three routines serve the four-level
g2 kernel of ``obe``, which runs a 16 x 16 generator without numpy:

- ``inverse``: the columns of A^-1, one LU factorization by Gaussian
  elimination with partial pivoting and a solve per column, for the
  bordered steady-state solve of ``obe._steady_vector``.
- ``eigenvalues``: Householder reduction to Hessenberg form, then the real
  Francis double-shift QR iteration (Golub and Van Loan, *Matrix
  Computations*, section 7.5).  It works in real arithmetic, so a real
  eigenvalue comes out real and a complex one with its exact conjugate.
- ``eigenvectors``: inverse iteration on A - lambda I, one LU factorization
  giving the right and the left eigenvector.

The eigenvalue routine works on the matrix scaled by the power of 2 that
brings its largest entry into [1, 2), which is exact and keeps every square
and sum of squares finite.
"""

import math
import sys
from operator import mul

from .guards import _NOT_FINITE, IntegrationError

__all__ = ["inverse", "eigenvalues", "eigenvectors"]

_EPS = sys.float_info.epsilon
# QR steps per eigenvalue, in total, before the eigenproblem is refused
# (LAPACK's dlahqr allows the same)
_STEPS_PER_EIGENVALUE = 30


def _scale(a: list[list[float]]) -> tuple[list[list[float]], int]:
    """(a * 2^-e, e) with the largest |entry| of the scaled matrix in [1, 2).
    Raises ``IntegrationError`` for a matrix with an entry that is not finite
    (such as a drive whose Rabi rate overflows)."""
    if not all(math.isfinite(x) for row in a for x in row):
        raise IntegrationError(_NOT_FINITE)
    top = max(abs(x) for row in a for x in row)
    exponent = math.frexp(top)[1] - 1 if top else 0
    return [[math.ldexp(x, -exponent) for x in row] for row in a], exponent


def _hessenberg(h: list[list[float]]) -> None:
    """Reduce ``h`` in place to upper Hessenberg form by Householder
    reflections H = I - 2 u u^T / u^T u applied from both sides."""
    n = len(h)
    for k in range(n - 2):
        x = [h[i][k] for i in range(k + 1, n)]
        norm = math.hypot(*x)
        if norm == 0.0:
            continue
        u = x
        u[0] += math.copysign(norm, x[0])
        factor = 2.0 / sum(map(mul, u, u))
        rows = h[k + 1:]
        for j in range(k, n):
            f = factor * sum(ui * row[j] for ui, row in zip(u, rows))
            if f:
                for ui, row in zip(u, rows):
                    row[j] -= f * ui
        for row in h:
            tail = row[k + 1:]
            f = factor * sum(map(mul, tail, u))
            if f:
                row[k + 1:] = [r - f * ui for r, ui in zip(tail, u)]
        for i in range(k + 2, n):
            h[i][k] = 0.0


def eigenvalues(a: list[list[float]]) -> list:
    """The eigenvalues of the real square matrix ``a``: each real one as a
    float, and each complex-conjugate pair as its member with Im > 0, a
    complex number.

    Hessenberg reduction, then Francis double-shift QR steps with
    deflation where a subdiagonal entry is negligible against its diagonal
    neighbours, and exceptional shifts after 10 and 20 steps without one.
    Raises ``IntegrationError`` when the iteration takes more than
    ``_STEPS_PER_EIGENVALUE`` steps per eigenvalue in total.
    """
    h, exponent = _scale(a)
    _hessenberg(h)
    n = len(h)
    norm = sum(abs(x) for i, row in enumerate(h) for x in row[max(i - 1, 0):])
    found = []
    budget = _STEPS_PER_EIGENVALUE * n
    shift = 0.0
    last = n - 1
    its = 0
    while last >= 0:
        # the lowest l whose subdiagonal entry h[l][l-1] is negligible
        for l in range(last, 0, -1):
            s = abs(h[l - 1][l - 1]) + abs(h[l][l]) or norm
            if abs(h[l][l - 1]) + s == s:
                h[l][l - 1] = 0.0
                break
        else:
            l = 0
        x = h[last][last]
        if l == last:  # one real eigenvalue
            found.append(x + shift)
            last -= 1
            its = 0
            continue
        y, w = h[last - 1][last - 1], h[last][last - 1] * h[last - 1][last]
        if l == last - 1:  # a 2 x 2 block: two real eigenvalues or a pair
            p = 0.5 * (y - x)
            q = p * p + w
            z = math.sqrt(abs(q))
            x += shift
            if q >= 0.0:
                z = p + math.copysign(z, p)
                found.append(x + z)
                found.append(x - w / z if z else x + z)
            else:
                found.append(complex(x + p, z))
            last -= 2
            its = 0
            continue
        if budget == 0:
            raise IntegrationError(
                f"the QR iteration did not converge in {_STEPS_PER_EIGENVALUE * n} steps")
        budget -= 1
        if its in (10, 20):  # exceptional shift
            shift += x
            for i in range(last + 1):
                h[i][i] -= x
            s = abs(h[last][last - 1]) + abs(h[last - 1][last - 2])
            x = y = 0.75 * s
            w = -0.4375 * s * s
        its += 1
        _francis_step(h, l, last, x, y, w)
    scale = math.ldexp(1.0, exponent)
    return [lam * scale for lam in found]


def _francis_step(h: list[list[float]], l: int, last: int, x: float, y: float,
                  w: float) -> None:
    """One implicit double-shift QR step on the active block h[l..last],
    with the shifts the eigenvalues of [[y, .], [., x]] (w the product of
    the off-diagonal entries)."""
    # start the bulge where two consecutive subdiagonal entries are small
    for m in range(last - 2, l - 1, -1):
        z = h[m][m]
        r, s = x - z, y - z
        p = (r * s - w) / h[m + 1][m] + h[m][m + 1]
        q = h[m + 1][m + 1] - z - r - s
        r = h[m + 2][m + 1]
        s = abs(p) + abs(q) + abs(r)
        p, q, r = p / s, q / s, r / s
        if m == l:
            break
        u = abs(h[m][m - 1]) * (abs(q) + abs(r))
        v = abs(p) * (abs(h[m - 1][m - 1]) + abs(z) + abs(h[m + 1][m + 1]))
        if u + v == v:
            break
    for i in range(m + 2, last + 1):
        h[i][i - 2] = 0.0
        if i != m + 2:
            h[i][i - 3] = 0.0
    for k in range(m, last):
        if k != m:
            p, q = h[k][k - 1], h[k + 1][k - 1]
            r = h[k + 2][k - 1] if k != last - 1 else 0.0
            x = abs(p) + abs(q) + abs(r)
            if x != 0.0:
                p, q, r = p / x, q / x, r / x
        s = math.copysign(math.sqrt(p * p + q * q + r * r), p)
        if s == 0.0:
            continue
        if k == m:
            if l != m:
                h[k][k - 1] = -h[k][k - 1]
        else:
            h[k][k - 1] = -s * x
        p += s
        x, y, z = p / s, q / s, r / s
        q, r = q / p, r / p
        row_k, row_k1 = h[k], h[k + 1]
        if k != last - 1:  # a 3 x 3 reflection
            row_k2 = h[k + 2]
            for j in range(k, last + 1):
                p = row_k[j] + q * row_k1[j] + r * row_k2[j]
                row_k2[j] -= p * z
                row_k1[j] -= p * y
                row_k[j] -= p * x
            for i in range(l, min(last, k + 3) + 1):
                row = h[i]
                p = x * row[k] + y * row[k + 1] + z * row[k + 2]
                row[k + 2] -= p * r
                row[k + 1] -= p * q
                row[k] -= p
        else:  # the last 2 x 2 reflection
            for j in range(k, last + 1):
                p = row_k[j] + q * row_k1[j]
                row_k1[j] -= p * y
                row_k[j] -= p * x
            for i in range(l, min(last, k + 3) + 1):
                row = h[i]
                p = x * row[k] + y * row[k + 1]
                row[k + 1] -= p * q
                row[k] -= p


def _lu(a: list[list]) -> tuple[list[list], list[int]]:
    """LU factors of a square matrix by Gaussian elimination with partial
    pivoting: (rows of L below the diagonal and U on and above it, in pivot
    order; the original row of each).  A zero pivot (an exactly singular
    shift) is replaced by eps times the largest entry."""
    n = len(a)
    lu = [list(row) for row in a]
    perm = list(range(n))
    tiny = _EPS * max(abs(x) for row in a for x in row)
    for k in range(n):
        column = [abs(lu[i][k]) for i in range(k, n)]
        pivot = k + column.index(max(column))
        if pivot != k:
            lu[k], lu[pivot] = lu[pivot], lu[k]
            perm[k], perm[pivot] = perm[pivot], perm[k]
        top = lu[k]
        if top[k] == 0:
            top[k] = tiny
        d, tail = top[k], top[k + 1:]
        for row in lu[k + 1:]:
            f = row[k] = row[k] / d
            if f:
                row[k + 1:] = [x - f * y for x, y in zip(row[k + 1:], tail)]
    return lu, perm


def _solve(lu: list[list], perm: list[int], b: list) -> list:
    """x with A x = b, from ``_lu`` of A: L y = P b, U x = y."""
    n = len(lu)
    x = [b[i] for i in perm]
    for i in range(1, n):
        x[i] -= sum(map(mul, lu[i][:i], x[:i]))
    for i in range(n - 1, -1, -1):
        row = lu[i]
        x[i] = (x[i] - sum(map(mul, row[i + 1:], x[i + 1:]))) / row[i]
    return x


def _solve_transposed(lu: list[list], perm: list[int], b: list) -> list:
    """x with A^T x = b, from ``_lu`` of A: U^T z = b, L^T y = z, x = P^T y,
    each triangle taken by rows."""
    n = len(lu)
    z = list(b)
    for i in range(n):
        row = lu[i]
        zi = z[i] = z[i] / row[i]
        if zi:
            z[i + 1:] = [zk - r * zi for zk, r in zip(z[i + 1:], row[i + 1:])]
    for i in range(n - 1, 0, -1):
        yi = z[i]
        if yi:
            z[:i] = [zk - r * yi for zk, r in zip(z, lu[i][:i])]
    x = [0.0] * n
    for k, i in enumerate(perm):
        x[i] = z[k]
    return x


def inverse(a: list[list[float]]) -> list[list[float]]:
    """The columns of the inverse of the square matrix ``a``: one ``_lu``
    and a ``_solve`` for each unit vector (a zero pivot is replaced as
    ``_lu`` says, so an exactly singular matrix gets a huge inverse)."""
    n = len(a)
    lu, perm = _lu(a)
    return [_solve(lu, perm, [float(i == k) for i in range(n)]) for k in range(n)]


def _normalized(v: list) -> list:
    top = max(map(abs, v))
    return [x / top for x in v]


def eigenvectors(a: list[list[float]], lam) -> tuple[list, list]:
    """(v, w): a right eigenvector (A v = lambda v) and a left one
    (w^T A = lambda w^T) of the real square matrix ``a`` for its eigenvalue
    ``lam`` (a float or a complex number), each scaled to a largest |entry|
    of 1.

    Inverse iteration: two solves with one LU factorization of A - lambda I
    for each vector, from a start vector of ones.  An eigenvalue accurate
    to rounding makes the factorization nearly singular, and each solve
    amplifies the eigenvector by about 1/eps against the rest.
    """
    n = len(a)
    shifted = [[x - lam if i == k else x for k, x in enumerate(row)] for i, row in enumerate(a)]
    lu, perm = _lu(shifted)
    v = w = [1.0] * n
    for _ in range(2):
        v = _normalized(_solve(lu, perm, v))
        w = _normalized(_solve_transposed(lu, perm, w))
    return v, w
