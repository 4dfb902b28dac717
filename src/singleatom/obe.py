"""g2(tau) of the Bloch-equation models, on the standard library alone.

Both models carry a density matrix as the real vector of ``bloch.state``
(populations, then Re and Im of each upper coherence), and their Lindblad
generator comes from ``_lindblad``, bit for bit the matrix of
``bloch.state.lindblad_generator``.  By the quantum regression theorem g2
is the excited population evolved from the state right after a detection,
over its steady-state value: a sum of the generator's modes, with the
formulas and guards of ``integrator.linear_modes``, added at each delay by
``_sum_modes``.

The two-level model: one drive (Rabi frequency Omega0, detuning Delta) and
one decay e -> g at rate Gamma, a real 4 x 4 generator.  Its eigenvalues
are exactly 0 (the trace is conserved) and, with mu = lambda + Gamma/2, the
three roots of the Bloch cubic (H. C. Torrey, Phys. Rev. 76, 1059 (1949))

    mu^3 + (Gamma/2) mu^2 + (Delta^2 + Omega0^2) mu + (Gamma/2) Delta^2 = 0.

It is >= 0 at mu = 0 and <= 0 at mu = -Gamma/2, so a safeguarded Newton
iteration finds a real root in between, and the deflated quadratic gives the
other two.  The right and left null vectors of G - lambda I, in closed form,
give the amplitudes and overlaps (``_modes``).  ``bloch.two_level_obe_g2``
is this kernel as an array.

The hyperfine four-level model of ``bloch.four_level`` (levels, decays and
trap shifts live here): a real 16 x 16 generator, whose steady state comes
from a one-sided Jacobi SVD and whose modes come from a Francis QR and
inverse iteration (``dense``).  ``bloch.four_level_g2`` evaluates the same
model with numpy's LAPACK for the library, where it runs in a loop; this
kernel serves the CLI, whose four-level and full g2 thus load no numpy.
"""

from __future__ import annotations

import math
import sys
from operator import mul

from .constants import (HBAR, KB, RB87_5P32_F2_F3_SPLITTING, RB87_GAMMA_D2, RB87_ISAT_F1_F2,
                        RB87_ISAT_F2_F2, RB87_ISAT_F2_F3, rabi_frequency)
from .guards import _BAD_DELAYS, _DEFECTIVE, _MIN_OVERLAP, IntegrationError
from .readout import _square, two_level_g2

__all__ = ["two_level_obe_g2", "two_level_steady_excited", "four_level_g2", "trap_shifts"]

_EPS = sys.float_info.epsilon
# a cap on the root search: Newton's method takes a handful of steps, and
# one bit per step at worst (near a double root); a float64 has fewer than
# 2100 binary exponents and digits
_MAX_STEPS = 2100


def two_level_steady_excited(omega0_rabi: float, delta: float, gamma: float) -> float:
    """Steady-state excited population (Omega^2/4)/(Delta^2 + Omega^2/2 + Gamma^2/4);
    a square that overflows is inf, as in numpy, so an overflowing drive gives nan."""
    omega_sq = _square(omega0_rabi)
    return (omega_sq / 4.0) / (_square(delta) + omega_sq / 2.0 + _square(gamma) / 4.0)


def _generator(omega0_rabi: float, delta: float, gamma: float) -> list[list[float]]:
    """The generator of the drive h = [[0, Omega0/2], [Omega0/2, -Delta]] in
    the basis (g, e) and the decay e -> g at ``gamma`` (``_lindblad``)."""
    half = omega0_rabi / 2.0
    return _lindblad([[0.0, half], [half, -delta]], [(gamma, 0, 1)])


def _cubic_roots(a2: float, a1: float, a0: float) -> list:
    """The roots of mu^3 + a2 mu^2 + a1 mu + a0 for a2, a1, a0 >= 0 with
    a0 <= a1 a2, so that a real root lies in [-a2, 0]: that root first,
    found by Newton's method kept inside a sign-change bracket (a bisection
    where a step leaves it), then the roots of the deflated quadratic, real
    or a complex pair, from the cancellation-free formula."""
    lo, hi, mu = -a2, 0.0, 0.0
    for _ in range(_MAX_STEPS):
        value = ((mu + a2) * mu + a1) * mu + a0
        if value == 0.0:
            break
        if value > 0.0:
            hi = mu
        else:
            lo = mu
        slope = (3.0 * mu + 2.0 * a2) * mu + a1
        step = mu - value / slope if slope > 0.0 else lo
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if step == mu or abs(step - mu) <= _EPS * abs(step):
            mu = step
            break
        mu = step
    root = mu
    # (mu - root)(mu^2 + b mu + c): b from the sum of the roots, c from their
    # product where the root is not 0
    b = a2 + root
    c = -a0 / root if root != 0.0 else a1
    half = b / 2.0
    disc = half * half - c
    if disc < 0.0:
        return [root, complex(-half, math.sqrt(-disc))]
    first = -(half + math.sqrt(disc))
    return [root, first, c / first if first != 0.0 else 0.0]


def _balanced(*products) -> list:
    """The products of the given factors (floats or complex numbers), all
    scaled by the power of 2 that brings the largest into [1/8, 1): a vector
    known up to scale, whose raw products of small factors could underflow."""
    parts = []
    for factors in products:
        value, exponent = 1.0, 0
        for f in factors:
            if f == 0:
                value = 0.0
                break
            mantissa, e = math.frexp(abs(f))
            value, exponent = value * (f / abs(f)) * mantissa, exponent + e
        parts.append((value, exponent))
    top = max((e for value, e in parts if value != 0), default=0)
    return [value * 2.0 ** (e - top) if value else value for value, e in parts]


def _modes(generator: list[list[float]]) -> tuple[list, list, float]:
    """The modes of rho_ee(tau) from rho_gg(0) = 1 under ``generator``:
    (real, pairs, s) with real the (lambda, a) of the real eigenvalues, pairs
    the (lambda, a) of the member with Im lambda > 0 of each conjugate pair,
    and s the smallest overlap |w_k v_k| / (|w_k| |v_k|) of the left and
    right eigenvectors.  The formulas and guards of
    ``integrator.linear_modes``: a_k = (c . v_k)(w_k . y0) / (w_k . v_k), an
    eigenvalue within eps * n * ||G||_F of 0 is 0, and an s below
    ``_MIN_OVERLAP`` (or NaN) raises ``IntegrationError``.

    With G's entries Gamma, p = Omega0/2, W = Omega0, D = Delta and
    h = -Gamma/2, mu = lambda - h and nu = lambda + Gamma, the null vectors
    of G - lambda I are, up to scale,
    v = (-W mu, W mu, D nu, mu nu) and w = (p mu nu, p mu (Gamma - lambda),
    -D lambda nu, lambda mu nu), and at lambda = 0, w = (1, 1, 0, 0) and
    v = (W p a + Gamma (D^2 + a^2), W p a, Gamma p D, Gamma p a) with
    a = Gamma/2.  Written so, a component of order Omega0^2 / Delta^2 (the
    excited population of a weak, far-detuned drive) keeps its relative
    accuracy, which an elimination on G - lambda I loses.  nu is
    -Omega0^2 mu / (mu^2 + D^2) where Gamma/2 + mu would cancel, and the
    products are scaled together (``_balanced``) so that a drive many
    decades above the linewidth does not underflow them all.

    The work is done on the generator scaled by a power of 2 that brings its
    largest entry into [1, 2) (exact, and no square overflows), and the
    eigenvalues are scaled back.
    """
    exponent = math.frexp(max(abs(x) for row in generator for x in row))[1] - 1
    g = [[math.ldexp(x, -exponent) for x in row] for row in generator]
    decay, half, rabi, delta, coherence = g[0][1], g[3][0], g[1][3], g[2][3], g[2][2]
    a2 = decay + coherence
    drive_sq, delta_sq = 2.0 * half * rabi, delta * delta
    modes = [(0.0, [rabi * half * a2 + decay * (delta_sq + a2 * a2), rabi * half * a2,
                    decay * half * delta, decay * half * a2], [1.0, 1.0, 0.0, 0.0])]
    for mu in _cubic_roots(a2, delta_sq + drive_sq, a2 * delta_sq):
        lam = mu + coherence
        if mu == 0.0 and delta == 0.0:  # Re rho_ge alone, decoupled on resonance
            modes.append((lam, [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0]))
            continue
        if isinstance(mu, complex) or mu >= -a2 / 2.0:
            nu = a2 + mu
        else:
            nu = -drive_sq * mu / (mu * mu + delta_sq)
        modes.append((lam, _balanced((-rabi, mu), (rabi, mu), (delta, nu), (mu, nu)),
                      _balanced((half, mu, nu), (half, mu, decay - lam), (-delta, lam, nu),
                                (lam, mu, nu))))
    overlaps = []
    for _, right, left in modes:
        norms = math.hypot(*map(abs, left)) * math.hypot(*map(abs, right))
        dot = sum(w * v for w, v in zip(left, right))
        overlaps.append(abs(dot) / norms if norms else math.nan)
    smallest = math.nan if any(map(math.isnan, overlaps)) else min(overlaps)
    if not smallest >= _MIN_OVERLAP:  # also refuses a NaN
        raise IntegrationError(_DEFECTIVE, smallest)
    pinned = _EPS * len(g) * math.hypot(*(x for row in g for x in row))
    scale = math.ldexp(1.0, exponent)
    real, pairs = [], []
    for lam, right, left in modes:
        amp = right[1] * left[0] / sum(w * v for w, v in zip(left, right))
        lam *= 0.0 if abs(lam) <= pinned else scale
        if isinstance(lam, complex):
            pairs.append((lam, amp))
        else:
            real.append((lam, amp.real if isinstance(amp, complex) else amp))
    return real, pairs, smallest


def _checked_delays(delays) -> list[float]:
    """The delays as floats, each finite and nonnegative (``ValueError``
    otherwise): the rule of ``integrator._checked_delays``."""
    try:
        tau = list(map(float, delays))
    except (TypeError, ValueError):
        raise ValueError(_BAD_DELAYS) from None
    if not all(map(math.isfinite, tau)) or tau and min(tau) < 0.0:
        raise ValueError(_BAD_DELAYS)
    return tau


def two_level_obe_g2(omega0_rabi: float, delta: float, gamma: float,
                     tau_grid, report: dict | None = None) -> list[float]:
    """g2(tau) from the exact solution of the two-level Bloch equations.

    Starts from the post-detection state (all population in the ground
    level, no coherence) and divides the excited population, a sum of the
    generator's four modes, by its steady-state value.  Delays come in any
    order, each finite and nonnegative; rows at tau = 0 are exactly 0.  On
    resonance the closed form is exact, so where the generator is too
    close to its exceptional point (Omega0 = Gamma/4) for the
    eigen-propagator, the closed form ``readout.two_level_g2`` is returned;
    off resonance the ``IntegrationError`` is raised.  A ``report`` dict
    receives the path taken under "method": "eigen-propagator" or
    "closed-form", and under "min_overlap" the generator's smallest
    eigenvector overlap, which the exceptional-point guard compares with
    1.5e-5.
    """
    omega0_rabi, delta, gamma = float(omega0_rabi), float(delta), float(gamma)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    steady = two_level_steady_excited(omega0_rabi, delta, gamma)
    if steady <= 0:
        raise ValueError("no steady-state excitation: drive is off")
    tau = _checked_delays(tau_grid)
    try:
        real, pairs, overlap = _modes(_generator(omega0_rabi, delta, gamma))
    except IntegrationError as exc:
        if delta != 0:
            raise
        method, overlap = "closed-form", exc.min_overlap
        g2 = two_level_g2(omega0_rabi, delta, gamma, tau)
    else:
        method, g2 = "eigen-propagator", _sum_modes(real, pairs, tau, steady)
    if report is not None:
        report.update(method=method, min_overlap=overlap)
    return g2


def _sum_modes(real: list, pairs: list, tau: list[float], steady: float) -> list[float]:
    """sum_k a_k exp(lambda_k tau) / steady at each delay, for the modes of a
    real generator: ``real`` the (lambda, a) of the real eigenvalues (at
    least one), ``pairs`` the (lambda, a) of the member with Im lambda > 0 of
    each conjugate pair, counted as twice its real part.  The terms are
    added one mode at a time over all delays: the real modes in order, then
    each pair's cosine term exp(Re lambda tau) cos(Im lambda tau) 2 Re a and
    its sine term with -2 Im a.  No excited population right after a
    detection: rows at tau = 0 are 0 / steady exactly."""
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


# --- the hyperfine four-level model -----------------------------------------

# basis levels: a = 5P3/2 F'=2, b = 5S1/2 F=1, c = 5S1/2 F=2, d = 5P3/2 F'=3
_A, _B, _C, _D = range(4)
# (rate, to, from) of the decays a -> b, a -> c and d -> c: both excited
# levels decay at the D2 rate, F'=2 half to F=1 and half to F=2
_FOUR_LEVEL_DECAYS = ((0.5 * RB87_GAMMA_D2, _B, _A), (0.5 * RB87_GAMMA_D2, _C, _A),
                      (RB87_GAMMA_D2, _C, _D))
# (line-table level, 2F) of each basis level, for its trap shift
_TRAP_SHIFT_LEVELS = (("5P3/2", 4), ("5S1/2", 2), ("5S1/2", 4), ("5P3/2", 6))


def _four_level_rabi(i_cl: float, i_rl: float) -> tuple[float, float, float]:
    """(repump b-a, cooling c-a, cooling c-d) on-resonance Rabi rates (rad/s)
    of the cooling and repump intensities (W/m^2)."""
    return (rabi_frequency(i_rl, RB87_ISAT_F1_F2), rabi_frequency(i_cl, RB87_ISAT_F2_F2),
            rabi_frequency(i_cl, RB87_ISAT_F2_F3))


def _four_level_hamiltonian(rabi, delta_cl: float, delta_rl: float,
                            shifts) -> list[list[float]]:
    """The 4 x 4 Hamiltonian (rad/s, real and symmetric) in the frame rotating
    with both lasers: detunings (rad/s) against the unperturbed transitions
    (cooling laser vs F=2 -> F'=3, repump vs F=1 -> F'=2), the F'=2 - F'=3
    splitting, and the AC-Stark ``shifts`` (rad/s) of a, b, c and d."""
    om1, om2, om3 = rabi
    split = RB87_5P32_F2_F3_SPLITTING
    shift_a, shift_b, shift_c, shift_d = shifts
    return [[shift_a, -om1 / 2.0, -om2 / 2.0, 0.0],
            [-om1 / 2.0, delta_rl + shift_b, 0.0, 0.0],
            [-om2 / 2.0, 0.0, delta_cl + split + shift_c, -om3 / 2.0],
            [0.0, 0.0, -om3 / 2.0, split + shift_d]]


def trap_shifts(field, lines, depth: float, kinetic_reduction: float) -> tuple:
    """The AC-Stark shifts (rad/s) of a, b, c and d in a dipole trap.

    The Zeeman-averaged shifts of F'=2 and F'=3 (5P3/2) and F=1 and F=2
    (5S1/2) in the trap ``field`` (a ``lightshift.LaserField``), scaled by
    (1 - kB T / |U|) for the thermal motion of an atom at temperature
    ``kinetic_reduction`` (K) through regions of lower intensity, with U
    the trap ``depth`` (J).  Raises ``ValueError`` where the field is
    resonant with a hyperfine transition of the line table.
    """
    from .lightshift import mean_level_shift

    scale = max(1.0 - KB * kinetic_reduction / abs(depth), 0.0) / HBAR
    return tuple(mean_level_shift(label, field, lines, two_f=two_f) * scale
                 for label, two_f in _TRAP_SHIFT_LEVELS)


def _lindblad(h: list[list[float]], decays) -> list[list[float]]:
    """``bloch.state.lindblad_generator(h, decays)`` for a real symmetric
    ``h``, entry for entry and bit for bit (zeros carry numpy's signs): the
    real n^2 x n^2 generator on the layout of ``bloch.state`` (the n
    populations, then Re and Im of each upper coherence in row order).

    -i[h, rho] couples a population to the Im parts of the coherences on its
    row and column, and a coherence (j, l) to the coherences that share a
    level with it, through one entry of h; it turns Re rho_jl into Im rho_jl
    at h_jj - h_ll.  A decay (rate, to, from) moves population at ``rate``
    and damps each coherence at half the summed rates of its two levels.
    """
    n = len(h)
    pairs = [(i, k) for i in range(n) for k in range(i + 1, n)]
    m = [[0.0] * (n * n) for _ in range(n * n)]
    loss = [0.0] * n
    for rate, to, frm in decays:
        loss[frm] += rate
        m[to][frm] += rate
    for j in range(n):
        m[j][j] = 0.0 - loss[j]
        for p, (i, k) in enumerate(pairs):
            if k == j:
                m[n + 2 * p + 1][j] = 0.0 - h[i][j]
            elif i == j:
                m[n + 2 * p + 1][j] = h[j][k] + 0.0
    for q, (j, l) in enumerate(pairs):
        re, im = n + 2 * q, n + 2 * q + 1
        m[l][im] = (h[l][j] + h[j][l]) + 0.0
        m[j][im] = 0.0 - (h[j][l] + h[l][j])
        m[re][re] = m[im][im] = 0.0 - (loss[j] + loss[l]) / 2.0
        for p, (i, k) in enumerate(pairs):
            if p == q:
                rotation = h[j][j] - h[l][l]
                m[n + 2 * p + 1][re], m[n + 2 * p][im] = 0.0 - rotation, rotation + 0.0
            elif k == l:
                m[n + 2 * p + 1][re], m[n + 2 * p][im] = 0.0 - h[i][j], h[i][j] + 0.0
            elif k == j:
                m[n + 2 * p + 1][re], m[n + 2 * p][im] = 0.0 - h[i][l], 0.0 - h[i][l]
            elif i == j:
                m[n + 2 * p + 1][re], m[n + 2 * p][im] = h[l][k] + 0.0, 0.0 - h[l][k]
            elif i == l:
                m[n + 2 * p + 1][re], m[n + 2 * p][im] = h[j][k] + 0.0, h[j][k] + 0.0
    return m


def _steady_vector(s, null, decays):
    """The trace-one steady state from the singular values ``s`` (descending)
    of an n-level generator and its right singular vector ``null`` of the
    smallest: the rule of both four-level kernels, whichever SVD they take.

    The null space is spanned by the singular vectors whose singular values
    are at most eps * n^2 * s_max (the rank rule of scipy's ``null_space``);
    it must be one-dimensional.  Where that tolerance reaches the smallest
    decay rate, the drive or a detuning is so far above the linewidth that
    float64 cannot resolve the decays, and the state is refused with that
    reason.  So is a state whose excited population (of the levels that
    decay) is not above n^2 eps s_max / s_(n^2-1), the rounding error of the
    null vector: g2 would divide noise by noise.  ``s`` and ``null`` may be
    numpy arrays; the state is a list.
    """
    tol = s[0] * _EPS * len(s)
    slowest = min(rate for rate, _, _ in decays)
    if not tol < slowest:
        raise ValueError(
            "drive or detuning exceeds the linewidth by more than float64 can resolve: "
            f"generator norm {s[0]:.3g} /s against decay rate {slowest:.3g} /s")
    dim = sum(1 for x in s if not x > tol)
    if dim != 1:
        raise ValueError(f"steady state not unique: null space dimension {dim}")
    levels = round(len(s) ** 0.5)
    trace = sum(null[:levels])
    if abs(trace) < 1e-12:
        raise ValueError("null vector has zero trace; generator is degenerate")
    vec = [x / trace for x in null]
    excited = sum(vec[k] for k in sorted({frm for _, _, frm in decays}))
    noise = len(s) * _EPS * s[0] / s[-2]
    if not excited > noise:
        raise ValueError(
            "no steady-state excitation: the excited population is not above the null"
            f" vector's rounding error {noise:.3g}")
    return vec


def _post_emission(steady, decays) -> list[float]:
    """The state right after a photon emission from ``steady``: each decay
    (rate, to, from) puts rate * rho_from,from into level ``to``, normalized
    by the total emission rate; no coherences."""
    levels = round(len(steady) ** 0.5)
    loss = [0.0] * levels
    fed = [0.0] * len(steady)
    for rate, to, frm in decays:
        loss[frm] += rate
        fed[to] += rate * steady[frm]
    denom = sum(loss[k] * steady[k] for k in range(levels) if loss[k])
    return [x / denom if x else 0.0 for x in fed]


def _eigen_modes(m: list[list[float]], y0: list[float],
                 c: list[float]) -> tuple[list, list, float]:
    """The modes of c . exp(m tau) y0 for a real generator ``m``: (real,
    pairs, s) as in ``_modes``, from the eigenvalues of ``dense.eigenvalues``
    and the eigenvectors of ``dense.eigenvectors``, with the formulas and
    guards of ``integrator.linear_modes``: a_k = (c . v_k)(w_k . y0) /
    (w_k . v_k), an eigenvalue within eps * n * ||m||_F of 0 is 0, and an
    overlap s below ``_MIN_OVERLAP`` (or NaN) raises ``IntegrationError``."""
    from .dense import eigenvalues, eigenvectors

    pinned = _EPS * len(m) * math.hypot(*(x for row in m for x in row))
    real, pairs, overlaps = [], [], []
    for lam in eigenvalues(m):
        right, left = eigenvectors(m, lam)
        dot = sum(map(mul, left, right))
        overlaps.append(abs(dot) / (math.hypot(*map(abs, left)) * math.hypot(*map(abs, right))))
        amp = sum(map(mul, c, right)) * sum(map(mul, left, y0)) / dot
        if abs(lam) <= pinned:
            lam *= 0.0
        if isinstance(lam, complex):
            pairs.append((lam, amp))
        else:
            real.append((lam, amp))
    smallest = math.nan if any(map(math.isnan, overlaps)) else min(overlaps)
    if not smallest >= _MIN_OVERLAP:  # also refuses a NaN
        raise IntegrationError(_DEFECTIVE, smallest)
    return real, pairs, smallest


def four_level_g2(rabi, delta_cl: float, delta_rl: float, shifts, tau_grid,
                  report: dict | None = None) -> list[float]:
    """g2(tau) of the four-level model's total fluorescence, on floats.

    ``rabi`` holds the (repump b-a, cooling c-a, cooling c-d) Rabi rates,
    ``delta_cl`` and ``delta_rl`` the detunings and ``shifts`` the AC-Stark
    shifts of a, b, c and d, all in rad/s.  The excited population a + d
    after an emission, over its steady-state value, by the quantum
    regression theorem: the steady state from a one-sided Jacobi SVD with
    the refusals of ``_steady_vector``, the post-emission state of
    ``_post_emission``, and the modes of ``_eigen_modes`` summed by
    ``_sum_modes``.  The same model as ``bloch.four_level_g2``, whose numpy
    linear algebra it does not share.  Delays come in any order, each finite
    and nonnegative; rows at tau = 0 are exactly 0.  A ``report`` dict
    receives "method" ("eigen-propagator"), "min_overlap" (the smallest
    eigenvector overlap, which the exceptional-point guard compares with
    1.5e-5) and "steady_residual" (the 2-norm of M y_ss in 1/s).
    """
    from .dense import jacobi_svd

    tau = _checked_delays(tau_grid)
    m = _lindblad(_four_level_hamiltonian(rabi, delta_cl, delta_rl, shifts), _FOUR_LEVEL_DECAYS)
    s, vecs = jacobi_svd(m)
    steady = _steady_vector(s, vecs[-1], _FOUR_LEVEL_DECAYS)
    excited = [0.0] * len(steady)
    excited[_A] = excited[_D] = 1.0
    real, pairs, overlap = _eigen_modes(m, _post_emission(steady, _FOUR_LEVEL_DECAYS), excited)
    g2 = _sum_modes(real, pairs, tau, steady[_A] + steady[_D])
    if report is not None:
        residual = math.hypot(*(sum(map(mul, row, steady)) for row in m))
        report.update(method="eigen-propagator", min_overlap=overlap, steady_residual=residual)
    return g2
