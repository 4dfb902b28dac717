"""g2(tau) of the Bloch-equation models, on the standard library alone.

Both models carry a density matrix as a real vector, and their Lindblad
generator comes from ``_lindblad``, which gives that layout and also builds
the generator of the library's numpy kernel ``bloch.four_level``.  By the
quantum regression theorem g2 is the excited population evolved from the
state right after a detection, over its steady-state value: a sum of the
generator's modes, with the formulas and guards of
``integrator.linear_modes``, applied to the eigenvalues and eigenvectors of
either model by one collector (``_collect``).  Both kernels take the CLI's
uniform delay grid, ``constants.linspace(tau_max, points)`` with a positive
step (``_step`` refuses one that underflows to 0), and sum the modes there
by ``_sum_modes``: each mode is advanced from one delay to the next by a
product with exp(lambda step), restarted from the exact exponential every
64 delays, and dropped once it falls below 2^-64 of the steady state.  On
the CLI's drives g2 moves by at most 1e-13 against the exponential at each
delay.

The two-level model: one drive (Rabi frequency Omega0, detuning Delta) and
one decay e -> g at rate Gamma, a real 4 x 4 generator.  Its eigenvalues
are exactly 0 (the trace is conserved) and, with mu = lambda + Gamma/2, the
three roots of the Bloch cubic (H. C. Torrey, Phys. Rev. 76, 1059 (1949))

    mu^3 + (Gamma/2) mu^2 + (Delta^2 + Omega0^2) mu + (Gamma/2) Delta^2 = 0.

It is >= 0 at mu = 0 and <= 0 at mu = -Gamma/2, so a safeguarded Newton
iteration finds a real root in between, and the deflated quadratic gives the
other two.  The right and left null vectors of G - lambda I, in closed form,
give the amplitudes and overlaps (``_modes``).  ``bloch.two_level_obe_g2``
sums the same modes (``_two_level_modes``) at delays in any order, with
numpy.

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
from itertools import accumulate, chain, repeat
from operator import add, mul

from .constants import (HBAR, KB, RB87_5P32_F2_F3_SPLITTING, RB87_GAMMA_D2, RB87_ISAT_F1_F2,
                        RB87_ISAT_F2_F2, RB87_ISAT_F2_F3, linspace, rabi_frequency)
from .guards import _DEFECTIVE, _MIN_OVERLAP, IntegrationError

__all__ = ["two_level_obe_g2", "two_level_steady_excited", "four_level_g2", "trap_shifts"]

_EPS = sys.float_info.epsilon
# a cap on the root search: Newton's method takes a handful of steps, and
# one bit per step at worst (near a double root); a float64 has fewer than
# 2100 binary exponents and digits
_MAX_STEPS = 2100
# delays per block of _sum_modes: each block starts from an exact exponential,
# so the rounding of the recurrence builds up over fewer than this many steps
_BLOCK = 64
# _sum_modes drops a mode from the delay on which |a| exp(Re lambda tau) falls
# below this fraction of the steady-state value, far below the last bit of
# any g2 that is printed
_FLOOR = 2.0 ** -64


def two_level_steady_excited(omega0_rabi: float, delta: float, gamma: float) -> float:
    """Steady-state excited population (Omega^2/4)/(Delta^2 + Omega^2/2 + Gamma^2/4);
    a square that overflows is inf, as in numpy, so an overflowing drive gives nan."""
    # imported here: the four-level runs do not compile readout
    from .readout import _square

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
    (real, pairs, s) of ``_collect``, with c = e_1 and y0 = e_0.

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
    largest entry into [1, 2) (exact, and no square overflows), and
    ``_collect`` scales the eigenvalues back.
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
    return _collect(modes, ([0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]), g,
                    math.ldexp(1.0, exponent))


def _collect(eigen, observable, generator: list[list[float]], scale: float) -> tuple:
    """The modes of c . exp(G tau) y0 from the (lambda, right, left) triples
    ``eigen`` of a real generator G and ``observable`` = (c, y0): (real,
    pairs, s) with real the (lambda, a) of the real eigenvalues, pairs the
    (lambda, a) of the member with Im lambda > 0 of each conjugate pair,
    and s the smallest overlap |w_k v_k| / (|w_k| |v_k|) of the left and
    right eigenvectors.  The formulas and guards of
    ``integrator.linear_modes``, in this order: an s below ``_MIN_OVERLAP``
    (or NaN) raises ``IntegrationError`` before any amplitude is formed, so
    no w_k . v_k of 0 is divided by; then a_k = (c . v_k)(w_k . y0) /
    (w_k . v_k), an eigenvalue within eps * n * ||G||_F of 0 is exactly 0,
    and the others are multiplied by ``scale`` (the eigenvalues of
    ``generator`` times ``scale`` are those of G).
    """
    eigen = list(eigen)
    overlaps = []
    for _, right, left in eigen:
        norms = math.hypot(*map(abs, left)) * math.hypot(*map(abs, right))
        overlaps.append(abs(sum(map(mul, left, right))) / norms if norms else math.nan)
    smallest = math.nan if any(map(math.isnan, overlaps)) else min(overlaps)
    if not smallest >= _MIN_OVERLAP:  # also refuses a NaN
        raise IntegrationError(_DEFECTIVE, smallest)
    c, y0 = observable
    pinned = _EPS * len(generator) * math.hypot(*chain.from_iterable(generator))
    real, pairs = [], []
    for lam, right, left in eigen:
        amp = sum(map(mul, c, right)) * sum(map(mul, left, y0)) / sum(map(mul, left, right))
        lam *= 0.0 if abs(lam) <= pinned else scale
        (pairs if isinstance(lam, complex) else real).append((lam, amp))
    return real, pairs, smallest


def _two_level_modes(omega0_rabi: float, delta: float, gamma: float) -> tuple:
    """(steady, modes, s) of the two-level g2: the steady-state excited
    population, the (real, pairs) of ``_modes`` and their smallest overlap s.
    On resonance the closed form ``readout.two_level_g2`` is exact, so where
    the generator is too close to its exceptional point (Omega0 = Gamma/4)
    for the eigen-propagator, modes is None and s the refused overlap; off
    resonance the ``IntegrationError`` is raised.  The rule of both callers,
    this module's grid kernel and the library's ``bloch.two_level_obe_g2``.
    """
    omega0_rabi, delta, gamma = float(omega0_rabi), float(delta), float(gamma)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    steady = two_level_steady_excited(omega0_rabi, delta, gamma)
    if steady <= 0:
        raise ValueError("no steady-state excitation: drive is off")
    try:
        real, pairs, overlap = _modes(_generator(omega0_rabi, delta, gamma))
    except IntegrationError as exc:
        if delta != 0:
            raise
        return steady, None, exc.min_overlap
    return steady, (real, pairs), overlap


def two_level_obe_g2(omega0_rabi: float, delta: float, gamma: float, tau_max: float,
                     points: int, report: dict | None = None) -> list[float]:
    """g2(tau) from the exact solution of the two-level Bloch equations, on
    the grid ``constants.linspace(tau_max, points)``.

    Starts from the post-detection state (all population in the ground
    level, no coherence) and divides the excited population, a sum of the
    generator's four modes (``_sum_modes``), by its steady-state value; the
    row at tau = 0 is exactly 0.  Next to the exceptional point on resonance
    the closed form ``readout.two_level_g2`` answers (``_two_level_modes``).
    A ``report`` dict receives the path taken under "method":
    "eigen-propagator" or "closed-form", and under "min_overlap" the
    generator's smallest eigenvector overlap, which the exceptional-point
    guard compares with 1.5e-5.
    """
    steady, modes, overlap = _two_level_modes(omega0_rabi, delta, gamma)
    if modes is None:
        from .readout import two_level_g2

        method = "closed-form"
        _step(tau_max, points)
        g2 = two_level_g2(float(omega0_rabi), float(delta), float(gamma),
                          linspace(tau_max, points))
    else:
        method, g2 = "eigen-propagator", _sum_modes(*modes, tau_max, points, steady)
        g2[0] = 0.0 / steady
    if report is not None:
        report.update(method=method, min_overlap=overlap)
    return g2


def _step(tau_max: float, points: int) -> float:
    """The step of the grid ``constants.linspace(tau_max, points)``;
    ``ValueError`` unless tau_max is finite, points >= 2 and the step
    tau_max / (points - 1) is positive: a step that underflows to 0 would
    leave the grid no longer uniform."""
    if not (tau_max < math.inf and points >= 2 and tau_max / (points - 1) > 0.0):
        raise ValueError("the delay grid needs a finite, positive longest delay, at least 2"
                         " points and a step that does not underflow to 0")
    return tau_max / (points - 1)


def _exp(x):
    """exp of a float, or of a complex number as exp(Re x) (cos Im x + i sin Im x)."""
    if isinstance(x, complex):
        decay = math.exp(x.real)
        return complex(decay * math.cos(x.imag), decay * math.sin(x.imag))
    return math.exp(x)


def _kept(rate: float, size: float, floor: float, step: float, points: int) -> int:
    """How many leading delays k * step a mode of decay rate ``rate`` and size
    ``size`` = |a| stays at or above ``floor``: none for a = 0, all of them
    unless the mode decays (or a value is NaN)."""
    if size == 0.0:
        return 0
    if not (rate < 0.0 and size > 0.0 and floor > 0.0):
        return points
    cut = (math.log(floor) - math.log(size)) / rate  # size exp(rate cut) = floor
    if not cut < step * points:  # also an infinite size
        return points
    # a mode below the floor from the start has cut < 0, and cut / step may
    # overflow to -inf on a short grid
    return int(max(cut / step, -1.0)) + 1


def _sum_modes(real: list, pairs: list, tau_max: float, points: int,
               steady: float) -> list[float]:
    """sum_k a_k exp(lambda_k tau) / steady on the grid
    ``constants.linspace(tau_max, points)``, for the modes of a real
    generator: ``real`` the (lambda, a) of the real eigenvalues, ``pairs``
    the (lambda, a) of the member with Im lambda > 0 of each conjugate pair,
    counted as twice its real part.  The row at tau = 0 is the sum of the
    amplitudes; a g2 kernel writes its own (0: no excited population right
    after a detection).

    The grid is uniform, tau_k = k * step with a positive step (``_step``)
    and tau_max at the last delay, so each mode is advanced from one delay
    to the next by one product with q = exp(lambda step), in
    ``itertools.accumulate`` over blocks of ``_BLOCK`` (64) delays.  Each
    block starts from the exact exponential a exp(lambda tau) at its first
    delay, so a term carries the rounding of fewer than 64 products: a
    relative error of about (|lambda| tau + 3 j + 3) eps of its own size,
    with j < 64 the steps since its block started, where the exact
    exponential at each delay carries (|lambda| tau + 2) eps.  Summed over
    the modes, g2 moves against the exponential at each delay by at most
    9.2e-15 on the benchmark's long g2 decks (seeds 1 and 2), and by at most
    1e-13 on the drives of ``tests/test_obe.py``.
    A mode with lambda = 0 is added as the constant a; a decaying mode is
    dropped from the delay on which |a| exp(Re lambda tau) falls below
    ``_FLOOR`` (2^-64) of ``steady``, a term too small to move any bit of a
    printed g2.  Modes are added in the order given, the real ones, then the
    pairs, as Python floats.
    """
    step = _step(tau_max, points)
    last, floor = points - 1, _FLOOR * steady
    acc = [0.0] * points
    for lam, coef in chain(real, ((lam, 2.0 * amp) for lam, amp in pairs)):
        kept = _kept(lam.real, abs(coef), floor, step, points)
        if not kept:
            continue
        if lam == 0:
            terms = repeat(coef, kept)
        else:
            q = _exp(lam * step)
            terms = chain.from_iterable(
                accumulate(repeat(q, min(_BLOCK, kept - k) - 1), mul,
                           initial=coef * _exp(lam * (k * step if k < last else tau_max))
                           if k else coef)
                for k in range(0, kept, _BLOCK))
        acc[:kept] = map(add, acc, terms)
    return [s.real / steady for s in acc]


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
    """The real n^2 x n^2 generator of the master equation (Lindblad 1976)
    drho/dt = -i[h, rho] + sum rate (|to><from| rho |from><to|
    - {|from><from|, rho}/2) for a real symmetric ``h`` (rad/s) and the
    ``decays`` (rate, to, from): the one builder of every Bloch generator of
    the package, this module's kernels and ``bloch.four_level``'s.  It acts
    on the real layout of a Hermitian n x n matrix: the n populations, then
    (Re, Im) of each upper coherence rho[i, k], i < k, in row order; column
    k is the image of basis vector k.  A zero entry carries the sign that a
    complex evaluation of -i[h, rho] gives it (the ``+ 0.0`` and ``0.0 -``).

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
    pairs, s) of ``_collect``, from the eigenvalues of ``dense.eigenvalues``
    and the eigenvectors of ``dense.eigenvectors``."""
    from .dense import eigenvalues, eigenvectors

    return _collect(((lam, *eigenvectors(m, lam)) for lam in eigenvalues(m)), (c, y0), m, 1.0)


def four_level_g2(rabi, delta_cl: float, delta_rl: float, shifts, tau_max: float,
                  points: int, report: dict | None = None) -> list[float]:
    """g2(tau) of the four-level model's total fluorescence, on floats, on
    the grid ``constants.linspace(tau_max, points)``.

    ``rabi`` holds the (repump b-a, cooling c-a, cooling c-d) Rabi rates,
    ``delta_cl`` and ``delta_rl`` the detunings and ``shifts`` the AC-Stark
    shifts of a, b, c and d, all in rad/s.  The excited population a + d
    after an emission, over its steady-state value, by the quantum
    regression theorem: the steady state from a one-sided Jacobi SVD with
    the refusals of ``_steady_vector``, the post-emission state of
    ``_post_emission``, and the modes of ``_eigen_modes`` summed by
    ``_sum_modes``.  The same model as ``bloch.four_level_g2``, whose numpy
    linear algebra it does not share.  The row at tau = 0 is exactly 0; a
    grid that ``_step`` refuses (not finite, fewer than 2 points or a step
    that is not positive) raises ``ValueError`` before any linear algebra.
    A ``report`` dict receives "method" ("eigen-propagator"), "min_overlap"
    (the smallest eigenvector overlap, which the exceptional-point guard
    compares with 1.5e-5) and "steady_residual" (the 2-norm of M y_ss in
    1/s).
    """
    from .dense import jacobi_svd

    _step(tau_max, points)
    m = _lindblad(_four_level_hamiltonian(rabi, delta_cl, delta_rl, shifts), _FOUR_LEVEL_DECAYS)
    s, vecs = jacobi_svd(m)
    steady = _steady_vector(s, vecs[-1], _FOUR_LEVEL_DECAYS)
    excited = [0.0] * len(steady)
    excited[_A] = excited[_D] = 1.0
    real, pairs, overlap = _eigen_modes(m, _post_emission(steady, _FOUR_LEVEL_DECAYS), excited)
    steady_excited = steady[_A] + steady[_D]
    g2 = _sum_modes(real, pairs, tau_max, points, steady_excited)
    g2[0] = 0.0 / steady_excited
    if report is not None:
        residual = math.hypot(*(sum(map(mul, row, steady)) for row in m))
        report.update(method="eigen-propagator", min_overlap=overlap, steady_residual=residual)
    return g2
