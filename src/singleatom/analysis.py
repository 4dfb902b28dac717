"""Measurement-reduction algorithms: spectral and correlation-envelope fits.

Covers profile convolution, the single-parameter Doppler-width fit of a
fluorescence spectrum against a measured reference, and the
exponential-envelope fit of the long-time correlation decay.  Both fits are one-dimensional searches by
one bounded Brent minimizer (Brent, *Algorithms for Minimization without
Derivatives*, 1973, ch. 5), in numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import KB

__all__ = [
    "SpectrumProfile",
    "convolve_profiles",
    "gaussian_profile",
    "lorentzian_profile",
    "fit_doppler_sigma",
    "kinetic_energy_from_sigma",
    "fit_envelope",
    "dominant_oscillation_frequency",
]


@dataclass(frozen=True)
class SpectrumProfile:
    """Sampled spectral profile on a strictly increasing frequency grid (Hz)."""

    frequency: np.ndarray
    amplitude: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequency, dtype=float)
        a = np.asarray(self.amplitude, dtype=float)
        object.__setattr__(self, "frequency", f)
        object.__setattr__(self, "amplitude", a)
        if f.ndim != 1 or f.shape != a.shape:
            raise ValueError("frequency and amplitude must be 1-D and equal length")
        if len(f) < 2:
            raise ValueError("a profile needs at least two samples")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(a))):
            raise ValueError("frequency and amplitude must be finite")
        if np.any(np.diff(f) <= 0):
            raise ValueError("frequency grid must be strictly increasing")
        if np.any(a < 0):
            raise ValueError("amplitudes must be nonnegative")

    @property
    def spacing(self) -> float:
        df = np.diff(self.frequency)
        if not np.allclose(df, df[0], rtol=1e-6):
            raise ValueError("profile grid must be uniform")
        return float(df[0])

    def peak_normalized(self) -> "SpectrumProfile":
        peak = self.amplitude.max()
        if peak <= 0:
            raise ValueError("profile has no positive peak")
        return SpectrumProfile(self.frequency, self.amplitude / peak)


def gaussian_profile(frequency, sigma: float) -> SpectrumProfile:
    """Unit-peak Gaussian centred on 0 on the given grid; sigma = 0 gives a
    grid delta."""
    f = np.asarray(frequency, dtype=float)
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0:
        amp = np.zeros_like(f)
        amp[np.argmin(np.abs(f))] = 1.0
    else:
        amp = np.exp(-0.5 * (f / sigma) ** 2)
    return SpectrumProfile(frequency=f, amplitude=amp)


def lorentzian_profile(frequency, fwhm: float) -> SpectrumProfile:
    """Unit-peak Lorentzian centred on 0 on the given grid."""
    if fwhm <= 0:
        raise ValueError("fwhm must be positive")
    f = np.asarray(frequency, dtype=float)
    hw = fwhm / 2.0
    amp = hw**2 / (f**2 + hw**2)
    return SpectrumProfile(frequency=f, amplitude=amp)


def convolve_profiles(a: SpectrumProfile, b: SpectrumProfile) -> SpectrumProfile:
    """Discrete linear convolution on a common uniform grid, unit-peak output."""
    da, db = a.spacing, b.spacing
    if not math.isclose(da, db, rel_tol=1e-6):
        raise ValueError("profiles must share the grid spacing")
    amp = np.convolve(a.amplitude, b.amplitude) * da
    f0 = a.frequency[0] + b.frequency[0]
    freq = f0 + da * np.arange(len(amp))
    out = SpectrumProfile(frequency=freq, amplitude=amp)
    return out.peak_normalized()


def _model_on_grid(reference: SpectrumProfile, sigma: float,
                   target_freq: np.ndarray) -> np.ndarray:
    kernel_half = 6.0 * max(sigma, reference.spacing)
    n_half = int(math.ceil(kernel_half / reference.spacing))
    kfreq = reference.spacing * np.arange(-n_half, n_half + 1)
    kernel = gaussian_profile(kfreq, sigma)
    blurred = convolve_profiles(reference, kernel)
    return np.interp(target_freq, blurred.frequency, blurred.amplitude)


def _minimize_bounded(cost, lo: float, hi: float, xatol: float,
                      maxfev: int = 500) -> tuple[float, float, int]:
    """Minimize a scalar function on [lo, hi]; returns (x, cost(x), evaluations).

    Brent's golden-section search with parabolic steps (Brent 1973, ch. 5),
    step for step as scipy's ``minimize_scalar(method="bounded")``, so both
    return the same x after the same evaluations.  Raises ``RuntimeError``
    naming the lowest cost when ``maxfev`` evaluations do not converge or a
    cost is NaN.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"bounds must be finite with lo <= hi, got ({lo}, {hi})")
    # numpy scalars, so the first point has the type of every later one
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = lo, hi
    # xf is the best point, nfc the second best and fulc the previous nfc
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = cost(xf)
    nfev = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + (np.sign(rat) + (rat == 0)) * max(abs(rat), tol1)
        fu = cost(x)
        nfev += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if nfev >= maxfev:
            break
    if nfev >= maxfev or math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        raise RuntimeError(f"failed to converge; residual norm {fx:.3g}")
    return float(xf), fx, nfev


def fit_doppler_sigma(reference: SpectrumProfile,
                      fluorescence: SpectrumProfile) -> tuple[float, float]:
    """Least-squares Doppler width of a fluorescence spectrum.

    The reference profile (laser line including the instrument function) is
    convolved with a Gaussian of standard deviation sigma_nu, the single
    free parameter, searched on (0, span / 2) by the bounded Brent
    minimizer to 1e-4 of the grid spacing; returns (sigma_nu, standard
    error) in Hz.  Raises ``RuntimeError`` with the residual norm when the
    minimization does not converge.
    """
    ref = reference.peak_normalized()
    target = fluorescence.peak_normalized()

    def cost(sigma):
        model = _model_on_grid(ref, sigma, target.frequency)
        return float(np.sum((model - target.amplitude) ** 2))

    span = target.frequency[-1] - target.frequency[0]
    try:
        sigma_hat = _minimize_bounded(cost, 0.0, span / 2.0, ref.spacing * 1e-4)[0]
    except RuntimeError as exc:
        raise RuntimeError(f"Doppler fit {exc}") from None

    # curvature-based standard error with the residual variance
    h = max(sigma_hat * 1e-3, ref.spacing * 1e-3)
    second = (cost(sigma_hat + h) - 2.0 * cost(sigma_hat) + cost(sigma_hat - h)) / h**2
    n_pts = len(target.frequency)
    resid_var = cost(sigma_hat) / max(n_pts - 1, 1)
    stderr = math.sqrt(2.0 * resid_var / second) if second > 0 else float("inf")
    return sigma_hat, stderr


def kinetic_energy_from_sigma(sigma_nu: float, wavelength: float,
                              mass: float) -> float:
    """Mean kinetic energy (in kelvin, E/kB) from the fitted Doppler width.

    The fitted sigma_nu is the 1-D width along the observation axis; an
    isotropic velocity distribution is assumed, so <v^2> = 3 (lambda
    sigma_nu)^2 and E = m <v^2> / 2.
    """
    if sigma_nu < 0 or wavelength <= 0 or mass <= 0:
        raise ValueError("invalid spectroscopy parameters")
    v_axis = wavelength * sigma_nu
    return 0.5 * mass * 3.0 * v_axis**2 / KB


def fit_envelope(tau, values) -> tuple[float, float]:
    """Least-squares fit of 1 + A*exp(-tau/tau0), A >= 0; returns (A, tau0).

    Variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413
    (1973)): for a fixed tau0 the best A is the linear least-squares value
    e.(y - 1) / e.e with e = exp(-tau/tau0), clamped at 0, so only ln tau0
    is searched, by the bounded Brent minimizer on [ln(min step / 10),
    ln(10 span)] of the delays.
    """
    tau = np.asarray(tau, dtype=float)
    excess = np.asarray(values, dtype=float) - 1.0
    if tau.ndim != 1 or tau.shape != excess.shape:
        raise ValueError("tau and values must be 1-D and equal length")
    if not (np.all(np.isfinite(tau)) and np.all(np.isfinite(excess))):
        raise ValueError("tau and values must be finite")
    steps = np.diff(np.unique(tau))
    if len(steps) == 0:
        raise ValueError("the envelope fit needs at least two distinct delays")

    def amplitude(log_tau0):
        e = np.exp(-tau / math.exp(log_tau0))
        norm = float(e @ e)
        return (max(float(e @ excess), 0.0) / norm if norm > 0 else 0.0), e

    def cost(log_tau0):
        amp, e = amplitude(log_tau0)
        resid = excess - amp * e
        return float(resid @ resid)

    bounds = math.log(steps.min() / 10.0), math.log(10.0 * (tau.max() - tau.min()))
    try:
        log_tau0 = _minimize_bounded(cost, *bounds, 1e-10)[0]
    except RuntimeError as exc:
        raise RuntimeError(f"envelope fit {exc}") from None
    return amplitude(log_tau0)[0], math.exp(log_tau0)


def dominant_oscillation_frequency(tau, values) -> float:
    """Dominant oscillation frequency (rad/s) of a correlation trace.

    Detrends to the asymptote, applies a Hann window and picks the zero-padded
    FFT peak with parabolic interpolation.
    """
    tau = np.asarray(tau, dtype=float)
    values = np.asarray(values, dtype=float)
    dt = tau[1] - tau[0]
    if not np.allclose(np.diff(tau), dt, rtol=1e-6):
        raise ValueError("tau grid must be uniform")
    signal = (values - values.mean()) * np.hanning(len(values))
    spectrum = np.abs(np.fft.rfft(signal, n=8 * len(signal)))
    spectrum[0] = 0.0
    peak = int(np.argmax(spectrum))
    if 0 < peak < len(spectrum) - 1:
        y0, y1, y2 = spectrum[peak - 1:peak + 2]
        denom = y0 - 2.0 * y1 + y2
        shift = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
    else:
        shift = 0.0
    freq = (peak + shift) / (8 * len(signal) * dt)
    return 2.0 * math.pi * freq
