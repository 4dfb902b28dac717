"""The CLI's spectrum-fit scenario, the only one that computes with numpy."""

import math
import warnings

import numpy as np

from .analysis import SpectrumProfile, fit_doppler_sigma, kinetic_energy_from_sigma
from .cli_common import MAX_POINTS, ValidationError
from .constants import RB87_MASS


def _read_profile(path: str) -> SpectrumProfile:
    try:
        with warnings.catch_warnings():
            # an empty profile fails the column check below, in one line
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    if data.shape[1] != 2:
        raise ValidationError(f"{path}: expected two CSV columns (frequency_hz, amplitude)")
    try:
        profile = SpectrumProfile(frequency=data[:, 0], amplitude=data[:, 1])
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    if not profile.amplitude.any():
        raise ValidationError(f"{path}: profile has no positive peak")
    return profile


def run_spectrum_fit(args):
    sigma, stderr = fit_doppler_sigma(*args.profiles)
    e_kin = kinetic_energy_from_sigma(sigma, args.wavelength_nm * 1e-9, RB87_MASS)
    return ["quantity", "value"], [["sigma_nu_hz", "sigma_stderr_hz", "e_kin_over_kb_uk"],
                                   [sigma, stderr, e_kin * 1e6]]


def _check_spectrum_fit(args) -> None:
    """Without --wavelength-nm the kinetic energy uses the table's D2 line.
    The profiles are read here and their grids checked as the fit uses them,
    so --validate-only fails as the run would; the runner fits the profiles
    read here."""
    if args.wavelength_nm is None:
        from .cli_beam import _read_lines

        _read_lines(args)
        args.wavelength_nm = args.lines.d_lines()[1].wavelength / 1e-9
    with warnings.catch_warnings():
        # a grid whose steps overflow is refused below, in one line
        warnings.simplefilter("ignore", RuntimeWarning)
        reference, fluorescence = args.profiles = (_read_profile(args.reference),
                                                   _read_profile(args.fluorescence))
        try:
            spacing = reference.spacing
        except ValueError as exc:
            raise ValidationError(f"{args.reference}: {exc}") from exc
    # the fit blurs with a kernel at least 6 spacings wide and searches (0, span / 2)
    if not math.isfinite(6.0 * spacing):
        raise ValidationError(
            f"{args.reference}: grid spacing {spacing} is too large for the fit kernel")
    span = float(fluorescence.frequency[-1]) - float(fluorescence.frequency[0])
    if not math.isfinite(span):
        raise ValidationError(f"{args.fluorescence}: frequency span is not finite")
    # the kernel at the upper bound has 2 * ceil(half) + 1 points
    half = 6.0 * max(span / 2.0, spacing) / spacing
    if half > (MAX_POINTS - 1) // 2:
        raise ValidationError(
            f"{args.fluorescence}: frequency span {span:g} Hz needs a fit kernel of more"
            f" than {MAX_POINTS} points at the reference spacing {spacing:g} Hz")


# scenario -> (runner, check)
RUNS = {"spectrum-fit": (run_spectrum_fit, _check_spectrum_fit)}
