"""Scenario runner: parse a config, dispatch one computation, write CSV.

All boundary values use lab units encoded in the flag names (MHz, mW,
mW/cm^2, um, uK, ns, mGauss); conversion to SI happens here, once.  A JSON
config file may supply any flag value (keys match the long flag names with
underscores); explicit command-line flags override the file.  Outputs are
deterministic: identical inputs give byte-identical files.

Each scenario is one entry of ``SPECS``: its runner, an optional
scenario-level check and one ``Flag`` per flag.  The parser, validation,
config coercion, ``list`` and the metadata sidecar all read that table.
Every value that validation derives from checked flags passes one rule,
``_derived``: finite and nonzero, or refused naming its flags and quantity.

Only the standard library and ``constants`` are imported here.  Every
other layer is imported inside the runner or check that computes with it:
``readout`` (the stdlib closed forms of stirap, larmor, bell, correlations,
pair-rate and the two-level-analytic g2), ``obe`` (the stdlib Bloch kernels
of the two-level-obe, four-level and full g2, and the four-level trap
shifts), ``loading`` (the stdlib loading chain), ``lightshift`` and
``trapgeometry`` (the line table and the trap beam), and numpy with its
layer ``analysis`` for spectrum-fit only.
So ``list``, ``--help`` and every exit-2 run refused before the line table
is read load none of them.  The parser names every scenario but adds flags
only to the invoked one's subparser (``build_parser``).

Exit codes: 0 success, 2 validation error, 3 numerical failure (also an
allocation that fails with ``MemoryError``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from operator import mul
from typing import NamedTuple

from . import __version__
from .constants import (KB, RB87_GAMMA_D2, RB87_ISAT_F2_F3, RB87_MASS, TWO_PI,
                        intensity_from_mw_cm2, linspace, rabi_frequency)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# upper bound on --points, on the length of an 'a..b:step' grid and on the
# spectrum-fit kernel
MAX_POINTS = 10**6
# upper bound on loading --n-max; each rate's law is n_max + 1 values
MAX_ATOMS = 1000


class ValidationError(Exception):
    """Bad configuration; reported with exit code 2 before any output."""


def _fmt(value, column: str) -> str:
    if isinstance(value, float):
        if not math.isfinite(value):
            raise FloatingPointError(f"non-finite value {value} in column {column}")
        return format(value, ".12g")
    return str(value)


def _column(values, name: str) -> tuple[str, list]:
    """The format field and values of one column: a float column is checked
    once and printed with 12 significant digits by the row template ("%.12g",
    the bytes of ``format(v, ".12g")``, faster than ``str.format``); any other
    column (labels, mixed values) is formatted value by value by ``_fmt``."""
    if not all(type(v) is float for v in values):
        return "%s", [_fmt(v, name) for v in values]
    if not all(map(math.isfinite, values)):
        bad = next(v for v in values if not math.isfinite(v))
        raise FloatingPointError(f"non-finite value {bad} in column {name}")
    return "%.12g", values


def _row(*values) -> list[list]:
    """The columns of a one-row table."""
    return [[v] for v in values]


def _write_csv(path: str | None, header: list[str], columns: list,
               meta: dict | None) -> None:
    """Format every value before writing, so a non-finite one leaves no file.

    ``columns`` holds one sequence per header name, all of one length.
    ``meta`` goes to the JSON sidecar.  A failed write raises ValidationError
    naming the path, and a failed write or allocation leaves no CSV.
    """
    fields, values = zip(*(_column(c, name) for c, name in zip(columns, header)))
    rows = map(",".join(fields).__mod__, zip(*values))
    text = "\n".join([",".join(header), *rows]) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    opened = False
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            opened = True
            fh.write(text)
        if meta is not None:
            with open(path + ".meta.json", "w", encoding="utf-8", newline="\n") as fh:
                json.dump(meta, fh, indent=2, sort_keys=True)
                fh.write("\n")
    except (OSError, MemoryError) as exc:
        if opened:  # the CSV was opened, so it is ours to remove
            os.remove(path)
        if isinstance(exc, MemoryError):
            raise
        raise ValidationError(f"cannot write {exc.filename or path}: {exc.strerror}") from exc


def _metadata(scenario: str, params: dict, method: str, diagnostics: dict) -> dict:
    """The sidecar: the scenario, the resolved parameters, the
    time-evolution method the runner reported ("none" where no state was
    evolved) and the numerical diagnostics the kernels reported (empty where
    they report none)."""
    return {
        "scenario": scenario,
        "library_version": __version__,
        "integrator": {"method": method},
        "diagnostics": diagnostics,
        "parameters": {k: params[k] for k in sorted(params)},
    }


def _parse_grid(spec: str, name: str) -> list[float]:
    """Parse 'start..stop:step' (inclusive endpoints) or a single number.

    The points are ``start + step * k``, bit for bit those of
    ``start + step * np.arange(n + 1)``.
    """
    try:
        if ".." in spec:
            span, step = spec.split(":")
            start, stop = span.split("..")
            start, stop, step = float(start), float(stop), float(step)
            if not (math.isfinite(start) and math.isfinite(stop)
                    and math.isfinite(step)) or step <= 0 or stop < start:
                raise ValueError
            intervals = (stop - start) / step
            if intervals >= MAX_POINTS:
                raise ValidationError(f"{name}: more than {MAX_POINTS} grid points")
            n = int(round(intervals))
            return [start + step * k for k in range(n + 1)]
        value = float(spec)
        if not math.isfinite(value):
            raise ValueError
        return [value]
    except ValueError as exc:
        raise ValidationError(
            f"{name}: expected a finite number or 'start..stop:step', got {spec!r}"
        ) from exc


# --- scenario runners -------------------------------------------------------


def run_lightshift(args):
    from .lightshift import scattering_rate_alkali

    rate = scattering_rate_alkali(args.field, args.lines)
    header = ["wavelength_nm", "power_mw", "waist_um", "depth_mk", "scatter_per_s"]
    return header, _row(args.wavelength_nm, args.power_mw, args.waist_um,
                        args.trap.depth_u / KB * 1e3, rate)


def run_magic(args):
    from .lightshift import find_magic_wavelength

    lo, hi = args.bracket_um
    magic = find_magic_wavelength(args.lines, (lo * 1e-6, hi * 1e-6))
    return ["bracket_lo_um", "bracket_hi_um", "magic_um"], _row(lo, hi, magic * 1e6)


def run_trap(args):
    from .lightshift import scattering_rate_alkali
    from .trapgeometry import (doppler_temperature, harmonic_frequencies, heating_rate,
                               recoil_temperature)

    omega_r, omega_z = harmonic_frequencies(args.trap)
    rate = scattering_rate_alkali(args.field, args.lines)
    _, d2 = args.lines.d_lines()
    t_rec = recoil_temperature(d2.wavelength, RB87_MASS)
    header = ["depth_mk", "omega_r_khz", "omega_z_khz", "scatter_per_s",
              "t_doppler_uk", "t_recoil_nk", "heating_uk_per_s"]
    return header, _row(args.trap.depth_u / KB * 1e3,
                        omega_r / TWO_PI / 1e3,
                        omega_z / TWO_PI / 1e3,
                        rate,
                        doppler_temperature(RB87_GAMMA_D2) * 1e6,
                        t_rec * 1e9,
                        heating_rate(t_rec, rate) * 1e6)


def run_loading(args):
    from .loading import LoadingParams, mean_number, stationary_law
    from .trapgeometry import trap_volume

    volume = trap_volume(args.trap, args.temperature_uk * 1e-6)
    rates = args.rate_per_s_grid
    laws = [stationary_law(LoadingParams(loading_rate=r, gamma=args.gamma_per_s,
                                         beta=args.beta_cm3_s * 1e-6, volume=volume,
                                         n_max=args.n_max))
            for r in rates]
    header = ["rate_per_s", "mean"] + [f"p{n}" for n in range(args.n_max + 1)]
    return header, [rates, [mean_number(p) for p in laws], *zip(*laws)]


def run_g2(args):
    tau_max, points = args.tau_max_ns * 1e-9, args.points
    tau = linspace(tau_max, points)
    tau_ns = [t * 1e9 for t in tau]
    report = {}
    if args.model in ("four-level", "full"):
        from .obe import _sum_modes, four_level_g2

        g2 = four_level_g2(args.rabi, args.delta, args.delta_rl, args.shifts, tau_max, points,
                           report)
        if args.model == "full":
            # the motional envelope 1 + A exp(-tau / tau0) of bloch.diffusion:
            # two real modes, 0 and -1 / tau0
            a, rate = args.env_a, -1.0 / (args.env_tau_us * 1e-6)
            g2 = list(map(mul, g2, _sum_modes([(0.0, 1.0), (rate, a)], [], tau_max, points,
                                              1.0)))
    elif args.model == "two-level-analytic":
        from .readout import two_level_g2

        return ["tau_ns", "g2"], [tau_ns, two_level_g2(args.rabi, args.delta, RB87_GAMMA_D2, tau)]
    else:
        from .obe import two_level_obe_g2

        g2 = two_level_obe_g2(args.rabi, args.delta, RB87_GAMMA_D2, tau_max, points, report)
    args.time_evolution = report.pop("method")
    args.diagnostics = report
    return ["tau_ns", "g2"], [tau_ns, g2]


def _radians(degrees: float) -> float:
    """Degrees as radians, reduced exactly (``math.fmod``) modulo 360 first:
    the error of ``math.radians`` alone grows like eps * x and passes a full
    turn near x = 1e19 degrees.  Below 360 degrees nothing changes."""
    return math.radians(math.fmod(degrees, 360.0))


def run_stirap(args):
    from .readout import stirap_readout_probability

    alpha_deg = args.alpha_deg_grid
    p = [args.visibility * stirap_readout_probability(args.prep_phase_rad, _radians(a))
         for a in alpha_deg]
    return ["alpha_deg", "p_f1"], [alpha_deg, p]


def run_larmor(args):
    from .readout import larmor_survival

    b_tesla = args.b_mgauss * 1e-7  # 1 mGauss = 1e-7 T
    t_grid = linspace(args.t_max_us * 1e-6, args.points)
    survival = [larmor_survival(b_tesla, args.g_f, t) for t in t_grid]
    return ["t_ns", "survival"], [[t * 1e9 for t in t_grid], survival]


def run_bell(args):
    from .readout import cos_sin_degrees, singlet_chsh

    degrees = {"a": args.phi_a_deg, "a2": args.phi_a2_deg,
               "b": args.phi_b_deg, "b2": args.phi_b2_deg}
    values = singlet_chsh(args.noise_p, *map(cos_sin_degrees, degrees.values()))
    # the angle columns print each input's round trip through radians, unreduced
    printed = {k: math.degrees(math.radians(v)) for k, v in degrees.items()}
    rows = [[pa, pb, printed[pa], printed[pb]] for pa in ("a", "a2") for pb in ("b", "b2")]
    rows.append(["S", "", "", ""])
    return (["setting_a", "setting_b", "phi_a_deg", "phi_b_deg", "value"],
            [*zip(*rows), values])


def run_correlations(args):
    from .readout import correlation_curve

    beta_deg = args.beta_deg_grid
    probs = correlation_curve(args.basis, map(_radians, beta_deg), args.visibility)
    # the angle column prints each input's round trip through radians, unreduced
    return ["beta_deg", "p_f1"], [[math.degrees(math.radians(b)) for b in beta_deg], probs]


def _read_profile(path: str) -> SpectrumProfile:
    import numpy as np
    from .analysis import SpectrumProfile

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
    from .analysis import fit_doppler_sigma, kinetic_energy_from_sigma

    sigma, stderr = fit_doppler_sigma(*args.profiles)
    e_kin = kinetic_energy_from_sigma(sigma, args.wavelength_nm * 1e-9, RB87_MASS)
    return ["quantity", "value"], [["sigma_nu_hz", "sigma_stderr_hz", "e_kin_over_kb_uk"],
                                   [sigma, stderr, e_kin * 1e6]]


def run_pair_rate(args):
    return (["eta", "t_fiber", "cycle_us", "duty_factor", "pairs_per_min"],
            _row(args.eta, args.t_fiber, args.cycle_us, args.duty_factor, args.pairs_per_min))


# --- the scenario table -----------------------------------------------------


class Flag(NamedTuple):
    """One flag of a scenario; its config key is the name with underscores.

    ``kind`` is float, int, str, grid (a number or 'a..b:step', parsed in
    validation), bracket ('lo,hi'), choice or switch.  ``required`` is
    True, or the (dest, value) of another flag under which this one is
    required.  ``check`` is 'positive', 'unit' (in [0, 1]) or 'nonnegative'
    for a float or every point of a grid, an inclusive (lo, hi) range for
    an int, and the allowed values of a choice.
    """

    name: str
    kind: str = "float"
    default: object = None
    required: bool | tuple = False
    check: str | tuple | None = None
    alias: str | None = None
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


def _bracket(value: str):
    try:
        lo, hi = map(float, value.split(","))
    except ValueError:  # not two numbers
        raise argparse.ArgumentTypeError("expected 'lo,hi' in um") from None
    return lo, hi


def _is_number(value) -> bool:
    """A JSON number that converts to a float (bools and huge ints do not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


# kind -> (argparse type, what a non-string config value must be, its test)
_STRING = (str, "a string", lambda v: False)
_KINDS = {
    "float": (float, "a number", _is_number),
    "int": (int, "an integer", lambda v: isinstance(v, int) and _is_number(v)),
    "bracket": (_bracket, "'lo,hi' or [lo, hi]",
                lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_number, v))),
    "str": _STRING,
    "grid": _STRING,
    "choice": _STRING,
    "switch": (None, "true or false", lambda v: isinstance(v, bool)),
}

# float check -> (rule, test of one value)
_RULES = {
    "positive": ("must be positive and finite (unit in the key name)", lambda v: v > 0),
    "unit": ("must lie in [0, 1]", lambda v: 0 <= v <= 1),
    "nonnegative": ("must be nonnegative", lambda v: v >= 0),
}


def _derived(flags: str, quantity: str, compute):
    """``compute()``, derived from flags already checked, if finite and nonzero;
    else a ValidationError naming ``flags`` and ``quantity``: overflows or underflows to 0."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValidationError(f"{flags}: the {quantity} overflows")
    if value == 0:
        raise ValidationError(f"{flags}: the {quantity} underflows to 0")
    return value


# the positive flags whose SI value the run computes with: dest -> (quantity, unit in SI)
_SI = {"tau_max_ns": ("longest delay (s)", 1e-9), "t_max_us": ("longest time (s)", 1e-6),
       "env_tau_us": ("envelope decay time (s)", 1e-6), "cycle_us": ("cycle time (s)", 1e-6)}


def _flag_error(args, flag: Flag) -> str | None:
    """What is wrong with one flag's value, or None.  A grid is parsed here,
    once: the runner reads its points as ``args.<dest>_grid``."""
    value = getattr(args, flag.dest)
    if value is None:
        when = flag.required
        missing = when is True or (when and getattr(args, when[0]) == when[1])
        return f"missing required key --{flag.name}" if missing else None
    values = value if flag.kind == "bracket" else (value,)
    if any(isinstance(v, float) and not math.isfinite(v) for v in values):
        return f"--{flag.name} must be finite, got {value}"
    if flag.kind == "grid":
        try:
            values = _parse_grid(value, f"--{flag.name}")
        except ValidationError as exc:
            return str(exc)
        setattr(args, f"{flag.dest}_grid", values)
    check = flag.check
    if check is None:
        return None
    if flag.kind == "choice":
        rule, ok = f"must be one of {', '.join(check)}", value in check
    elif flag.kind == "int":
        rule, ok = f"must lie in [{check[0]}, {check[1]}]", check[0] <= value <= check[1]
    else:
        rule, test = _RULES[check]
        ok = all(test(v) for v in values)
    if not ok:
        return f"--{flag.name} {rule}, got {value!r}"
    if flag.dest in _SI:
        quantity, unit = _SI[flag.dest]
        try:
            _derived(f"--{flag.name} {value:g}", quantity, lambda: value * unit)
        except ValidationError as exc:
            return str(exc)
    return None


def _read_lines(args) -> None:
    """Read the line data now, so --validate-only fails as the run would;
    the runner computes with the table read here.  This is the CLI's only
    reader of the table; a table that cannot be read is a ValidationError."""
    from .lightshift import LineDataError, load_default_lines

    try:
        args.lines = load_default_lines()
    except LineDataError as exc:
        raise ValidationError(str(exc)) from exc


def _check_beam(args, prefix: str = "") -> None:
    """Read the line data and build the trap once: the runner reads the
    harmonic trap, the peak field and the signed depth (J) as ``args.trap``,
    ``args.field`` and ``args.depth``, so --validate-only fails as the run
    would.  Refused here, naming the flags: a wavelength below
    ``shortest_resolved_wavelength`` (the light shift is lost in rounding)
    or on a D line (it diverges), and by ``_derived`` each quantity in the
    order it is computed, in every beam scenario alike, whether or not it
    prints the trap frequencies.  ``prefix`` is the flags' prefix ("trap-"
    for g2)."""
    from .lightshift import LaserField, ground_shift_alkali, shortest_resolved_wavelength
    from .trapgeometry import GaussianBeam, TrapSpec

    _read_lines(args)
    dest = prefix.replace("-", "_")
    power, waist, wavelength = (getattr(args, f"{dest}{name}")
                                for name in ("power_mw", "waist_um", "wavelength_nm"))
    floor = shortest_resolved_wavelength(args.lines)
    if wavelength * 1e-9 < floor:
        raise ValidationError(
            f"--{prefix}wavelength-nm {wavelength:g} is below {floor * 1e9:.3g} nm, where the"
            " light shift is lost in rounding noise")
    power_flag, waist_flag = f"--{prefix}power-mw {power:g}", f"--{prefix}waist-um {waist:g}"
    length_flags = f"{waist_flag} with --{prefix}wavelength-nm {wavelength:g}"
    beam = GaussianBeam(power=_derived(power_flag, "power (W)", lambda: power * 1e-3),
                        waist_w0=_derived(waist_flag, "beam waist (m)", lambda: waist * 1e-6),
                        wavelength=wavelength * 1e-9)
    # trapgeometry.harmonic_frequencies: omega^2 = factor * |U| / (m * length^2)
    w0_sq = _derived(waist_flag, "beam waist squared (m^2)", lambda: beam.waist_w0**2)
    zr_sq = _derived(length_flags, "Rayleigh length squared (m^2)",
                     lambda: beam.rayleigh_length**2)
    mass_w0_sq = _derived(waist_flag, "atom mass times the beam waist squared (kg m^2)",
                          lambda: RB87_MASS * w0_sq)
    mass_zr_sq = _derived(length_flags, "atom mass times the Rayleigh length squared (kg m^2)",
                          lambda: RB87_MASS * zr_sq)
    field = LaserField(wavelength=beam.wavelength, intensity=beam.peak_intensity)
    for line in args.lines.d_lines():
        if line.omega == field.omega:
            raise ValidationError(f"--{prefix}wavelength-nm {wavelength:g} is on the"
                                  f" {line.label} line, where the light shift diverges")
    depth = _derived(f"{power_flag} with {waist_flag}", "trap depth (J)",
                     lambda: ground_shift_alkali(field, 0.5, args.lines))
    _derived(f"{waist_flag} and {power_flag}", "radial trap frequency squared ((rad/s)^2)",
             lambda: 4 * abs(depth) / mass_w0_sq)
    _derived(f"{length_flags} and {power_flag}", "axial trap frequency squared ((rad/s)^2)",
             lambda: 2 * abs(depth) / mass_zr_sq)
    args.trap, args.field, args.depth = (TrapSpec.from_beam(beam, abs(depth), RB87_MASS),
                                         field, depth)


def _check_magic(args) -> None:
    lo, hi = args.bracket_um
    if not 0 < lo < hi:
        raise ValidationError("--bracket-um must satisfy 0 < lo < hi")
    from .lightshift import shortest_resolved_wavelength

    _read_lines(args)
    floor = shortest_resolved_wavelength(args.lines)
    if lo * 1e-6 < floor:
        raise ValidationError(
            f"--bracket-um {lo:g},{hi:g} reaches below {floor * 1e6:.3g} um, where the"
            " light shifts cancel to rounding noise")


def _check_spectrum_fit(args) -> None:
    """Without --wavelength-nm the kinetic energy uses the table's D2 line.
    The profiles are read here and their grids checked as the fit uses them,
    so --validate-only fails as the run would; the runner fits the profiles
    read here."""
    if args.wavelength_nm is None:
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


def _check_loading(args) -> None:
    """The CSV holds one row of n_max + 3 cells per rate, and at most twice
    MAX_POINTS cells, the most that a g2, larmor or stirap run writes.  The
    trap volume's eta = kB T / U is derived here, and refused unless it is
    below 1: no sample is trapped."""
    rates, columns = len(args.rate_per_s_grid), args.n_max + 3
    if rates * columns > 2 * MAX_POINTS:
        raise ValidationError(
            f"--rate-per-s and --n-max: {rates} rates x {columns} columns ="
            f" {rates * columns} CSV cells, more than {2 * MAX_POINTS}")
    _check_beam(args)
    flags = (f"--temperature-uk {args.temperature_uk:g} with --power-mw {args.power_mw:g}"
             f" and --waist-um {args.waist_um:g}")
    ratio = _derived(flags, "ratio kB T / U",
                     lambda: KB * (args.temperature_uk * 1e-6) / args.trap.depth_u)
    if ratio >= 1.0:
        raise ValidationError(f"{flags}: the ratio kB T / U = {ratio:.3g} is not below 1:"
                              " sample not trapped")


def _check_pair_rate(args) -> None:
    """The pairs per minute are derived here; the runner reads them as
    ``args.pairs_per_min``."""
    from .readout import pair_rate_estimate

    rate = pair_rate_estimate(args.eta, args.t_fiber, args.cycle_us * 1e-6, args.duty_factor)
    # no detection, fiber transmission or duty gives exactly 0 pairs: a result
    args.pairs_per_min = rate if rate == 0 else _derived(
        f"--eta {args.eta:g} with --cycle-us {args.cycle_us:g}", "pair rate (1/min)",
        lambda: rate)


def _check_g2(args) -> None:
    """The step of the delay grid (``constants.linspace``) is derived here,
    for every model: one that underflows to 0 leaves no uniform grid.  With
    a trap beam, the four-level and full models' trap shifts are computed
    here, at the line table's hyperfine-resolved detunings, so a trap
    wavelength on such a line fails --validate-only as the run would; the
    runner reads them as ``args.shifts``.  The rates (rad/s) that the model
    computes from its drive flags are derived here too, each from a nonzero
    flag: the cooling detuning and Rabi rate on F=2 -> F'=3 (the two-level
    drive) and, for the four-level and full models, the repump detuning and
    the other two Rabi rates.  The runner reads them as ``args.delta``,
    ``args.delta_rl`` and ``args.rabi`` (the Rabi argument of the model's
    kernel)."""
    if (args.trap_power_mw is None) != (args.trap_waist_um is None):
        raise ValidationError("--trap-power-mw and --trap-waist-um must be given together")
    _derived(f"--tau-max-ns {args.tau_max_ns:g} with --points {args.points}", "delay step (s)",
             lambda: args.tau_max_ns * 1e-9 / (args.points - 1))
    args.delta = TWO_PI * args.delta_mhz * 1e6
    try:  # the two-level models square the detuning in rad/s
        args.delta ** 2
    except OverflowError:
        raise ValidationError(
            f"--delta-mhz {args.delta_mhz:g}: the detuning squared ((rad/s)^2) overflows"
        ) from None
    args.shifts = (0.0, 0.0, 0.0, 0.0)
    if args.trap_power_mw is not None:
        _check_beam(args, "trap-")
        if args.model in ("four-level", "full"):
            from .obe import trap_shifts

            try:  # the line shifts at hyperfine-resolved detunings
                args.shifts = trap_shifts(args.field, args.lines, args.depth,
                                          args.kinetic_uk * 1e-6)
            except ValueError as exc:
                raise ValidationError(
                    f"--trap-wavelength-nm {args.trap_wavelength_nm:g}: {exc}") from exc
    # (flag, value, quantity, rate) of each drive rate the model computes
    icl = intensity_from_mw_cm2(args.icl_mw_cm2)
    drive = [("delta-mhz", args.delta_mhz, "cooling detuning (rad/s)", args.delta)]
    if args.model in ("four-level", "full"):
        from .obe import _four_level_rabi

        args.delta_rl = TWO_PI * args.delta_rl_mhz * 1e6
        args.rabi = _four_level_rabi(icl, intensity_from_mw_cm2(args.irl_mw_cm2))
        drive += [("delta-rl-mhz", args.delta_rl_mhz, "repump detuning (rad/s)", args.delta_rl),
                  ("irl-mw-cm2", args.irl_mw_cm2, "repump Rabi rate on F=1 -> F'=2 (rad/s)",
                   args.rabi[0]),
                  ("icl-mw-cm2", args.icl_mw_cm2, "cooling Rabi rate on F=2 -> F'=2 (rad/s)",
                   args.rabi[1]),
                  ("icl-mw-cm2", args.icl_mw_cm2, "cooling Rabi rate on F=2 -> F'=3 (rad/s)",
                   args.rabi[2])]
    else:
        args.rabi = rabi_frequency(icl, RB87_ISAT_F2_F3)
        drive.append(("icl-mw-cm2", args.icl_mw_cm2, "cooling Rabi rate on F=2 -> F'=3 (rad/s)",
                      args.rabi))
    for flag, value, quantity, rate in drive:
        if value != 0:  # a drive that is off is a result
            _derived(f"--{flag} {value:g}", quantity, lambda: rate)


def _check_larmor(args) -> None:
    """The step of the time grid, as for g2, and the Larmor phase at the
    longest time, whose cosine the run takes; a phase of exactly 0 (no
    field, or g_F = 0) is a result."""
    from .readout import larmor_frequency

    _derived(f"--t-max-us {args.t_max_us:g} with --points {args.points}", "time step (s)",
             lambda: args.t_max_us * 1e-6 / (args.points - 1))
    phase = larmor_frequency(args.b_mgauss * 1e-7, args.g_f) * (args.t_max_us * 1e-6)
    if phase != 0:
        _derived(f"--b-mgauss {args.b_mgauss:g} with --g-f {args.g_f:g} and --t-max-us"
                 f" {args.t_max_us:g}", "Larmor phase at the longest time (rad)", lambda: phase)


_COMMON = (Flag("config", "str", help="JSON file with flag values (flags override)"),
           Flag("out", "str", help="output CSV path (default: stdout)"),
           Flag("metadata", "switch", default=False,
                help="write a JSON sidecar with resolved parameters"),
           Flag("validate-only", "switch", default=False,
                help="validate the configuration and exit"))

_TRAP_BEAM = (Flag("power-mw", required=True, check="positive"),
              Flag("waist-um", required=True, check="positive"),
              Flag("wavelength-nm", default=856.0, check="positive"))

# scenario -> (runner, scenario-level check or None, *flags); a check raises
# ValidationError.  A plain tuple, so the runner stays reachable when a
# tracer rebinds it
SPECS = {
    "lightshift": (run_lightshift, _check_beam, *_TRAP_BEAM),
    "magic": (run_magic, _check_magic, Flag("bracket-um", "bracket", default=(1.2, 1.6))),
    "trap": (run_trap, _check_beam, *_TRAP_BEAM),
    "loading": (run_loading, _check_loading,
                Flag("rate-per-s", "grid", required=True, check="nonnegative",
                     help="loading rate R, number or 'a..b:step'"),
                *_TRAP_BEAM,
                Flag("gamma-per-s", default=0.2, check="nonnegative"),
                Flag("beta-cm3-s", default=5e-10, check="positive"),
                Flag("temperature-uk", default=100.0, check="positive"),
                Flag("n-max", "int", default=5, check=(1, MAX_ATOMS))),
    "g2": (run_g2, _check_g2,
           Flag("model", "choice", default="four-level",
                check=("two-level-analytic", "two-level-obe", "four-level", "full")),
           Flag("delta-mhz", required=True, help="cooling detuning / 2pi (MHz)"),
           Flag("delta-rl-mhz", default=0.0),
           Flag("icl-mw-cm2", required=True, check="nonnegative", alias="icl"),
           Flag("irl-mw-cm2", default=12.0, check="positive", alias="irl"),
           Flag("tau-max-ns", default=200.0, check="positive"),
           Flag("points", "int", default=801, check=(2, MAX_POINTS)),
           Flag("env-a", required=("model", "full"), check="nonnegative"),
           Flag("env-tau-us", required=("model", "full"), check="positive"),
           Flag("trap-power-mw", check="positive"),
           Flag("trap-waist-um", check="positive"),
           Flag("trap-wavelength-nm", default=856.0, check="positive"),
           Flag("kinetic-uk", default=100.0, check="nonnegative")),
    "stirap": (run_stirap, None,
               Flag("alpha-deg", "grid", required=True,
                    help="polarization angle, number or 'a..b:step'"),
               Flag("visibility", default=1.0, check="unit"),
               Flag("prep-phase-rad", default=0.0)),
    "larmor": (run_larmor, _check_larmor,
               Flag("b-mgauss", required=True),
               Flag("g-f", default=-0.5),
               Flag("t-max-us", default=10.0, check="positive"),
               Flag("points", "int", default=501, check=(2, MAX_POINTS))),
    "bell": (run_bell, None,
             Flag("phi-a-deg", default=0.0),
             Flag("phi-a2-deg", default=90.0),
             Flag("phi-b-deg", default=45.0),
             Flag("phi-b2-deg", default=135.0),
             Flag("noise-p", default=1.0, check="unit")),
    "correlations": (run_correlations, None,
                     Flag("basis", "choice", default="x", check=("x", "y")),
                     Flag("beta-deg", "grid", required=True,
                          help="waveplate angle, number or 'a..b:step'"),
                     Flag("visibility", default=1.0, check="unit")),
    "spectrum-fit": (run_spectrum_fit, _check_spectrum_fit,
                     Flag("reference", "str", required=True,
                          help="two-column CSV (frequency_hz, amplitude)"),
                     Flag("fluorescence", "str", required=True,
                          help="two-column CSV (frequency_hz, amplitude)"),
                     Flag("wavelength-nm", check="positive",
                          help="default: the D2 line of the line table")),
    "pair-rate": (run_pair_rate, _check_pair_rate,
                  Flag("eta", required=True, check="unit"),
                  Flag("t-fiber", default=math.sqrt(0.95), check="unit"),
                  Flag("cycle-us", default=1.0, check="positive"),
                  Flag("duty-factor", default=1.0, check="unit")),
}

SCENARIOS = tuple(SPECS)


# --- argument parsing -------------------------------------------------------


def _add_flags(parser: argparse.ArgumentParser, flags) -> None:
    for flag in flags:
        names = [f"--{flag.name}"] + ([f"--{flag.alias}"] if flag.alias else [])
        if flag.kind == "switch":
            parser.add_argument(*names, action="store_true", help=flag.help)
        else:
            # choices are checked with the other rules, not by argparse
            metavar = "{%s}" % ",".join(flag.check) if flag.kind == "choice" else None
            parser.add_argument(*names, type=_KINDS[flag.kind][0], default=flag.default,
                                metavar=metavar, help=flag.help)


class _Parser(argparse.ArgumentParser):
    """An argument parser that refuses a malformed command line with one
    ``validation:`` line on stderr and exit 2, like every other bad input.

    The top-level parser's ``scenarios`` maps each scenario to its subparser.
    """

    def error(self, message):
        self.exit(EXIT_VALIDATION, f"validation: {message}\n")


def build_parser(scenarios=SCENARIOS) -> argparse.ArgumentParser:
    """The command-line parser.  Every scenario is a subcommand, so the help,
    a bare call and an unknown scenario read the same whatever ``scenarios``
    holds; only the subparsers it names get their flags (a run builds its
    own scenario's alone)."""
    parser = _Parser(
        prog="singleatom",
        description="Single-atom dipole trap and atom-photon entanglement scenarios.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="scenario", required=True, parser_class=_Parser)
    subparsers.add_parser("list", help="list scenarios and their required keys")
    parser.scenarios = {}
    for name, (_, _, *flags) in SPECS.items():
        parser.scenarios[name] = subparsers.add_parser(name)
        if name in scenarios:
            _add_flags(parser.scenarios[name], _COMMON + tuple(flags))
    return parser


def list_scenarios() -> str:
    """One line per scenario naming the keys it requires."""
    lines = []
    for name, (_, _, *flags) in SPECS.items():
        keys = (", ".join(f.name for f in flags if f.required is True)
                or "(none; every key has a default)")
        conditional = [f for f in flags if isinstance(f.required, tuple)]
        if conditional:
            key, value = conditional[0].required
            keys += f"; with --{key} {value} also {', '.join(f.name for f in conditional)}"
        lines.append(f"{name}: {keys}")
    return "\n".join(lines) + "\n"


def _config_value(key: str, value, flag: Flag):
    """A config value as its flag would hold it; strings go through the flag's type."""
    convert, expected, fits = _KINDS[flag.kind]
    if convert is not None and isinstance(value, str):
        try:
            return convert(value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValidationError(f"config key {key!r}: {exc}") from exc
    if not fits(value):
        raise ValidationError(
            f"config key {key!r}: expected {expected}, got {json.dumps(value)}")
    return value


def _config_defaults(path: str, flags) -> dict:
    """The JSON config's values by flag dest, each as its flag would hold it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(file_values, dict):
        raise ValidationError("config file must hold a JSON object")
    by_dest = {f.dest: f for f in flags}
    defaults = {}
    for key, value in file_values.items():
        flag = by_dest.get(key.replace("-", "_"))
        if flag is None:
            raise ValidationError(f"unknown config key {key!r}")
        defaults[flag.dest] = _config_value(key, value, flag)
    return defaults


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a parse that gets past the top-level options has the scenario first
    parser = build_parser(argv[:1])
    args = parser.parse_args(argv)

    if args.scenario == "list":
        sys.stdout.write(list_scenarios())
        return EXIT_OK

    runner, check, *flags = SPECS[args.scenario]
    try:
        if args.config:
            # the file's values become the scenario's defaults and the command
            # line is parsed again, so a flag given there wins over the file
            parser.scenarios[args.scenario].set_defaults(
                **_config_defaults(args.config, _COMMON + tuple(flags)))
            args = parser.parse_args(argv)
        errors = [err for flag in flags if (err := _flag_error(args, flag))]
        if args.metadata and args.out is None:
            errors.append("--metadata needs --out: the sidecar is written next to the CSV")
        if errors:
            raise ValidationError("; ".join(errors))
        if check is not None:
            check(args)
        if args.validate_only:
            sys.stdout.write("configuration ok\n")
            return EXIT_OK
        # a non-finite result is refused when the CSV is formatted
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            header, columns = runner(args)
        params = {f.dest: getattr(args, f.dest) for f in flags}
        meta = _metadata(args.scenario, params, getattr(args, "time_evolution", "none"),
                         getattr(args, "diagnostics", {})) if args.metadata else None
        _write_csv(args.out, header, columns, meta)
    except ValidationError as exc:
        sys.stderr.write(f"validation: {exc}\n")
        return EXIT_VALIDATION
    except (ArithmeticError, ValueError, KeyError, RuntimeError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except MemoryError as exc:
        # an allocation that no validation bound caught
        detail = f": {exc}" if str(exc) else ""
        sys.stderr.write(f"numerical failure: out of memory{detail}\n")
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
