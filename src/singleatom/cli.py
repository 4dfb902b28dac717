"""Scenario runner: parse a config, dispatch one computation, write CSV.

All boundary values use lab units encoded in the flag names (MHz, mW,
mW/cm^2, um, uK, ns, mGauss); conversion to SI happens here, once.  A JSON
config file may supply any flag value (keys match the long flag names with
underscores); explicit command-line flags override the file.  Outputs are
deterministic: identical inputs give byte-identical files.

Each scenario is one entry of ``SPECS``: its runner, an optional
scenario-level check and one ``Flag`` per flag.  The parser, validation,
config coercion, ``list`` and the metadata sidecar all read that table.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from typing import NamedTuple

import numpy as np

from . import __version__
from .analysis import (
    SpectrumProfile,
    fit_doppler_sigma,
    kinetic_energy_from_sigma,
)
from .bloch import (
    DiffusionEnvelope,
    FourLevelParams,
    apply_trap_shifts,
    four_level_g2,
    g2_full_model,
    two_level_g2_analytic,
    two_level_obe_g2,
)
from .constants import (
    KB,
    RB87_GAMMA_D2,
    RB87_MASS,
    TWO_PI,
    intensity_from_mw_cm2,
)
from .coherent import larmor_survival, stirap_readout_probability
from .entanglement import (
    MeasurementSetting,
    bell_state,
    chsh,
    correlation,
    correlation_curve,
    noisy_channel,
    pair_rate_estimate,
)
from .lightshift import (
    LaserField,
    LineDataError,
    find_magic_wavelength,
    ground_shift_alkali,
    load_default_lines,
    scattering_rate_alkali,
)
from .loading import LoadingParams, stationary_distribution
from .trapgeometry import (
    GaussianBeam,
    TrapSpec,
    doppler_temperature,
    harmonic_frequencies,
    heating_rate,
    recoil_temperature,
    trap_volume,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# upper bound on --points and on the length of an 'a..b:step' grid
MAX_POINTS = 10**6
# upper bound on loading --n-max; the rate matrix holds (n_max + 1)^2 floats
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
    """The format field and values of one column.

    A float array is checked once and printed with 12 significant digits by
    the row format; any other sequence (labels, a mixed column) is formatted
    value by value, floats the same way.
    """
    if isinstance(values, np.ndarray) and values.dtype == float:
        bad = ~np.isfinite(values)
        if bad.any():
            raise FloatingPointError(f"non-finite value {values[bad][0]} in column {name}")
        return "{:.12g}", values.tolist()
    return "{}", [_fmt(v, name) for v in values]


def _row(*values) -> list[list]:
    """The columns of a one-row table."""
    return [[v] for v in values]


def _write_csv(path: str | None, header: list[str], columns: list,
               meta: dict | None) -> None:
    """Format every value before writing, so a non-finite one leaves no file.

    ``columns`` holds one sequence per header name, all of one length.
    ``meta`` goes to the JSON sidecar.  A failed write raises ValidationError
    naming the path and leaves no CSV.
    """
    fields, values = zip(*(_column(c, name) for c, name in zip(columns, header)))
    rows = map(",".join(fields).format, *values)
    text = "\n".join([",".join(header), *rows]) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        if meta is not None:
            with open(path + ".meta.json", "w", encoding="utf-8", newline="\n") as fh:
                json.dump(meta, fh, indent=2, sort_keys=True)
                fh.write("\n")
    except OSError as exc:
        if exc.filename != path:  # the CSV was opened, so it is ours to remove
            os.remove(path)
        raise ValidationError(f"cannot write {exc.filename or path}: {exc.strerror}") from exc


def _time_evolution(scenario: str, params: dict) -> dict:
    """The time-evolution method a run used, for the metadata sidecar.

    Only the g2 Bloch models evolve a state, and they do so exactly; no
    scenario integrates with RK45 (the STIRAP readout is a closed form).
    """
    if scenario == "g2" and params["model"] != "two-level-analytic":
        return {"method": "eigen-propagator"}
    return {"method": "none"}


def _metadata(scenario: str, params: dict) -> dict:
    return {
        "scenario": scenario,
        "library_version": __version__,
        "integrator": _time_evolution(scenario, params),
        "parameters": {k: params[k] for k in sorted(params)},
    }


def _parse_grid(spec: str, name: str) -> np.ndarray:
    """Parse 'start..stop:step' (inclusive endpoints) or a single number."""
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
            return start + step * np.arange(n + 1)
        value = float(spec)
        if not math.isfinite(value):
            raise ValueError
        return np.array([value])
    except ValueError as exc:
        raise ValidationError(
            f"{name}: expected a finite number or 'start..stop:step', got {spec!r}"
        ) from exc


# --- scenario runners -------------------------------------------------------


def _trap_field(power_mw: float, waist_um: float, wavelength_nm: float):
    """The trap beam and its peak field."""
    beam = GaussianBeam(power=power_mw * 1e-3, waist_w0=waist_um * 1e-6,
                        wavelength=wavelength_nm * 1e-9)
    return beam, LaserField(wavelength=beam.wavelength, intensity=beam.peak_intensity)


def _trap(args):
    """The trap beam's peak field and its harmonic trap."""
    beam, field = _trap_field(args.power_mw, args.waist_um, args.wavelength_nm)
    depth = abs(ground_shift_alkali(field, 0.5, args.lines))
    return field, TrapSpec.from_beam(beam, depth, RB87_MASS)


def run_lightshift(args):
    _, field = _trap_field(args.power_mw, args.waist_um, args.wavelength_nm)
    depth = ground_shift_alkali(field, 0.5, args.lines)
    rate = scattering_rate_alkali(field, args.lines)
    header = ["wavelength_nm", "power_mw", "waist_um", "depth_mk", "scatter_per_s"]
    return header, _row(args.wavelength_nm, args.power_mw, args.waist_um,
                        abs(depth) / KB * 1e3, rate)


def run_magic(args):
    lo, hi = args.bracket_um
    magic = find_magic_wavelength(args.lines, (lo * 1e-6, hi * 1e-6))
    return ["bracket_lo_um", "bracket_hi_um", "magic_um"], _row(lo, hi, magic * 1e6)


def run_trap(args):
    field, trap = _trap(args)
    omega_r, omega_z = harmonic_frequencies(trap)
    rate = scattering_rate_alkali(field, args.lines)
    _, d2 = args.lines.d_lines()
    t_rec = recoil_temperature(d2.wavelength, RB87_MASS)
    header = ["depth_mk", "omega_r_khz", "omega_z_khz", "scatter_per_s",
              "t_doppler_uk", "t_recoil_nk", "heating_uk_per_s"]
    return header, _row(trap.depth_u / KB * 1e3,
                        omega_r / TWO_PI / 1e3,
                        omega_z / TWO_PI / 1e3,
                        rate,
                        doppler_temperature(RB87_GAMMA_D2) * 1e6,
                        t_rec * 1e9,
                        heating_rate(t_rec, rate) * 1e6)


def run_loading(args):
    _, trap = _trap(args)
    volume = trap_volume(trap, args.temperature_uk * 1e-6)
    rates = _parse_grid(args.rate_per_s, "--rate-per-s")
    table = []
    for r in rates:
        params = LoadingParams(loading_rate=float(r), gamma=args.gamma_per_s,
                               beta=args.beta_cm3_s * 1e-6, volume=volume,
                               n_max=args.n_max)
        dist = stationary_distribution(params)
        table.append([dist.mean, *dist.probabilities])
    header = ["rate_per_s", "mean"] + [f"p{n}" for n in range(args.n_max + 1)]
    return header, [rates, *np.array(table).T]


def _four_level_params(args) -> FourLevelParams:
    params = FourLevelParams(
        i_cl=intensity_from_mw_cm2(args.icl_mw_cm2),
        i_rl=intensity_from_mw_cm2(args.irl_mw_cm2),
        delta_cl=TWO_PI * args.delta_mhz * 1e6,
        delta_rl=TWO_PI * args.delta_rl_mhz * 1e6,
    )
    if args.trap_power_mw is not None:
        _, field = _trap_field(args.trap_power_mw, args.trap_waist_um,
                               args.trap_wavelength_nm)
        params = apply_trap_shifts(params, field, kinetic_reduction=args.kinetic_uk * 1e-6,
                                   lines=args.lines)
    return params


def run_g2(args):
    tau = np.linspace(0.0, args.tau_max_ns * 1e-9, args.points)
    if args.model in ("two-level-analytic", "two-level-obe"):
        omega3 = FourLevelParams(
            i_cl=intensity_from_mw_cm2(args.icl_mw_cm2), i_rl=0.0,
            delta_cl=0.0).rabi_frequencies[2]
        two_level = (two_level_g2_analytic if args.model == "two-level-analytic"
                     else two_level_obe_g2)
        g2 = two_level(omega3, TWO_PI * args.delta_mhz * 1e6, RB87_GAMMA_D2, tau)
    elif args.model == "four-level":
        g2 = four_level_g2(_four_level_params(args), tau)
    else:  # full
        env = DiffusionEnvelope(amplitude=args.env_a, tau0=args.env_tau_us * 1e-6)
        g2 = g2_full_model(_four_level_params(args), env, tau)
    return ["tau_ns", "g2"], [tau * 1e9, g2]


def run_stirap(args):
    alpha_deg = _parse_grid(args.alpha_deg, "--alpha-deg")
    p = [args.visibility * stirap_readout_probability(args.prep_phase_rad, math.radians(a))
         for a in alpha_deg]
    return ["alpha_deg", "p_f1"], [alpha_deg, np.array(p)]


def run_larmor(args):
    b_tesla = args.b_mgauss * 1e-7  # 1 mGauss = 1e-7 T
    t_grid = np.linspace(0.0, args.t_max_us * 1e-6, args.points)
    survival = [larmor_survival(b_tesla, args.g_f, t) for t in t_grid]
    return ["t_ns", "survival"], [t_grid * 1e9, np.array(survival)]


def run_bell(args):
    state = noisy_channel(bell_state("psi-"), args.noise_p)
    angles = {
        "a": math.radians(args.phi_a_deg),
        "a2": math.radians(args.phi_a2_deg),
        "b": math.radians(args.phi_b_deg),
        "b2": math.radians(args.phi_b2_deg),
    }
    settings = {k: MeasurementSetting(phi=v) for k, v in angles.items()}
    rows = []
    for pa in ("a", "a2"):
        for pb in ("b", "b2"):
            e = correlation(state, settings[pa], settings[pb])
            rows.append([pa, pb, math.degrees(angles[pa]), math.degrees(angles[pb]), e])
    s = chsh(state, settings["a"], settings["a2"], settings["b"], settings["b2"])
    rows.append(["S", "", "", "", s])
    return ["setting_a", "setting_b", "phi_a_deg", "phi_b_deg", "value"], list(zip(*rows))


def run_correlations(args):
    beta = np.radians(_parse_grid(args.beta_deg, "--beta-deg"))
    probs = correlation_curve(args.basis, beta, args.visibility)
    return ["beta_deg", "p_f1"], [np.array([math.degrees(b) for b in beta]), probs]


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
        return SpectrumProfile(frequency=data[:, 0], amplitude=data[:, 1])
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def run_spectrum_fit(args):
    reference = _read_profile(args.reference)
    fluorescence = _read_profile(args.fluorescence)
    sigma, stderr = fit_doppler_sigma(reference, fluorescence)
    e_kin = kinetic_energy_from_sigma(sigma, args.wavelength_nm * 1e-9, RB87_MASS)
    return ["quantity", "value"], [["sigma_nu_hz", "sigma_stderr_hz", "e_kin_over_kb_uk"],
                                   [sigma, stderr, e_kin * 1e6]]


def run_pair_rate(args):
    rate = pair_rate_estimate(args.eta, args.t_fiber, args.cycle_us * 1e-6,
                              args.duty_factor)
    return (["eta", "t_fiber", "cycle_us", "duty_factor", "pairs_per_min"],
            _row(args.eta, args.t_fiber, args.cycle_us, args.duty_factor, rate))


# --- the scenario table -----------------------------------------------------


class Flag(NamedTuple):
    """One flag of a scenario; its config key is the name with underscores.

    ``kind`` is float, int, str, grid (a number or 'a..b:step', parsed by
    the runner), bracket ('lo,hi'), choice or switch.  ``required`` is
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

# float check -> (rule, test of an array of values)
_RULES = {
    "positive": ("must be positive and finite (unit in the key name)", lambda v: v > 0),
    "unit": ("must lie in [0, 1]", lambda v: (0 <= v) & (v <= 1)),
    "nonnegative": ("must be nonnegative", lambda v: v >= 0),
}


def _flag_error(args, flag: Flag) -> str | None:
    """What is wrong with one flag's value, or None."""
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
    check = flag.check
    if check is None:
        return None
    if flag.kind == "choice":
        rule, ok = f"must be one of {', '.join(check)}", value in check
    elif flag.kind == "int":
        rule, ok = f"must lie in [{check[0]}, {check[1]}]", check[0] <= value <= check[1]
    else:
        rule, test = _RULES[check]
        ok = bool(np.all(test(np.asarray(values))))
    return None if ok else f"--{flag.name} {rule}, got {value!r}"


def _read_lines(args) -> list[str]:
    """Read the line data now, so --validate-only fails as the run would;
    the runner computes with the table read here."""
    args.lines = load_default_lines()
    return []


def _check_magic(args) -> list[str]:
    lo, hi = args.bracket_um
    return _read_lines(args) if 0 < lo < hi else ["--bracket-um must satisfy 0 < lo < hi"]


def _check_g2(args) -> list[str]:
    if (args.trap_power_mw is None) != (args.trap_waist_um is None):
        return ["--trap-power-mw and --trap-waist-um must be given together"]
    return [] if args.trap_power_mw is None else _read_lines(args)


_COMMON = (Flag("config", "str", help="JSON file with flag values (flags override)"),
           Flag("out", "str", help="output CSV path (default: stdout)"),
           Flag("metadata", "switch", default=False,
                help="write a JSON sidecar with resolved parameters"),
           Flag("validate-only", "switch", default=False,
                help="validate the configuration and exit"))

_TRAP_BEAM = (Flag("power-mw", required=True, check="positive"),
              Flag("waist-um", required=True, check="positive"),
              Flag("wavelength-nm", default=856.0, check="positive"))

# scenario -> (runner, scenario-level check or None, *flags); a plain tuple,
# so the runner stays reachable when a tracer rebinds it
SPECS = {
    "lightshift": (run_lightshift, _read_lines, *_TRAP_BEAM),
    "magic": (run_magic, _check_magic, Flag("bracket-um", "bracket", default=(1.2, 1.6))),
    "trap": (run_trap, _read_lines, *_TRAP_BEAM),
    "loading": (run_loading, _read_lines,
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
           Flag("icl-mw-cm2", required=True, alias="icl"),
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
    "larmor": (run_larmor, None,
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
    "spectrum-fit": (run_spectrum_fit, None,
                     Flag("reference", "str", required=True,
                          help="two-column CSV (frequency_hz, amplitude)"),
                     Flag("fluorescence", "str", required=True,
                          help="two-column CSV (frequency_hz, amplitude)"),
                     Flag("wavelength-nm", default=780.246, check="positive")),
    "pair-rate": (run_pair_rate, None,
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
    ``validation:`` line on stderr and exit 2, like every other bad input."""

    def error(self, message):
        self.exit(EXIT_VALIDATION, f"validation: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="singleatom",
        description="Single-atom dipole trap and atom-photon entanglement scenarios.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="scenario", required=True, parser_class=_Parser)
    subparsers.add_parser("list", help="list scenarios and their required keys")
    common = argparse.ArgumentParser(add_help=False)
    _add_flags(common, _COMMON)
    for name, (_, _, *flags) in SPECS.items():
        _add_flags(subparsers.add_parser(name, parents=[common]), flags)
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


def _merge_config(args: argparse.Namespace, flags) -> None:
    """Fill argparse values from the JSON config where flags kept defaults."""
    if not args.config:
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(file_values, dict):
        raise ValidationError("config file must hold a JSON object")
    by_dest = {f.dest: f for f in flags}
    for key, value in file_values.items():
        flag = by_dest.get(key.replace("-", "_"))
        if flag is None:
            raise ValidationError(f"unknown config key {key!r}")
        value = _config_value(key, value, flag)
        # a flag given on the command line wins over the file
        if getattr(args, flag.dest) == flag.default:
            setattr(args, flag.dest, value)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.scenario == "list":
        sys.stdout.write(list_scenarios())
        return EXIT_OK

    runner, check, *flags = SPECS[args.scenario]
    try:
        _merge_config(args, _COMMON + tuple(flags))
        errors = [err for flag in flags if (err := _flag_error(args, flag))]
        if not errors and check is not None:
            errors = check(args)
        if errors:
            sys.stderr.write(f"validation: {'; '.join(errors)}\n")
            return EXIT_VALIDATION
        if args.validate_only:
            sys.stdout.write("configuration ok\n")
            return EXIT_OK
        # a non-finite result is refused when the CSV is formatted
        with np.errstate(all="ignore"):
            header, columns = runner(args)
        params = {f.dest: getattr(args, f.dest) for f in flags}
        meta = _metadata(args.scenario, params) if args.metadata else None
        _write_csv(args.out, header, columns, meta)
    except (ValidationError, LineDataError) as exc:
        sys.stderr.write(f"validation: {exc}\n")
        return EXIT_VALIDATION
    except (ArithmeticError, ValueError, KeyError, RuntimeError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
