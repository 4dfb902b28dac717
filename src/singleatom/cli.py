"""Scenario runner: parse a config, dispatch one computation, write CSV.

All boundary values use lab units encoded in the flag names (MHz, mW,
mW/cm^2, um, uK, ns, mGauss); conversion to SI happens here, once.  A JSON
config file may supply any flag value (keys match the long flag names with
underscores); explicit command-line flags override the file.  Outputs are
deterministic: identical inputs give byte-identical files.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

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
    RB87_LAMBDA_D2,
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
from .integrator import IntegrationError
from .lightshift import (
    LaserField,
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

SCENARIOS = (
    "lightshift", "magic", "trap", "loading", "g2", "stirap",
    "larmor", "bell", "correlations", "spectrum-fit", "pair-rate",
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class ValidationError(Exception):
    """Bad configuration; reported with exit code 2 before any output."""


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_csv(path: str | None, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _time_evolution(scenario: str, params: dict) -> dict:
    """The time-evolution method a run used, for the metadata sidecar.

    Only the g2 Bloch models evolve a state, and they do so exactly; no
    scenario integrates with RK45 (the STIRAP readout is a closed form).
    """
    if scenario == "g2" and params["model"] != "two-level-analytic":
        return {"method": "eigen-propagator"}
    return {"method": "none"}


def _write_metadata(out_path: str, scenario: str, params: dict) -> None:
    meta = {
        "scenario": scenario,
        "library_version": __version__,
        "integrator": _time_evolution(scenario, params),
        "parameters": {k: params[k] for k in sorted(params)},
    }
    with open(out_path + ".meta.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_grid(spec: str, name: str) -> np.ndarray:
    """Parse 'start..stop:step' (inclusive endpoints) or a single number."""
    try:
        if ".." in spec:
            span, step = spec.split(":")
            start, stop = span.split("..")
            start, stop, step = float(start), float(stop), float(step)
            if step <= 0 or stop < start:
                raise ValueError
            n = int(round((stop - start) / step))
            return start + step * np.arange(n + 1)
        return np.array([float(spec)])
    except ValueError as exc:
        raise ValidationError(
            f"{name}: expected a number or 'start..stop:step', got {spec!r}"
        ) from exc


def _require(args, names: list[str]) -> list[str]:
    missing = [n for n in names if getattr(args, n.replace("-", "_"), None) is None]
    return [f"missing required key --{n}" for n in missing]


def _positive(args, names: list[str]) -> list[str]:
    errors = []
    for n in names:
        value = getattr(args, n.replace("-", "_"), None)
        if value is not None and not (math.isfinite(value) and value > 0):
            errors.append(
                f"--{n} must be positive and finite (unit in the key name), got {value}")
    return errors


# --- scenario runners -------------------------------------------------------


def _trap_field(args) -> LaserField:
    beam = GaussianBeam(power=args.power_mw * 1e-3,
                        waist_w0=args.waist_um * 1e-6,
                        wavelength=args.wavelength_nm * 1e-9)
    return LaserField(wavelength=beam.wavelength,
                      intensity=beam.peak_intensity, epsilon=0)


def run_lightshift(args):
    field = _trap_field(args)
    lines = load_default_lines()
    depth = ground_shift_alkali(field, 0.5, lines)
    rate = scattering_rate_alkali(field, lines)
    header = ["wavelength_nm", "power_mw", "waist_um", "depth_mk", "scatter_per_s"]
    row = [args.wavelength_nm, args.power_mw, args.waist_um,
           abs(depth) / KB * 1e3, rate]
    return header, [row]


def validate_lightshift(args):
    return _require(args, ["wavelength-nm", "power-mw", "waist-um"]) + _positive(
        args, ["wavelength-nm", "power-mw", "waist-um"])


def run_magic(args):
    lo, hi = args.bracket_um
    lines = load_default_lines()
    magic = find_magic_wavelength(lines, (lo * 1e-6, hi * 1e-6))
    return ["bracket_lo_um", "bracket_hi_um", "magic_um"], [[lo, hi, magic * 1e6]]


def validate_magic(args):
    errors = []
    if args.bracket_um is None:
        errors.append("missing required key --bracket-um")
    else:
        lo, hi = args.bracket_um
        if not 0 < lo < hi:
            errors.append("--bracket-um must satisfy 0 < lo < hi")
    return errors


def run_trap(args):
    field = _trap_field(args)
    lines = load_default_lines()
    beam = GaussianBeam(power=args.power_mw * 1e-3, waist_w0=args.waist_um * 1e-6,
                        wavelength=args.wavelength_nm * 1e-9)
    depth = abs(ground_shift_alkali(field, 0.5, lines))
    trap = TrapSpec.from_beam(beam, depth, RB87_MASS)
    omega_r, omega_z = harmonic_frequencies(trap)
    rate = scattering_rate_alkali(field, lines)
    t_rec = recoil_temperature(RB87_LAMBDA_D2, RB87_MASS)
    header = ["depth_mk", "omega_r_khz", "omega_z_khz", "scatter_per_s",
              "t_doppler_uk", "t_recoil_nk", "heating_uk_per_s"]
    row = [depth / KB * 1e3,
           omega_r / TWO_PI / 1e3,
           omega_z / TWO_PI / 1e3,
           rate,
           doppler_temperature(RB87_GAMMA_D2) * 1e6,
           t_rec * 1e9,
           heating_rate(t_rec, rate) * 1e6]
    return header, [row]


validate_trap = validate_lightshift


def run_loading(args):
    field = _trap_field(args)
    lines = load_default_lines()
    beam = GaussianBeam(power=args.power_mw * 1e-3, waist_w0=args.waist_um * 1e-6,
                        wavelength=args.wavelength_nm * 1e-9)
    depth = abs(ground_shift_alkali(field, 0.5, lines))
    trap = TrapSpec.from_beam(beam, depth, RB87_MASS)
    volume = trap_volume(trap, args.temperature_uk * 1e-6)
    rows = []
    for r in _parse_grid(args.rate_per_s, "--rate-per-s"):
        params = LoadingParams(loading_rate=float(r), gamma=args.gamma_per_s,
                               beta=args.beta_cm3_s * 1e-6, volume=volume,
                               n_max=args.n_max)
        dist = stationary_distribution(params)
        rows.append([r, dist.mean] + list(dist.probabilities))
    header = ["rate_per_s", "mean"] + [f"p{n}" for n in range(args.n_max + 1)]
    return header, rows


def validate_loading(args):
    errors = _require(args, ["rate-per-s", "power-mw", "waist-um"])
    errors += _positive(args, ["power-mw", "waist-um", "wavelength-nm",
                               "temperature-uk", "beta-cm3-s"])
    if args.gamma_per_s is not None and args.gamma_per_s < 0:
        errors.append("--gamma-per-s must be nonnegative")
    if args.n_max is not None and args.n_max < 1:
        errors.append("--n-max must be at least 1")
    return errors


def _four_level_params(args) -> FourLevelParams:
    params = FourLevelParams(
        i_cl=intensity_from_mw_cm2(args.icl_mw_cm2),
        i_rl=intensity_from_mw_cm2(args.irl_mw_cm2),
        delta_cl=TWO_PI * args.delta_mhz * 1e6,
        delta_rl=TWO_PI * args.delta_rl_mhz * 1e6,
    )
    if args.trap_power_mw is not None:
        beam = GaussianBeam(power=args.trap_power_mw * 1e-3,
                            waist_w0=args.trap_waist_um * 1e-6,
                            wavelength=args.trap_wavelength_nm * 1e-9)
        field = LaserField(wavelength=beam.wavelength,
                           intensity=beam.peak_intensity, epsilon=0)
        params = apply_trap_shifts(params, field,
                                   kinetic_reduction=args.kinetic_uk * 1e-6)
    return params


def run_g2(args):
    tau = np.linspace(0.0, args.tau_max_ns * 1e-9, args.points)
    gamma = RB87_GAMMA_D2
    if args.model == "two-level-analytic":
        omega3 = FourLevelParams(
            i_cl=intensity_from_mw_cm2(args.icl_mw_cm2), i_rl=0.0,
            delta_cl=0.0).rabi_frequencies[2]
        g2 = two_level_g2_analytic(omega3, TWO_PI * args.delta_mhz * 1e6, gamma, tau)
    elif args.model == "two-level-obe":
        omega3 = FourLevelParams(
            i_cl=intensity_from_mw_cm2(args.icl_mw_cm2), i_rl=0.0,
            delta_cl=0.0).rabi_frequencies[2]
        g2 = two_level_obe_g2(omega3, TWO_PI * args.delta_mhz * 1e6, gamma, tau)
    elif args.model == "four-level":
        g2 = four_level_g2(_four_level_params(args), tau)
    else:  # full
        env = DiffusionEnvelope(amplitude=args.env_a, tau0=args.env_tau_us * 1e-6)
        g2 = g2_full_model(_four_level_params(args), env, tau)
    rows = [[t * 1e9, v] for t, v in zip(tau, g2)]
    return ["tau_ns", "g2"], rows


def validate_g2(args):
    errors = _require(args, ["delta-mhz", "icl-mw-cm2"])
    if args.model not in ("two-level-analytic", "two-level-obe", "four-level", "full"):
        errors.append(f"unknown model {args.model!r}")
    errors += _positive(args, ["tau-max-ns", "irl-mw-cm2"])
    if args.points is not None and args.points < 2:
        errors.append("--points must be at least 2")
    if args.model == "full":
        errors += _require(args, ["env-a", "env-tau-us"])
        errors += _positive(args, ["env-tau-us"])
    if (args.trap_power_mw is None) != (args.trap_waist_um is None):
        errors.append("--trap-power-mw and --trap-waist-um must be given together")
    return errors


def run_stirap(args):
    rows = []
    for alpha_deg in _parse_grid(args.alpha_deg, "--alpha-deg"):
        alpha = math.radians(alpha_deg)
        p = args.visibility * stirap_readout_probability(args.prep_phase_rad, alpha)
        rows.append([alpha_deg, p])
    return ["alpha_deg", "p_f1"], rows


def validate_stirap(args):
    errors = _require(args, ["alpha-deg"])
    if args.visibility is not None and not 0.0 <= args.visibility <= 1.0:
        errors.append("--visibility must lie in [0, 1]")
    return errors


def run_larmor(args):
    b_tesla = args.b_mgauss * 1e-7  # 1 mGauss = 1e-7 T
    t_grid = np.linspace(0.0, args.t_max_us * 1e-6, args.points)
    rows = [[t * 1e9, larmor_survival(b_tesla, args.g_f, t)] for t in t_grid]
    return ["t_ns", "survival"], rows


def validate_larmor(args):
    errors = _require(args, ["b-mgauss"])
    errors += _positive(args, ["t-max-us"])
    if args.points is not None and args.points < 2:
        errors.append("--points must be at least 2")
    return errors


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
    return ["setting_a", "setting_b", "phi_a_deg", "phi_b_deg", "value"], rows


def validate_bell(args):
    if args.noise_p is not None and not 0.0 <= args.noise_p <= 1.0:
        return ["--noise-p must lie in [0, 1]"]
    return []


def run_correlations(args):
    beta = np.radians(_parse_grid(args.beta_deg, "--beta-deg"))
    probs = correlation_curve(args.basis, beta, args.visibility)
    rows = [[math.degrees(b), p] for b, p in zip(beta, probs)]
    return ["beta_deg", "p_f1"], rows


def validate_correlations(args):
    errors = _require(args, ["beta-deg"])
    if args.basis not in ("x", "y"):
        errors.append("--basis must be 'x' or 'y'")
    if args.visibility is not None and not 0.0 <= args.visibility <= 1.0:
        errors.append("--visibility must lie in [0, 1]")
    return errors


def _read_profile(path: str) -> SpectrumProfile:
    data = np.loadtxt(path, delimiter=",", comments="#", skiprows=0)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValidationError(f"{path}: expected two CSV columns (frequency_hz, amplitude)")
    return SpectrumProfile(frequency=data[:, 0], amplitude=data[:, 1])


def run_spectrum_fit(args):
    reference = _read_profile(args.reference)
    fluorescence = _read_profile(args.fluorescence)
    sigma, stderr = fit_doppler_sigma(reference, fluorescence)
    e_kin = kinetic_energy_from_sigma(sigma, args.wavelength_nm * 1e-9, RB87_MASS)
    rows = [["sigma_nu_hz", sigma],
            ["sigma_stderr_hz", stderr],
            ["e_kin_over_kb_uk", e_kin * 1e6]]
    return ["quantity", "value"], rows


def validate_spectrum_fit(args):
    errors = _require(args, ["reference", "fluorescence"])
    errors += _positive(args, ["wavelength-nm"])
    return errors


def run_pair_rate(args):
    rate = pair_rate_estimate(args.eta, args.t_fiber, args.cycle_us * 1e-6,
                              args.duty_factor)
    return (["eta", "t_fiber", "cycle_us", "duty_factor", "pairs_per_min"],
            [[args.eta, args.t_fiber, args.cycle_us, args.duty_factor, rate]])


def validate_pair_rate(args):
    errors = _require(args, ["eta"])
    if args.eta is not None and not 0.0 <= args.eta <= 1.0:
        errors.append("--eta out of range [0, 1]")
    if args.t_fiber is not None and not 0.0 <= args.t_fiber <= 1.0:
        errors.append("--t-fiber out of range [0, 1]")
    if args.duty_factor is not None and not 0.0 <= args.duty_factor <= 1.0:
        errors.append("--duty-factor out of range [0, 1]")
    errors += _positive(args, ["cycle-us"])
    return errors


_RUNNERS = {
    "lightshift": (run_lightshift, validate_lightshift),
    "magic": (run_magic, validate_magic),
    "trap": (run_trap, validate_trap),
    "loading": (run_loading, validate_loading),
    "g2": (run_g2, validate_g2),
    "stirap": (run_stirap, validate_stirap),
    "larmor": (run_larmor, validate_larmor),
    "bell": (run_bell, validate_bell),
    "correlations": (run_correlations, validate_correlations),
    "spectrum-fit": (run_spectrum_fit, validate_spectrum_fit),
    "pair-rate": (run_pair_rate, validate_pair_rate),
}


# --- argument parsing -------------------------------------------------------


def _add_trap_flags(p):
    p.add_argument("--power-mw", type=float)
    p.add_argument("--waist-um", type=float)
    p.add_argument("--wavelength-nm", type=float, default=856.0)


def _bracket(value: str):
    parts = value.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected 'lo,hi' in um")
    return float(parts[0]), float(parts[1])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singleatom",
        description="Single-atom dipole trap and atom-photon entanglement scenarios.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subactions = parser.add_subparsers(dest="scenario")
    parser.scenario_parsers = {}

    subactions.add_parser("list", help="list scenarios and their required keys")

    def sub_add_parser(name, **kwargs):
        child = subactions.add_parser(name, **kwargs)
        parser.scenario_parsers[name] = child
        return child

    class _Sub:
        add_parser = staticmethod(sub_add_parser)

    sub = _Sub()

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with flag values (flags override)")
    common.add_argument("--out", help="output CSV path (default: stdout)")
    common.add_argument("--metadata", action="store_true",
                        help="write a JSON sidecar with resolved parameters")
    common.add_argument("--validate-only", action="store_true",
                        help="validate the configuration and exit")

    p = sub.add_parser("lightshift", parents=[common])
    _add_trap_flags(p)

    p = sub.add_parser("magic", parents=[common])
    p.add_argument("--bracket-um", type=_bracket, default=(1.2, 1.6))

    p = sub.add_parser("trap", parents=[common])
    _add_trap_flags(p)

    p = sub.add_parser("loading", parents=[common])
    _add_trap_flags(p)
    p.add_argument("--rate-per-s", help="loading rate R, number or 'a..b:step'")
    p.add_argument("--gamma-per-s", type=float, default=0.2)
    p.add_argument("--beta-cm3-s", type=float, default=5e-10)
    p.add_argument("--temperature-uk", type=float, default=100.0)
    p.add_argument("--n-max", type=int, default=5)

    p = sub.add_parser("g2", parents=[common])
    p.add_argument("--model", default="four-level",
                   choices=["two-level-analytic", "two-level-obe", "four-level", "full"])
    p.add_argument("--delta-mhz", type=float, help="cooling detuning / 2pi (MHz)")
    p.add_argument("--delta-rl-mhz", type=float, default=0.0)
    p.add_argument("--icl-mw-cm2", "--icl", type=float, dest="icl_mw_cm2")
    p.add_argument("--irl-mw-cm2", "--irl", type=float, dest="irl_mw_cm2", default=12.0)
    p.add_argument("--tau-max-ns", type=float, default=200.0)
    p.add_argument("--points", type=int, default=801)
    p.add_argument("--env-a", type=float)
    p.add_argument("--env-tau-us", type=float)
    p.add_argument("--trap-power-mw", type=float)
    p.add_argument("--trap-waist-um", type=float)
    p.add_argument("--trap-wavelength-nm", type=float, default=856.0)
    p.add_argument("--kinetic-uk", type=float, default=100.0)

    p = sub.add_parser("stirap", parents=[common])
    p.add_argument("--alpha-deg", help="polarization angle, number or 'a..b:step'")
    p.add_argument("--visibility", type=float, default=1.0)
    p.add_argument("--prep-phase-rad", type=float, default=0.0)

    p = sub.add_parser("larmor", parents=[common])
    p.add_argument("--b-mgauss", type=float)
    p.add_argument("--g-f", type=float, default=-0.5)
    p.add_argument("--t-max-us", type=float, default=10.0)
    p.add_argument("--points", type=int, default=501)

    p = sub.add_parser("bell", parents=[common])
    p.add_argument("--phi-a-deg", type=float, default=0.0)
    p.add_argument("--phi-a2-deg", type=float, default=90.0)
    p.add_argument("--phi-b-deg", type=float, default=45.0)
    p.add_argument("--phi-b2-deg", type=float, default=135.0)
    p.add_argument("--noise-p", type=float, default=1.0)

    p = sub.add_parser("correlations", parents=[common])
    p.add_argument("--basis", default="x")
    p.add_argument("--beta-deg", help="waveplate angle, number or 'a..b:step'")
    p.add_argument("--visibility", type=float, default=1.0)

    p = sub.add_parser("spectrum-fit", parents=[common])
    p.add_argument("--reference", help="two-column CSV (frequency_hz, amplitude)")
    p.add_argument("--fluorescence", help="two-column CSV (frequency_hz, amplitude)")
    p.add_argument("--wavelength-nm", type=float, default=780.246)

    p = sub.add_parser("pair-rate", parents=[common])
    p.add_argument("--eta", type=float)
    p.add_argument("--t-fiber", type=float, default=math.sqrt(0.95))
    p.add_argument("--cycle-us", type=float, default=1.0)
    p.add_argument("--duty-factor", type=float, default=1.0)

    return parser


_REQUIRED_KEYS = {
    "lightshift": "power-mw, waist-um, wavelength-nm",
    "magic": "bracket-um",
    "trap": "power-mw, waist-um, wavelength-nm",
    "loading": "rate-per-s, power-mw, waist-um",
    "g2": "model, delta-mhz, icl-mw-cm2",
    "stirap": "alpha-deg",
    "larmor": "b-mgauss",
    "bell": "(canonical angles by default)",
    "correlations": "basis, beta-deg",
    "spectrum-fit": "reference, fluorescence",
    "pair-rate": "eta",
}


def list_scenarios() -> str:
    lines = [f"{name}: {_REQUIRED_KEYS[name]}" for name in SCENARIOS]
    return "\n".join(lines) + "\n"


def _merge_config(args: argparse.Namespace, parser_defaults: dict) -> None:
    """Fill argparse values from the JSON config where flags kept defaults."""
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(file_values, dict):
        raise ValidationError("config file must hold a JSON object")
    known = set(vars(args))
    for key, value in file_values.items():
        attr = key.replace("-", "_")
        if attr not in known:
            raise ValidationError(f"unknown config key {key!r}")
        # a flag given on the command line wins over the file
        if getattr(args, attr) == parser_defaults.get(attr):
            setattr(args, attr, value)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.scenario is None:
        parser.print_help()
        return EXIT_VALIDATION
    if args.scenario == "list":
        sys.stdout.write(list_scenarios())
        return EXIT_OK

    runner, validator = _RUNNERS[args.scenario]
    scenario_parser = parser.scenario_parsers[args.scenario]
    try:
        defaults = {key: scenario_parser.get_default(key) for key in vars(args)}
        _merge_config(args, defaults)
        errors = validator(args)
        if errors:
            for err in errors:
                sys.stderr.write(f"validation: {err}\n")
            return EXIT_VALIDATION
        if args.validate_only:
            sys.stdout.write("configuration ok\n")
            return EXIT_OK
    except ValidationError as exc:
        sys.stderr.write(f"validation: {exc}\n")
        return EXIT_VALIDATION

    try:
        header, rows = runner(args)
    except ValidationError as exc:
        sys.stderr.write(f"validation: {exc}\n")
        return EXIT_VALIDATION
    except (ValueError, KeyError, RuntimeError, IntegrationError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL

    _write_csv(args.out, header, rows)
    if args.metadata and args.out:
        params = {
            k: v for k, v in vars(args).items()
            if k not in ("scenario", "config", "out", "metadata", "validate_only")
        }
        _write_metadata(args.out, args.scenario, params)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
