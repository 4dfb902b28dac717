"""The CLI scenarios of the line table and the trap beam: lightshift, magic,
trap and loading.  ``lightshift``, ``trapgeometry`` and ``loading`` are
imported inside the check or runner that computes with them, so a run
refused before the line table is read loads none of them.
"""

from .cli_common import MAX_POINTS, ValidationError, _derived, _named, _row
from .constants import KB, RB87_GAMMA_D2, RB87_MASS, TWO_PI


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
    # each a tuple of one flag name, as _derived and _named take them
    power_flag, waist_flag, wavelength_flag = flags = [
        (f"{prefix}{name}",) for name in ("power-mw", "waist-um", "wavelength-nm")]
    power, waist, wavelength = (getattr(args, name.replace("-", "_")) for (name,) in flags)
    floor = shortest_resolved_wavelength(args.lines)
    if wavelength * 1e-9 < floor:
        raise ValidationError(
            f"{_named(args, wavelength_flag)} is below {floor * 1e9:.3g} nm, where the"
            " light shift is lost in rounding noise")
    lengths = waist_flag + wavelength_flag
    beam = GaussianBeam(
        power=_derived(args, power_flag, "power (W)", lambda: power * 1e-3),
        waist_w0=_derived(args, waist_flag, "beam waist (m)", lambda: waist * 1e-6),
        wavelength=wavelength * 1e-9)
    # trapgeometry.harmonic_frequencies: omega^2 = factor * |U| / (m * length^2)
    w0_sq = _derived(args, waist_flag, "beam waist squared (m^2)", lambda: beam.waist_w0**2)
    zr_sq = _derived(args, lengths, "Rayleigh length squared (m^2)",
                     lambda: beam.rayleigh_length**2)
    mass_w0_sq = _derived(args, waist_flag, "atom mass times the beam waist squared (kg m^2)",
                          lambda: RB87_MASS * w0_sq)
    mass_zr_sq = _derived(args, lengths, "atom mass times the Rayleigh length squared (kg m^2)",
                          lambda: RB87_MASS * zr_sq)
    field = LaserField(wavelength=beam.wavelength, intensity=beam.peak_intensity)
    for line in args.lines.d_lines():
        if line.omega == field.omega:
            raise ValidationError(f"{_named(args, wavelength_flag)} is on the {line.label}"
                                  " line, where the light shift diverges")
    depth = _derived(args, power_flag + waist_flag, "trap depth (J)",
                     lambda: ground_shift_alkali(field, 0.5, args.lines))
    _derived(args, waist_flag + power_flag, "radial trap frequency squared ((rad/s)^2)",
             lambda: 4 * abs(depth) / mass_w0_sq)
    _derived(args, lengths + power_flag, "axial trap frequency squared ((rad/s)^2)",
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
            f"{_named(args, ('bracket-um',))} reaches below {floor * 1e6:.3g} um, where the"
            " light shifts cancel to rounding noise")


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
    flags = ("temperature-uk", "power-mw", "waist-um")
    ratio = _derived(args, flags, "ratio kB T / U",
                     lambda: KB * (args.temperature_uk * 1e-6) / args.trap.depth_u)
    if ratio >= 1.0:
        raise ValidationError(f"{_named(args, flags)}: the ratio kB T / U = {ratio:.3g} is not"
                              " below 1: sample not trapped")


# scenario -> (runner, check)
RUNS = {"lightshift": (run_lightshift, _check_beam), "magic": (run_magic, _check_magic),
        "trap": (run_trap, _check_beam), "loading": (run_loading, _check_loading)}
