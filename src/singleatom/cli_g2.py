"""The CLI's g2 scenario.  Each model imports its own kernel: ``readout``
for the two-level closed form, ``obe`` for the Bloch models, and
``cli_beam`` with the line-table layers only with a trap beam.
"""

import math
from operator import mul

from .cli_common import ValidationError, _derived, _named, _normal, _resolved_phase
from .constants import (RB87_GAMMA_D2, RB87_ISAT_F2_F3, TWO_PI, intensity_from_mw_cm2,
                        linspace, rabi_frequency)


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


def _check_g2(args) -> None:
    """The step of the delay grid (``constants.linspace``) is derived here,
    for every model: one that underflows to 0 leaves no uniform grid, and a
    subnormal one a grid whose printed delays lose digits (``_normal``).  With
    a trap beam, the four-level and full models' trap shifts are computed
    here, at the line table's hyperfine-resolved detunings, so a trap
    wavelength on such a line fails --validate-only as the run would; the
    runner reads them as ``args.shifts``.  A cooling drive that is off
    (--icl-mw-cm2 0) excites nothing, so g2 is not defined: every model
    refuses it.  The rates (rad/s) that the model computes from its drive
    flags are derived here too, each from a nonzero flag: the cooling
    detuning and Rabi rate on F=2 -> F'=3 (the two-level drive) and, for the
    four-level and full models, the repump detuning and the other two Rabi
    rates.  The runner reads them as ``args.delta``,
    ``args.delta_rl`` and ``args.rabi`` (the Rabi argument of the model's
    kernel).  The two-level models print cosines of the generalized Rabi
    phase sqrt(rabi^2 + delta^2) tau, which is refused at the longest delay
    as larmor refuses its phase.  They square the detuning and the
    generalized Rabi rate, sqrt(rabi^2 + delta^2): a square that overflows is
    refused."""
    if (args.trap_power_mw is None) != (args.trap_waist_um is None):
        raise ValidationError("--trap-power-mw and --trap-waist-um must be given together")
    _normal(args, ("tau-max-ns", "points"), "delay step (s)",
            lambda: args.tau_max_ns * 1e-9 / (args.points - 1))
    args.delta = TWO_PI * args.delta_mhz * 1e6
    try:  # the two-level models square the detuning in rad/s
        args.delta ** 2
    except OverflowError:
        raise ValidationError(
            f"{_named(args, ('delta-mhz',))}: the detuning squared ((rad/s)^2) overflows"
        ) from None
    args.shifts = (0.0, 0.0, 0.0, 0.0)
    if args.trap_power_mw is not None:
        from .cli_beam import _check_beam

        _check_beam(args, "trap-")
        if args.model in ("four-level", "full"):
            from .obe import trap_shifts

            try:  # the line shifts at hyperfine-resolved detunings
                args.shifts = trap_shifts(args.field, args.lines, args.depth,
                                          args.kinetic_uk * 1e-6)
            except ValueError as exc:
                raise ValidationError(
                    f"{_named(args, ('trap-wavelength-nm',))}: {exc}") from exc
    if args.icl_mw_cm2 == 0:
        raise ValidationError(
            "--icl-mw-cm2 0: no steady-state excitation: the cooling drive is off")
    # (flag, quantity, rate) of each drive rate the model computes
    icl = intensity_from_mw_cm2(args.icl_mw_cm2)
    drive = [("delta-mhz", "cooling detuning (rad/s)", args.delta)]
    two_level = args.model not in ("four-level", "full")
    if two_level:
        args.rabi = rabi_frequency(icl, RB87_ISAT_F2_F3)
        drive.append(("icl-mw-cm2", "cooling Rabi rate on F=2 -> F'=3 (rad/s)", args.rabi))
    else:
        from .obe import _four_level_rabi

        args.delta_rl = TWO_PI * args.delta_rl_mhz * 1e6
        args.rabi = _four_level_rabi(icl, intensity_from_mw_cm2(args.irl_mw_cm2))
        drive += [("delta-rl-mhz", "repump detuning (rad/s)", args.delta_rl),
                  ("irl-mw-cm2", "repump Rabi rate on F=1 -> F'=2 (rad/s)", args.rabi[0]),
                  ("icl-mw-cm2", "cooling Rabi rate on F=2 -> F'=2 (rad/s)", args.rabi[1]),
                  ("icl-mw-cm2", "cooling Rabi rate on F=2 -> F'=3 (rad/s)", args.rabi[2])]
    for flag, quantity, rate in drive:
        # a detuning of 0 is resonance, not an underflow
        if getattr(args, flag.replace("-", "_")) != 0:
            _derived(args, (flag,), quantity, lambda: rate)
    if two_level:
        _resolved_phase(args, ("icl-mw-cm2", "delta-mhz", "tau-max-ns"),
                        "generalized Rabi phase at the longest delay",
                        math.hypot(args.rabi, args.delta) * (args.tau_max_ns * 1e-9))
        # both rates are finite here, and the smallest Rabi rate that passes squares to 7e-309
        _derived(args, ("icl-mw-cm2", "delta-mhz"), "generalized Rabi rate squared ((rad/s)^2)",
                 lambda: args.rabi ** 2 + args.delta ** 2)


# scenario -> (runner, check)
RUNS = {"g2": (run_g2, _check_g2)}
