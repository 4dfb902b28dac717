"""The CLI scenarios of the closed forms of ``readout``: stirap, larmor,
bell, correlations and pair-rate, on the standard library alone.
"""

import math

from .cli_common import _derived, _resolved_phase, _row
from .constants import linspace
from .readout import (correlation_curve, cos_sin_degrees, larmor_frequency, larmor_survival,
                      pair_rate_estimate, singlet_chsh, stirap_readout_probability)


def _radians(degrees: float) -> float:
    """Degrees as radians, reduced exactly (``math.fmod``) modulo 360 first:
    the error of ``math.radians`` alone grows like eps * x and passes a full
    turn near x = 1e19 degrees.  Below 360 degrees nothing changes."""
    return math.radians(math.fmod(degrees, 360.0))


def run_stirap(args):
    alpha_deg = args.alpha_deg_grid
    p = [args.visibility * stirap_readout_probability(args.prep_phase_rad, _radians(a))
         for a in alpha_deg]
    return ["alpha_deg", "p_f1"], [alpha_deg, p]


def run_larmor(args):
    b_tesla = args.b_mgauss * 1e-7  # 1 mGauss = 1e-7 T
    t_grid = linspace(args.t_max_us * 1e-6, args.points)
    survival = [larmor_survival(b_tesla, args.g_f, t) for t in t_grid]
    return ["t_ns", "survival"], [[t * 1e9 for t in t_grid], survival]


def run_bell(args):
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
    beta_deg = args.beta_deg_grid
    probs = correlation_curve(args.basis, map(_radians, beta_deg), args.visibility)
    # the angle column prints each input's round trip through radians, unreduced
    return ["beta_deg", "p_f1"], [[math.degrees(math.radians(b)) for b in beta_deg], probs]


def run_pair_rate(args):
    return (["eta", "t_fiber", "cycle_us", "duty_factor", "pairs_per_min"],
            _row(args.eta, args.t_fiber, args.cycle_us, args.duty_factor, args.pairs_per_min))


def _check_larmor(args) -> None:
    """The step of the time grid, as for g2, and the Larmor phase at the
    longest time, whose cosine the run takes (``_resolved_phase``)."""
    _derived(args, ("t-max-us", "points"), "time step (s)",
             lambda: args.t_max_us * 1e-6 / (args.points - 1))
    _resolved_phase(args, ("b-mgauss", "g-f", "t-max-us"), "Larmor phase at the longest time",
                    larmor_frequency(args.b_mgauss * 1e-7, args.g_f) * (args.t_max_us * 1e-6))


def _check_pair_rate(args) -> None:
    """The pairs per minute are derived here; the runner reads them as
    ``args.pairs_per_min``."""
    rate = pair_rate_estimate(args.eta, args.t_fiber, args.cycle_us * 1e-6, args.duty_factor)
    # no detection, fiber transmission or duty gives exactly 0 pairs: a result
    args.pairs_per_min = rate if rate == 0 else _derived(
        args, ("eta", "cycle-us"), "pair rate (1/min)", lambda: rate)


# scenario -> (runner, check or None)
RUNS = {"stirap": (run_stirap, None), "larmor": (run_larmor, _check_larmor),
        "bell": (run_bell, None), "correlations": (run_correlations, None),
        "pair-rate": (run_pair_rate, _check_pair_rate)}
