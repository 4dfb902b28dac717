"""Seeded inputs of the three benchmark workloads.

Every workload is a fixed-length *deck* of units drawn from the seed; the
measured loop cycles through the deck in order.  The parameters that set a
unit's cost are stratified over the deck and the mix of unit kinds is a
fixed multiset, so every seed gives a deck of about the same cost and the
run-to-run spread comes from the machine, not from the draw.  Only the
standard library is used here, so the draws do not depend on numpy.

A CLI unit is a dict with

- ``scenario``: the CLI sub-command;
- ``params``: flag name (without ``--``) -> value, as the oracle reads them;
- ``mode``: ``run`` (compute and write the CSV), ``validate`` (pass
  ``--validate-only``) or ``invalid`` (one finite out-of-range value that
  must exit 2);
- ``config``: whether ``params`` travel in a ``--config`` JSON file;
- ``metadata``: whether ``--metadata`` is passed;
- ``spectrum``: for spectrum-fit, the generated line's parameters; its
  reference and fluorescence CSVs are written before timing.

Non-finite values (nan, inf) are never drawn: the CLI does not reject them
yet, and ``g2 --tau-max-ns nan`` hangs.  They belong to a property test of
the CLI, not to a timed workload.
"""

from __future__ import annotations

import random

WORKLOADS = ("cli-quick", "cli-g2-long", "lib-sweep")

SWEEP_POINTS = 12  # study points in a lib-sweep deck

QUICK_KINDS = (
    "list", "lightshift", "trap", "magic", "loading", "stirap", "larmor",
    "bell", "correlations", "spectrum-fit", "pair-rate", "g2-analytic",
)

# (scenario, params) of each out-of-range draw; every one breaks exactly one
# validation rule, so the CLI must print exactly one line to stderr
INVALID_DRAWS = (
    ("trap", {"power-mw": -20.0, "waist-um": 3.5}),
    ("lightshift", {"power-mw": 30.0, "waist-um": 0.0}),
    ("stirap", {"alpha-deg": "0..90:15", "visibility": 1.25}),
    ("bell", {"noise-p": 1.5}),
    ("pair-rate", {"eta": 1.4}),
    ("larmor", {"b-mgauss": 100.0, "t-max-us": -2.0}),
    ("loading", {"rate-per-s": "0.1..0.5:0.1", "power-mw": 40.0,
                 "waist-um": 3.0, "n-max": 0}),
    ("g2", {"delta-mhz": -20.0, "icl-mw-cm2": 80.0, "points": 1}),
    ("magic", {"bracket-um": "1.6,1.2"}),
    ("correlations", {"beta-deg": "0..90:10", "visibility": -0.3}),
)


def rng_for(workload: str, seed: int) -> random.Random:
    """Generator of one workload's draws; string seeding is stable across runs."""
    return random.Random(f"{workload}:{seed}")


def strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n values, one in each of n equal slices of [lo, hi], in seeded order."""
    order = list(range(n))
    rng.shuffle(order)
    return [lo + (hi - lo) * (k + rng.random()) / n for k in order]


def _r(x: float, digits: int = 4) -> float:
    return round(x, digits)


def _quick_run_unit(kind: str, rng: random.Random, index: int) -> dict:
    spectrum = None
    if kind == "list":
        return {"scenario": "list", "params": {}, "mode": "run",
                "config": False, "metadata": False, "spectrum": None}
    if kind in ("lightshift", "trap"):
        params = {"power-mw": _r(rng.uniform(10.0, 60.0)),
                  "waist-um": _r(rng.uniform(2.5, 5.0)),
                  "wavelength-nm": _r(rng.uniform(820.0, 1064.0), 2)}
    elif kind == "magic":
        params = {"bracket-um": f"{_r(rng.uniform(1.15, 1.3), 3)},"
                                f"{_r(rng.uniform(1.5, 1.7), 3)}"}
    elif kind == "loading":
        lo = _r(rng.uniform(0.05, 0.3), 3)
        step = _r(rng.uniform(0.05, 0.15), 3)
        params = {"rate-per-s": f"{lo}..{_r(lo + 5 * step, 3)}:{step}",
                  "power-mw": _r(rng.uniform(20.0, 60.0)),
                  "waist-um": _r(rng.uniform(2.5, 4.0)),
                  "n-max": rng.randint(3, 8)}
    elif kind == "stirap":
        step = rng.choice((2.5, 5.0, 7.5, 10.0))
        params = {"alpha-deg": f"0..180:{step}",
                  "visibility": _r(rng.uniform(0.5, 1.0)),
                  "prep-phase-rad": _r(rng.uniform(0.0, 3.14))}
    elif kind == "larmor":
        params = {"b-mgauss": _r(rng.uniform(20.0, 200.0), 2),
                  "t-max-us": _r(rng.uniform(2.0, 20.0), 2),
                  "points": rng.randint(101, 1001)}
    elif kind == "bell":
        if rng.random() < 0.5:
            params = {"noise-p": _r(rng.uniform(0.5, 1.0))}
        else:
            params = {"noise-p": _r(rng.uniform(0.5, 1.0)),
                      "phi-a-deg": _r(rng.uniform(0.0, 180.0), 2),
                      "phi-a2-deg": _r(rng.uniform(0.0, 180.0), 2),
                      "phi-b-deg": _r(rng.uniform(0.0, 180.0), 2),
                      "phi-b2-deg": _r(rng.uniform(0.0, 180.0), 2)}
    elif kind == "correlations":
        params = {"basis": rng.choice(("x", "y")),
                  "beta-deg": f"0..180:{rng.choice((1.0, 2.5, 5.0))}",
                  "visibility": _r(rng.uniform(0.6, 1.0))}
    elif kind == "spectrum-fit":
        spectrum = {"e_kin_uk": _r(rng.uniform(60.0, 160.0), 2),
                    "laser_fwhm_mhz": _r(rng.uniform(0.3, 0.6), 3)}
        params = {"reference": f"u{index:03d}_ref.csv",
                  "fluorescence": f"u{index:03d}_fluor.csv"}
    elif kind == "pair-rate":
        params = {"eta": _r(rng.uniform(1e-4, 1e-2), 6),
                  "t-fiber": _r(rng.uniform(0.5, 1.0)),
                  "cycle-us": _r(rng.uniform(0.5, 5.0)),
                  "duty-factor": _r(rng.uniform(0.1, 1.0))}
    elif kind == "g2-analytic":
        params = {"model": "two-level-analytic",
                  "delta-mhz": _r(rng.uniform(-40.0, 40.0), 3),
                  "icl-mw-cm2": _r(rng.uniform(20.0, 200.0), 3),
                  "tau-max-ns": _r(rng.uniform(100.0, 1000.0), 2),
                  "points": rng.randint(201, 2001)}
    else:
        raise ValueError(f"unknown cli-quick kind {kind!r}")
    scenario = "g2" if kind == "g2-analytic" else kind
    # a --config file cannot carry --bracket-um: the CLI does not parse
    # config values through the flag's type
    use_config = rng.random() < 0.2 and kind != "magic"
    return {"scenario": scenario, "params": params, "mode": "run",
            "config": use_config, "metadata": rng.random() < 0.2,
            "spectrum": spectrum}


def cli_quick_deck(seed: int) -> list[dict]:
    """Many short invocations: 12 kinds twice, 3 --validate-only, 3 invalid."""
    rng = rng_for("cli-quick", seed)
    kinds = [("run", k) for k in QUICK_KINDS] * 2
    kinds += [("validate", None)] * 3 + [("invalid", None)] * 3
    rng.shuffle(kinds)
    invalid = list(INVALID_DRAWS)
    rng.shuffle(invalid)
    deck = []
    for index, (mode, kind) in enumerate(kinds):
        if mode == "run":
            deck.append(_quick_run_unit(kind, rng, index))
        elif mode == "validate":
            kind = rng.choice([k for k in QUICK_KINDS if k != "list"])
            unit = _quick_run_unit(kind, rng, index)
            unit.update(mode="validate", metadata=False)
            deck.append(unit)
        else:
            scenario, params = invalid.pop()
            deck.append({"scenario": scenario, "params": dict(params),
                         "mode": "invalid", "config": False,
                         "metadata": False, "spectrum": None})
    return deck


# cli-g2-long class pattern: T = four-level/full with a trap field,
# N = four-level/full without, O = two-level-obe.  The interleaving keeps
# every prefix of the deck balanced, since a run may end mid-deck.
_G2_PATTERN = ("T", "N", "O", "T", "N", "T", "N", "O")

# (--tau-max-ns range, --points range) of each class.  Under the trap field
# a unit's cost grows fast with the delay span (RK45 steps); without it the
# cost hardly moves over 4-5 us and grows slowly with --points.  Scaled
# times on a 2-vCPU VM: T at 1000-1250 ns with 5k-10k points and N at
# 4000-5000 ns with 15k-20k points both take about 2.0 s, O about 0.8 s.
# The 6 T and N units of a deck of 8 thus form one cost cluster that holds
# ranks 2/8 to 8/8, so the median and the tail of a run are both drawn from
# it, for any count of units a run completes and for any seed.  The three
# classes together span --points 5001-20001 and --tau-max-ns 1000-5000.
_G2_RANGES = {"T": ((1000.0, 1250.0), (5001, 10001)),
              "N": ((4000.0, 5000.0), (15001, 20001)),
              "O": ((1500.0, 4000.0), (5001, 20001))}


def _middle_out(n: int) -> list[int]:
    """Stratum order 1, 0, 2 (n=3): the first draw of a class, which a run
    repeats when it ends mid-deck, sits mid-range for every seed."""
    return sorted(range(n), key=lambda k: (abs(2 * k - (n - 1)), k))


def _near(rng: random.Random, centre: float, half_width: float, digits: int = 3) -> float:
    return _r(rng.uniform(centre - half_width, centre + half_width), digits)


def cli_g2_long_deck(seed: int) -> list[dict]:
    """Long g2 invocations writing 5k-20k-row CSVs with --metadata.

    So that every seed gives a deck of the same cost, each class spreads
    --tau-max-ns and --points over fixed strata of its ranges (long delays
    paired with fewer points) and the seed only jitters within the middle
    fifth of a stratum; drive and trap parameters stay near the source
    work's operating point (-31 MHz, 103 mW/cm^2, 12 mW/cm^2, 44 mW, 3.5 um).
    """
    rng = rng_for("cli-g2-long", seed)
    deck = []
    seen = {cls: 0 for cls in _G2_PATTERN}
    for cls in _G2_PATTERN:
        n = _G2_PATTERN.count(cls)
        k = _middle_out(n)[seen[cls]]
        (tau_lo, tau_hi), (pts_lo, pts_hi) = _G2_RANGES[cls]
        params = {
            "tau-max-ns": _r(tau_lo + (tau_hi - tau_lo) * (k + 0.4 + 0.2 * rng.random()) / n, 2),
            "points": int(pts_lo + (pts_hi - pts_lo) * (n - 1 - k + 0.4 + 0.2 * rng.random()) / n),
            "icl-mw-cm2": _near(rng, 103.0, 8.0),
        }
        if cls == "O":
            # the closed form is exact on resonance only, so the first OBE
            # draw of the deck sits there; the other is checked by expm only
            delta = 0.0 if seen[cls] == 0 else _near(rng, -31.0, 2.0)
            params.update({"model": "two-level-obe", "delta-mhz": delta})
        else:
            params.update({"model": rng.choice(("four-level", "full")),
                           "delta-mhz": _near(rng, -31.0, 2.0),
                           "irl-mw-cm2": _near(rng, 12.0, 2.0)})
            if params["model"] == "full":
                params.update({"env-a": _r(rng.uniform(0.1, 0.5)),
                               "env-tau-us": _r(rng.uniform(0.5, 5.0))})
            if cls == "T":
                params.update({"trap-power-mw": _near(rng, 44.0, 2.0),
                               "trap-waist-um": _near(rng, 3.5, 0.1)})
        seen[cls] += 1
        deck.append({"scenario": "g2", "params": params, "mode": "run",
                     "config": False, "metadata": True, "spectrum": None})
    return deck


def lib_sweep_deck(seed: int) -> list[dict]:
    """Study points of the g2-versus-detuning study, run in one process.

    Each point holds the four-level drive (detuning in MHz, intensities in
    mW/cm^2), the trap beam (mW, um), a STIRAP pulse pair (peak Rabi
    frequency in 1/us, delay in us, 1 us pulses with loss 3/us) and a
    loading chain truncated at 60 atoms.  The detuning spans the study;
    the other drive, trap and pulse parameters stay near the source work's
    operating point, because the integrators' step counts depend on them
    and narrow ranges keep a deck's cost nearly the same for every seed.
    """
    n = SWEEP_POINTS
    rng = rng_for("lib-sweep", seed)
    columns = {
        "delta_mhz": strata(rng, n, -45.0, -15.0),
        "icl_mw_cm2": strata(rng, n, 80.0, 130.0),
        "irl_mw_cm2": strata(rng, n, 8.0, 16.0),
        "trap_power_mw": strata(rng, n, 38.0, 50.0),
        "trap_waist_um": strata(rng, n, 3.2, 3.8),
        "stirap_peak_per_us": strata(rng, n, 120.0, 160.0),
        "stirap_delay_us": strata(rng, n, 0.2, 0.3),
        "log10_rate_per_s": strata(rng, n, -1.0, 2.5),
        "gamma_per_s": strata(rng, n, 0.05, 0.5),
        "volume_um3": strata(rng, n, 5.0, 50.0),
    }
    deck = []
    for i in range(n):
        point = {k: _r(v[i], 5) for k, v in columns.items()}
        point.update(tau_max_ns=300.0, points=401, n_max=60,
                     beta_cm3_s=5e-10, stirap_loss_per_us=3.0)
        deck.append(point)
    return deck


DECKS = {"cli-quick": cli_quick_deck, "cli-g2-long": cli_g2_long_deck,
         "lib-sweep": lib_sweep_deck}


def deck(workload: str, seed: int) -> list[dict]:
    """The seeded deck of one workload."""
    return DECKS[workload](seed)


def cli_argv(unit: dict, out_csv: str | None, config_path: str | None,
             input_dir: str) -> list[str]:
    """CLI arguments of one unit; ``config_path`` receives the JSON params."""
    argv = [unit["scenario"]]
    params = dict(unit["params"])
    for key in ("reference", "fluorescence"):
        if key in params:
            params[key] = f"{input_dir}/{params[key]}"
    if unit["config"]:
        argv += ["--config", config_path]
    else:
        for key, value in params.items():
            argv.append(f"--{key}={value}")
    if out_csv is not None:
        argv += ["--out", out_csv]
    if unit["metadata"]:
        argv.append("--metadata")
    if unit["mode"] == "validate":
        argv.append("--validate-only")
    return argv


def config_payload(unit: dict, input_dir: str) -> dict:
    """The --config JSON of a unit whose params travel in a file."""
    payload = {}
    for key, value in unit["params"].items():
        if key in ("reference", "fluorescence"):
            value = f"{input_dir}/{value}"
        payload[key.replace("-", "_")] = value
    return payload
