"""The lib-sweep process: import once, then run study points in a loop.

    python perfbench/sweep_worker.py --setup-only
    python perfbench/sweep_worker.py DECK_JSON RESULT_JSON --seconds S
    python perfbench/sweep_worker.py DECK_JSON RESULT_JSON --trace

``--setup-only`` imports the package and loads the line table, the set-up
a library user pays once.  A timed run cycles through the deck until S
seconds have passed.  ``--trace`` makes one untraced pass over the deck,
installs the span wrappers and makes a traced pass over the same points.
Results go to RESULT_JSON: latencies, the full outputs of the first run of
each deck point and a digest of every run's outputs, so the worker's memory
does not grow with the number of runs.  The checks run in the parent
process, outside the timed region.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import time

import speedref


def setup():
    import numpy as np
    from singleatom import bloch, coherent, lightshift, loading, trapgeometry

    lines = lightshift.load_default_lines()
    return np, bloch, coherent, lightshift, loading, trapgeometry, lines


def study_point(mods, point: dict) -> dict:
    """One point of the g2-versus-detuning study: trap-shifted four-level g2,
    a lossy STIRAP transfer and the loading chain's stationary law.

    Package functions are looked up on their modules at call time, so the
    traced pass goes through the installed wrappers.
    """
    np, bloch, coherent, lightshift, loading, trapgeometry, lines = mods
    params = bloch.FourLevelParams(
        i_cl=point["icl_mw_cm2"] * 10.0, i_rl=point["irl_mw_cm2"] * 10.0,
        delta_cl=2 * math.pi * point["delta_mhz"] * 1e6)
    beam = trapgeometry.GaussianBeam(power=point["trap_power_mw"] * 1e-3,
                                     waist_w0=point["trap_waist_um"] * 1e-6,
                                     wavelength=856e-9)
    field = lightshift.LaserField(wavelength=beam.wavelength,
                                  intensity=beam.peak_intensity, epsilon=0)
    params = bloch.apply_trap_shifts(params, field, kinetic_reduction=100e-6,
                                     lines=lines)
    tau = np.linspace(0.0, point["tau_max_ns"] * 1e-9, point["points"])
    g2 = bloch.four_level_g2(params, tau)

    schedule = coherent.PulseSchedule.sin2_pair(
        peak=point["stirap_peak_per_us"] * 1e6, duration=1e-6,
        delay=point["stirap_delay_us"] * 1e-6)
    stirap = coherent.stirap_evolve(schedule, coherent.ground_start(),
                                    loss_gamma=point["stirap_loss_per_us"] * 1e6)

    dist = loading.stationary_distribution(loading.LoadingParams(
        loading_rate=10 ** point["log10_rate_per_s"], gamma=point["gamma_per_s"],
        beta=point["beta_cm3_s"] * 1e-6, volume=point["volume_um3"] * 1e-18,
        n_max=point["n_max"]))
    return {
        "g2": g2.tolist(),
        "stirap": {"efficiency": stirap.efficiency, "norm_leak": stirap.norm_leak,
                   "scattered": stirap.scattered},
        "loading": dist.probabilities.tolist(),
    }


def digest(result: dict) -> str:
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()


def run_pass(mods, deck: list[dict], deadline: float | None, tracer=None) -> dict:
    """Points in deck order (cycling) until the deadline, or one pass.  A
    timed run takes a speed reference before each point (``refs``)."""
    latencies, refs, indices, digests, results = [], [], [], [], {}
    clock = time.perf_counter
    i = 0
    while (i < len(deck)) if deadline is None else (clock() < deadline):
        point = deck[i % len(deck)]
        if tracer is not None:
            tracer.unit = i
        if deadline is not None:
            refs.append(speedref.ode())
        t0 = clock()
        result = study_point(mods, point)
        latencies.append(clock() - t0)
        indices.append(i % len(deck))
        digests.append(digest(result))
        results.setdefault(str(i % len(deck)), result)
        i += 1
    return {"latencies": latencies, "refs": refs, "indices": indices,
            "digests": digests, "results": results}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("deck", nargs="?")
    parser.add_argument("result", nargs="?")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    mods = setup()
    if args.setup_only:
        return
    with open(args.deck, encoding="utf-8") as fh:
        deck = json.load(fh)
    study_point(mods, deck[0])  # first calls load scipy internals
    if args.trace:
        from tracer import Tracer

        out = {"untraced": run_pass(mods, deck, None)}
        tracer = Tracer()
        tracer.install()
        out["traced"] = run_pass(mods, deck, None, tracer)
        out["summary"] = tracer.summary()
    else:
        out = {"untraced": run_pass(mods, deck, time.perf_counter() + args.seconds)}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
