"""Rewrite the golden-output corpus of the command line and the library.

    PYTHONPATH=src python tests/golden/regen.py [--check]

Runs each command case of ``manifest.json`` (an argv list, and optionally
the JSON config that it reads as ``config.json``) through
``singleatom.cli.main`` in a fresh directory holding the files of
``inputs/``, with the terminal width fixed, and writes its exit code,
stdout, stderr and the files it wrote to ``expected.json``.  An output of
more than ``MAX_ROWS`` lines is stored as its sha256 and line count.

A library case (``"library"``: ``study-point``, ``propagate`` or
``stirap``) calls the numpy half of the package on the parameters stored
with it and writes the ``repr`` of each scalar output and, for each array,
the sha256 and count of the ``repr`` of its values with two sums a
tolerance can compare: the values' ``fsum`` and the ``fsum`` of each value
times its index.

For each output that differs from the stored corpus it prints the number of
changed printed values and the largest relative change, and then the count
of rows that differ: the counts that a change to printed results states.
With ``--check`` it prints the same and rewrites nothing, exiting 1 if any
row differs.  ``tests/test_golden.py`` runs the same cases and compares them
with the stored corpus.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import re
import shutil
import sys
import tempfile
from importlib.metadata import version

HERE = pathlib.Path(__file__).resolve().parent
MANIFEST = HERE / "manifest.json"
EXPECTED = HERE / "expected.json"
INPUTS = HERE / "inputs"
MAX_ROWS = 100
# argparse wraps its help and usage at the terminal width
TERMINAL = {"COLUMNS": "80", "LINES": "24"}
# the separators between the printed values of a CSV, a sidecar or a message
_SEPARATORS = re.compile(r'[\s,:\[\]{}"()]+')


def load_manifest() -> list[dict]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def numpy_version() -> str:
    return version("numpy")


def stored(text: str):
    """An output as the corpus holds it: the text, or its sha256 and line count."""
    rows = text.count("\n")
    if rows <= MAX_ROWS:
        return text
    return {"sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(), "rows": rows}


def computes_with_numpy(case: dict) -> bool:
    """Whether a case's outputs come from numpy: spectrum-fit and the library cases."""
    return "library" in case or case["argv"][:1] == ["spectrum-fit"]


def _array(values) -> dict:
    """An array as the corpus holds it: sha256 and count of the ``repr`` of
    its values (flattened in C order), their sum and their index-weighted sum."""
    flat = [float(x) for x in values.ravel()]
    text = "\n".join(map(repr, flat))
    return {"sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(), "count": len(flat),
            "sum": repr(math.fsum(flat)),
            "moment": repr(math.fsum(k * x for k, x in enumerate(flat)))}


def _study_point(case: dict) -> dict:
    """One point of the g2-versus-detuning study, the unit of the lib-sweep
    benchmark workload: trap-shifted four-level g2, a lossy STIRAP transfer
    and the loading chain's stationary law."""
    import numpy as np
    from singleatom import bloch, coherent, lightshift, loading, trapgeometry

    point = case["point"]
    lines = lightshift.load_default_lines()
    params = bloch.FourLevelParams(
        i_cl=point["icl_mw_cm2"] * 10.0, i_rl=point["irl_mw_cm2"] * 10.0,
        delta_cl=2 * math.pi * point["delta_mhz"] * 1e6)
    beam = trapgeometry.GaussianBeam(power=point["trap_power_mw"] * 1e-3,
                                     waist_w0=point["trap_waist_um"] * 1e-6,
                                     wavelength=856e-9)
    field = lightshift.LaserField(wavelength=beam.wavelength,
                                  intensity=beam.peak_intensity, epsilon=0)
    params = bloch.apply_trap_shifts(params, field, kinetic_reduction=100e-6, lines=lines)
    tau = np.linspace(0.0, point["tau_max_ns"] * 1e-9, point["points"])
    g2 = bloch.four_level_g2(params, tau)
    schedule = coherent.PulseSchedule.sin2_pair(
        peak=point["stirap_peak_per_us"] * 1e6, duration=1e-6,
        delay=point["stirap_delay_us"] * 1e-6)
    stirap = coherent.stirap_evolve(schedule, coherent.ground_start(),
                                    loss_gamma=point["stirap_loss_per_us"] * 1e6)
    law = loading.stationary_distribution(loading.LoadingParams(
        loading_rate=10 ** point["log10_rate_per_s"], gamma=point["gamma_per_s"],
        beta=point["beta_cm3_s"] * 1e-6, volume=point["volume_um3"] * 1e-18,
        n_max=point["n_max"]))
    values = {f"shift_{level}": getattr(params, f"shift_{level}") for level in "abcd"}
    values.update(ground_shift=lightshift.ground_shift_alkali(field, 0.5, lines),
                  efficiency=stirap.efficiency, norm_leak=stirap.norm_leak,
                  scattered=stirap.scattered, magnus_steps=stirap.magnus_steps)
    return {"values": {name: repr(v) for name, v in values.items()},
            "arrays": {"g2": _array(g2), "loading": _array(law.probabilities)}}


def _propagate(case: dict) -> dict:
    """The four-level state evolved from the post-emission state of the
    steady state (``FourLevelLiouvillian.propagate``) at each delay."""
    import numpy as np
    from singleatom import bloch
    from singleatom.bloch.four_level import post_emission_state

    liouv = bloch.FourLevelLiouvillian(bloch.FourLevelParams(
        i_cl=case["icl_mw_cm2"] * 10.0, i_rl=case["irl_mw_cm2"] * 10.0,
        delta_cl=2 * math.pi * case["delta_mhz"] * 1e6))
    y0 = post_emission_state(liouv.steady_state())
    states = liouv.propagate(y0, np.array(case["delays_ns"]) * 1e-9)
    return {"values": {}, "arrays": {"states": _array(states)}}


def _stirap(case: dict) -> dict:
    """One STIRAP transfer (``coherent.stirap_evolve``) under a sin^2 pulse
    pair, from |b> or from the ``initial`` amplitudes on (i|a>, |b>, |c>),
    stored as [re, im] pairs."""
    import numpy as np
    from singleatom import coherent

    delay = case["delay_us"]
    schedule = coherent.PulseSchedule.sin2_pair(
        peak=case["peak_per_us"] * 1e6, duration=case["duration_us"] * 1e-6,
        delay=None if delay is None else delay * 1e-6, order=case["order"])
    initial = (np.array([complex(*pair) for pair in case["initial"]]) if "initial" in case
               else coherent.ground_start())
    result = coherent.stirap_evolve(schedule, initial, loss_gamma=case["loss_per_us"] * 1e6)
    return {"values": {name: repr(getattr(result, name)) for name in
                       ("efficiency", "norm_leak", "scattered", "magnus_steps", "step_norm")},
            "arrays": {}}


LIBRARY = {"study-point": _study_point, "propagate": _propagate, "stirap": _stirap}


def run_case(case: dict, directory: pathlib.Path) -> dict:
    """Exit code, stdout, stderr and written files of one command case, run
    in ``directory``, or the outputs of one library case."""
    if "library" in case:
        return LIBRARY[case["library"]](case)
    from singleatom.cli import main

    for path in INPUTS.iterdir():
        shutil.copy(path, directory / path.name)
    if "config" in case:
        (directory / "config.json").write_text(json.dumps(case["config"]), encoding="utf-8")
    before = set(os.listdir(directory))
    out, err = io.StringIO(), io.StringIO()
    saved = {key: os.environ.get(key) for key in TERMINAL}
    cwd = os.getcwd()
    os.environ.update(TERMINAL)
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(case["argv"]))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key)
            else:
                os.environ[key] = value
    files = {name: stored((directory / name).read_text(encoding="utf-8"))
             for name in sorted(set(os.listdir(directory)) - before)}
    return {"exit": code, "stdout": stored(out.getvalue()), "stderr": err.getvalue(),
            "files": files}


def _relative(a: str, b: str) -> float:
    """The relative change from one printed value to another; inf unless both are numbers."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return float("inf")
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


def _text_change(old, new, rel: float) -> str | None:
    """How one stored output changed beyond ``rel`` relative, or None."""
    if old == new:
        return None
    if not (isinstance(old, str) and isinstance(new, str)):
        rows = [v["rows"] if isinstance(v, dict) else v.count("\n") for v in (old, new)]
        return f"sha256 changed, {rows[0]} -> {rows[1]} rows"
    a, b = ([v for v in _SEPARATORS.split(text) if v] for text in (old, new))
    if len(a) != len(b):
        return f"{len(a)} -> {len(b)} printed values"
    if _SEPARATORS.findall(old) != _SEPARATORS.findall(new):
        return "the text between the printed values changed"
    changes = [_relative(x, y) for x, y in zip(a, b) if x != y]
    beyond = [c for c in changes if c > rel] if rel else changes
    if not beyond:
        return None
    return (f"{len(beyond)} of {len(a)} printed values changed, largest relative change"
            f" {max(beyond):.3g}")


def _library_differences(old: dict, new: dict, rel: float) -> list[str]:
    """``differences`` of a library case: its scalars, and its arrays by
    sha256 (rel 0) or by count and sums (rel > 0)."""
    found = []
    for name in sorted(set(old["values"]) | set(new["values"])):
        a, b = old["values"].get(name), new["values"].get(name)
        if a is None or b is None:
            found.append(f"{name}: {'new' if a is None else 'removed'}")
        elif a != b and (rel == 0 or _relative(a, b) > rel):
            found.append(f"{name}: {a} -> {b}, relative change {_relative(a, b):.3g}")
    for name in sorted(set(old["arrays"]) | set(new["arrays"])):
        a, b = old["arrays"].get(name), new["arrays"].get(name)
        if a is None or b is None:
            found.append(f"{name}: {'new' if a is None else 'removed'}")
        elif a["count"] != b["count"]:
            found.append(f"{name}: {a['count']} -> {b['count']} values")
        elif rel == 0 and a["sha256"] != b["sha256"]:
            change = max(_relative(a[key], b[key]) for key in ("sum", "moment"))
            found.append(f"{name}: sha256 of {a['count']} values changed, largest relative"
                         f" change of its sums {change:.3g}")
        elif rel and max(_relative(a[key], b[key]) for key in ("sum", "moment")) > rel:
            found.append(f"{name}: sums changed beyond {rel:g} relative")
    return found


def differences(old: dict, new: dict, rel: float = 0.0) -> list[str]:
    """One line per output of a case that differs beyond ``rel`` relative
    (0: any byte), naming the output and the count of changed values."""
    if "values" in old:
        return _library_differences(old, new, rel)
    found = []
    if old["exit"] != new["exit"]:
        found.append(f"exit {old['exit']} -> {new['exit']}")
    outputs = [("stdout", old["stdout"], new["stdout"]), ("stderr", old["stderr"], new["stderr"])]
    for name in sorted(set(old["files"]) | set(new["files"])):
        if name not in old["files"] or name not in new["files"]:
            found.append(f"{name}: {'written' if name in new['files'] else 'not written'}")
        else:
            outputs.append((name, old["files"][name], new["files"][name]))
    for name, a, b in outputs:
        change = _text_change(a, b, rel)
        if change is not None:
            found.append(f"{name}: {change}")
    return found


def regenerate() -> dict:
    cases = {}
    for case in load_manifest():
        if "library" in case:
            cases[case["id"]] = run_case(case, None)
            continue
        with tempfile.TemporaryDirectory() as directory:
            cases[case["id"]] = run_case(case, pathlib.Path(directory))
    return {"python": "%d.%d" % sys.version_info[:2], "numpy": numpy_version(),
            "cases": cases}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="print the differences only; exit 1 if any row differs")
    check = parser.parse_args(argv).check
    corpus = regenerate()
    old = load_expected()["cases"] if EXPECTED.exists() else {}
    changed = new = 0
    for case_id, result in corpus["cases"].items():
        if case_id not in old:
            print(f"{case_id}: new")
            new += 1
            continue
        found = differences(old[case_id], result)
        for line in found:
            print(f"{case_id}: {line}")
        changed += bool(found)
    removed = sorted(set(old) - set(corpus["cases"]))
    for case_id in removed:
        print(f"{case_id}: removed")
    print(f"{len(corpus['cases'])} rows: {changed} changed, {new} new, {len(removed)} removed")
    if check:
        return 1 if changed or new or removed else 0
    EXPECTED.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
