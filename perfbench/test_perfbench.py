"""Self-tests of the benchmark: seeded inputs, oracles, tracer, tail rule.

    python -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

LINE_DATA = os.path.join(SRC, "singleatom", "data", "rb87_lines.json")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_one_deck(workload):
    first = workloads.deck(workload, 7)
    assert first == workloads.deck(workload, 7)
    assert first != workloads.deck(workload, 8)
    assert len(first) == {"cli-quick": 30, "cli-g2-long": 8, "lib-sweep": 12}[workload]


def test_quick_deck_mix():
    modes = [u["mode"] for u in workloads.deck("cli-quick", 3)]
    assert modes.count("validate") == 3 and modes.count("invalid") == 3
    scenarios = {u["scenario"] for u in workloads.deck("cli-quick", 3)}
    assert scenarios == set(oracles.SCENARIOS) | {"list"}


def test_g2_long_ranges():
    for unit in workloads.deck("cli-g2-long", 5):
        p = unit["params"]
        assert 5001 <= p["points"] <= 20001 and 1000 <= p["tau-max-ns"] <= 5000
        assert unit["metadata"]


def _four_level_draw():
    return {"model": "four-level", "delta-mhz": -31.0, "icl-mw-cm2": 103.0,
            "irl-mw-cm2": 12.0, "trap-power-mw": 44.0, "trap-waist-um": 3.5}


def test_oracle_accepts_library_g2_and_rejects_perturbed():
    from singleatom.bloch import four_level_g2

    p = _four_level_draw()
    tau = np.linspace(0.0, 300e-9, 401)
    g2 = four_level_g2(oracles.four_level_params(p), tau)
    assert oracles.check_g2_values(p, tau, g2) == []
    perturbed = g2.copy()
    perturbed[1:] += 1e-4
    assert any("four-level expm" in e for e in oracles.check_g2_values(p, tau, perturbed))


def test_oracle_two_level_obe_matches_closed_form_on_resonance():
    from singleatom.bloch import two_level_obe_g2

    p = {"model": "two-level-obe", "delta-mhz": 0.0, "icl-mw-cm2": 60.0}
    omega = oracles.GAMMA_D2 * np.sqrt(600.0 / (2 * oracles.ISAT_F2_F3))
    tau = np.linspace(0.0, 1e-6, 501)
    g2 = two_level_obe_g2(omega, 0.0, oracles.GAMMA_D2, tau)
    assert oracles.check_g2_values(p, tau, g2) == []
    assert oracles.check_g2_values(p, tau, g2 + np.where(tau > 0, 1e-4, 0.0)) != []


def _run_cli(argv):
    from singleatom.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("index", range(len(workloads.INVALID_DRAWS)))
def test_invalid_draws_exit_2_with_one_line(tmp_path, index):
    scenario, params = workloads.INVALID_DRAWS[index]
    unit = {"scenario": scenario, "params": params, "mode": "invalid",
            "config": False, "metadata": False, "spectrum": None}
    out = str(tmp_path / "out.csv")
    code, stdout, stderr = _run_cli(workloads.cli_argv(unit, out, None, str(tmp_path)))
    assert oracles.check_cli_unit(unit, code, stdout, stderr, out, LINE_DATA) == []


def test_invalid_classification():
    unit = {"scenario": "bell", "params": {"noise-p": 1.5}, "mode": "invalid",
            "config": False, "metadata": False, "spectrum": None}
    missing = "/nonexistent/out.csv"
    one_line = "validation: --noise-p must lie in [0, 1]\n"
    assert oracles.check_cli_unit(unit, 2, "", one_line, missing, LINE_DATA) == []
    assert oracles.check_cli_unit(unit, 0, "", one_line, missing, LINE_DATA) != []
    assert oracles.check_cli_unit(unit, 2, "", one_line * 2, missing, LINE_DATA) != []
    assert oracles.check_cli_unit(unit, None, "", "", missing, LINE_DATA) == ["timed out"]
    assert oracles.check_cli_unit(unit, 2, "", one_line, LINE_DATA, LINE_DATA) != []


def test_tail_rule():
    assert run.tail([float(i) for i in range(30)]) == (19.0, pytest.approx(200 / 3), 10)
    value, pct, beyond = run.tail([float(i) for i in range(10)])
    assert value == 5.0 and pct == 60.0 and beyond == 4


def test_timings_are_scaled_to_the_reference_speed():
    import speedref

    nominal = speedref.SPAWN_NOMINAL_S
    # the machine ran at half speed for the second and third unit; deck
    # unit 0 costs 1 s and unit 1 costs 3 s, and unit 0 ran twice
    walls, refs = [1.0, 2.0, 6.0], [nominal, 2 * nominal, 2 * nominal]
    metrics, stats = run.e2e_metrics(walls, refs, [0, 0, 1], nominal, (0.5, 0.6), 80.0)
    assert metrics["latency_p50_s"] == pytest.approx(1.0)
    assert metrics["throughput_per_s"] == pytest.approx(0.5)
    assert metrics["setup_s"] == 0.5 and stats["raw_setup_s"] == 0.6
    assert stats["raw_latency_p50_s"] == 2.0
    assert stats["speed_factor_p50"] == pytest.approx(2.0)


def test_importtime_parse():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | singleatom",
        "import time:        50 |         50 |     numpy.core",
        "import time:       200 |        250 |   numpy",
        "import time:        30 |         30 |     scipy.linalg",
        "import time:        20 |        300 |   scipy",
        "import time:       400 |       1000 | singleatom.cli",
    ])
    parsed = run.parse_importtime(text)
    assert parsed["import_s"] == pytest.approx(1100e-6)
    assert parsed["import_numpy_s"] == pytest.approx(250e-6)
    assert parsed["import_scipy_s"] == pytest.approx(300e-6)


def test_traced_cli_sees_aliases(tmp_path):
    summary = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    argv = ["g2", "--delta-mhz=-31", "--icl=103", "--points=101",
            "--tau-max-ns=100", "--trap-power-mw=44", "--trap-waist-um=3.5",
            "--out", str(tmp_path / "g2.csv")]
    subprocess.run([sys.executable, os.path.join(HERE, "traced_cli.py"), str(summary),
                    "--", *argv], check=True, env=env, timeout=120)
    counts = json.loads(summary.read_text())
    names = counts["names"]
    # reached through singleatom.cli's aliases and the CLI runner table
    assert names["cli.run_g2"]["calls"] == 1
    assert names["bloch.four_level_g2"]["calls"] == 1
    assert names["angular.wigner_6j"]["calls"] > 0
    assert names["bloch.propagate"]["calls"] == 1
    assert counts["rhs_evals"]["bloch"] > 0
    assert counts["g2_points"] == 101


def test_metric_names_match_benchmark_json():
    import tracer

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    imports = {"import_s": 0.0, "import_numpy_s": 0.0, "import_scipy_s": 0.0}
    traced = run.layer_metrics(tracer.merge([]), 1, imports, 0.0, 0)
    traced.update({n: None for n in ("trace.overhead_frac", "trace.untraced_mean_s")})
    assert [m["name"] for m in spec["per_layer"]] == list(traced)
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    assert all(units[name] == unit for name, (_, unit) in
               run.layer_metrics(tracer.merge([]), 1, imports, 0.0, 0).items())


_CACHED_AND_MISSING = """
import functools, json
import singleatom.angular as angular
import singleatom.cli as cli
angular.wigner_6j = functools.lru_cache(maxsize=None)(angular.wigner_6j)
del cli.run_pair_rate
from tracer import Tracer
tracer = Tracer()
tracer.install()
for _ in range(3):
    angular.wigner_6j(1, 1, 1, 1, 1, 1)
print(json.dumps({"missing": tracer.missing,
                  "calls": tracer.summary()["names"]["angular.wigner_6j"]["calls"]}))
"""


def test_tracer_wraps_cached_functions_and_lists_missing_spans():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    out = subprocess.run([sys.executable, "-c", _CACHED_AND_MISSING], check=True,
                         env=env, capture_output=True, text=True, timeout=120).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["calls"] == 3
    assert result["missing"] == ["cli.run_pair_rate"]


def test_sweep_check_compares_repeats_by_digest(tmp_path, monkeypatch):
    import sweep_worker

    bench = run.Bench(str(tmp_path), "lib-sweep", 3)
    point = {"g2": [0.0, 1.0], "stirap": {}, "loading": [1.0]}
    other = dict(point, g2=[0.0, 1.5])
    passes = [{"indices": [0, 0, 0],
               "digests": [sweep_worker.digest(point), sweep_worker.digest(point),
                           sweep_worker.digest(other)],
               "results": {"0": point}}]
    monkeypatch.setattr(run.oracles, "check_study_point", lambda unit, result, deep: [])
    assert bench.check_sweep(passes) == (3, 1)
