"""Benchmark of the singleatom CLI and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python -m pytest perfbench          # the benchmark's self-tests

Run from the root of a checkout: the package is imported from ``src/``
(never from an installed copy), scratch files go to ``.perfbench_work/``
and are removed at the end.  The benchmark and its children run on one
CPU, and children always get one BLAS/OpenMP thread.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it hold the run record (machine, versions,
BLAS thread environment, seed, sample counts) and every metric by name and
unit, ``fail_frac`` included.

Workloads
---------
All three are closed loops with one client: the next unit starts when the
previous one has ended.  Inputs come from ``--seed`` (``workloads.py``).

============  ==============================================================
workload      unit of work, and why it was chosen
============  ==============================================================
cli-quick     one short ``python -m singleatom.cli`` invocation: list,
              lightshift, trap, magic, loading (small rate grids), stirap,
              larmor, bell, correlations, spectrum-fit (input CSVs written
              before timing), pair-rate, g2 two-level-analytic; 1 in 10 is
              ``--validate-only``, 1 in 10 a finite out-of-range input that
              must exit 2.  *Why:* about 90% of each run is interpreter,
              import and CLI overhead and no propagator runs, so lazy imports
              and CLI-table changes show here and propagator changes do not;
              the invalid draws exercise validation next to compute.
cli-g2-long   one ``g2`` invocation, ``--points`` 5001-20001, ``--tau-max-ns``
              1000-5000, ``--out`` with ``--metadata``: 6 in 8 four-level or
              full (half of them with a trap field, on the shorter delays),
              2 in 8 two-level-obe (on the longer ones).  *Why:* most of the
              wall time is a time-independent generator propagated by RK45
              plus a CSV of up to 20k rows, so exact propagation and the CSV
              writer show here; import is about a third of each run.
lib-sweep     one study point of the g2-versus-detuning study in a process
              that imported the package once: trap shifts + four-level g2
              (401 points, 300 ns), a lossy ``stirap_evolve``, and
              ``stationary_distribution`` at ``n_max=60``.  *Why:* no import
              in the timed loop; the Liouvillian build, steady state, 6j/CG
              hyperfine sums and the integrator on a time-dependent problem
              (STIRAP) show here.  A g2-only integrator change that slows
              STIRAP shows here and nowhere else.
============  ==============================================================

Non-finite inputs (nan, inf) are not drawn: ``g2 --tau-max-ns nan`` hangs
and the validators let nan through.  That gap belongs to a property test of
the CLI's input handling, not to a timed workload.

End-to-end metrics (``--trace 0``)
----------------------------------
Every timing is *speed-scaled*: a reference task that runs none of the
program's code is timed just before each unit (and each set-up probe),
outside its timer, and the unit's wall time is multiplied by
``nominal / reference`` (``speedref.py``): the wall time at one fixed
machine speed.  The shared machine changes speed by up to 2x in phases of
10 s to minutes, longer than a run can average out; over 5 seeds of 30 s
runs, the spread (IQR/median) of the raw median latency was 0.13-0.23 and
that of the scaled one 0.02-0.06.  The raw medians (``raw_latency_p50_s``,
``raw_throughput_per_s``, ``raw_setup_s``) and the median speed factor
(reference / nominal) are in the run record.

``latency_p50_s``     median scaled time per unit: child launch to exit with
                      its CSV written, or one study point.
``latency_tail_s``    the order statistic with ten samples above it (the
                      highest percentile with ten samples beyond it), never
                      below the median; the run record states the percentile
                      and how many samples lie beyond it.  A 30 s run of
                      cli-g2-long completes only 12-20 units of 0.8-2.5 s,
                      so there it is the sample just above the median, not a
                      tail: 60 units would take a run of over two minutes.
``throughput_per_s``  units per second of scaled unit time at the deck's mix:
                      1 / the mean over deck units of each one's mean scaled
                      latency (one client).  A run that stops mid-deck, or a
                      faster program that gets further into the deck, does
                      not change the mix.
``setup_s``           median scaled time of 7 fresh interpreters importing
                      ``singleatom.cli`` (lib-sweep: importing the library
                      and ``load_default_lines()``), launch to exit.
``peak_rss_mb``       peak resident memory of the measured child processes.
``fail_frac``         failed / attempted units, in the run record and as the
                      JSON's ``failed``/``attempted`` (0 at a healthy commit,
                      so it carries no relative bound).  A failure is a wrong
                      exit code, a missing or malformed output, a failed
                      oracle check (``oracles.py``) or a timeout.

lib-sweep runs one study point before timing, so the first calls' lazy
loading of scipy internals is not timed.

Per-layer metrics (``--trace 1``)
---------------------------------
A traced run makes one untraced pass and one traced pass over the whole
deck, so counts repeat exactly for a seed.  Spans are recorded by
``tracer.py`` around every public function of the layer modules; CLI units
run through ``traced_cli.py``.  Times are seconds per unit, ``.calls`` and
counts per unit.  ``<layer>.<function>_s`` is time inside that function
minus time in wrapped calls into other layers; ``<layer>.self_s`` is time in
the layer's spans minus all wrapped child spans.  ``cli.import_*`` come from
``python -X importtime`` and are per process start (0 on lib-sweep, whose
units start none).

==========================================  ===================  =====================================
per-layer metric                            should move          on workload (predict no change on)
==========================================  ===================  =====================================
cli.import_s, cli.import_scipy_s,           setup_s, p50,        cli-quick mostly, cli-g2-long partly
cli.import_numpy_s, cli.interpreter_floor_s throughput           (lib-sweep: only setup_s)
cli.main_self_s (main minus runner: parse,  p50                  cli-quick, cli-g2-long (lib-sweep)
config, validate, write), cli.runner_s,
cli.csv_bytes
bloch.four_level_g2_s/.calls,               p50, throughput      cli-g2-long, lib-sweep (cli-quick)
bloch.propagate_s, bloch.g2_points
bloch.liouvillian_build_s,                  throughput           lib-sweep; cli-g2-long barely
bloch.steady_state_s,                                            (cli-quick)
bloch.apply_trap_shifts_s,
bloch.two_level_obe_g2_s
integrator.integrate_s/.calls,              p50, throughput      .bloch on cli-g2-long + lib-sweep;
integrator.rhs_evals.bloch/.coherent                             .coherent on lib-sweep only
lightshift.hyperfine_shift_s/.calls,        throughput           lib-sweep, trap half of cli-g2-long
lightshift.ground_shift_alkali_s,                                (cli-quick barely)
lightshift.find_magic_wavelength_s,
lightshift.load_default_lines_s
angular.wigner_6j_s/.calls,                 throughput           lib-sweep (cli-quick)
angular.clebsch_gordan_s/.calls,
angular.distinct_args_frac
coherent.stirap_evolve_s/.calls             throughput           lib-sweep only
loading.stationary_distribution_s/.calls    throughput           lib-sweep; cli-quick barely
analysis.fit_doppler_sigma_s,               p50                  cli-quick (cli-g2-long, lib-sweep)
trapgeometry.self_s, entanglement.self_s
trace.overhead_frac (traced / untraced      none; validates      all
wall time - 1)                              the trace
==========================================  ===================  =====================================

``angular.distinct_args_frac`` is distinct argument tuples / calls of
wigner_6j and clebsch_gordan, counted within each process: the share of
calls that do new work.  Caching at the call site cuts calls while the
distinct arguments stay, so it rises; higher is better.
``trace.untraced_mean_s`` is the mean wall time per unit of the untraced
pass over the same deck, the base of layer shares (per-layer times are
means per unit too).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import speedref  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
IMPORT_PROBES = 3
TIMEOUT_S = {"cli-quick": 60.0, "cli-g2-long": 90.0}
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# nominal time of each workload's speed reference (speedref.py)
NOMINAL_S = {"cli-quick": speedref.SPAWN_NOMINAL_S, "cli-g2-long": speedref.SPAWN_NOMINAL_S,
             "lib-sweep": speedref.ODE_NOMINAL_S}
END_TO_END = (("latency_p50_s", "s"), ("latency_tail_s", "s"),
              ("throughput_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class Bench:
    """State of one benchmark run in a checkout."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.src = os.path.join(root, "src")
        self.line_data = os.path.join(self.src, "singleatom", "data", "rb87_lines.json")
        self.work = os.path.join(root, ".perfbench_work", f"{workload}-{os.getpid()}")
        self.inputs = os.path.join(self.work, "inputs")
        self.outputs = os.path.join(self.work, "outputs")
        self.env = dict(os.environ)
        # one BLAS thread whatever the caller's environment says: the
        # matrices are at most 61x61, and a fixed reduction order makes
        # counts repeat
        for key in BLAS_ENV:
            self.env[key] = "1"
        self.env["PYTHONPATH"] = os.pathsep.join(
            [self.src, HERE] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.deck = workloads.deck(workload, seed)

    # -- child processes -------------------------------------------------------

    def spawn(self, cmd: list[str], timeout: float, stdout=None,
              stderr=None) -> tuple[float, int | None, float]:
        """Run a child to completion: (wall seconds, exit code or None on
        timeout, peak RSS in MB).  The timer covers launch to exit."""
        done = threading.Event()
        clock = time.perf_counter
        t0 = clock()
        proc = subprocess.Popen(cmd, stdout=stdout or subprocess.DEVNULL,
                                stderr=stderr or subprocess.DEVNULL,
                                env=self.env, cwd=self.work)
        killed = threading.Event()

        def kill():
            if not done.is_set():
                killed.set()
                proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = clock() - t0
        except BaseException:
            proc.kill()  # interrupted (SIGTERM, Ctrl-C): leave no child behind
            os.wait4(proc.pid, 0)
            raise
        finally:
            done.set()
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = None if killed.is_set() else proc.returncode
        return wall, code, usage.ru_maxrss / 1024.0

    def setup_probe(self) -> tuple[float, float]:
        """(wall seconds, speed reference taken just before)."""
        ref = speedref.spawn()
        if self.workload == "lib-sweep":
            cmd = [sys.executable, os.path.join(HERE, "sweep_worker.py"), "--setup-only"]
        else:
            cmd = [sys.executable, "-c", "import singleatom.cli"]
        wall, code, _ = self.spawn(cmd, 120.0)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}")
        return wall, ref

    def measure_setup(self) -> tuple[float, float]:
        """(median scaled set-up time, median raw set-up time)."""
        self.setup_probe()  # compiles bytecode and warms the file cache
        probes = [self.setup_probe() for _ in range(SETUP_PROBES)]
        return (statistics.median(speedref.scaled(w, r, speedref.SPAWN_NOMINAL_S)
                                  for w, r in probes),
                statistics.median(w for w, _ in probes))

    # -- CLI workloads ---------------------------------------------------------

    def prepare_cli_inputs(self) -> None:
        for index, unit in enumerate(self.deck):
            if unit["spectrum"] is not None:
                oracles.write_spectrum_files(
                    unit["spectrum"],
                    os.path.join(self.inputs, unit["params"]["reference"]),
                    os.path.join(self.inputs, unit["params"]["fluorescence"]))
            if unit["config"]:
                with open(self._config_path(index), "w", encoding="utf-8") as fh:
                    json.dump(workloads.config_payload(unit, self.inputs), fh)

    def _config_path(self, index: int) -> str:
        return os.path.join(self.inputs, f"u{index:03d}_config.json")

    def run_cli_unit(self, index: int, rep: str, traced: bool) -> dict:
        unit = self.deck[index]
        stem = os.path.join(self.outputs, f"u{index:03d}_{rep}")
        out_csv = None if unit["scenario"] == "list" else stem + ".csv"
        argv = workloads.cli_argv(unit, out_csv, self._config_path(index), self.inputs)
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                   stem + ".trace.json", "--", *argv]
        else:
            cmd = [sys.executable, "-m", "singleatom.cli", *argv]
        with open(stem + ".stdout", "wb") as fo, open(stem + ".stderr", "wb") as fe:
            wall, code, rss = self.spawn(cmd, TIMEOUT_S[self.workload], fo, fe)
        return {"index": index, "stem": stem, "out": out_csv or stem + ".stdout",
                "wall": wall, "code": code, "rss": rss}

    def cli_failures(self, records: list[dict]) -> int:
        """Check every invocation's outputs; returns the number that failed."""
        failed = 0
        for rec in records:
            unit = self.deck[rec["index"]]
            with open(rec["stem"] + ".stdout", encoding="utf-8") as fh:
                stdout = fh.read()
            with open(rec["stem"] + ".stderr", encoding="utf-8") as fh:
                stderr = fh.read()
            errors = oracles.check_cli_unit(unit, rec["code"], stdout, stderr,
                                            rec["out"], self.line_data)
            if errors:
                failed += 1
                report(f"unit {rec['index']} ({unit['scenario']}): {'; '.join(errors)}")
        return failed

    def cli_loop(self, seconds: float) -> list[dict]:
        """Units in deck order (cycling) until ``seconds`` have passed, each
        after a speed reference (``rec["ref"]``)."""
        deadline = time.perf_counter() + seconds
        records = []
        i = 0
        while time.perf_counter() < deadline:
            ref = speedref.spawn()
            records.append(self.run_cli_unit(i % len(self.deck), f"r{i}", False))
            records[-1]["ref"] = ref
            i += 1
        return records

    def cli_pass(self, traced: bool) -> list[dict]:
        tag = "t" if traced else "u"
        return [self.run_cli_unit(i, f"{tag}{i}", traced) for i in range(len(self.deck))]

    # -- lib-sweep -------------------------------------------------------------

    def run_sweep_worker(self, seconds: float | None) -> tuple[dict, int | None, float]:
        deck_path = os.path.join(self.inputs, "deck.json")
        result_path = os.path.join(self.outputs, "sweep.json")
        with open(deck_path, "w", encoding="utf-8") as fh:
            json.dump(self.deck, fh)
        cmd = [sys.executable, os.path.join(HERE, "sweep_worker.py"), deck_path, result_path]
        cmd += ["--trace"] if seconds is None else ["--seconds", repr(seconds)]
        limit = (seconds or 60.0) + 90.0
        with open(os.path.join(self.outputs, "sweep.stderr"), "wb") as fe:
            _, code, rss = self.spawn(cmd, limit, stderr=fe)
        if code != 0:
            with open(os.path.join(self.outputs, "sweep.stderr"), encoding="utf-8") as fh:
                sys.stderr.write(fh.read()[-2000:])
            return {}, code, rss
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh), code, rss

    def check_sweep(self, passes: list[dict]) -> tuple[int, int]:
        """(attempted, failed) over the given passes.  Each pass holds the
        full outputs of the first run of each deck point and a digest of
        every run; each point is checked in full once, and every run must
        reproduce the digest of the point's first run."""
        attempted = failed = 0
        checked: dict[int, tuple[str, list[str]]] = {}
        for run in passes:
            for index, digest in zip(run["indices"], run["digests"]):
                attempted += 1
                if index not in checked:
                    full = run["results"][str(index)]
                    checked[index] = (digest, oracles.check_study_point(
                        self.deck[index], full, deep=index < 4))
                    errors = checked[index][1]
                else:
                    errors = [] if digest == checked[index][0] else ["repeat differs"]
                if errors:
                    failed += 1
                    report(f"unit {index}: {'; '.join(errors)}")
        return attempted, failed

    # -- traced run -------------------------------------------------------------

    def importtime_probe(self) -> dict:
        err = os.path.join(self.outputs, "importtime.stderr")
        with open(err, "wb") as fe:
            self.spawn([sys.executable, "-X", "importtime", "-c", "import singleatom.cli"],
                       120.0, stderr=fe)
        with open(err, encoding="utf-8") as fh:
            return parse_importtime(fh.read())

    def interpreter_floor(self) -> float:
        return statistics.median(
            self.spawn([sys.executable, "-c", "pass"], 60.0)[0] for _ in range(IMPORT_PROBES))


def parse_importtime(text: str) -> dict:
    """Seconds spent importing ``singleatom.cli`` and, within it, numpy and
    scipy, from ``python -X importtime`` output.

    Lines are printed when an import finishes, children before parents; a
    package's time is the cumulative time of its outermost entries.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line or "self [us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, int(cumulative), name.strip()))
    totals = {"singleatom": 0, "numpy": 0, "scipy": 0}
    # walking backwards visits each parent before its children
    stack: list[str] = []
    for depth, cumulative, name in reversed(entries):
        del stack[depth:]
        for pkg in totals:
            if name.split(".")[0] == pkg and not any(a.split(".")[0] == pkg for a in stack):
                totals[pkg] += cumulative
        stack.append(name)
    return {"import_s": totals["singleatom"] * 1e-6,
            "import_numpy_s": totals["numpy"] * 1e-6,
            "import_scipy_s": totals["scipy"] * 1e-6}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the order statistic with ten
    samples above it, floored at the median when there are fewer than 20."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, n // 2)
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def report(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")


def run_record(bench: Bench, extra: dict) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git_sha = "unknown"
    if os.path.isdir(os.path.join(bench.root, ".git")):
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench.root,
                                     capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": bench.workload, "seed": bench.seed,
        "nproc": os.cpu_count(), "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: bench.env.get(k) for k in BLAS_ENV},
        "git_sha": git_sha, "deck_size": len(bench.deck), **extra,
    }


def e2e_metrics(walls: list[float], refs: list[float], indices: list[int],
                nominal: float, setup: tuple[float, float],
                rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics from each unit's wall time, the speed reference
    taken just before it (``speedref``) and its deck index; the raw figures
    go to the record."""
    latencies = [speedref.scaled(w, r, nominal) for w, r in zip(walls, refs)]
    by_unit: dict[int, list[float]] = {}
    for index, latency in zip(indices, latencies):
        by_unit.setdefault(index, []).append(latency)
    value, pct, beyond = tail(latencies)
    metrics = {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": value,
        "throughput_per_s": 1.0 / statistics.fmean(
            statistics.fmean(v) for v in by_unit.values()),
        "setup_s": setup[0],
        "peak_rss_mb": rss_mb,
    }
    return metrics, {"samples": len(latencies), "tail_percentile": round(pct, 2),
                     "tail_samples_beyond": beyond,
                     "raw_latency_p50_s": statistics.median(walls),
                     "raw_throughput_per_s": len(walls) / sum(walls),
                     "raw_setup_s": setup[1],
                     "speed_factor_p50": statistics.median(r / nominal for r in refs)}


def run_untraced(bench: Bench, seconds: float) -> dict:
    setup = bench.measure_setup()
    if bench.workload == "lib-sweep":
        result, code, rss = bench.run_sweep_worker(seconds)
        if code != 0:
            raise RuntimeError(f"lib-sweep worker exited {code}")
        run = result["untraced"]
        walls, refs, indices = run["latencies"], run["refs"], run["indices"]
        attempted, failed = bench.check_sweep([run])
    else:
        bench.prepare_cli_inputs()
        records = bench.cli_loop(seconds)
        walls = [r["wall"] for r in records]
        refs, indices = [r["ref"] for r in records], [r["index"] for r in records]
        rss = max(r["rss"] for r in records)
        attempted, failed = len(records), bench.cli_failures(records)
    metrics, stats = e2e_metrics(walls, refs, indices, NOMINAL_S[bench.workload],
                                 setup, rss)
    stats["fail_frac"] = failed / attempted
    return {"attempted": attempted, "failed": failed,
            "metrics": {name: (metrics[name], unit) for name, unit in END_TO_END},
            "stats": stats}


def run_traced(bench: Bench) -> dict:
    k = len(bench.deck)
    if bench.workload == "lib-sweep":
        result, code, _ = bench.run_sweep_worker(None)
        if code != 0:
            raise RuntimeError(f"lib-sweep worker exited {code}")
        untraced, traced = result["untraced"]["latencies"], result["traced"]["latencies"]
        summary = tracer.merge([result["summary"]])
        attempted, failed = bench.check_sweep([result["untraced"], result["traced"]])
        imports = {"import_s": 0.0, "import_numpy_s": 0.0, "import_scipy_s": 0.0}
        floor = 0.0
        csv_bytes = 0
    else:
        bench.prepare_cli_inputs()
        bench.run_cli_unit(0, "warm", False)
        plain = bench.cli_pass(False)
        traced_recs = bench.cli_pass(True)
        untraced = [r["wall"] for r in plain]
        traced = [r["wall"] for r in traced_recs]
        summaries = []
        for rec in traced_recs:
            with open(rec["stem"] + ".trace.json", encoding="utf-8") as fh:
                summaries.append(json.load(fh))
        summary = tracer.merge(summaries)
        attempted, failed = 2 * k, bench.cli_failures(plain + traced_recs)
        csv_bytes = sum(os.path.getsize(r["out"]) for r in traced_recs
                        if os.path.exists(r["out"]))
        probes = [bench.importtime_probe() for _ in range(IMPORT_PROBES)]
        imports = {key: statistics.median(p[key] for p in probes) for key in probes[0]}
        floor = bench.interpreter_floor()
    if summary["missing"]:
        raise RuntimeError(f"no span for {sorted(summary['missing'])}: the layer "
                           "functions the per-layer metrics read have moved")
    metrics = layer_metrics(summary, k, imports, floor, csv_bytes)
    metrics["trace.overhead_frac"] = (sum(traced) / sum(untraced) - 1.0, "ratio")
    metrics["trace.untraced_mean_s"] = (statistics.fmean(untraced), "s")
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "stats": {"samples": k, "fail_frac": failed / attempted}}


def layer_metrics(summary: dict, k: int, imports: dict, floor: float,
                  csv_bytes: int) -> dict:
    names = summary["names"]

    def get(name, key):
        return names[name][key] if name in names else 0

    def own(name):
        return (get(name, "layer_self") / k, "s")

    def calls(name):
        return (get(name, "calls") / k, "count")

    runner = sum(get(name, "incl") for name in tracer.RUNNER_SPANS)
    angular_calls = get("angular.wigner_6j", "calls") + get("angular.clebsch_gordan", "calls")
    distinct = sum(summary["distinct_args"].values())
    m = {
        "cli.import_s": (imports["import_s"], "s"),
        "cli.import_scipy_s": (imports["import_scipy_s"], "s"),
        "cli.import_numpy_s": (imports["import_numpy_s"], "s"),
        "cli.interpreter_floor_s": (floor, "s"),
        "cli.main_self_s": ((get("cli.main", "incl") - runner) / k, "s"),
        "cli.runner_s": (runner / k, "s"),
        "cli.csv_bytes": (csv_bytes / k, "bytes"),
        "bloch.four_level_g2_s": own("bloch.four_level_g2"),
        "bloch.four_level_g2.calls": calls("bloch.four_level_g2"),
        "bloch.propagate_s": own("bloch.propagate"),
        "bloch.g2_points": (summary["g2_points"] / k, "count"),
        "bloch.liouvillian_build_s": own("bloch.liouvillian_build"),
        "bloch.steady_state_s": own("bloch.steady_state"),
        "bloch.apply_trap_shifts_s": own("bloch.apply_trap_shifts"),
        "bloch.two_level_obe_g2_s": own("bloch.two_level_obe_g2"),
        "integrator.integrate_s": own("integrator.integrate"),
        "integrator.integrate.calls": calls("integrator.integrate"),
        "integrator.rhs_evals.bloch": (summary["rhs_evals"].get("bloch", 0) / k, "count"),
        "integrator.rhs_evals.coherent": (summary["rhs_evals"].get("coherent", 0) / k, "count"),
        "lightshift.hyperfine_shift_s": own("lightshift.hyperfine_shift"),
        "lightshift.hyperfine_shift.calls": calls("lightshift.hyperfine_shift"),
        "lightshift.ground_shift_alkali_s": own("lightshift.ground_shift_alkali"),
        "lightshift.find_magic_wavelength_s": own("lightshift.find_magic_wavelength"),
        "lightshift.load_default_lines_s": own("lightshift.load_default_lines"),
        "angular.wigner_6j_s": own("angular.wigner_6j"),
        "angular.wigner_6j.calls": calls("angular.wigner_6j"),
        "angular.clebsch_gordan_s": own("angular.clebsch_gordan"),
        "angular.clebsch_gordan.calls": calls("angular.clebsch_gordan"),
        "angular.distinct_args_frac": (distinct / angular_calls if angular_calls else 0.0,
                                       "ratio"),
        "coherent.stirap_evolve_s": own("coherent.stirap_evolve"),
        "coherent.stirap_evolve.calls": calls("coherent.stirap_evolve"),
        "loading.stationary_distribution_s": own("loading.stationary_distribution"),
        "loading.stationary_distribution.calls": calls("loading.stationary_distribution"),
        "analysis.fit_doppler_sigma_s": own("analysis.fit_doppler_sigma"),
    }
    for layer in tracer.LAYERS:
        m[f"{layer}.self_s"] = (summary["layers"].get(layer, 0.0) / k, "s")
    return m


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(root, workload, seed)
    shutil.rmtree(bench.work, ignore_errors=True)
    os.makedirs(bench.inputs)
    os.makedirs(bench.outputs)
    try:
        result = run_traced(bench) if trace else run_untraced(bench, seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bench.work))
        except OSError:
            pass
    result["record"] = run_record(bench, result.pop("stats"))
    return result


def print_result(result: dict, prefix: str = "") -> None:
    print(f"{prefix}run record {json.dumps(result['record'], sort_keys=True)}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{prefix}{name} = {value:.6g} {unit}")
    print(f"{prefix}fail_frac = {result['record']['fail_frac']:.6g} "
          f"({result['failed']}/{result['attempted']})")


def result_line(results: dict[str, dict], qualify: bool) -> str:
    metrics = {}
    for workload, res in results.items():
        for name, (value, unit) in res["metrics"].items():
            key = f"{workload}.{name}" if qualify else name
            metrics[key] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in results.values())
    return json.dumps({"correct": failed == 0,
                       "attempted": sum(r["attempted"] for r in results.values()),
                       "failed": failed, "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "singleatom", "cli.py")):
        report("src/singleatom not found; run from the root of a singleatom checkout")
        return 1
    sys.path.insert(0, os.path.join(root, "src"))

    # one CPU for the benchmark and its children: a unit then runs on the
    # vCPU its speed reference was timed on (two vCPUs of a shared host
    # change speed independently)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            report(f"{name}: {exc}")
            return 1
        print_result(results[name], f"[{name}] " if len(names) > 1 else "")
    print(result_line(results, qualify=len(names) > 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
