"""Cold start: no CLI run and no fit loads scipy, and each CLI scenario loads
only the layers it computes with.

Only ``integrator.integrate`` imports scipy, inside the function; the
package no longer calls it (the benchmark's tracer still names it).  Every
CLI run loads the core ``singleatom.cli`` with ``cli_common``, and once its
flags pass, its scenario's family module (``cli_beam``, ``cli_g2``,
``cli_readout`` or ``cli_spectrum``), which imports each layer inside the
check or runner that uses it: numpy only for spectrum-fit, so loading, bell
and every g2 model (the two-level closed form, and the Bloch kernels of
``obe`` for the two-level, four-level and full models) run on the standard
library, and the line-table layers (``lightshift``, ``angular``,
``trapgeometry``) only for the scenarios that read the table or the trap
beam.  ``json`` is loaded only for --config, --metadata and the line table,
and ``argparse`` (with ``gettext``, and ``locale`` at its first message) only
for a line that the scenario table does not read: help, --version and usage
errors.
The standard-library paths load neither ``dataclasses`` (with ``inspect``)
nor ``fractions`` (with ``decimal``): the line-table records are plain
classes and the Racah sums run in integers.  Under ``python -S`` a plain
run loads no ``typing``, and ``re`` only with ``json``.  Each check runs in a
fresh interpreter, so modules imported by other tests do not hide a
module-level import.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.constants as sc

import singleatom
from singleatom import constants
from singleatom.analysis import gaussian_profile
from singleatom.cli import SPECS

SRC = os.path.dirname(os.path.dirname(os.path.abspath(singleatom.__file__)))


def modules_after(code: str, *packages: str, cwd=None, flags=()) -> str:
    """The modules of ``packages`` loaded once ``code`` has run under the
    interpreter options ``flags``, as printed."""
    report = (f"import sys; print(sorted(m for m in sys.modules if any("
              f"m == p or m.startswith(p + '.') for p in {packages!r})))")
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, *flags, "-c", f"{code}\n{report}"],
                            capture_output=True, text=True, env=env, timeout=60, cwd=cwd)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


def cli_run(*argv: str, exit_code: int = 0) -> str:
    """Code running the CLI in-process; another exit code fails the check."""
    return ("import runpy\n"
            f"sys.argv = ['singleatom', {', '.join(map(repr, argv))}]\n"
            "try:\n"
            "    runpy.run_module('singleatom.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            f"    assert exc.code == {exit_code}, exc.code")


# runs write into the test's temporary directory, their working directory
G2 = ("g2", "--delta-mhz", "-31", "--icl", "103", "--points", "201", "--out", "g2.csv")

SPECTRUM_FIT = ("spectrum-fit", "--reference", "ref.csv", "--fluorescence", "fluor.csv")


def write_profiles(directory) -> None:
    """The ref.csv and fluor.csv a spectrum-fit run reads, written by the test
    process, so the checked interpreter imports nothing to make them."""
    for name, sigma in (("ref.csv", 0.5e6), ("fluor.csv", 0.7e6)):
        p = gaussian_profile(np.linspace(-5e6, 5e6, 201), sigma)
        np.savetxt(directory / name, np.column_stack([p.frequency, p.amplitude]),
                   delimiter=",")


@pytest.mark.parametrize("code", [
    "import singleatom.cli",
    "import singleatom.bloch, singleatom.coherent, singleatom.loading, "
    "singleatom.integrator",
    cli_run("trap", "--power-mw", "40", "--waist-um", "3.5"),
    # numpy's eig, inv and svd and the cut-balance recursion need no scipy
    "from singleatom.loading import LoadingParams, stationary_distribution\n"
    "stationary_distribution(LoadingParams(1.0, 0.2, 5e-16, 1e-16))",
    cli_run("loading", "--rate-per-s", "0..1:0.25", "--power-mw", "44",
            "--waist-um", "3.5", "--out", "loading.csv"),
    cli_run(*G2, "--trap-power-mw", "40", "--trap-waist-um", "3.5", "--metadata"),
    cli_run(*G2, "--model", "full", "--env-a", "0.3", "--env-tau-us", "1.2"),
    cli_run(*G2, "--model", "two-level-obe"),
    cli_run(*G2, "--model", "two-level-analytic"),
    # the bounded Brent minimizer needs numpy only
    cli_run(*SPECTRUM_FIT, "--out", "fit.csv", "--metadata"),
    cli_run(*SPECTRUM_FIT, "--validate-only"),
    "import numpy as np\n"
    "from singleatom.analysis import fit_envelope\n"
    "tau = np.linspace(0.0, 1e-5, 400)\n"
    "fit_envelope(tau, 1.0 + 0.24 * np.exp(-tau / 1.8e-6))",
], ids=["import-cli", "import-kernels", "run-trap", "loading-kernel", "run-loading",
        "run-g2-four-level-trap", "run-g2-full", "run-g2-two-level-obe",
        "run-g2-two-level-analytic", "run-spectrum-fit", "validate-spectrum-fit",
        "envelope-fit"])
def test_no_scipy_module_loaded(code, tmp_path):
    write_profiles(tmp_path)
    assert modules_after("import sys\n" + code, "scipy", cwd=tmp_path) == "[]"


@pytest.mark.parametrize("code", [
    "import singleatom.cli",
    "import singleatom.loading",
    cli_run("list"),
    cli_run("--help"),
    cli_run("--version"),
    cli_run("trap", "--power-mw", "40", "--waist-um", "3.5"),
    cli_run("lightshift", "--power-mw", "40", "--waist-um", "3.5"),
    cli_run("magic"),
    # the grid is parsed and checked with the standard library
    cli_run("stirap", "--alpha-deg", "0..90:15", "--validate-only"),
    cli_run("stirap", "--alpha-deg", "0..90:15", "--visibility", "1.25", exit_code=2),
    cli_run("loading", "--rate-per-s", "1", "--power-mw", "44", "--waist-um", "3.5",
            "--n-max", "0", exit_code=2),
    cli_run("loading", "--rate-per-s", "0..1:0.25", "--power-mw", "44",
            "--waist-um", "3.5", "--out", "loading.csv", "--metadata"),
    cli_run(*G2, "--model", "two-level-analytic", "--metadata"),
    # the noisy-singlet CHSH law is closed form; entanglement stays its oracle
    cli_run("bell"),
    cli_run("bell", "--noise-p", "0.9", "--out", "bell.csv", "--metadata"),
    cli_run("bell", "--validate-only"),
], ids=["import-cli", "import-loading", "list", "help", "version", "run-trap",
        "run-lightshift", "run-magic", "validate-stirap-grid", "stirap-bad-visibility",
        "loading-bad-n-max", "run-loading", "run-g2-two-level-analytic", "run-bell",
        "run-bell-metadata", "validate-bell"])
def test_no_numpy_module_loaded(code, tmp_path):
    loaded = modules_after("import sys\n" + code, "numpy", "singleatom.entanglement",
                           cwd=tmp_path)
    assert loaded == "[]"


def test_numpy_scenario_loads_numpy(tmp_path):
    # the check above would pass vacuously if no run loaded numpy;
    # spectrum-fit reads and fits its profiles with numpy
    write_profiles(tmp_path)
    loaded = modules_after("import sys\n" + cli_run(*SPECTRUM_FIT), "numpy", cwd=tmp_path)
    assert "'numpy'" in loaded


TRAP_BEAM = ("--power-mw", "40", "--waist-um", "3.5")

# one run per scenario (g2 with its default four-level model): its flags, and
# the exact sorted package modules it loads (the CLI runs as __main__), so a
# change that adds a module to a scenario's path shows in the diff: the core
# and the scenario's family module, and the layers it computes with; only the
# scenario of NUMPY_SCENARIOS computes with numpy
CORE = ["singleatom", "singleatom.cli_common"]
READOUT = [*CORE, "singleatom.cli_readout", "singleatom.constants", "singleatom.readout"]
SCENARIO_RUNS = {
    "lightshift": (TRAP_BEAM, [*CORE, "singleatom.angular", "singleatom.cli_beam",
                               "singleatom.constants", "singleatom.lightshift",
                               "singleatom.trapgeometry"]),
    "magic": ((), [*CORE, "singleatom.angular", "singleatom.cli_beam", "singleatom.constants",
                   "singleatom.lightshift"]),
    "trap": (TRAP_BEAM, [*CORE, "singleatom.angular", "singleatom.cli_beam",
                         "singleatom.constants", "singleatom.lightshift",
                         "singleatom.trapgeometry"]),
    "loading": (("--rate-per-s", "0..1:0.25", *TRAP_BEAM),
                [*CORE, "singleatom.angular", "singleatom.cli_beam", "singleatom.constants",
                 "singleatom.lightshift", "singleatom.loading", "singleatom.trapgeometry"]),
    "g2": (("--delta-mhz", "-31", "--icl", "103", "--points", "201"),
           [*CORE, "singleatom.cli_g2", "singleatom.constants", "singleatom.dense",
            "singleatom.guards", "singleatom.obe"]),
    "stirap": (("--alpha-deg", "0..90:15"), READOUT),
    "larmor": (("--b-mgauss", "132"), READOUT),
    "bell": ((), READOUT),
    "correlations": (("--beta-deg", "0..180:5", "--basis", "y"), READOUT),
    "spectrum-fit": (SPECTRUM_FIT[1:], [*CORE, "singleatom.analysis", "singleatom.angular",
                                        "singleatom.cli_beam", "singleatom.cli_spectrum",
                                        "singleatom.constants", "singleatom.lightshift"]),
    "pair-rate": (("--eta", "5e-4"), READOUT),
}
NUMPY_SCENARIOS = ("spectrum-fit",)

# the layers that read the line table or the trap beam
LINE_TABLE_LAYERS = ("singleatom.lightshift", "singleatom.angular", "singleatom.trapgeometry")

# standard-library modules that only numpy's scenarios may load: dataclasses
# pulls in inspect (with ast, dis and tokenize), fractions pulls in decimal
HEAVY_STDLIB = ("dataclasses", "inspect", "fractions", "decimal")


def scenario_argv(scenario: str) -> tuple:
    return (scenario, *SCENARIO_RUNS[scenario][0])


def scenario_run(scenario: str) -> str:
    return cli_run(*scenario_argv(scenario), "--out", "out.csv")


def test_every_scenario_has_a_run():
    assert list(SCENARIO_RUNS) == list(SPECS)


@pytest.mark.parametrize("scenario", SCENARIO_RUNS)
def test_package_modules_loaded(scenario, tmp_path):
    write_profiles(tmp_path)
    loaded = modules_after("import sys\n" + scenario_run(scenario), "singleatom", cwd=tmp_path)
    assert loaded == repr(sorted(SCENARIO_RUNS[scenario][1]))


@pytest.mark.parametrize("scenario", SCENARIO_RUNS)
def test_numpy_only_where_computed(scenario, tmp_path):
    write_profiles(tmp_path)
    loaded = modules_after("import sys\n" + scenario_run(scenario), "numpy", cwd=tmp_path)
    assert ("'numpy'" in loaded) == (scenario in NUMPY_SCENARIOS), loaded


OBE = (*G2, "--model", "two-level-obe")


@pytest.mark.parametrize("argv", [
    (*OBE, "--metadata"),
    (*OBE, "--validate-only"),
    # the resonant exceptional point, answered by the closed form
    ("g2", "--model", "two-level-obe", "--delta-mhz", "0", "--icl", "0.4475", "--points", "11",
     "--out", "g2.csv", "--metadata"),
], ids=["run", "validate", "closed-form"])
def test_two_level_obe_loads_no_numpy_layer(argv, tmp_path):
    loaded = modules_after("import sys\n" + cli_run(*argv), "numpy", "singleatom.bloch",
                           "singleatom.integrator", cwd=tmp_path)
    assert loaded == "[]"


@pytest.mark.parametrize("argv", [
    *(scenario_argv(s) for s in ("stirap", "larmor", "bell", "correlations", "pair-rate")),
    (*G2, "--model", "two-level-analytic"),
], ids=["stirap", "larmor", "bell", "correlations", "pair-rate", "two-level-analytic"])
def test_obe_kernel_loaded_only_for_its_model(argv, tmp_path):
    loaded = modules_after("import sys\n" + cli_run(*argv, "--out", "out.csv"),
                           "singleatom.obe", "singleatom.guards", cwd=tmp_path)
    assert loaded == "[]"


FOUR_LEVEL_TRAP = ("--trap-power-mw", "40", "--trap-waist-um", "3.5")
FULL = ("--model", "full", "--env-a", "0.3", "--env-tau-us", "1.2")


@pytest.mark.parametrize("argv", [
    (*G2, "--metadata"),
    (*G2, *FOUR_LEVEL_TRAP, "--metadata"),
    (*G2, *FULL, "--metadata"),
    (*G2, *FULL, *FOUR_LEVEL_TRAP, "--metadata"),
    (*G2, *FOUR_LEVEL_TRAP, "--validate-only"),
    (*G2, *FULL, "--validate-only"),
], ids=["four-level", "four-level-trap", "full", "full-trap", "validate-four-level-trap",
        "validate-full"])
def test_four_level_loads_no_numpy_layer(argv, tmp_path):
    # the stdlib kernel of obe and the dense routines, no numpy layer, and
    # not the two-level closed forms of readout
    loaded = modules_after("import sys\n" + cli_run(*argv), "numpy", "singleatom.bloch",
                           "singleatom.integrator", "singleatom.readout", *HEAVY_STDLIB,
                           cwd=tmp_path)
    assert loaded == "[]"


def test_four_level_run_loads_the_kernel(tmp_path):
    # the check above would pass vacuously if the run loaded nothing
    loaded = modules_after("import sys\n" + cli_run(*G2, *FOUR_LEVEL_TRAP), "singleatom.obe",
                           "singleatom.dense", cwd=tmp_path)
    assert loaded == "['singleatom.dense', 'singleatom.obe']"


def test_two_level_obe_run_loads_the_kernel(tmp_path):
    # the two checks above would pass vacuously if the run loaded nothing
    loaded = modules_after("import sys\n" + cli_run(*OBE), "singleatom.obe", cwd=tmp_path)
    assert loaded == "['singleatom.obe']"


@pytest.mark.parametrize("code", [
    "import singleatom.cli",
    cli_run("list"),
    cli_run("--help"),
    *(scenario_run(s) for s in ("stirap", "larmor", "bell", "correlations", "pair-rate")),
    # refused before the line table is read
    cli_run("trap", "--power-mw", "-40", "--waist-um", "3.5", exit_code=2),
    cli_run("magic", "--bracket-um", "1.6,1.2", exit_code=2),
    cli_run("loading", "--rate-per-s", "1", *TRAP_BEAM, "--n-max", "0", exit_code=2),
    cli_run("g2", "--delta-mhz", "-31", "--icl", "103", "--trap-power-mw", "40",
            exit_code=2),
], ids=["import-cli", "list", "help", "run-stirap", "run-larmor", "run-bell",
        "run-correlations", "run-pair-rate", "trap-bad-power", "magic-bad-bracket", "loading-bad-n-max",
        "g2-trap-without-waist"])
def test_no_line_table_layer_loaded(code, tmp_path):
    assert modules_after("import sys\n" + code, *LINE_TABLE_LAYERS, cwd=tmp_path) == "[]"


# runs that read no config, no line table and write no sidecar
NO_JSON_RUNS = {s: (*scenario_argv(s), "--out", "out.csv") for s in ("stirap", "bell", "pair-rate")}
NO_JSON_RUNS["two-level-analytic"] = (*scenario_argv("g2"), "--model", "two-level-analytic",
                                      "--out", "out.csv")


@pytest.mark.parametrize("name", ["list", *NO_JSON_RUNS])
def test_no_json_without_config_or_sidecar(name, tmp_path):
    argv = NO_JSON_RUNS.get(name, ("list",))
    assert modules_after("import sys\n" + cli_run(*argv), "json", cwd=tmp_path) == "[]"


@pytest.mark.parametrize("name", NO_JSON_RUNS)
def test_sidecar_loads_json(name, tmp_path):
    # the check above would pass vacuously if no run loaded json
    loaded = modules_after("import sys\n" + cli_run(*NO_JSON_RUNS[name], "--metadata"), "json",
                           cwd=tmp_path)
    assert "'json'" in loaded


# argparse imports gettext, and its first message lookup imports locale
ARGPARSE = ("argparse", "gettext", "locale")


@pytest.mark.parametrize("name", ["import-cli", "list", "config", *SCENARIO_RUNS])
def test_plain_line_loads_no_argparse(name, tmp_path):
    write_profiles(tmp_path)
    (tmp_path / "config.json").write_text('{"noise_p": 0.9}')
    code = {"import-cli": "import singleatom.cli", "list": cli_run("list"),
            "config": cli_run("bell", "--config", "config.json", "--phi-b-deg=-30",
                              "--out", "out.csv", "--metadata")}.get(name)
    loaded = modules_after("import sys\n" + (code or scenario_run(name)), *ARGPARSE, cwd=tmp_path)
    assert loaded == "[]"


@pytest.mark.parametrize("argv", [("--help",), ("bell", "--noise", "0.9")],
                         ids=["help", "abbreviated-flag"])
def test_argparse_reads_the_other_lines(argv, tmp_path):
    # the check above would pass vacuously if no line loaded argparse
    loaded = modules_after("import sys\n" + cli_run(*argv), *ARGPARSE, cwd=tmp_path)
    assert "'argparse'" in loaded


def test_g2_without_trap_loads_no_line_table_layer(tmp_path):
    # the bloch layer imports lightshift only to apply a trap field
    loaded = modules_after("import sys\n" + cli_run(*G2), *LINE_TABLE_LAYERS, cwd=tmp_path)
    assert loaded == "[]"


def test_trap_run_loads_the_line_table_layers(tmp_path):
    # the check above would pass vacuously if no run loaded them
    loaded = modules_after("import sys\n" + scenario_run("trap"), *LINE_TABLE_LAYERS,
                           cwd=tmp_path)
    assert loaded == repr(sorted(LINE_TABLE_LAYERS))


# every scenario but spectrum-fit; g2 runs the closed form here, once with a
# trap beam, the two-level Bloch kernel, and the four-level and full kernel
# with a trap beam
STDLIB_RUNS = {s: scenario_argv(s) for s in SCENARIO_RUNS if s not in NUMPY_SCENARIOS}
STDLIB_RUNS["g2"] = (*scenario_argv("g2"), "--model", "two-level-analytic")
STDLIB_RUNS["g2-trap"] = (*STDLIB_RUNS["g2"], "--trap-power-mw", "40", "--trap-waist-um", "3.5")
STDLIB_RUNS["g2-obe"] = (*scenario_argv("g2"), "--model", "two-level-obe")
STDLIB_RUNS["g2-four-level-trap"] = (*scenario_argv("g2"), *FOUR_LEVEL_TRAP)
STDLIB_RUNS["g2-full-trap"] = (*scenario_argv("g2"), *FULL, *FOUR_LEVEL_TRAP)


@pytest.mark.parametrize("validate", [False, True], ids=["run", "validate"])
@pytest.mark.parametrize("name", STDLIB_RUNS)
def test_stdlib_scenarios_load_no_heavy_stdlib_module(name, validate, tmp_path):
    argv = (*STDLIB_RUNS[name], "--out", "out.csv", *(["--validate-only"] if validate else []))
    assert modules_after("import sys\n" + cli_run(*argv), *HEAVY_STDLIB, cwd=tmp_path) == "[]"


def test_numpy_scenario_loads_the_heavy_stdlib_modules(tmp_path):
    # the check above would pass vacuously if no run loaded them; numpy
    # imports inspect, and the profiles of analysis are dataclasses
    write_profiles(tmp_path)
    loaded = modules_after("import sys\n" + cli_run(*SPECTRUM_FIT), *HEAVY_STDLIB, cwd=tmp_path)
    assert "'dataclasses'" in loaded and "'inspect'" in loaded


# the runs of STDLIB_RUNS that read the line table, with json; and the plain
# lines of every such run, of a config file and of a sidecar
LINE_TABLE_RUNS = ("lightshift", "magic", "trap", "loading", "g2-trap", "g2-four-level-trap",
                   "g2-full-trap")
PLAIN_LINES = {name: (*argv, "--out", "out.csv") for name, argv in STDLIB_RUNS.items()}
PLAIN_LINES["config"] = ("bell", "--config", "config.json", "--out", "out.csv")
PLAIN_LINES["metadata"] = ("bell", "--out", "out.csv", "--metadata")


@pytest.mark.parametrize("name", PLAIN_LINES)
def test_plain_line_loads_no_typing_without_site(name, tmp_path):
    # under -S no site hook preloads typing or re, as on an interpreter whose
    # site-packages hold no .pth file that imports them; json's decoder imports re
    (tmp_path / "config.json").write_text('{"noise_p": 0.9}')
    loaded = modules_after("import sys\n" + cli_run(*PLAIN_LINES[name]), "typing", "re", "json",
                           cwd=tmp_path, flags=("-S",))
    reads_json = name in LINE_TABLE_RUNS or name in ("config", "metadata")
    assert "'typing'" not in loaded
    assert ("'json'" in loaded, "'re'" in loaded) == (reads_json, reads_json), loaded


def test_stirap_loads_no_scipy():
    # the Magnus propagator needs numpy only
    assert modules_after(
        "import sys\n"
        "from singleatom.coherent import PulseSchedule, ground_start, stirap_evolve\n"
        "stirap_evolve(PulseSchedule.sin2_pair(140e6, 1e-6), ground_start(),"
        " loss_gamma=3e6)", "scipy") == "[]"


def test_codata_literals_match_scipy():
    # scipy is only the oracle here; the package holds the values as literals
    expected = {
        "C": sc.c,
        "H": sc.h,
        "HBAR": sc.hbar,
        "KB": sc.k,
        "EPS0": sc.epsilon_0,
        "MU_B": sc.value("Bohr magneton"),
        "ATOMIC_MASS": sc.atomic_mass,
    }
    for name, value in expected.items():
        assert getattr(constants, name) == value, name
