"""Cold start: no CLI run and no fit loads scipy.

Only ``integrator.integrate`` (the library-only mean-number loading ODE)
imports scipy, inside the function.  Each check runs in a fresh
interpreter, so modules imported by other tests do not hide a module-level
scipy import.
"""

import os
import subprocess
import sys

import pytest
import scipy.constants as sc

import singleatom
from singleatom import constants

SRC = os.path.dirname(os.path.dirname(os.path.abspath(singleatom.__file__)))

REPORT_SCIPY = (
    "import sys; print(sorted(m for m in sys.modules"
    " if m == 'scipy' or m.startswith('scipy.')))"
)


def scipy_modules_after(code: str, cwd=None) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", f"{code}\n{REPORT_SCIPY}"],
                            capture_output=True, text=True, env=env, timeout=60, cwd=cwd)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


def cli_run(*argv: str) -> str:
    """Code running the CLI in-process; a nonzero exit fails the check."""
    return ("import runpy\n"
            f"sys.argv = ['singleatom', {', '.join(map(repr, argv))}]\n"
            "try:\n"
            "    runpy.run_module('singleatom.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code")


# runs write into the test's temporary directory, their working directory
G2 = ("g2", "--delta-mhz", "-31", "--icl", "103", "--points", "201", "--out", "g2.csv")

# writes ref.csv and fluor.csv there before a spectrum-fit run
PROFILES = (
    "import numpy as np\n"
    "from singleatom.analysis import gaussian_profile\n"
    "for name, sigma in (('ref.csv', 0.5e6), ('fluor.csv', 0.7e6)):\n"
    "    p = gaussian_profile(np.linspace(-5e6, 5e6, 201), sigma)\n"
    "    np.savetxt(name, np.column_stack([p.frequency, p.amplitude]), delimiter=',')\n")
SPECTRUM_FIT = ("spectrum-fit", "--reference", "ref.csv", "--fluorescence", "fluor.csv")


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
    PROFILES + cli_run(*SPECTRUM_FIT, "--out", "fit.csv", "--metadata"),
    PROFILES + cli_run(*SPECTRUM_FIT, "--validate-only"),
    "import numpy as np\n"
    "from singleatom.analysis import fit_envelope\n"
    "tau = np.linspace(0.0, 1e-5, 400)\n"
    "fit_envelope(tau, 1.0 + 0.24 * np.exp(-tau / 1.8e-6))",
], ids=["import-cli", "import-kernels", "run-trap", "loading-kernel", "run-loading",
        "run-g2-four-level-trap", "run-g2-full", "run-g2-two-level-obe",
        "run-g2-two-level-analytic", "run-spectrum-fit", "validate-spectrum-fit",
        "envelope-fit"])
def test_no_scipy_module_loaded(code, tmp_path):
    assert scipy_modules_after("import sys\n" + code, cwd=tmp_path) == "[]"


def test_stirap_loads_no_scipy():
    # the Magnus propagator needs numpy only
    assert scipy_modules_after(
        "import sys\n"
        "from singleatom.coherent import PulseSchedule, ground_start, stirap_evolve\n"
        "stirap_evolve(PulseSchedule.sin2_pair(140e6, 1e-6), ground_start(),"
        " loss_gamma=3e6)") == "[]"


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
