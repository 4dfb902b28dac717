"""Every command of the golden corpus (``tests/golden``) exits and prints
what the corpus holds, byte for byte: exit code, stdout, stderr, the CSV and
the sidecar.  ``tests/golden/regen.py`` rewrites the corpus and counts the
printed values a change moved.  Every sidecar of the corpus replays: its
``parameters`` as a ``--config`` file give the same CSV and parameters.

Only ``spectrum-fit`` and the library cases (the lib-sweep study points,
one four-level propagation and the STIRAP transfers) compute with numpy.
Under a numpy version other than the corpus's their outputs are compared at
``NUMPY_TOLERANCE`` relative, the arrays by their count and sums, and a
failure says so; every other scenario runs on the standard library.
"""

import importlib.util
import json
import pathlib

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regen", pathlib.Path(__file__).parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

CASES = regen.load_manifest()
CORPUS = regen.load_expected()
NUMPY_TOLERANCE = 1e-11


def test_corpus_holds_every_case():
    assert sorted(CORPUS["cases"]) == sorted(case["id"] for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_output_matches_corpus(case, tmp_path):
    got = regen.run_case(case, tmp_path)
    expected = CORPUS["cases"][case["id"]]
    numpy = regen.numpy_version()
    if regen.computes_with_numpy(case) and numpy != CORPUS["numpy"]:
        found = regen.differences(expected, got, NUMPY_TOLERANCE)
        assert not found, (f"numpy {numpy}, corpus recorded under numpy {CORPUS['numpy']}:"
                           f" compared at {NUMPY_TOLERANCE:g} relative: {found}")
    else:
        assert got == expected, (regen.differences(expected, got),
                                 f"corpus recorded under Python {CORPUS['python']}")


# the rows that write a --metadata sidecar, from the flag or from their config
SIDECAR_CASES = [case for case in CASES if any(
    name.endswith(".meta.json") for name in CORPUS["cases"][case["id"]].get("files", {}))]


@pytest.mark.parametrize("case", SIDECAR_CASES, ids=[case["id"] for case in SIDECAR_CASES])
def test_sidecar_replays(case, tmp_path):
    # the sidecar's parameters, written as the config of the scenario's plain
    # line, give the same CSV bytes and the same parameters
    (tmp_path / "run").mkdir()
    (tmp_path / "replay").mkdir()
    first = regen.run_case(case, tmp_path / "run")
    out = case["argv"][case["argv"].index("--out") + 1]
    parameters = json.loads(first["files"][f"{out}.meta.json"])["parameters"]
    replay = regen.run_case({"argv": [case["argv"][0], "--config", "config.json", "--out", out,
                                      "--metadata"], "config": parameters}, tmp_path / "replay")
    assert replay["exit"] == 0, replay["stderr"]
    assert replay["files"][out] == first["files"][out]
    assert json.loads(replay["files"][f"{out}.meta.json"])["parameters"] == parameters
