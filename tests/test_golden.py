"""Every command of the golden corpus (``tests/golden``) exits and prints
what the corpus holds, byte for byte: exit code, stdout, stderr, the CSV and
the sidecar.  ``tests/golden/regen.py`` rewrites the corpus and counts the
printed values a change moved.

Only ``spectrum-fit`` computes with numpy.  Under a numpy version other than
the corpus's its outputs are compared at ``NUMPY_TOLERANCE`` relative, and a
failure says so; every other scenario runs on the standard library.
"""

import importlib.util
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
    if case["argv"][:1] == ["spectrum-fit"] and numpy != CORPUS["numpy"]:
        found = regen.differences(expected, got, NUMPY_TOLERANCE)
        assert not found, (f"numpy {numpy}, corpus recorded under numpy {CORPUS['numpy']}:"
                           f" compared at {NUMPY_TOLERANCE:g} relative: {found}")
    else:
        assert got == expected, (regen.differences(expected, got),
                                 f"corpus recorded under Python {CORPUS['python']}")
