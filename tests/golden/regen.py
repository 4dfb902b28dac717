"""Rewrite the golden-output corpus of the command line.

    PYTHONPATH=src python tests/golden/regen.py [--check]

Runs each case of ``manifest.json`` (an argv list, and optionally the JSON
config that it reads as ``config.json``) through ``singleatom.cli.main`` in
a fresh directory holding the files of ``inputs/``, with the terminal width
fixed, and writes its exit code, stdout, stderr and the files it wrote to
``expected.json``.  An output of more than ``MAX_ROWS`` lines is stored as
its sha256 and line count.

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


def run_case(case: dict, directory: pathlib.Path) -> dict:
    """Exit code, stdout, stderr and written files of one case, run in ``directory``."""
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


def differences(old: dict, new: dict, rel: float = 0.0) -> list[str]:
    """One line per output of a case that differs beyond ``rel`` relative
    (0: any byte), naming the output and the count of changed values."""
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
