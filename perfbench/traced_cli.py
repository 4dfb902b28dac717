"""One traced CLI invocation.

    python perfbench/traced_cli.py SUMMARY_JSON -- SCENARIO [FLAGS...]

Imports ``singleatom.cli``, installs the span wrappers of ``tracer.py``,
calls ``singleatom.cli.main(argv)`` and writes the span summary to
SUMMARY_JSON.  Exits with the code ``main`` returned.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main() -> int:
    summary_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SUMMARY_JSON -- SCENARIO [FLAGS...]")
    import singleatom.cli as cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a flag
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
