"""Traced `roughflow` CLI run in a fresh interpreter.

    python3 perfbench/cli_child.py TRACE_JSON run CONFIG --out DIR --seed N

Imports `roughflow.cli`, installs the tracer, runs the CLI's `main` on the
remaining arguments, writes the counts and self times to TRACE_JSON and
exits with the CLI's exit code.  Untraced runs use `python -m roughflow.cli`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main() -> int:
    from roughflow import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        Path(sys.argv[1]).write_text(json.dumps(tracer.snapshot()))


if __name__ == "__main__":
    sys.exit(main())
