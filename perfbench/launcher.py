"""Traced server launcher: ``python3 perfbench/launcher.py SPANS -- serve ...``.

Installs the :data:`spans.SERVER_TARGETS` wrappers, then runs the
program's own CLI with the remaining arguments, so the traced server is
the same ``serve --http`` process the untraced run starts with
``python3 -m repro.tools.cli``.  On SIGUSR1 (and at exit) the spans are
written to SPANS as JSON.
"""

from __future__ import annotations

import os
import signal
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
sys.path.insert(0, _HERE)


def main(argv: list) -> int:
    from spans import SERVER_TARGETS, Recorder

    spans_path, sep, *cli_args = argv
    if sep != "--":
        print("usage: launcher.py SPANS -- CLI-ARGS...", file=sys.stderr)
        return 2
    recorder = Recorder()
    recorder.install(SERVER_TARGETS)
    signal.signal(signal.SIGUSR1, lambda *_: recorder.dump(spans_path))
    from repro.tools.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
