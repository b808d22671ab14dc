#!/usr/bin/env python
"""Invariant checks: the repro.check analyzers plus (optional) mypy.

The CI ``check`` job's entry point, runnable locally with no arguments::

    python scripts/check_invariants.py

1. **Static analyzers** — :func:`repro.check.run_checks` over
   ``src/repro``: lock discipline (guards, frozen fields, nesting under
   the writer lock), async safety, API surface, HTTP status coverage.  Any error-severity diagnostic
   fails the run; warnings fail too (CI is strict — a human running
   ``schema-merge check`` without ``--strict`` can triage warnings).
2. **mypy --strict** — over the typed service core (``repro.service``,
   ``repro.obs``, ``repro.check``), configured in ``pyproject.toml``.
   mypy is a CI-installed dev dependency, not a runtime one: when it
   is not importable the step is *skipped with a notice*, not failed,
   so the script stays runnable in minimal environments.

Exit code: 0 all green, 1 otherwise.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

ANALYZER_TARGETS = [str(ROOT / "src" / "repro")]
MYPY_TARGETS = [
    str(ROOT / "src" / "repro" / "service"),
    str(ROOT / "src" / "repro" / "obs"),
    str(ROOT / "src" / "repro" / "check"),
]


def run_analyzers() -> int:
    from repro.check import run_checks
    from repro.check.runner import render_report

    diagnostics = run_checks(ANALYZER_TARGETS)
    print(render_report(diagnostics))
    return len(diagnostics)


def run_mypy() -> int:
    try:
        import mypy  # noqa: F401 - availability probe only
    except ImportError:
        print("mypy: not installed here — skipped (CI installs it)")
        return 0
    command = [
        sys.executable,
        "-m",
        "mypy",
        "--strict",
        *MYPY_TARGETS,
    ]
    print(f"mypy: {' '.join(command[3:])}")
    completed = subprocess.run(command, cwd=ROOT)
    return completed.returncode


def main() -> int:
    print("static analyzers:")
    analyzer_failures = run_analyzers()
    print("mypy:")
    mypy_failures = run_mypy()
    if analyzer_failures or mypy_failures:
        print(
            f"FAIL: {analyzer_failures} analyzer diagnostic(s), "
            f"mypy exit {mypy_failures}",
            file=sys.stderr,
        )
        return 1
    print("invariants: all green")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
