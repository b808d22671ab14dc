"""Run every invariant analyzer over a file set and collect diagnostics.

:func:`run_checks` is the programmatic entry point (the CLI subcommand
and ``scripts/check_invariants.py`` both call it): it expands the given
paths to ``.py`` files, parses each one, runs the per-file analyzers
(lock discipline, async safety) plus the cross-file
API-surface pass, and returns the findings sorted by location.

A file that fails to parse contributes a single ``parse-error``
diagnostic instead of aborting the run — CI should report *every*
problem in one pass, not die on the first.

>>> src = "x = 1  # guarded-by: _lock\\ndef f():\\n    global x\\n    x = 2\\n"
>>> [d.rule for d in run_checks_on_sources({"m.py": src})]
['lock-guard']
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Union

from repro.check.api_surface import check_api_surface
from repro.check.asyncsafe import check_async_safety
from repro.check.diagnostics import Diagnostic, SourceFile
from repro.check.locks import check_lock_discipline

__all__ = [
    "iter_python_files",
    "render_report",
    "run_checks",
    "run_checks_on_sources",
]

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules", "build", "dist"}


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Every ``.py`` file under *paths* (files pass through), sorted."""
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in candidate.parts):
                    out.append(candidate)
        elif path.suffix == ".py":
            out.append(path)
    return out


def _analyze(files: List[SourceFile]) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for sf in files:
        diagnostics.extend(check_lock_discipline(sf))
        diagnostics.extend(check_async_safety(sf))
        diagnostics.extend(sf.suppression_diagnostics())
    diagnostics.extend(check_api_surface(files))
    return sorted(set(diagnostics))


def run_checks(paths: Sequence[Union[str, Path]]) -> List[Diagnostic]:
    """All diagnostics for the ``.py`` files under *paths*, sorted."""
    diagnostics: List[Diagnostic] = []
    files: List[SourceFile] = []
    for path in iter_python_files(paths):
        try:
            files.append(SourceFile(path))
        except SyntaxError as exc:
            diagnostics.append(
                Diagnostic(
                    path=str(path),
                    line=exc.lineno or 1,
                    rule="parse-error",
                    message=f"could not parse: {exc.msg}",
                )
            )
    diagnostics.extend(_analyze(files))
    return sorted(set(diagnostics))


def run_checks_on_sources(sources: Dict[str, str]) -> List[Diagnostic]:
    """:func:`run_checks` over in-memory ``{label: source}`` texts.

    Test helper: corpus assertions and doctests check analyzer output
    without touching the filesystem.
    """
    diagnostics: List[Diagnostic] = []
    files: List[SourceFile] = []
    for label, text in sorted(sources.items()):
        try:
            files.append(SourceFile(label, text))
        except SyntaxError as exc:
            diagnostics.append(
                Diagnostic(
                    path=label,
                    line=exc.lineno or 1,
                    rule="parse-error",
                    message=f"could not parse: {exc.msg}",
                )
            )
    diagnostics.extend(_analyze(files))
    return sorted(set(diagnostics))


def render_report(diagnostics: Iterable[Diagnostic]) -> str:
    """The human-facing report: one diagnostic per line plus a summary."""
    found = list(diagnostics)
    lines = [d.render() for d in found]
    errors = sum(1 for d in found if d.severity == "error")
    warnings = sum(1 for d in found if d.severity == "warning")
    lines.append(
        f"invariant check: {errors} error(s), {warnings} warning(s)"
        if (errors or warnings)
        else "invariant check: all clean"
    )
    return "\n".join(lines)
