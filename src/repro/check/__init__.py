"""repro.check — static + dynamic verification of concurrency invariants.

The merge service's concurrency rests on a small discipline: one
writer lock held from plan to publish, fields annotated with the lock
that guards them, and a published registry that lock-free readers load
whole.  Those invariants are integrity
constraints on the *code*, and — like the paper's schema constraints —
they should be checked mechanically, not socially.  This package is
that checker:

* :mod:`repro.check.locks` — lock-discipline linter driven by
  ``# guarded-by:`` / ``# requires-lock:`` / ``# lock: planner`` /
  ``# frozen-after-init`` annotations (rules ``lock-guard``,
  ``lock-nesting``, ``frozen-field``);
* :mod:`repro.check.asyncsafe` — no blocking call reachable from a
  coroutine running inline on the event loop (``async-blocking``);
* :mod:`repro.check.api_surface` — ``__all__`` honesty, facade
  re-export integrity, and exception → HTTP-status coverage
  (``api-surface``, ``http-status-map``);
* :mod:`repro.check.witness` — the runtime lock witness that catches,
  under the concurrency storm tests, the re-entrant writer-lock
  acquire the lexical rules cannot see across a call.

Run it as ``schema-merge check --strict src/repro`` or
``python scripts/check_invariants.py``; the annotation grammar and
every rule are documented in ``docs/STATIC_ANALYSIS.md``.

>>> from repro.check import run_checks_on_sources
>>> bad = "x = {}  # guarded-by: _lock\\ndef f():\\n    x[1] = 2\\n"
>>> [(d.line, d.rule) for d in run_checks_on_sources({"m.py": bad})]
[(3, 'lock-guard')]
"""

from __future__ import annotations

from repro.check.api_surface import check_api_surface
from repro.check.asyncsafe import check_async_safety
from repro.check.diagnostics import ALL_RULES, Diagnostic, SourceFile
from repro.check.locks import check_lock_discipline
from repro.check.runner import (
    iter_python_files,
    render_report,
    run_checks,
    run_checks_on_sources,
)
from repro.check.witness import (
    LockLike,
    LockOrderViolation,
    WitnessedLock,
    disable_witness,
    enable_witness,
    witness_active,
    witness_stats,
)

__all__ = [
    "ALL_RULES",
    "Diagnostic",
    "LockLike",
    "LockOrderViolation",
    "SourceFile",
    "WitnessedLock",
    "check_api_surface",
    "check_async_safety",
    "check_lock_discipline",
    "disable_witness",
    "enable_witness",
    "iter_python_files",
    "render_report",
    "run_checks",
    "run_checks_on_sources",
    "witness_active",
    "witness_stats",
]
