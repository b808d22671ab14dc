"""The process-global telemetry switch.

One boolean, read on hot paths (``_state.enabled``) and flipped through
:func:`set_enabled`.  Code that derives something from the switch reads
it when it needs it — the merge service's read path reads it only on
the 1-in-N request its sampling mask selects — so a flip needs no
notification.  The switch gates *allocation-bearing* telemetry only
(tracing spans, duration timing); plain counters are always live
because they cost an integer increment and the compatibility
``stats()`` views depend on them.

Kept in its own tiny module (rather than ``repro.obs.__init__``) so
:mod:`repro.obs.tracing` can read the flag without importing the
package ``__init__`` it is itself imported by.
"""

from __future__ import annotations

__all__ = ["enabled", "set_enabled"]

#: The switch itself.  Read directly on hot paths; write via
#: :func:`set_enabled`.
enabled = False


def set_enabled(flag: bool) -> None:
    """Flip the global switch."""
    global enabled
    enabled = bool(flag)
