"""repro.perf — the high-throughput merge engine layer.

Three cooperating mechanisms make the core algebra fast without
changing its semantics (every one is property-tested against the
preserved cold-path reference implementations in
:mod:`repro.perf.reference`):

* **hash-consed interning** (:mod:`repro.perf.interning`) — class
  names and closed schemas are canonicalized so structurally equal
  values are pointer-equal; equality short-circuits on identity and
  hashes are precomputed, which removes the dominant cost of the
  closure computations (element comparison inside big sets of tuples);
* **incremental closure** (:mod:`repro.perf.closure`) — the one
  closure engine: :class:`ClosureBuilder` folds any number of schemas
  through one mutable specialization index and closes arrows once at
  the end, instead of n full re-closures; ``Schema.build`` and
  ``Schema.with_*`` close through it too;
* **dense-id bitset kernels** (:mod:`repro.perf.closure`) — each
  builder maps its interned names to dense integer ids, class sets
  become Python-int bitmasks, and the closure kernels run as bulk
  word-parallel OR/AND.  Every ``Schema`` is such a mask table
  (``repro.core.schema.DenseClosure``).

``engine_stats()`` / ``clear_caches()`` are the operational surface:
benchmarks report the former, tests use the latter to force cold paths.

This ``__init__`` imports only the core-free primitives; the builder
(which imports ``repro.core.schema``) loads lazily via PEP 562 so that
the core modules themselves can import ``repro.perf.interning``
without a cycle.

>>> from repro.core.schema import Schema  # registers its intern tables
>>> from repro.perf import ClosureBuilder, clear_caches, engine_stats
>>> sorted(engine_stats())
['intern']
>>> clear_caches()  # cold-start; never changes any result
>>> engine_stats()["intern"]["schema.schemas"]["size"]
0
>>> builder = ClosureBuilder().add_spec_edge("Puppy", "Dog")
>>> builder.build().is_spec("Puppy", "Dog")
True
"""

from __future__ import annotations

from typing import Any, Dict

from repro.perf.interning import (
    InternTable,
    clear_intern_tables,
    intern_stats,
)

__all__ = [
    "InternTable",
    "ClosureBuilder",
    "DenseClosure",
    "intern_stats",
    "engine_stats",
    "clear_caches",
    "clear_intern_tables",
]


def engine_stats() -> Dict[str, Dict[str, Any]]:
    """One merged view of every intern table."""
    return {"intern": intern_stats()}


def clear_caches() -> None:
    """Reset the whole engine to a cold state.

    Safe at any point: interning is transparent, so clearing only costs
    the next calls their warm-up.  Used by property
    tests to compare cold and warm paths, and by long-running services
    to shed memory between workloads.
    """
    clear_intern_tables()


def __getattr__(attr: str) -> Any:
    if attr in ("ClosureBuilder", "DenseClosure"):
        from repro.perf import closure

        return getattr(closure, attr)
    raise AttributeError(f"module {__name__!r} has no attribute {attr!r}")
