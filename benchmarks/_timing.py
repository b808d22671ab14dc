"""The one wall-clock timer and trajectory-JSON writer of the runner suites.

``benchmarks/runner.py`` and the suite drivers it calls
(``bench_service.py``, ``bench_persistence.py``) time through
:func:`time_call`, and so does ``bench_obs_overhead.py``; the
paper-figure benches time through pytest-benchmark.  A change to timing
semantics (warmup handling, per-run setup, what "best" means) therefore
lands in every ratio gate at once.

Every suite's artifact goes through :func:`write_trajectory`: same
schema version, same record shape, same serialization (sorted keys,
two-space indent, trailing newline, no timestamps — wall-clock values
are data, not metadata, and nothing else in the file varies between
runs of identical measurements).

Record shape (``TRAJECTORY_SCHEMA_VERSION`` guards it)::

    {
      "name":   "join_all/200",        # unique within the file
      "group":  "scalability",         # free-form grouping key
      "timing": {"best_s": .., "mean_s": .., "repeat": n, "runs": [..]},
      ...                              # any extra JSON-able fields
    }
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

TRAJECTORY_SCHEMA_VERSION = 1

__all__ = [
    "TRAJECTORY_SCHEMA_VERSION",
    "time_call",
    "record",
    "trajectory",
    "write_trajectory",
]


def time_call(
    fn: Callable[[], Any],
    repeat: int = 5,
    warmup: int = 1,
    setup: Optional[Callable[[], Any]] = None,
) -> Dict[str, Any]:
    """Best-of-*repeat* wall-clock timing of ``fn()``.

    *setup* (when given) runs before every timed call, outside the
    clock — used e.g. to clear the engine caches so a benchmark measures
    the cold path on purpose.
    """
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    for _ in range(warmup):
        if setup is not None:
            setup()
        fn()
    runs: List[float] = []
    for _ in range(repeat):
        if setup is not None:
            setup()
        start = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - start)
    return {
        "best_s": min(runs),
        "mean_s": sum(runs) / len(runs),
        "repeat": repeat,
        "runs": runs,
    }


def record(name: str, group: str, timing: Dict[str, Any], **extra: Any) -> Dict[str, Any]:
    """One canonical trajectory record."""
    entry: Dict[str, Any] = {"name": name, "group": group, "timing": timing}
    entry.update(extra)
    return entry


def trajectory(
    records: Iterable[Dict[str, Any]],
    suite: str,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The full trajectory payload for a suite run."""
    return {
        "schema_version": TRAJECTORY_SCHEMA_VERSION,
        "suite": suite,
        "meta": meta or {},
        "records": sorted(records, key=lambda r: (r["group"], r["name"])),
    }


def write_trajectory(
    path: str,
    records: Iterable[Dict[str, Any]],
    suite: str,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Serialize a trajectory to *path* in the canonical byte format."""
    payload = trajectory(records, suite, meta)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload
