"""Persistence benchmark — durable-registry cost and warm-restart payoff.

Measures the two sides of the ``repro.service.storage`` bargain on the
service acceptance family (the ``service-sharded-200`` workload):

* **warm restart** — a killed-and-restarted service recovers from the
  newest snapshot cut plus the log suffix (``MergeService.open``), and
  the recovery leaves it ready to serve: the *first* ``merged_view``
  after restart is gated ≥ 10x faster than a cold ``join_all`` over
  the same schemas with the engine caches cleared (what every request
  would cost if the restart had to refold).  The recovery wall time
  itself and the no-snapshot full-log-replay restart are reported as
  informational records.
* **log-append overhead** — the write path of the *operating* service:
  the stream's register requests each cost one sealed JSONL append.
  The append's software cost (encode + buffered write + flush) is
  micro-measured per logged record and amortized over the acceptance
  request stream; the gate is ≤ 10% of the in-memory stream replay
  wall.  The fsync is priced separately (``fsync_cost_s`` /
  ``stream_overhead_fsync``): it is the durability rent paid to the
  filesystem, not bookkeeping the log format can shrink, so it is
  reported, not gated.

Run via the suite runner, which reads the two verdicts
(``restart_ok``, ``append_overhead_ok``) from the summary::

    PYTHONPATH=src python benchmarks/runner.py --suite persistence
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import Any, Dict, List, Tuple

from _timing import time_call

from repro.core.ordering import join_all
from repro.core.schema import Schema
from repro.generators.workloads import get_request_stream, replay
from repro.perf import clear_caches
from repro.service.service import MergeService
from repro.service.storage import (
    FileBackend,
    LogRecord,
    RegistrationEntry,
)

__all__ = ["run_persistence_bench"]

APPEND_OVERHEAD_BUDGET = 0.10
MIN_RESTART_SPEEDUP = 10.0


def _pod_batches(initial: List[Schema], per_batch: int) -> List[List[Schema]]:
    """The initial family as register-sized batches (one per pod)."""
    return [
        initial[start : start + per_batch]
        for start in range(0, len(initial), per_batch)
    ]


def _populate(data_dir: str, batches: List[List[Schema]]) -> MergeService:
    service = MergeService.open(data_dir)
    for batch in batches:
        service.register(batch)
    return service


def _measure_restart(
    data_dir: str, repeat: int
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """(recovery wall, first-view latency) for a snapshot-led restart."""
    recover_runs: List[float] = []
    view_runs: List[float] = []
    for _ in range(repeat):
        clear_caches()
        start = time.perf_counter()
        service = MergeService.open(data_dir)
        mid = time.perf_counter()
        service.merged_view()
        done = time.perf_counter()
        service.close()
        recover_runs.append(mid - start)
        view_runs.append(done - mid)
    return (
        {
            "best_s": min(recover_runs),
            "mean_s": sum(recover_runs) / len(recover_runs),
            "repeat": repeat,
            "runs": recover_runs,
        },
        {
            "best_s": min(view_runs),
            "mean_s": sum(view_runs) / len(view_runs),
            "repeat": repeat,
            "runs": view_runs,
        },
    )


def _append_cost_s(records: List[LogRecord], fsync: bool, repeat: int) -> float:
    """Best-of-*repeat* total cost of appending *records* to a fresh log."""
    runs: List[float] = []
    for _ in range(repeat):
        data_dir = tempfile.mkdtemp(prefix="bench-persist-append-")
        try:
            backend = FileBackend(data_dir, fsync=fsync)
            start = time.perf_counter()
            for record in records:
                backend.append(record)
            runs.append(time.perf_counter() - start)
            backend.close()
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)
    return min(runs)


def run_persistence_bench(smoke: bool = False, repeat: int = 5) -> Dict[str, Any]:
    """Measure restart payoff and append overhead; return a JSON-able dict."""
    workload = "service-sharded-small" if smoke else "service-sharded-200"
    stream = get_request_stream(workload)
    initial, requests = stream.make()
    request_list = list(requests)
    per_batch = 5 if smoke else 10  # the workload's per-pod schema count
    batches = _pod_batches(initial, per_batch)

    # --- warm restart vs cold join_all ---------------------------------
    data_dir = tempfile.mkdtemp(prefix="bench-persist-restart-")
    try:
        writer = _populate(data_dir, batches)
        writer.save()  # cut the snapshot a clean shutdown would leave
        expected = writer.merged_view()
        writer.close()

        cold = time_call(
            lambda: join_all(initial), repeat=repeat, setup=clear_caches
        )

        recovery, first_view = _measure_restart(data_dir, repeat)
        check = MergeService.open(data_dir)
        restored = check.merged_view()
        check.close()
        if restored != expected:
            raise AssertionError("restarted view differs from the original")

        # Worst case: no snapshot survives, every record replays.
        manifest = os.path.join(data_dir, FileBackend.MANIFEST_NAME)
        with open(manifest, "rb") as handle:
            manifest_bytes = handle.read()
        os.unlink(manifest)
        try:
            replay_recovery, replay_view = _measure_restart(data_dir, repeat)
        finally:
            with open(manifest, "wb") as handle:
                handle.write(manifest_bytes)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    # --- log-append overhead on the write path -------------------------
    # The operating service's write path: every register request in the
    # acceptance stream commits one log record.  Encode cost is real
    # software overhead; the fsync is the durability price of the disk.
    stream_registers = [
        LogRecord(
            kind="register",
            generation=index + 1,
            entries=(RegistrationEntry(payload),),
        )
        for index, (kind, payload) in enumerate(request_list)
        if kind == "register"
    ]
    append_soft_s = _append_cost_s(stream_registers, fsync=False, repeat=repeat)
    append_fsync_s = _append_cost_s(stream_registers, fsync=True, repeat=repeat)

    replay_service = MergeService(initial)
    try:
        stream_wall = time_call(
            lambda: replay(replay_service, request_list),
            repeat=repeat,
            warmup=1,
        )
    finally:
        replay_service.close()

    overhead_soft = append_soft_s / stream_wall["best_s"]
    overhead_fsync = append_fsync_s / stream_wall["best_s"]
    restart_speedup = cold["best_s"] / first_view["best_s"]
    summary = {
        "workload": workload,
        "smoke": smoke,
        "schemas": len(initial),
        "stream_requests": len(request_list),
        "stream_registers": len(stream_registers),
        "append_cost_soft_s": append_soft_s,
        "append_cost_fsync_s": append_fsync_s,
        "stream_overhead_soft": overhead_soft,
        "stream_overhead_fsync": overhead_fsync,
        "append_overhead_budget": APPEND_OVERHEAD_BUDGET,
        # Smoke streams are a handful of requests, so a fixed append
        # cost reads as a huge fraction; like the other suites, the
        # numeric floors only gate full runs (the restored-view
        # equality assertion holds in both modes).
        "append_overhead_ok": smoke
        or overhead_soft <= APPEND_OVERHEAD_BUDGET,
        "restart_speedup_vs_cold_join_all": restart_speedup,
        "recovery_wall_s": recovery["best_s"],
        "replay_recovery_wall_s": replay_recovery["best_s"],
        "min_restart_speedup": MIN_RESTART_SPEEDUP,
        "restart_ok": smoke or restart_speedup >= MIN_RESTART_SPEEDUP,
    }
    return {
        "timings": {
            "join_all_cold": cold,
            "recovery": recovery,
            "first_view_after_restart": first_view,
            "replay_recovery": replay_recovery,
            "first_view_after_replay": replay_view,
            "stream_replay_memory": stream_wall,
        },
        "summary": summary,
    }
