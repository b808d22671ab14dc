"""Persistence benchmark — durable-registry cost and warm-restart payoff.

Measures the two sides of the ``repro.service.storage`` bargain on the
service acceptance family (the ``service-sharded-200`` workload):

* **warm restart** — a killed-and-restarted service recovers from the
  newest snapshot cut plus the log suffix written after it (the last
  ``SUFFIX_BATCHES`` register batches; ``MergeService.open``), and
  the recovery leaves it ready to serve: the *first* ``merged_view``
  after restart is gated ≥ 10x faster than a cold ``join_all`` over
  the same schemas with the engine caches cleared (what every request
  would cost if the restart had to refold).  The recovery wall time
  itself and the no-snapshot full-log-replay restart are reported as
  informational records, and so are the snapshot-led recovery's layers
  (``recovery_load_state``, ``recovery_replay``, ``recovery_prewarm``,
  timed in separate instrumented opens), the number of schema
  documents it decodes (``recovery_schema_decodes``) and the number of
  single-schema closures (``ClosureBuilder.close`` calls, which
  ``Schema.build`` and ``schema_from_dict`` both make) it runs
  (``recovery_schema_closures``), which must be 0: recovery folds each
  member's generator form into its component and closes no document
  on its own.
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
from typing import Any, Callable, Dict, List, Tuple

from _timing import time_call

from repro.core.ordering import join_all
from repro.core.schema import Schema
from repro.generators.workloads import get_request_stream, replay
from repro.obs.metrics import REGISTRY
from repro.perf import clear_caches
from repro.perf.closure import ClosureBuilder
from repro.service import storage
from repro.service.service import MergeService
from repro.service.storage import (
    FileBackend,
    LogRecord,
    RegistrationEntry,
)

__all__ = ["run_persistence_bench"]

APPEND_OVERHEAD_BUDGET = 0.10
MIN_RESTART_SPEEDUP = 10.0
#: Register batches logged after the cut, so a restart replays a suffix.
SUFFIX_BATCHES = 2


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


def _timing(runs: List[float]) -> Dict[str, Any]:
    return {
        "best_s": min(runs),
        "mean_s": sum(runs) / len(runs),
        "repeat": len(runs),
        "runs": runs,
    }


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
    return _timing(recover_runs), _timing(view_runs)


#: The layers of ``MergeService.open``: each is the time spent in one method.
_RECOVERY_LAYERS: Tuple[Tuple[str, type, str], ...] = (
    ("load_state", FileBackend, "load_state"),
    ("replay", MergeService, "_apply_record"),
    ("prewarm", MergeService, "_global_view"),
)


def _measure_recovery_layers(data_dir: str, repeat: int) -> Dict[str, Any]:
    """Where a snapshot-led ``MergeService.open`` spends its time.

    Wraps each layer's method, the storage module's one schema decoder
    (``generators_from_dict``) and
    ``ClosureBuilder.close`` (every single-schema closure) for the
    duration of *repeat* opens, so these opens
    are not the ones the ``recovery`` record times.  Returns one timing
    per layer and, per open, the schema documents decoded, the
    single-schema closures run and the log records replayed.
    """
    spent: Dict[str, float] = {}
    decodes = [0]
    closures = [0]

    def timed(layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[layer] += time.perf_counter() - start

        return wrapper

    def counted(decoder: Callable[[Dict[str, Any]], Any]) -> Callable[..., Any]:
        def wrapper(doc: Dict[str, Any]) -> Any:
            decodes[0] += 1
            return decoder(doc)

        return wrapper

    def closing(cls: type, *args: Any, **kwargs: Any) -> Schema:
        closures[0] += 1
        return close(cls, *args, **kwargs)

    decoders = {
        name: getattr(storage, name)
        for name in ("generators_from_dict",)
    }
    close = ClosureBuilder.close.__func__  # type: ignore[attr-defined]
    runs: Dict[str, List[float]] = {layer: [] for layer, _o, _a in _RECOVERY_LAYERS}
    replayed = REGISTRY.value("storage.replays") or 0
    originals = [(owner, attr, getattr(owner, attr)) for _l, owner, attr in _RECOVERY_LAYERS]
    try:
        for layer, owner, attr in _RECOVERY_LAYERS:
            setattr(owner, attr, timed(layer, getattr(owner, attr)))
        for name, decoder in decoders.items():
            setattr(storage, name, counted(decoder))
        ClosureBuilder.close = classmethod(closing)  # type: ignore[method-assign, assignment]
        for _ in range(repeat):
            clear_caches()
            spent.update(dict.fromkeys(runs, 0.0))
            MergeService.open(data_dir).close()
            for layer, layer_runs in runs.items():
                layer_runs.append(spent[layer])
    finally:
        ClosureBuilder.close = classmethod(close)  # type: ignore[method-assign, assignment]
        for name, decoder in decoders.items():
            setattr(storage, name, decoder)
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
    replayed = (REGISTRY.value("storage.replays") or 0) - replayed
    return {
        "timings": {f"recovery_{layer}": _timing(r) for layer, r in runs.items()},
        "decodes": decodes[0] / repeat,
        "closures": closures[0] / repeat,
        "replayed": replayed / repeat,
    }


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
        # The directory a service killed between cuts leaves: a cut,
        # then a few logged batches that a restart must replay.
        writer = _populate(data_dir, batches[:-SUFFIX_BATCHES])
        writer.save()
        for batch in batches[-SUFFIX_BATCHES:]:
            writer.register(batch)
        expected = writer.merged_view()
        writer.close()

        cold = time_call(
            lambda: join_all(initial), repeat=repeat, setup=clear_caches
        )

        recovery, first_view = _measure_restart(data_dir, repeat)
        layers = _measure_recovery_layers(data_dir, repeat)
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
        "recovery_schema_decodes": layers["decodes"],
        "recovery_schema_closures": layers["closures"],
        "recovery_closures_ok": layers["closures"] == 0,
        "recovery_replayed_records": layers["replayed"],
        "replay_recovery_wall_s": replay_recovery["best_s"],
        "min_restart_speedup": MIN_RESTART_SPEEDUP,
        "restart_ok": smoke or restart_speedup >= MIN_RESTART_SPEEDUP,
    }
    return {
        "timings": {
            "join_all_cold": cold,
            "recovery": recovery,
            **layers["timings"],
            "first_view_after_restart": first_view,
            "replay_recovery": replay_recovery,
            "first_view_after_replay": replay_view,
            "stream_replay_memory": stream_wall,
        },
        "summary": summary,
    }
