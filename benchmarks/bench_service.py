"""Service benchmark — replay request streams, measure, verify.

The driver behind ``benchmarks/runner.py --suite service``.  For one
named request stream (:mod:`repro.generators.workloads`) it measures:

* **cold baseline** — ``join_all`` over the initial schemas with the
  engine caches cleared first (what every request would cost without
  the service);
* **warm views** — repeated ``merged_view()`` after warm-up (the
  steady-state request cost; the runner gates it ≥
  :data:`MIN_VIEW_SPEEDUP` times faster than the baseline on the
  acceptance workload);
* **replay** — the full mixed view/query/register stream, for
  end-to-end request throughput.  The replay service runs with
  telemetry enabled and ``telemetry_sample_every=1`` (streams are only
  a few hundred requests), so the result carries true per-request
  latency percentiles and cache hit rates from :mod:`repro.obs`;
* **invalidation** — register one schema overlapping exactly one
  component and count component-cache misses on a full re-scan: the
  delta must be exactly 1 (only the touched component recomputes).

Run via the suite runner::

    PYTHONPATH=src python benchmarks/runner.py --suite service
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from _timing import time_call

from repro.core.ordering import join_all
from repro.core.schema import Schema
from repro.generators.workloads import get_request_stream, replay
from repro.obs import _state as _obs_state
from repro.obs.exporters import JsonlExporter
from repro.obs.tracing import tracer
from repro.perf import clear_caches
from repro.service.service import MergeService

__all__ = ["MIN_VIEW_SPEEDUP", "run_bench"]

MIN_VIEW_SPEEDUP = 10.0


def _invalidation_probe(service: MergeService) -> Schema:
    """A fresh schema overlapping exactly one existing component."""
    components = service.components()
    sid = min(components)
    anchor = next(iter(service.component_schemas(sid)[0].sorted_classes()))
    return Schema.build(
        arrows=[(str(anchor), "bench_probe", f"BenchProbe{sid}")]
    )


def _hit_rate(stats: Dict[str, int]) -> Optional[float]:
    lookups = stats["hits"] + stats["misses"] + stats.get("partial_hits", 0)
    if not lookups:
        return None
    return (stats["hits"] + stats.get("partial_hits", 0)) / lookups


def _percentile_block(histogram) -> Dict[str, Any]:
    return {**histogram.percentiles(), "count": histogram.count}


def run_bench(
    workload: str = "service-mixed-200",
    repeat: int = 3,
    telemetry_jsonl: Optional[str] = None,
) -> Dict[str, Any]:
    """Measure a request-stream workload end to end.

    Returns a JSON-able dict: ``timings`` (cold join_all, warm
    merged_view, stream replay), ``latency`` (per-request p50/p95/p99
    from the replay service's histograms), ``cache_hit_rates``,
    ``summary`` (speedup, invalidation verdict), ``invalidation`` (the
    only-one-component check) and the final ``service_stats()``.

    *telemetry_jsonl* (a path) additionally streams every replay span
    to a JSONL log and appends a final metrics snapshot — the artifact
    CI uploads from the bench smoke job.
    """
    stream = get_request_stream(workload)
    initial, requests = stream.make()

    cold = time_call(
        lambda: join_all(initial), repeat=repeat, setup=clear_caches
    )

    service = MergeService(initial)
    component_ids = sorted(service.components())
    # Warm every per-component view plus the global one.
    for sid in component_ids:
        service.merged_view(sid)
    service.merged_view()
    warm = time_call(lambda: service.merged_view(), repeat=repeat, warmup=0)

    # The replay service samples every request (streams are short) so
    # its histograms are full latency distributions, not estimates.
    replay_service = MergeService(initial, telemetry_sample_every=1)
    was_enabled = _obs_state.enabled
    exporter = (
        JsonlExporter(telemetry_jsonl) if telemetry_jsonl is not None else None
    )
    _obs_state.set_enabled(True)
    if exporter is not None:
        tracer().add_sink(exporter.export_span)
    try:
        stream_timing = time_call(
            lambda: replay(replay_service, requests), repeat=1, warmup=0
        )
    finally:
        if exporter is not None:
            tracer().remove_sink(exporter.export_span)
            exporter.export_event(
                "bench.replay", workload=workload, requests=len(requests)
            )
            exporter.export_metrics()
            exporter.close()
        _obs_state.set_enabled(was_enabled)

    # Invalidation: a registration must recompute only its component.
    before = service.service_stats()["component_cache"]["misses"]
    service.register([_invalidation_probe(service)])
    for sid in sorted(service.components()):
        service.merged_view(sid)
    after = service.service_stats()["component_cache"]["misses"]
    invalidation = {
        "components": len(component_ids),
        "component_cache_misses_delta": after - before,
        "only_touched_component": (after - before) == 1,
    }

    speedup = (
        cold["best_s"] / warm["best_s"] if warm["best_s"] > 0 else float("inf")
    )
    stats = replay_service.service_stats()
    tel = replay_service.telemetry
    latency = {
        "merged_view": _percentile_block(tel.view_duration),
        "query": _percentile_block(tel.query_duration),
        "register": _percentile_block(tel.register_duration),
    }
    cache_hit_rates = {
        "component_cache": _hit_rate(stats["component_cache"]),
        "snapshot_cache": _hit_rate(stats["snapshot_cache"]),
        "merged_view": _hit_rate(stats["telemetry"]["merged_view"]),
    }
    return {
        "workload": workload,
        "initial_schemas": len(initial),
        "requests": len(requests),
        "timings": {
            "join_all_cold": cold,
            "merged_view_warm": warm,
            "stream_replay": stream_timing,
        },
        "latency": latency,
        "cache_hit_rates": cache_hit_rates,
        "summary": {
            "view_speedup_vs_cold_join_all": speedup,
            "requests_per_second": (
                len(requests) / stream_timing["best_s"]
                if stream_timing["best_s"] > 0
                else float("inf")
            ),
            "invalidation_ok": invalidation["only_touched_component"],
        },
        "invalidation": invalidation,
        "service_stats": stats,
    }
