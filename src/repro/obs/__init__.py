"""repro.obs — telemetry for the merge engine and service.

The observability layer the service, its HTTP front end and its
storage are debugged and benchmarked with.  Three
cooperating pieces, all dependency-free and core-free (nothing here
imports ``repro.core``, so every layer can report into it):

* **metrics** (:mod:`repro.obs.metrics`) — a process-global
  :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges and
  streaming histograms (fixed log-spaced buckets: p50/p95/p99 with no
  stored samples).  The instrument catalogue lives in
  ``docs/OBSERVABILITY.md``.
* **tracing** (:mod:`repro.obs.tracing`) — ``span(name, **attrs)``
  context managers with thread-local nesting, so one instrumented
  ``MergeService.register`` yields a parent-linked tree:
  register → plan → per-component rebuild → snapshot.
* **exporters** (:mod:`repro.obs.exporters`) — a JSONL span/event/
  metrics log (rotating file or callback sink) and a Prometheus-style
  text dump; ``schema-merge stats`` / ``schema-merge trace`` are the
  human front ends.

**The global switch.** Telemetry is disabled by default.  Counters are
always live (an integer add; the ``stats()`` compatibility views read
them), but spans and duration histograms only engage after
:func:`enable` — and the instrumented hot read path samples its timing
1-in-N so the enabled-mode overhead on a warm ``merged_view`` stays
under 5% (``benchmarks/bench_obs_overhead.py`` enforces this).

>>> import repro.obs as obs
>>> obs.is_enabled()
False
>>> obs.enable()
>>> obs.tracer().clear()
>>> with obs.span("demo.request", user=42):
...     with obs.span("demo.lookup"):
...         pass
>>> child, root = obs.tracer().spans()[-2:]
>>> child.parent_id == root.span_id and root.attrs["user"] == 42
True
>>> obs.disable()
>>> obs.span("demo.request") is obs.span("demo.other")  # shared no-op
True
>>> obs.registry().counter("demo.hits").inc()            # counters: always on
>>> obs.registry().value("demo.hits")
1
>>> obs.tracer().clear()
"""

from __future__ import annotations

from repro.obs import _state
from repro.obs.exporters import JsonlExporter, parse_jsonl, prometheus_text
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    counter,
    gauge,
    histogram,
)
from repro.obs.tracing import Span, Tracer, render_spans, span, tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlExporter",
    "MetricsRegistry",
    "REGISTRY",
    "Span",
    "Tracer",
    "counter",
    "disable",
    "enable",
    "gauge",
    "histogram",
    "is_enabled",
    "parse_jsonl",
    "prometheus_text",
    "registry",
    "render_spans",
    "span",
    "tracer",
]


def enable() -> None:
    """Turn spans and duration timing on, process-wide."""
    _state.set_enabled(True)


def disable() -> None:
    """Back to the zero-span default (counters keep counting)."""
    _state.set_enabled(False)


def is_enabled() -> bool:
    """Whether spans/durations are currently recorded."""
    return _state.enabled


def registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return REGISTRY
