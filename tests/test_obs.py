"""Tests for repro.obs: metrics, tracing, exporters, service integration.

The contracts under test, roughly in dependency order:

* streaming histograms estimate p50/p95/p99 within one log-bucket ratio
  of the exact ``statistics.quantiles`` answer, with exact min/max;
* the registry get-or-creates shared instruments and replaces
  (last-wins) registered per-instance ones;
* spans nest per thread and parent-link correctly, and the disabled
  mode allocates no span objects at all (the regression bar for the
  hot-path budget);
* exporters round-trip spans/metrics through JSONL and rotate files;
* one ``MergeService.register`` call produces the documented span tree
  and increments the documented counters, and the ``stats()``
  compatibility views keep their historical shapes.
"""

from __future__ import annotations

import json
import statistics
import threading

import pytest

from repro import obs
from repro.core.schema import Schema
from repro.exceptions import IncompatibleSchemasError
from repro.obs import _state
from repro.obs.exporters import JsonlExporter, parse_jsonl, prometheus_text
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracing import _NULL_SPAN, render_spans, span, tracer
from repro.service import MergeService


@pytest.fixture(autouse=True)
def _telemetry_reset():
    """Every test starts disabled with an empty span ring."""
    was_enabled = _state.enabled
    tracer().clear()
    yield
    _state.set_enabled(was_enabled)
    tracer().clear()


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------


class TestHistogram:
    def test_percentiles_track_exact_quantiles(self):
        # A lognormal spread over ~3 decades: the shape service
        # latencies actually have.
        import random

        rng = random.Random(42)
        samples = [rng.lognormvariate(-9.0, 1.0) for _ in range(5000)]
        h = Histogram("t.latency")
        for value in samples:
            h.observe(value)
        # One bucket spans a factor of 10**(1/10) ~ 1.26; allow a shade
        # more for interpolation at the distribution's steep ends.
        factor = 1.35
        for q in (0.50, 0.95, 0.99):
            exact = statistics.quantiles(samples, n=100)[int(q * 100) - 1]
            estimate = h.quantile(q)
            assert exact / factor <= estimate <= exact * factor, (
                f"q={q}: estimate {estimate:.3g} vs exact {exact:.3g}"
            )

    def test_extremes_are_exact(self):
        h = Histogram("t.extremes")
        for value in (0.003, 0.017, 0.4):
            h.observe(value)
        assert h.quantile(0.0) == 0.003
        assert h.quantile(1.0) == 0.4
        assert h.min == 0.003 and h.max == 0.4

    def test_empty_histogram(self):
        h = Histogram("t.empty")
        assert h.quantile(0.5) is None
        assert h.percentiles() == {"p50": None, "p95": None, "p99": None}

    def test_overflow_and_underflow_observations_still_count(self):
        h = Histogram("t.range", lo=1e-3, hi=1.0)
        h.observe(1e-9)   # below lo: first bucket
        h.observe(50.0)   # above hi: overflow bucket
        assert h.count == 2
        assert h.quantile(1.0) == 50.0
        bounds = [bound for bound, _count in h.buckets()]
        assert bounds[-1] == float("inf")

    def test_quantile_fraction_validated(self):
        with pytest.raises(ValueError):
            Histogram("t.bad").quantile(1.5)

    def test_thread_safety_of_observe(self):
        h = Histogram("t.threads")

        def hammer():
            for i in range(1000):
                h.observe(1e-6 * (i + 1))

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 4000


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_get_or_create_shares_instruments(self):
        registry = MetricsRegistry()
        a = registry.counter("t.requests", shard="x")
        b = registry.counter("t.requests", shard="x")
        assert a is b
        assert registry.counter("t.requests", shard="y") is not a

    def test_register_is_last_wins(self):
        registry = MetricsRegistry()
        old = registry.register(Counter("t.hits", cache="c"))
        old.inc(5)
        new = registry.register(Counter("t.hits", cache="c"))
        assert registry.get("t.hits", cache="c") is new
        assert registry.value("t.hits", cache="c") == 0
        assert old.value == 5  # the old owner's reference still works

    def test_callback_gauge_reads_live(self):
        registry = MetricsRegistry()
        box = {"n": 1}
        registry.register(Gauge("t.size", fn=lambda: box["n"]))
        assert registry.value("t.size") == 1
        box["n"] = 7
        assert registry.value("t.size") == 7

    def test_snapshot_is_sorted_and_jsonable(self):
        registry = MetricsRegistry()
        registry.counter("t.b").inc()
        registry.counter("t.a").inc(2)
        registry.histogram("t.h").observe(0.5)
        snapshot = registry.snapshot()
        assert [e["name"] for e in snapshot] == ["t.a", "t.b", "t.h"]
        json.dumps(snapshot)  # must not raise


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


class TestTracing:
    def test_disabled_mode_allocates_no_spans(self):
        # The regression bar: while the switch is off, span() returns
        # one shared no-op object and records nothing.
        handle_a = span("t.request", user=1)
        handle_b = span("t.other")
        assert handle_a is _NULL_SPAN and handle_b is _NULL_SPAN
        with span("t.request"):
            with span("t.child"):
                pass
        assert tracer().spans() == []

    def test_nesting_links_parents(self):
        obs.enable()
        with span("t.root", request=9) as root:
            with span("t.mid") as mid:
                with span("t.leaf") as leaf:
                    pass
        finished = {s.name: s for s in tracer().spans()}
        assert finished["t.leaf"].parent_id == mid.span_id
        assert finished["t.mid"].parent_id == root.span_id
        assert finished["t.root"].parent_id is None
        assert finished["t.root"].attrs["request"] == 9
        assert leaf.duration_s >= 0

    def test_exception_is_recorded_and_propagates(self):
        obs.enable()
        with pytest.raises(RuntimeError):
            with span("t.boom"):
                raise RuntimeError("kaput")
        (finished,) = tracer().spans()
        assert "kaput" in finished.attrs["error"]

    def test_threads_get_independent_stacks(self):
        obs.enable()
        errors = []
        barrier = threading.Barrier(4)

        def work(tag):
            try:
                barrier.wait(timeout=5)
                with span("t.outer", tag=tag) as outer:
                    with span("t.inner", tag=tag) as inner:
                        if inner.parent_id != outer.span_id:
                            errors.append((tag, "bad parent"))
                    if outer.parent_id is not None:
                        errors.append((tag, "outer should be a root"))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append((tag, repr(exc)))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        finished = tracer().spans()
        assert len(finished) == 8
        # Every inner span parents to its own thread's outer span.
        by_id = {s.span_id: s for s in finished}
        for s in finished:
            if s.name == "t.inner":
                assert by_id[s.parent_id].attrs["tag"] == s.attrs["tag"]

    def test_sink_errors_are_contained(self):
        obs.enable()

        def bad_sink(finished):
            raise OSError("disk full")

        tracer().add_sink(bad_sink)
        try:
            with span("t.survives"):
                pass
        finally:
            tracer().remove_sink(bad_sink)
        assert [s.name for s in tracer().spans()] == ["t.survives"]
        assert tracer().dropped_sink_errors >= 1

    def test_render_spans_indents_children(self):
        obs.enable()
        with span("t.root"):
            with span("t.child"):
                pass
        text = render_spans(tracer().spans())
        root_line, child_line = (
            line for line in text.splitlines() if line.strip()
        )
        assert root_line.startswith("t.root")
        assert child_line.startswith("  t.child")


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("t.requests").inc(11)
        registry.histogram("t.latency").observe(0.002)
        path = tmp_path / "telemetry.jsonl"
        obs.enable()
        exporter = JsonlExporter(path)
        tracer().add_sink(exporter.export_span)
        try:
            with span("t.work", component=3):
                pass
            exporter.export_event("t.done", outcome="ok")
            exporter.export_metrics(registry)
        finally:
            tracer().remove_sink(exporter.export_span)
            exporter.close()
        records = parse_jsonl(path)
        assert [r["type"] for r in records] == ["span", "event", "metrics"]
        span_record, event, metrics = records
        assert span_record["name"] == "t.work"
        assert span_record["attrs"] == {"component": 3}
        assert span_record["duration_s"] >= 0
        assert event["outcome"] == "ok"
        by_name = {e["name"]: e for e in metrics["instruments"]}
        assert by_name["t.requests"]["value"] == 11
        assert by_name["t.latency"]["count"] == 1

    def test_jsonl_rotation_keeps_one_backup(self, tmp_path):
        path = tmp_path / "log.jsonl"
        exporter = JsonlExporter(path, max_bytes=200)
        for i in range(50):
            exporter.export_event("t.tick", i=i)
        exporter.close()
        backup = tmp_path / "log.jsonl.1"
        assert backup.exists()
        assert path.stat().st_size <= 400
        # Both generations parse; together they end with the last tick.
        combined = parse_jsonl(backup) + parse_jsonl(path)
        assert combined[-1]["i"] == 49

    def test_callback_sink(self):
        lines = []
        exporter = JsonlExporter(lines.append)
        exporter.export_event("t.ping")
        assert parse_jsonl(lines)[0]["name"] == "t.ping"

    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("t.hits", cache="snap").inc(4)
        registry.histogram("t.lat").observe(0.01)
        text = prometheus_text(registry)
        assert '# TYPE t_hits counter' in text
        assert 't_hits{cache="snap"} 4' in text
        assert "t_lat_count 1" in text
        assert 't_lat_bucket{le="+Inf"} 1' in text


# ----------------------------------------------------------------------
# Service integration
# ----------------------------------------------------------------------


def _schema(*arrows):
    return Schema.build(arrows=list(arrows))


class TestServiceTelemetry:
    def test_register_produces_documented_span_tree(self):
        obs.enable()
        service = MergeService()
        service.register(
            [
                _schema(("Dog", "owner", "Person")),
                _schema(("Case", "judge", "Court")),
            ]
        )
        names = [s.name for s in tracer().spans()]
        # Spans finish leaves-first; the register root closes last.
        assert names[-1] == "service.register"
        assert names.count("service.rebuild") == 2
        assert "service.plan" in names and "service.snapshot" in names
        root = tracer().spans()[-1]
        children = [
            s for s in tracer().spans() if s.parent_id == root.span_id
        ]
        assert {c.name for c in children} == {
            "service.plan",
            "service.rebuild",
            "service.snapshot",
        }

    def test_register_counters(self):
        service = MergeService()  # counters live even while disabled
        tel = service.telemetry
        service.register([_schema(("Dog", "owner", "Person"))])
        service.register([])
        assert tel.calls.value == 2
        assert tel.schemas.value == 1
        assert tel.rollbacks.value == 0

    def test_rollback_counter_and_atomicity(self):
        service = MergeService()
        service.register(
            [
                Schema.build(
                    classes=["Dog", "Animal"], spec=[("Dog", "Animal")]
                )
            ]
        )
        # Individually fine, but folding it into the existing shard
        # closes a Dog <=> Animal cycle — the batch must roll back.
        bad = Schema.build(
            classes=["Dog", "Animal"], spec=[("Animal", "Dog")]
        )
        with pytest.raises(IncompatibleSchemasError):
            service.register([bad])
        assert service.telemetry.rollbacks.value == 1
        assert service.service_stats()["generation"] == 1

    def test_merged_view_outcome_counters(self):
        service = MergeService(
            [
                _schema(("Dog", "owner", "Person")),
                _schema(("Case", "judge", "Court")),
            ]
        )
        tel = service.telemetry
        service.merged_view("Dog")      # cold: miss
        service.merged_view("Dog")      # cached: hit
        assert tel.view_misses.value == 1
        assert tel.view_hits.value == 1
        service.merged_view()           # global, parts cold for "Case"
        assert tel.view_misses.value == 2
        service.merged_view()           # snapshot hit
        assert tel.view_hits.value == 2

    def test_global_view_from_cached_parts_is_partial_hit(self):
        service = MergeService(
            [
                _schema(("Dog", "owner", "Person")),
                _schema(("Case", "judge", "Court")),
            ]
        )
        tel = service.telemetry
        service.merged_view()  # warm the parts and the global snapshot
        # A registration bumps the generation; the parts of the touched
        # component rebuild, the other part is served from cache — but
        # once all parts are warm again, the next global view rebuilds
        # purely from cached parts: a partial hit.
        service.register([_schema(("Dog", "walks", "Park"))])
        service.merged_view("Dog")
        before = tel.view_partial.value
        service.merged_view()
        assert tel.view_partial.value == before + 1

    def test_sampled_latency_histograms(self):
        obs.enable()
        service = MergeService(
            [_schema(("Dog", "owner", "Person"))],
            telemetry_sample_every=1,
        )
        for _ in range(5):
            service.merged_view("Dog")
            service.query("Dog")
        tel = service.telemetry
        assert tel.view_duration.count == 5
        assert tel.query_duration.count == 5
        assert tel.register_duration.count == 1
        assert tel.view_duration.quantile(0.5) > 0

    def test_disabled_mode_records_no_durations(self):
        service = MergeService(
            [_schema(("Dog", "owner", "Person"))],
            telemetry_sample_every=1,
        )
        for _ in range(5):
            service.merged_view("Dog")
        assert service.telemetry.view_duration.count == 0
        assert tracer().spans() == []

    def test_enable_rephases_live_services(self):
        service = MergeService(
            [_schema(("Dog", "owner", "Person"))],
            telemetry_sample_every=1,
        )
        service.merged_view("Dog")
        assert service.telemetry.view_duration.count == 0
        obs.enable()
        service.merged_view("Dog")
        assert service.telemetry.view_duration.count == 1
        obs.disable()
        service.merged_view("Dog")
        assert service.telemetry.view_duration.count == 1

    def test_sample_every_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            MergeService(telemetry_sample_every=3)

    def test_service_stats_compat_shape(self):
        service = MergeService([_schema(("Dog", "owner", "Person"))])
        service.merged_view("Dog")
        service.query("Dog")
        stats = service.service_stats()
        assert stats["components"] == 1
        assert stats["registered_schemas"] == 1
        assert stats["generation"] == 1
        assert stats["requests_served"] == 2
        # The view is built once; the query's answer reuses it.
        assert stats["component_cache"] == {"hits": 1, "misses": 1}
        assert stats["snapshot_cache"] == {"hits": 0, "misses": 1}
        assert stats["telemetry"]["merged_view"]["misses"] == 1
        json.dumps(stats)  # must stay JSON-able

    def test_instruments_visible_in_global_registry(self):
        service = MergeService([_schema(("Dog", "owner", "Person"))])
        service.merged_view("Dog")
        registry = obs.registry()
        assert registry.value("service.register.schemas") == 1
        assert registry.value("service.components") == 1
        assert (
            registry.value("snapshot.misses", cache="service.components") == 1
        )
        # A newer service takes over the shared names (last-wins).
        replacement = MergeService()
        assert registry.value("service.register.schemas") == 0
        del replacement

    def test_gauges_survive_service_collection(self):
        import gc

        service = MergeService([_schema(("Dog", "owner", "Person"))])
        assert obs.registry().value("service.generation") == 1
        del service
        gc.collect()
        assert obs.registry().value("service.generation") == 0


class TestClosureCounters:
    def test_build_and_insert_counters_advance(self):
        from repro.perf.closure import ClosureBuilder

        registry = obs.registry()
        inserts = registry.get("closure.inserts")
        rebuilds = registry.get("closure.components_rebuilt")
        swept = registry.get("closure.arrows_swept")
        i0, r0, s0 = inserts.value, rebuilds.value, swept.value
        builder = ClosureBuilder()
        builder.add_spec_edge("Puppy", "Dog")
        builder.add_arrow("Dog", "owner", "Person")
        builder.build()
        assert inserts.value == i0 + 1
        assert rebuilds.value == r0 + 1
        assert swept.value == s0 + 1
