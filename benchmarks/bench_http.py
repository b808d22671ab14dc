"""HTTP — front-end throughput and latency under concurrent writers.

Drives a real ``schema-merge serve --http`` subprocess over loopback
with 1 / 4 / 16 concurrent writer connections (the
``concurrent-disjoint-N`` workloads: each writer registers into its own
component), and measures:

* **RPS + latency percentiles** per concurrency level — the scaling
  gate is ``16-writer RPS ≥ 2x single-writer RPS``: a single serial
  client leaves the server idle for its own side of every round trip,
  and concurrent writers fill that dead time — their ``register``
  calls serialize on the service's one writer lock, but the parsing,
  decoding and encoding around them and the clients' own work overlap.
  The gate only engages on hosts with ≥ 2 CPUs: on a
  single core the round trip is 100% CPU-saturated (measured: ~0.2 ms
  client + ~0.5 ms server CPU per request, zero idle), so *no* locking
  design can scale it — the artifact records the measured ratio and
  why it was not gated;
* **warm GET round trips** — p50/p99 and requests/s of one client
  re-reading a memoized component view and query answer (recorded,
  not gated);
* **read latency under write load** — a deliberately huge register
  batch (calibrated to take ≥ ~100 ms server-side) is posted in the
  background while warm ``query`` reads hammer the same server; the
  non-blocking gate is ``read p50 < in-flight-write duration / 4``.
  If reads queued behind the writer's lock (the old single-RLock
  design), every read under write load would cost the write's
  remaining duration and the gate fails by an order of magnitude.

Emits ``BENCH_http.json`` via ``benchmarks/runner.py --suite http``.
This module is driven by the runner, not collected by the pytest
sweep (it owns its own subprocess lifecycle).
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.generators.random_schemas import random_schema_family
from repro.generators.workloads import get_concurrent_stream
from repro.io.json_io import dumps as io_dumps, schema_to_dict
from repro.service import MergeService
from repro.service.api_types import API_FORMAT

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WRITER_LEVELS = (1, 4, 16)
HOST = "127.0.0.1"
# The largest register batch the read-under-write check fires.
MAX_BIG_BATCH = 640
# The fewest mid-write reads the non-blocking median is taken over.
MIN_READS_DURING_WRITE = 5


def _percentiles(samples: List[float]) -> Dict[str, Optional[float]]:
    if not samples:
        return {"p50": None, "p95": None, "p99": None, "max": None}
    ordered = sorted(samples)

    def at(q: float) -> float:
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    return {
        "p50": at(0.50),
        "p95": at(0.95),
        "p99": at(0.99),
        "max": ordered[-1],
    }


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


class HttpServer:
    """A ``schema-merge serve --http`` subprocess on a free port."""

    def __init__(self, seed_files: List[str]):
        self.port = _free_port()
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.tools.cli",
                "serve",
                *seed_files,
                "--http",
                str(self.port),
                "--host",
                HOST,
            ],
            env={**os.environ, "PYTHONPATH": os.path.join(_ROOT, "src")},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            stdin=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited early with {self.process.returncode}"
                )
            try:
                with socket.create_connection((HOST, self.port), timeout=0.5):
                    return
            except OSError:
                time.sleep(0.05)
        raise RuntimeError("server did not start listening in time")

    def __enter__(self) -> "HttpServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.process.terminate()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def _post(
    conn: http.client.HTTPConnection, docs: List[Dict[str, Any]]
) -> int:
    body = json.dumps({"format": API_FORMAT, "schemas": docs})
    conn.request("POST", "/v1/schemas", body)
    response = conn.getresponse()
    response.read()
    return response.status


def _get(conn: http.client.HTTPConnection, path: str) -> int:
    conn.request("GET", path)
    response = conn.getresponse()
    response.read()
    return response.status


def _seed_files(tmpdir: str, schemas) -> List[str]:
    paths = []
    for index, schema in enumerate(schemas):
        path = os.path.join(tmpdir, f"seed{index:02d}.json")
        with open(path, "w") as handle:
            handle.write(io_dumps(schema))
        paths.append(path)
    return paths


def run_writer_level(
    n_writers: int, total_requests: int
) -> Dict[str, Any]:
    """RPS + latency for *n_writers* concurrent register connections.

    Every level issues the same *total_requests* (split across writers)
    against a fresh server, so throughput figures compare level to
    level: the only variable is how many requests are in flight.
    """
    stream = get_concurrent_stream(f"concurrent-disjoint-{n_writers}")
    initial, lanes = stream.make()
    docs_per_lane = [
        [schema_to_dict(schema) for _kind, schema in lane] for lane in lanes
    ]
    per_writer = total_requests // n_writers

    with tempfile.TemporaryDirectory() as tmpdir:
        seeds = _seed_files(tmpdir, initial)
        with HttpServer(seeds) as server:
            barrier = threading.Barrier(n_writers + 1)
            latencies: List[List[float]] = [[] for _ in range(n_writers)]
            failures: List[int] = []

            def writer(index: int) -> None:
                docs = docs_per_lane[index]
                conn = http.client.HTTPConnection(
                    HOST, server.port, timeout=60
                )
                try:
                    barrier.wait(timeout=60)
                    for request_index in range(per_writer):
                        doc = docs[request_index % len(docs)]
                        start = time.perf_counter()
                        status = _post(conn, [doc])
                        latencies[index].append(time.perf_counter() - start)
                        if status != 200:
                            failures.append(status)
                finally:
                    conn.close()

            threads = [
                threading.Thread(target=writer, args=(i,), daemon=True)
                for i in range(n_writers)
            ]
            for thread in threads:
                thread.start()
            barrier.wait(timeout=60)
            wall_start = time.perf_counter()
            for thread in threads:
                thread.join(timeout=300)
            wall = time.perf_counter() - wall_start
            alive = any(thread.is_alive() for thread in threads)

    flat = [sample for lane in latencies for sample in lane]
    requests_done = len(flat)
    return {
        "writers": n_writers,
        "requests": requests_done,
        "wall_s": wall,
        "rps": requests_done / wall if wall > 0 else 0.0,
        "latency_s": _percentiles(flat),
        "failures": len(failures),
        "hung": alive,
    }


def _big_batch(size: int, seed: int, prefix: str) -> List[Dict[str, Any]]:
    """A *size*-schema register batch that lands in a fresh pod."""
    family = random_schema_family(
        n_schemas=size,
        pool_size=30,
        n_classes=16,
        n_labels=6,
        arrow_density=0.25,
        spec_density=0.1,
        seed=seed,
        prefix=prefix,
    )
    return [schema_to_dict(schema) for schema in family]


def _calibrate_big_batch(
    conn: http.client.HTTPConnection, target_s: float
) -> Tuple[int, float]:
    """Grow a fresh-pod register batch until it takes ≥ *target_s*."""
    size = 40
    while True:
        docs = _big_batch(size, seed=97 + size, prefix=f"Big{size}_")
        start = time.perf_counter()
        status = _post(conn, docs)
        duration = time.perf_counter() - start
        assert status == 200, f"calibration register failed: {status}"
        if duration >= target_s or size >= MAX_BIG_BATCH:
            return size, duration
        size *= 2


def _reads_during_write(
    write_conn: http.client.HTTPConnection,
    read_conn: http.client.HTTPConnection,
    read_path: str,
    docs: List[Dict[str, Any]],
) -> Tuple[float, List[float]]:
    """Post *docs* in the background and read until the write returns.

    Returns the write's duration and the latencies of the reads that
    ran entirely inside it.
    """
    window: Dict[str, float] = {}

    def write() -> None:
        window["start"] = time.perf_counter()
        status = _post(write_conn, docs)
        window["end"] = time.perf_counter()
        window["status"] = status

    thread = threading.Thread(target=write, daemon=True)
    thread.start()
    during: List[Tuple[float, float]] = []
    while thread.is_alive():
        start = time.perf_counter()
        assert _get(read_conn, read_path) == 200
        during.append((start, time.perf_counter()))
    thread.join(timeout=300)
    assert window.get("status") == 200, f"big write failed: {window}"
    inside = [
        end - start
        for start, end in during
        if start >= window["start"] and end <= window["end"]
    ]
    return window["end"] - window["start"], inside


def run_read_latency_under_write(target_write_s: float = 0.1) -> Dict[str, Any]:
    """Warm-read latency while a long register is in flight.

    The gate is the **median** read latency under ``duration / 4``,
    with at least :data:`MIN_READS_DURING_WRITE` samples.  The median
    is the statistic that actually discriminates the two designs: a
    service that serialized reads behind the writer's lock would hold
    the first mid-write read for the write's whole remaining duration —
    the sample count collapses toward 1 and that sample costs
    ~``duration`` — while lock-free reads land a steady stream of
    sub-millisecond samples.

    The measurement has a precondition: the fired write must last at
    least *target_write_s* and hold enough reads to take a median of.
    A calibrated batch can come in shorter when fired again, so while
    the precondition fails the batch doubles and fires again (up to
    :data:`MAX_BIG_BATCH` schemas); every attempt is recorded.  The
    verdict is taken on the last attempt and never retried.

    The tail (p95/max, reported but not gated) is *not* a lock-freedom
    signal on a single-core host: when the writer thread executes a
    long C-level operation (a big frozenset union or sort inside the
    closure rebuild), the GIL cannot be preempted mid-operation, so one
    unlucky read can stall for ~100 ms of pure scheduler convoy even
    though no lock is contended.  Both shapes appear in the artifact;
    only the median is asserted.
    """
    stream = get_concurrent_stream("concurrent-disjoint-4")
    initial, _lanes = stream.make()
    read_class = str(sorted(str(c) for c in initial[0].classes)[0])
    read_path = f"/v1/query/{read_class}"

    with tempfile.TemporaryDirectory() as tmpdir:
        seeds = _seed_files(tmpdir, initial)
        with HttpServer(seeds) as server:
            write_conn = http.client.HTTPConnection(
                HOST, server.port, timeout=300
            )
            read_conn = http.client.HTTPConnection(
                HOST, server.port, timeout=60
            )
            try:
                # Warm the read path, then baseline its idle latency.
                assert _get(read_conn, read_path) == 200
                idle: List[float] = []
                for _ in range(100):
                    start = time.perf_counter()
                    assert _get(read_conn, read_path) == 200
                    idle.append(time.perf_counter() - start)

                # Calibrate a write big enough to be visibly in flight.
                batch_size, calibrated_s = _calibrate_big_batch(
                    write_conn, target_write_s
                )

                # Fire a big batch (a fresh pod each time) and read
                # against it, until the write meets the precondition.
                attempts: List[Dict[str, Any]] = []
                while True:
                    docs = _big_batch(
                        batch_size,
                        seed=1297 + len(attempts),
                        prefix=f"BigW{len(attempts)}_",
                    )
                    write_s, inside = _reads_during_write(
                        write_conn, read_conn, read_path, docs
                    )
                    attempts.append(
                        {
                            "write_batch_schemas": batch_size,
                            "write_duration_s": write_s,
                            "reads_during_write": len(inside),
                        }
                    )
                    measurable = (
                        write_s >= target_write_s
                        and len(inside) >= MIN_READS_DURING_WRITE
                    )
                    if measurable or batch_size >= MAX_BIG_BATCH:
                        break
                    batch_size *= 2
            finally:
                write_conn.close()
                read_conn.close()

    during_stats = _percentiles(inside)
    bar_s = write_s / 4
    p50 = during_stats["p50"]
    nonblocking = (
        p50 is not None and len(inside) >= MIN_READS_DURING_WRITE and p50 < bar_s
    )
    return {
        "read_class": read_class,
        "idle_latency_s": _percentiles(idle),
        "target_write_s": target_write_s,
        "calibration_duration_s": calibrated_s,
        "attempts": attempts,
        "write_batch_schemas": batch_size,
        "write_duration_s": write_s,
        "reads_during_write": len(inside),
        "latency_during_write_s": during_stats,
        "stalled_reads": sum(1 for sample in inside if sample >= bar_s),
        "bar_s": bar_s,
        "gate_statistic": "p50",
        "reads_nonblocking_ok": bool(nonblocking),
    }


def run_warm_gets(n_requests: int) -> Dict[str, Dict[str, Any]]:
    """Loopback round trips of warm view and query ``GET``s.

    Each route's first ``GET`` fills the shard's body memo; the timed
    ones that follow are memo hits, sent one after another on one
    keep-alive connection.  The warm body is checked byte for byte
    against a fresh encode of the same registry in process.
    """
    initial, _lanes = get_concurrent_stream("concurrent-disjoint-4").make()
    mirror = MergeService(initial)
    cls = sorted(str(c) for c in initial[0].classes)[0]
    sid = mirror.component_of(cls)
    query = {"format": API_FORMAT}
    query.update(mirror.query(cls).to_dict())
    view = {
        "format": API_FORMAT,
        "component": sid,
        "view": schema_to_dict(mirror.merged_view(sid)),
    }
    routes = {
        "view": (f"/v1/components/{sid}/view", json.dumps(view).encode()),
        "query": (f"/v1/query/{cls}", json.dumps(query).encode()),
    }
    results: Dict[str, Dict[str, Any]] = {}
    with tempfile.TemporaryDirectory() as tmpdir:
        with HttpServer(_seed_files(tmpdir, initial)) as server:
            conn = http.client.HTTPConnection(HOST, server.port, timeout=60)
            try:
                for route, (path, expected) in routes.items():
                    conn.request("GET", path)
                    body = conn.getresponse().read()
                    if body != expected:
                        raise AssertionError(
                            f"GET {path} differs from a fresh encode"
                        )
                    latencies = []
                    failures = 0
                    wall_start = time.perf_counter()
                    for _ in range(n_requests):
                        start = time.perf_counter()
                        failures += _get(conn, path) != 200
                        latencies.append(time.perf_counter() - start)
                    wall = time.perf_counter() - wall_start
                    results[route] = {
                        "path": path,
                        "body_bytes": len(body),
                        "requests": n_requests,
                        "wall_s": wall,
                        "rps": n_requests / wall if wall > 0 else 0.0,
                        "latency_s": _percentiles(latencies),
                        "failures": failures,
                    }
            finally:
                conn.close()
    return results


def run_http_bench(smoke: bool = False) -> Dict[str, Any]:
    """The full suite: writer scaling levels, warm GETs, the non-blocking gate."""
    total_requests = 96 if smoke else 480
    levels = {}
    for n_writers in WRITER_LEVELS:
        levels[str(n_writers)] = run_writer_level(n_writers, total_requests)
    warm_gets = run_warm_gets(200 if smoke else 2000)

    read_under_write = run_read_latency_under_write(
        target_write_s=0.05 if smoke else 0.1
    )

    single = levels["1"]["rps"]
    sixteen = levels["16"]["rps"]
    scaling = sixteen / single if single > 0 else 0.0
    healthy = not any(
        level["failures"] or level["hung"] for level in levels.values()
    ) and not any(warm["failures"] for warm in warm_gets.values())
    cpu_count = os.cpu_count() or 1
    # Two reasons not to gate the throughput ratio: smoke runs (shared
    # runners jitter too much) and single-core hosts (the round trip is
    # CPU-saturated end to end, so concurrency has no idle time to
    # reclaim — the ratio measures the GIL, not the locking design).
    scaling_gate_active = not smoke and cpu_count >= 2
    summary = {
        "smoke": smoke,
        "cpu_count": cpu_count,
        "rps_1_writer": single,
        "rps_4_writers": levels["4"]["rps"],
        "rps_16_writers": sixteen,
        "scaling_16_vs_1": scaling,
        "scaling_required": 2.0,
        "scaling_gate_active": scaling_gate_active,
        "scaling_not_gated_reason": (
            None
            if scaling_gate_active
            else ("smoke mode" if smoke else "single-core host")
        ),
        "scaling_ok": scaling >= 2.0 if scaling_gate_active else None,
        "reads_nonblocking_ok": read_under_write["reads_nonblocking_ok"],
        "acceptance_pass": healthy
        and read_under_write["reads_nonblocking_ok"]
        and (not scaling_gate_active or scaling >= 2.0),
    }
    return {
        "levels": levels,
        "warm_gets": warm_gets,
        "read_latency_under_write": read_under_write,
        "summary": summary,
    }
