"""The three workloads.  Each returns its end-to-end figures and, when
traced, its per-layer figures; answer checks feed ``Run.fail``."""

from __future__ import annotations

import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import checks
import gen
import spans as spanlib
from speed import Speed
from merge_worker import ROUNDS, RSS_JOBS
from server import Server, pin

#: Server or worker launches per run; setup_s is their median.
SETUPS = 3
#: read-mostly scales each one-second slice by the host speed sampled in
#: it and its neighbours; proper-merge scales each merge by the samples
#: within SAMPLE_WINDOW_NS of its start (see speed.py).
SLICE_NS = 1_000_000_000
SAMPLE_WINDOW_NS = 300_000_000
#: read-mostly: open-loop writes per second on the second connection.
WRITE_RATE = 25.0
#: durable-ingest: ops per episode (one server life: start, stream,
#: SIGKILL, recovery).  Fixed, so the registry, and with it the cost of
#: a snapshot cut, reaches the same size in every episode.
EPISODE_OPS = 500
SNAPSHOT_EVERY = 64
#: proper-merge: jobs in the list.  The first of the worker's rounds
#: takes a third of the run, ~20 s of jobs at most; the worker wraps
#: around if it ever runs out.
MERGE_JOBS = 2000

FLUSH_POLICY = (
    f"fsync on every log append and snapshot write; snapshot cut every "
    f"{SNAPSHOT_EVERY} log appends (--snapshot-every {SNAPSHOT_EVERY})"
)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def series_sum(values: Dict[str, float], name: str) -> float:
    """Sum of every Prometheus series of *name*, whatever its labels."""
    return sum(
        v for key, v in values.items() if key == name or key.startswith(name + "{")
    )


class Run:
    """One benchmark run: its settings, scratch directory and tallies."""

    def __init__(self, root: str, seed: int, seconds: float, run_dir: str) -> None:
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.run_dir = run_dir
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.notes: List[str] = []
        self.inputs = ""
        self.servers: List[Server] = []
        self.workers: List[subprocess.Popen] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def server(self, serve_args: List[str], trace: bool) -> Server:
        tag = f"server-{len(self.servers) + 1}"
        server = Server(
            self.root,
            os.path.join(self.run_dir, f"{tag}.log"),
            serve_args,
            os.path.join(self.run_dir, f"{tag}.spans.json") if trace else None,
        )
        self.servers.append(server)
        return server

    def reap(self) -> None:
        """Kill and wait for every process the run started that still runs."""
        for server in self.servers:
            server.kill()
        for proc in self.workers:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()

    def python(self, script: str, *args: str) -> List[str]:
        return [sys.executable, os.path.join(self.root, "perfbench", script), *args]


class Result:
    """What one pass of a workload measured."""

    def __init__(self) -> None:
        #: The end-to-end figures under their generic names.
        self.e2e: Dict[str, float] = {}
        #: The same figures (and a few more) under the workload's own
        #: names, with units and sample counts, for the printed report.
        self.named: List[Tuple[str, float, str, str]] = []
        self.layers: Dict[str, float] = {}

    def report(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.named.append((name, value, unit, note))


def _http_self_us(
    joiner: spanlib.Joiner, requests: Sequence[Tuple[int, int]], names: Sequence[str]
) -> float:
    if not requests:
        return 0.0
    return mean([
        (done - sent - joiner.covered_ns(sent, done, names)) / 1e3
        for sent, done in requests
    ])


def _window(spans: Sequence[spanlib.Span], start: int, end: int) -> List[spanlib.Span]:
    return [s for s in spans if start <= s[1] and s[2] <= end]


def _counter_layers(before: Dict[str, float], after: Dict[str, float], writes: int) -> Dict[str, float]:
    """Per-layer figures read from the always-on counters of ``/v1/stats``."""
    def delta(name: str) -> float:
        return series_sum(after, name) - series_sum(before, name)

    hits, misses = delta("snapshot_hits"), delta("snapshot_misses")
    revalidations = delta("snapshot_revalidations")
    lookups = hits + misses + revalidations
    swept = delta("closure_arrows_swept")
    return {
        "service.register.plan_retries": delta("service_register_plan_retries"),
        "service.register.rollbacks": delta("service_register_rollbacks"),
        "snapshots.hit_ratio": (hits + revalidations) / lookups if lookups else 0.0,
        "snapshots.revalidations": revalidations,
        "snapshots.evictions": delta("snapshot_evictions"),
        "closure.inserts": delta("closure_inserts"),
        "closure.arrows_swept": swept,
        "closure.components_rebuilt": delta("closure_components_rebuilt"),
        "closure.arrows_swept_per_write": swept / writes if writes else 0.0,
        "storage.appends": delta("storage_appends"),
        "storage.snapshot_writes": delta("storage_snapshot_writes"),
    }


def _span_layers(spans: Sequence[spanlib.Span]) -> Dict[str, float]:
    layer = {
        "json_io.encode_us": "json_io.encode",
        "json_io.decode_us": "json_io.decode",
        "service.query_us": "service.query",
        "service.view_us": "service.view",
        "service.register_us": "service.register",
        "service.retire_us": "service.retire",
        "closure.fold_us": "closure.fold",
        "closure.build_us": "closure.build",
        "storage.append_us": "storage.append",
        "storage.save_state_us": "storage.save_state",
    }
    return {metric: spanlib.mean_us(spans, name) for metric, name in layer.items()}


# ----------------------------------------------------------------------
# read-mostly
# ----------------------------------------------------------------------


def read_mostly(run: Run, trace: bool) -> Result:
    from repro.io.json_io import schema_from_dict, schema_to_dict
    from repro.service import MergeService

    plan = gen.read_mostly(
        run.seed,
        n_reads=int(run.seconds * 6000) + 1000,
        n_writes=int(run.seconds * WRITE_RATE) + 1,
    )
    run.inputs = gen.digest(
        plan["seed_batches"] + [p.encode() for p in plan["reads"]] + plan["writes"]
    )
    result = Result()
    speed = Speed()
    setups = []
    server: Optional[Server] = None
    for _ in range(SETUPS):
        if server is not None:
            server.stop()
        server = run.server([], trace)
        mark = speed.bracket()
        started = server.start()
        ready = time.perf_counter()
        conn = server.connect()
        for batch in plan["seed_batches"]:
            _expect_ok(conn.request("POST", "/v1/schemas", batch), "seed batch")
        for cls in plan["classes"]:
            _expect_ok(conn.request("GET", f"/v1/query/{cls}"), f"warm {cls}")
        for sid in range(gen.READ_COMPONENTS):
            _expect_ok(conn.request("GET", f"/v1/components/{sid}/view"), "warm view")
        conn.close()
        setups.append((started + time.perf_counter() - ready) * speed.factor_since(mark))
    assert server is not None

    before = server.counters() if trace else {}
    reader, writer = server.connect(), server.connect()
    reads, writes = plan["reads"], plan["writes"]
    read_log: List[Tuple[str, int, int, int, int]] = []
    write_log: List[Tuple[int, int, int, int, int]] = []
    start = time.perf_counter_ns() + 1_000_000
    deadline = start + int(run.seconds * 1e9)
    period = 1e9 / WRITE_RATE

    def write_loop() -> None:
        for index, body in enumerate(writes):
            due = start + int(index * period)
            if due >= deadline:
                return
            delay = due - time.perf_counter_ns()
            if delay > 0:
                time.sleep(delay / 1e9)
            status, _, sent, done = writer.request("POST", "/v1/schemas", body)
            write_log.append((index, due, sent, done, status))

    thread = threading.Thread(target=write_loop, name="open-loop-writer")
    thread.start()
    try:
        while time.perf_counter_ns() < start:
            pass
        index = 0
        while time.perf_counter_ns() < deadline:
            speed.tick()
            path = reads[index % len(reads)]
            index += 1
            status, body, sent, done = reader.request("GET", path)
            read_log.append((path, status, sent, done, len(body)))
    finally:
        thread.join()
    window_end = time.perf_counter_ns()
    after = server.counters() if trace else {}
    peak_kb = server.vmhwm_kb()

    run.attempted += len(read_log) + len(write_log)
    for path, status, *_ in read_log:
        if status != 200:
            run.fail(f"GET {path} answered {status}")
    for index, _, _, _, status in write_log:
        if status != 200:
            run.fail(f"write {index} answered {status}")

    # Answer check: every class, and every component view, against a
    # mirror given the same acknowledged writes in the same order.
    mirror = MergeService()
    for batch in plan["seed_batches"]:
        mirror.register([schema_from_dict(d) for d in json.loads(batch)["schemas"]])
    classes = set(plan["classes"])
    for index, _, _, _, status in write_log:
        if status == 200:
            docs = json.loads(writes[index])["schemas"]
            mirror.register([schema_from_dict(d) for d in docs])
            classes.update(c for d in docs for c in d["classes"])
    components = checks.ComponentMap()
    for cls in sorted(classes):
        status, body, _, _ = reader.request("GET", f"/v1/query/{cls}")
        got = json.loads(body) if status == 200 else None
        run.attempted += 1
        if not checks.same_answer(got, checks.query_answer(mirror, cls), components):
            run.fail(f"query {cls}: the answer differs from the mirror's")
    for sid in range(gen.READ_COMPONENTS):
        status, body, _, _ = reader.request("GET", f"/v1/components/{sid}/view")
        run.attempted += 1
        view = json.loads(body).get("view") if status == 200 else None
        probe = view["classes"][0] if view and view.get("classes") else None
        if probe is None or view != checks.plain(
            schema_to_dict(mirror.merged_view(probe))
        ) or not components.same(sid, mirror.component_of(probe)):
            run.fail(f"view of component {sid}: differs from the mirror's")
    reader.close()
    writer.close()

    n_slices = max(1, int(run.seconds))
    slices: List[List[Tuple[int, int]]] = [[] for _ in range(n_slices)]
    for _, _, sent, done, _ in read_log:
        index = (sent - start) // SLICE_NS
        if index < n_slices:
            slices[index].append((sent, done))
    factors = [
        speed.factor(start + (i - 1) * SLICE_NS, start + (i + 2) * SLICE_NS)
        for i in range(n_slices)
    ]
    read_ms = [
        (done - sent) / 1e6 * factors[i] for i, sl in enumerate(slices) for sent, done in sl
    ]
    scaled_span_s = sum(
        (sl[-1][1] - sl[0][0]) / 1e9 * factors[i] for i, sl in enumerate(slices) if sl
    )
    due_ms = [
        (done - due) / 1e6 * factors[min((due - start) // SLICE_NS, n_slices - 1)]
        for _, due, _, done, _ in write_log
    ]
    late_ms = [(sent - due) / 1e6 for _, due, sent, _, _ in write_log]
    result.e2e = {
        "setup_s": statistics.median(setups),
        "p50_ms": statistics.median(read_ms),
        "tail_ms": percentile(read_ms, 99),
        "throughput_per_s": len(read_ms) / scaled_span_s,
        "secondary_ms": statistics.median(due_ms),
        "peak_rss_mb": peak_kb / 1024,
    }
    how = f"n={len(read_ms)}, scaled to the reference host speed"
    result.report("read_p50_ms", result.e2e["p50_ms"], "ms", how)
    result.report("read_p99_ms", result.e2e["tail_ms"], "ms", how)
    result.report("reads_per_s", result.e2e["throughput_per_s"], "req/s", "closed loop, 1 connection")
    result.report(
        "write_p50_ms", result.e2e["secondary_ms"], "ms",
        f"n={len(due_ms)}, open loop at {WRITE_RATE:g}/s, timed from when due, scaled",
    )
    late_p50, late_max = statistics.median(late_ms), max(late_ms)
    behind = late_max > period / 1e6
    result.report(
        "generator_lateness_p50_ms", late_p50, "ms",
        "BEHIND SCHEDULE: a send started after the next was due" if behind else "on schedule",
    )
    result.report("generator_lateness_max_ms", late_max, "ms")
    if behind:
        run.notes.append(
            f"read-mostly: the open-loop writer fell behind its schedule "
            f"(lateness max {late_max:.2f} ms > period {period / 1e6:.0f} ms); "
            f"write latency is timed from when each write was due"
        )

    if trace:
        server.dump_spans()
        assert server.spans_path is not None
        window = _window(spanlib.load(server.spans_path), start, window_end)
        joiner = spanlib.Joiner(window)
        queries = [(s, d) for p, _, s, d, _ in read_log if p.startswith("/v1/query/")]
        views = [(s, d) for p, _, s, d, _ in read_log if p.endswith("/view")]
        posts = [(s, d) for _, _, s, d, _ in write_log]
        view_bytes = [n for p, _, _, _, n in read_log if p.endswith("/view")]
        result.layers.update(_span_layers(window))
        result.layers.update(_counter_layers(before, after, len(write_log)))
        result.layers.update({
            "http.query.self_us": _http_self_us(joiner, queries, ["service.query"]),
            "http.view.self_us": _http_self_us(
                joiner, views, ["service.view", "json_io.encode"]
            ),
            "http.post.self_us": _http_self_us(
                joiner, posts, ["json_io.decode", "service.register"]
            ),
            "http.requests": len(read_log) + len(write_log),
            "http.non2xx": sum(1 for e in read_log if e[1] != 200)
            + sum(1 for e in write_log if e[4] != 200),
            "json_io.bytes_out": mean(view_bytes),
            "json_io.bytes_in": mean([len(writes[e[0]]) for e in write_log]),
            "loadgen.lateness_p50_ms": late_p50,
            "loadgen.lateness_max_ms": late_max,
        })
    server.stop()
    return result


def _expect_ok(answer: Tuple[int, bytes, int, int], what: str) -> None:
    if answer[0] != 200:
        raise RuntimeError(f"{what}: answered {answer[0]}: {answer[1][:200]!r}")


# ----------------------------------------------------------------------
# durable-ingest
# ----------------------------------------------------------------------


def durable_ingest(run: Run, trace: bool) -> Result:
    from repro.io.json_io import schema_from_dict
    from repro.service import MergeService
    from repro.service.storage import RegistrationEntry

    result = Result()
    setups, recoveries, peaks, amps = [], [], [], []
    #: Per episode: stream start and end, and each write's (sent, done).
    episodes: List[Tuple[int, int, List[Tuple[int, int]]]] = []
    writes = 0
    fingerprints: List[bytes] = []
    layer_spans: List[spanlib.Span] = []
    posts: List[Tuple[int, int]] = []
    deletes: List[Tuple[int, int]] = []
    counters: Dict[str, float] = {}
    log_bytes, snap_bytes, recover_layers = [], [], []
    requests = non2xx = posted_bytes = posted_schemas = replays = 0
    episode = 0
    speed = Speed()
    began = time.perf_counter_ns()
    while time.perf_counter_ns() - began < run.seconds * 1e9:
        ops = gen.durable_ingest(run.seed * 1000 + episode, EPISODE_OPS)
        fingerprints += [m.encode() + p.encode() + b for m, p, b in ops]
        data_dir = os.path.join(run.run_dir, f"data-{episode}")
        server = run.server(
            ["--data-dir", data_dir, "--snapshot-every", str(SNAPSHOT_EVERY)], trace
        )
        mark = speed.bracket()
        setups.append(server.start() * speed.factor_since(mark))
        conn = server.connect()
        log = []
        start = time.perf_counter_ns()
        for method, path, body in ops:
            speed.tick()
            status, answer, sent, done = conn.request(method, path, body)
            log.append((method, path, body, status, answer, sent, done))
        end = time.perf_counter_ns()
        conn.close()
        if trace:
            for key, value in server.counters().items():
                counters[key] = counters.get(key, 0.0) + value
            server.dump_spans()
            assert server.spans_path is not None
            layer_spans += _window(spanlib.load(server.spans_path), start, end)
        peaks.append(server.vmhwm_kb())
        server.kill()

        # What the client saw acknowledged, replayed into a mirror.
        mirror = MergeService()
        components = checks.ComponentMap()
        classes, names = set(), set()
        acked_bytes = 0
        timed: List[Tuple[int, int]] = []
        episodes.append((start, end, timed))
        run.attempted += len(ops)
        for method, path, body, status, answer, sent, done in log:
            requests += 1
            if status != 200:
                non2xx += 1
                run.fail(f"{method} {path} answered {status}")
                continue
            if method == "GET":
                got = json.loads(answer)
                want = checks.schema_card(mirror, path.rsplit("/", 1)[1])
                if not checks.same_answer(got, want, components):
                    run.fail(f"GET {path}: the answer differs from the mirror's")
                continue
            writes += 1
            timed.append((sent, done))
            if method == "DELETE":
                deletes.append((sent, done))
                mirror.retire(path.rsplit("/", 1)[1])
                continue
            posts.append((sent, done))
            entries = json.loads(body)["schemas"]
            mirror.register([
                RegistrationEntry(schema_from_dict(e["schema"]), name=e["name"])
                for e in entries
            ])
            for entry in entries:
                names.add(entry["name"])
                classes.update(entry["schema"]["classes"])
                acked_bytes += len(gen.encode(entry["schema"]))
            posted_bytes += len(body)
            posted_schemas += len(entries)

        files = [os.path.join(data_dir, f) for f in os.listdir(data_dir)]
        sizes = {os.path.basename(f): os.path.getsize(f) for f in files}
        log_bytes.append(sizes.get("registry.log", 0))
        snap_bytes.append(sum(v for k, v in sizes.items() if k != "registry.log"))
        amps.append(sum(sizes.values()) / acked_bytes)

        # Recovery after SIGKILL, in a fresh process, against the mirror.
        expect = os.path.join(run.run_dir, "expect.json")
        with open(expect, "w", encoding="utf-8") as fh:
            json.dump({"classes": sorted(classes), "names": sorted(names)}, fh)
        out = os.path.join(run.run_dir, "recovered.json")
        cmd = run.python("recover.py", data_dir, expect, out, *(["--trace"] if trace else []))
        subprocess.run(
            cmd, cwd=run.root, check=True, timeout=120, preexec_fn=pin,
            env=dict(os.environ, PYTHONPATH=os.path.join(run.root, "src")),
        )
        with open(out, encoding="utf-8") as fh:
            recovered = json.load(fh)
        recoveries.append(recovered["scaled_open_s"])
        replays += recovered["counters"]["storage.replays"]
        recover_layers.append(recovered["layers"])
        want = checks.state_digest(mirror, classes, names)
        run.attempted += len(classes) + len(names)
        for key in checks.digest_mismatches(recovered["digest"], want):
            run.fail(f"episode {episode}: recovered {key} differs from the acknowledged state")
        shutil.rmtree(data_dir)
        episode += 1

    run.inputs = gen.digest(fingerprints)
    factors = [speed.factor(begin, end) for begin, end, _ in episodes]
    write_ms = [
        (done - sent) / 1e6 * factors[i]
        for i, (_, _, timed) in enumerate(episodes)
        for sent, done in timed
    ]
    stream_s = sum(
        (end - begin) / 1e9 * factors[i] for i, (begin, end, _) in enumerate(episodes)
    )
    result.e2e = {
        "setup_s": statistics.median(setups),
        "p50_ms": statistics.median(write_ms),
        "tail_ms": percentile(write_ms, 99),
        "throughput_per_s": writes / stream_s,
        "secondary_ms": statistics.median(recoveries) * 1e3,
        "peak_rss_mb": statistics.median(peaks) / 1024,
    }
    how = f"n={writes} over {episode} episodes, scaled to the reference host speed"
    result.report("write_p50_ms", result.e2e["p50_ms"], "ms", how)
    result.report("write_p99_ms", result.e2e["tail_ms"], "ms", how)
    result.report("writes_per_s", result.e2e["throughput_per_s"], "req/s", "closed loop, 1 connection")
    result.report(
        "recovery_s", result.e2e["secondary_ms"] / 1e3, "s",
        f"n={episode}, MergeService.open after SIGKILL in a fresh process, scaled",
    )
    result.report("space_amp", statistics.median(amps), "ratio", "data-dir bytes / acknowledged schema bytes")
    result.report("episodes", episode, "count", f"{EPISODE_OPS} ops each; {FLUSH_POLICY}")

    if trace:
        joiner = spanlib.Joiner(layer_spans)
        result.layers.update(_span_layers(layer_spans))
        result.layers.update(_counter_layers({}, counters, writes))
        result.layers.update({
            "http.post.self_us": _http_self_us(
                joiner, posts, ["json_io.decode", "service.register"]
            ),
            "http.delete.self_us": _http_self_us(joiner, deletes, ["service.retire"]),
            "http.requests": requests,
            "http.non2xx": non2xx,
            "json_io.bytes_in": posted_bytes / posted_schemas if posted_schemas else 0.0,
            "service.open_us": mean([r["service.open_us"] for r in recover_layers]),
            "storage.load_state_us": mean([r["storage.load_state_us"] for r in recover_layers]),
            "storage.replays": replays,
            "storage.log_bytes": mean(log_bytes),
            "storage.snapshot_bytes": mean(snap_bytes),
            "storage.space_amp": statistics.median(amps),
        })
    return result


# ----------------------------------------------------------------------
# proper-merge
# ----------------------------------------------------------------------


def _launch_worker(run: Run, cmd: List[str]) -> Tuple[subprocess.Popen, float]:
    """Start a merge worker; return it once it prints ``ready``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(run.root, "src"))
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=run.root, env=env, stdout=subprocess.PIPE, preexec_fn=pin
    )
    run.workers.append(proc)
    assert proc.stdout is not None
    buf = b""
    while b"ready" not in buf:
        ready, _, _ = select.select([proc.stdout], [], [], 120)
        chunk = os.read(proc.stdout.fileno(), 4096) if ready else b""
        if not chunk:
            raise RuntimeError("merge worker exited before it was ready")
        buf += chunk
    return proc, time.perf_counter() - started


def proper_merge(run: Run, trace: bool) -> Result:
    jobs = gen.proper_merge(run.seed, MERGE_JOBS)
    run.inputs = gen.digest([gen.encode(job) for job in jobs])
    jobs_path = os.path.join(run.run_dir, "jobs.json")
    with open(jobs_path, "w", encoding="utf-8") as fh:
        json.dump(jobs, fh)
    out = os.path.join(run.run_dir, "merged.json")
    base = run.python("merge_worker.py", jobs_path, out)

    speed = Speed()
    setups = []
    for _ in range(SETUPS - 1):
        mark = speed.bracket()
        proc, setup = _launch_worker(run, base + ["--setup-only"])
        proc.wait(timeout=60)
        setups.append(setup * speed.factor_since(mark))
    cmd = base + ["--seconds", str(run.seconds)] + (["--trace"] if trace else [])
    mark = speed.bracket()
    proc, setup = _launch_worker(run, cmd)
    setups.append(setup * speed.factor_since(mark))
    proc.wait(timeout=run.seconds * 3 + 120)
    if proc.returncode != 0:
        raise RuntimeError(f"merge worker exited with {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        done = json.load(fh)

    worker_speed = Speed()
    worker_speed.samples = [tuple(sample) for sample in done["speed"]]
    # Each round scaled by the host speed the worker sampled around it; a
    # job counts its fastest round.
    best = [
        min(
            ms * worker_speed.factor(begin - SAMPLE_WINDOW_NS, begin + SAMPLE_WINDOW_NS)
            for begin, ms in seen
        )
        for seen in done["rounds"]
    ]
    run.attempted += done["merged"]
    for failure in done["failures"]:
        run.fail(failure)
    adversary = [ms for ms, kind in zip(best, done["kinds"]) if kind != "random"]
    result = Result()
    result.e2e = {
        "setup_s": statistics.median(setups),
        "p50_ms": statistics.median(best),
        "tail_ms": percentile(best, 95),
        "throughput_per_s": len(best) / sum(best) * 1e3,
        "secondary_ms": statistics.median(adversary),
        "peak_rss_mb": done["rss_kb"] / 1024,
    }
    how = (
        f"n={len(best)} jobs, each its fastest of {ROUNDS} rounds, "
        f"scaled to the reference host speed"
    )
    result.report("merge_p50_ms", result.e2e["p50_ms"], "ms", how)
    result.report("merge_p95_ms", result.e2e["tail_ms"], "ms", how)
    result.report("merges_per_s", result.e2e["throughput_per_s"], "jobs/s", "one thread, back to back")
    result.report(
        "adversary_merge_p50_ms", result.e2e["secondary_ms"], "ms",
        f"n={len(adversary)}: the diamond-chain and nfa-pair jobs",
    )
    result.report(
        "peak_rss_mb", result.e2e["peak_rss_mb"], "MiB",
        f"VmHWM after the first {RSS_JOBS} jobs",
    )
    result.layers.update(done["layers"])
    return result


WORKLOADS = {
    "read-mostly": read_mostly,
    "durable-ingest": durable_ingest,
    "proper-merge": proper_merge,
}
