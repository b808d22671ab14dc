"""The repo benchmark: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``.

Runs one workload against the program's public surface (the
``serve --http`` process, ``MergeService.open`` and
``repro.core.merge``), checks every answer, prints a report, and prints
as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (see
``BENCHMARK.json``); with ``--trace 1`` the workload runs once untraced
and once traced, and the metrics are the per-layer ones plus the tracing
overhead between the two passes.  The layer map and the meaning of each
generic end-to-end name per workload are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import traceback

_HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(_HERE)
sys.path.insert(0, _HERE)

#: End-to-end metrics: the same names on every workload; README.md maps
#: them to each workload's own names (read_p50_ms, recovery_s, ...).
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "throughput_per_s": "1/s",
    "secondary_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics; a layer idle on a workload reports 0 there.
PER_LAYER = {
    "http.query.self_us": "us",
    "http.view.self_us": "us",
    "http.post.self_us": "us",
    "http.delete.self_us": "us",
    "http.requests": "count",
    "http.non2xx": "count",
    "json_io.encode_us": "us",
    "json_io.decode_us": "us",
    "json_io.bytes_out": "bytes",
    "json_io.bytes_in": "bytes",
    "service.query_us": "us",
    "service.view_us": "us",
    "service.register_us": "us",
    "service.retire_us": "us",
    "service.open_us": "us",
    "service.register.plan_retries": "count",
    "service.register.rollbacks": "count",
    "snapshots.hit_ratio": "ratio",
    "snapshots.revalidations": "count",
    "snapshots.evictions": "count",
    "closure.inserts": "count",
    "closure.arrows_swept": "count",
    "closure.components_rebuilt": "count",
    "closure.arrows_swept_per_write": "count",
    "closure.fold_us": "us",
    "closure.build_us": "us",
    "storage.append_us": "us",
    "storage.save_state_us": "us",
    "storage.load_state_us": "us",
    "storage.appends": "count",
    "storage.snapshot_writes": "count",
    "storage.replays": "count",
    "storage.log_bytes": "bytes",
    "storage.snapshot_bytes": "bytes",
    "storage.space_amp": "ratio",
    "ordering.weak_merge_us": "us",
    "implicit.imp_us": "us",
    "implicit.properize_us": "us",
    "implicit.properize_share": "ratio",
    "implicit.imp_size": "count",
    "implicit.output_arrows": "count",
    "loadgen.lateness_p50_ms": "ms",
    "loadgen.lateness_max_ms": "ms",
    "trace.overhead_p50_pct": "%",
    "trace.overhead_throughput_pct": "%",
}


def _source_present() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "repro", "service", "http.py"))


def main(argv: list) -> int:
    from workloads import FLUSH_POLICY, WORKLOADS, Run

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not _source_present():
        print(f"error: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from server import pin

    pin()
    run_dir = os.path.join(ROOT, ".perfbench_run", str(os.getpid()))
    os.makedirs(run_dir)
    run = Run(ROOT, args.seed, args.seconds, run_dir)
    workload = WORKLOADS[args.workload]
    try:
        result = workload(run, trace=False)
        traced = workload(run, trace=True) if args.trace else None
    except Exception:
        traceback.print_exc()
        print(f"error: the {args.workload} run failed", file=sys.stderr)
        return 1
    finally:
        run.reap()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass

    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
        f"inputs sha256:{run.inputs}  host nproc={os.cpu_count()} "
        f"python={platform.python_version()}"
    )
    if args.workload == "durable-ingest":
        print(f"  flush policy: {FLUSH_POLICY}")
    for name, value, unit, note in result.named:
        print(f"  {name:<28} {value:>12.4f} {unit:<7} {note}")
    print(f"  {'error_rate':<28} {run.failed / run.attempted:>12.4f} "
          f"failed/attempted  ({run.failed}/{run.attempted})")
    for failure in run.failures:
        print(f"  FAILED: {failure}")
    for note in run.notes:
        print(f"  NOTE: {note}")

    if traced is None:
        metrics = {
            name: {"value": result.e2e[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    else:
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(traced.layers)
        base, seen = result.e2e, traced.e2e
        layers["trace.overhead_p50_pct"] = (seen["p50_ms"] / base["p50_ms"] - 1) * 100
        layers["trace.overhead_throughput_pct"] = (
            base["throughput_per_s"] / seen["throughput_per_s"] - 1
        ) * 100
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in PER_LAYER.items()
        }
        for name, unit in PER_LAYER.items():
            print(f"  {name:<34} {layers[name]:>14.4f} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
