"""The proper-merge worker: ``python3 perfbench/merge_worker.py JOBS OUT ...``.

Imports the library and loads the job list, prints ``ready``, then runs
``upper_merge`` in :data:`ROUNDS` rounds that share ``--seconds`` of
merge time.  The first round takes jobs from the list until its share
is spent; each later round repeats exactly those jobs, on renamed copies
of their views.  It writes every round's start and time, and the host
speed samples taken between jobs (see speed.py); the parent scales each
round and keeps a job's fastest.  Each job's views are decoded just
before, and its result checked just after, the timed call.  With
``--setup-only`` it exits once ready; the parent times launch to ready.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
sys.path.insert(0, _HERE)

ROUNDS = 3
#: peak_rss_mb is VmHWM after this many jobs, a fixed amount of work.
RSS_JOBS = 100


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("jobs")
    parser.add_argument("out")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import gen
    import spans as spanlib
    from server import vmhwm_kb
    from speed import Speed

    recorder = spanlib.Recorder()
    if args.trace:
        recorder.install(spanlib.MERGE_TARGETS)
    from checks import merge_failures
    from repro.core import merge
    from repro.core.implicit import implicit_classes_of
    from repro.io.json_io import schema_from_dict

    with open(args.jobs, encoding="utf-8") as fh:
        jobs = json.load(fh)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    clock = time.perf_counter_ns
    share = int(args.seconds * 1e9 / ROUNDS)
    base, times, failures = [], [], []
    imp_sizes, output_arrows = [], []
    busy = 0
    rss_kb = 0
    speed = Speed()

    def merge_once(job, prefix):
        nonlocal busy
        speed.tick()
        views = [schema_from_dict(gen.renamed(v, prefix)) for v in job["views"]]
        start = clock()
        result = merge.upper_merge(*views)
        elapsed = clock() - start
        busy += elapsed
        mark = len(recorder.spans)
        failures.extend(
            f"{prefix}{len(times)} ({job['kind']}): {problem}"
            for problem in merge_failures(views, result)
        )
        if args.trace:
            imp_sizes.append(len(implicit_classes_of(result)))
            output_arrows.append(len(result.arrows))
        del recorder.spans[mark:]
        return start, elapsed / 1e6

    while busy < share:
        job = jobs[len(base) % len(jobs)]
        times.append([merge_once(job, "r0_")])
        base.append(job)
        if len(base) == RSS_JOBS:
            rss_kb = vmhwm_kb(os.getpid())
    rss_kb = rss_kb or vmhwm_kb(os.getpid())
    for rnd in range(1, ROUNDS):
        for job, seen in zip(base, times):
            seen.append(merge_once(job, f"r{rnd}_"))
    merged = len(base) * ROUNDS

    layers = {}
    if args.trace:
        layers = {
            "ordering.weak_merge_us": spanlib.total_us(recorder.spans, "ordering.weak_merge") / merged,
            "implicit.imp_us": spanlib.total_us(recorder.spans, "implicit.imp") / merged,
            "implicit.properize_us": spanlib.total_us(recorder.spans, "implicit.properize") / merged,
            "implicit.properize_share": (
                spanlib.total_us(recorder.spans, "implicit.properize") / (busy / 1e3)
            ),
            "implicit.imp_size": sum(imp_sizes) / merged,
            "implicit.output_arrows": sum(output_arrows) / merged,
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "rounds": times,
                "speed": speed.samples,
                "kinds": [job["kind"] for job in base],
                "merged": merged,
                "failures": failures,
                "rss_kb": rss_kb,
                "layers": layers,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
