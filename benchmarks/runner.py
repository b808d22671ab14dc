#!/usr/bin/env python
"""Benchmark runner — one trajectory artifact per suite for CI and local runs.

Suites register themselves in :data:`SUITES` (``@suite(...)``); each one
produces a list of trajectory records plus a summary, is written to its
own ``BENCH_<name>.json`` at the repo root, and may enforce an
acceptance bar (exit 1 on failure).  Adding a suite is one decorated
function — no copy-paste of argument parsing, timing or serialization.

Current suites:

* ``merge_engine`` — the engine against the preserved pre-engine
  reference (``join_all`` scalability up to 320 schemas, ``is_sub`` and
  ``compatible``, each with its reference, over the 200-schema family, incremental
  ``with_arrows`` against a rebuild, lower merge with
  ``annotated_leq``, the upper merge's stages — weak LUB, ``Imp``,
  assembly — with the mask properization against the set-based one),
  plus, in full mode, every paper-figure ``bench_*.py`` via
  pytest-benchmark.  Acceptance: 200-schema ``join_all`` ≥
  :data:`MIN_SPEEDUP` (5x) over the reference, incremental
  ``with_arrows`` ≤ :data:`MAX_WITH_ARROWS_RATIO` (1.5x) the rebuild's
  time, ``properize`` on ``views-medium`` ≥
  :data:`MIN_PROPERIZE_SPEEDUP` (10x) over the reference, and
  ``lower_merge`` of 30 annotated schemas ≥ :data:`MIN_LOWER_SPEEDUP`
  (10x) over the reference.
* ``service`` — the long-lived :class:`repro.service.MergeService`
  replaying named request streams (``benchmarks/bench_service.py``).
  Acceptance: warm ``merged_view`` ≥ ``bench_service.MIN_VIEW_SPEEDUP``
  (10x) over cold ``join_all`` on the 200-schema sharded workload, and
  a registration must invalidate only its own component.  Replays run
  with telemetry on, so records carry p50/p95/p99 request latencies and
  cache hit rates, and the acceptance workload's spans + metrics land
  in ``TELEMETRY_service.jsonl`` (uploaded by the CI smoke job).
* ``persistence`` — the durable registry
  (``benchmarks/bench_persistence.py``): snapshot-led warm restarts
  and the write path's log-append cost.  Acceptance, judged there: the
  first ``merged_view`` after restart ≥ 10x over a cold ``join_all``,
  and the appends' software cost ≤ 10% of the acceptance request
  stream (fsync reported separately).
* ``http`` — the asyncio front end (``benchmarks/bench_http.py``): a
  real ``serve --http`` subprocess under 1/4/16 concurrent writer
  connections, plus warm view and query ``GET`` round trips (recorded
  as ``warm_get/*``, not gated).  Acceptance (full mode, multi-core hosts): 16-writer
  disjoint throughput ≥ 2x single-writer, and warm reads stay
  non-blocking while a large register is in flight.

Usage::

    PYTHONPATH=src python benchmarks/runner.py                  # all suites
    PYTHONPATH=src python benchmarks/runner.py --suite service
    PYTHONPATH=src python benchmarks/runner.py --smoke          # CI smoke
    PYTHONPATH=src python benchmarks/runner.py --suite service --json out.json
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
sys.path.insert(0, _HERE)
for _candidate in (os.path.join(_ROOT, "src"),):
    if _candidate not in sys.path:
        sys.path.insert(0, _candidate)

from _timing import record, time_call, write_trajectory  # noqa: E402

from repro.core.implicit import implicit_sets, properize  # noqa: E402
from repro.core.lower import (  # noqa: E402
    annotated_leq,
    lower_merge,
    lower_properize,
)
from repro.core.merge import weak_merge  # noqa: E402
from repro.core.ordering import compatible, is_sub, join_all  # noqa: E402
from repro.core.schema import Schema  # noqa: E402
from repro.generators.random_schemas import (  # noqa: E402
    random_annotated_schema,
    random_schema_family,
    random_weak_schema,
)
from repro.generators.workloads import get_workload  # noqa: E402
from repro.perf import clear_caches, engine_stats  # noqa: E402
from repro.perf.reference import (  # noqa: E402
    reference_compatible,
    reference_implicit_sets,
    reference_is_sub,
    reference_join_all,
    reference_lower_merge,
    reference_properize,
)

ACCEPTANCE_SIZE = 200
# merge_engine acceptance (full mode): 200-schema join_all against the
# reference, and incremental with_arrows against a rebuild.
MIN_SPEEDUP = 5.0
MAX_WITH_ARROWS_RATIO = 1.5
# Properization on masks against the set-based oracle, on this workload.
MIN_PROPERIZE_SPEEDUP = 10.0
# lower_merge of 30 annotated schemas against the per-arrow reference.
MIN_LOWER_SPEEDUP = 10.0
PROPERIZE_ACCEPTANCE = "views-medium"

# bench_*.py files that drive a runner suite or time with their own
# timer, so the pytest-benchmark sweep leaves them out.
_NOT_SWEPT = ("bench_http", "bench_obs_overhead", "bench_persistence", "bench_service")

SuiteResult = Tuple[List[Dict[str, Any]], Dict[str, Any]]


class Suite(NamedTuple):
    """One registered benchmark suite."""

    name: str
    default_json: str
    run: Callable[[argparse.Namespace], SuiteResult]


SUITES: Dict[str, Suite] = {}


def suite(name: str, default_json: str):
    """Register a suite function: ``(args) -> (records, meta)``.

    *meta* must contain a ``summary`` dict; if that carries
    ``acceptance_pass: False`` the runner exits non-zero after writing
    every artifact.
    """

    def register(fn: Callable[[argparse.Namespace], SuiteResult]):
        SUITES[name] = Suite(name, default_json, fn)
        return fn

    return register


def _family(n_schemas: int) -> List[Any]:
    return random_schema_family(
        n_schemas=n_schemas,
        pool_size=60,
        n_classes=14,
        n_labels=6,
        arrow_density=0.2,
        spec_density=0.08,
        seed=7,
    )


def run_scalability(sizes: List[int], repeat: int) -> List[Dict[str, Any]]:
    """join_all versus the pre-engine reference across family sizes."""
    records: List[Dict[str, Any]] = []
    for size in sizes:
        family = _family(size)
        results: Dict[str, Any] = {}
        engine = time_call(
            lambda: results.__setitem__("engine", join_all(family)),
            repeat=repeat,
            setup=clear_caches,
        )
        reference = time_call(
            lambda: results.__setitem__("ref", reference_join_all(family)),
            repeat=repeat,
        )
        if results["engine"] != results["ref"]:
            raise AssertionError(f"engine result differs at size {size}")
        speedup = reference["best_s"] / engine["best_s"]
        print(
            f"  join_all/{size}: engine {engine['best_s'] * 1000:.1f} ms, "
            f"reference {reference['best_s'] * 1000:.1f} ms "
            f"({speedup:.1f}x)"
        )
        records.append(
            record(
                f"join_all/{size}",
                "scalability",
                engine,
                schemas=size,
                acceptance=(size == ACCEPTANCE_SIZE),
                speedup_vs_reference=speedup,
            )
        )
        records.append(
            record(
                f"reference_join_all/{size}",
                "scalability",
                reference,
                schemas=size,
            )
        )
    return records


def run_lower(repeat: int, count: int) -> List[Dict[str, Any]]:
    """lower_merge versus the pre-engine per-arrow-lookup version.

    Also times ``annotated_leq`` of the merge against every input
    (recorded, not gated) and ``lower_properize`` of the merge.
    """
    schemas = [
        random_annotated_schema(
            n_classes=12, n_labels=5, arrow_density=0.25, seed=i
        )
        for i in range(count)
    ]
    merged = lower_merge(*schemas)
    if merged != reference_lower_merge(*schemas):
        raise AssertionError("lower_merge disagrees with reference")

    def probe_leq() -> int:
        return sum(1 for g in schemas if annotated_leq(merged, g))

    engine = time_call(lambda: lower_merge(*schemas), repeat=repeat)
    reference = time_call(lambda: reference_lower_merge(*schemas), repeat=repeat)
    leq = time_call(probe_leq, repeat=repeat)
    properized = time_call(lambda: lower_properize(merged), repeat=repeat)
    speedup = reference["best_s"] / engine["best_s"]
    print(
        f"  lower_merge/{count}: {engine['best_s'] * 1e3:.2f} ms, reference "
        f"{reference['best_s'] * 1e3:.2f} ms ({speedup:.1f}x); annotated_leq "
        f"{leq['best_s'] * 1e3:.2f} ms; lower_properize "
        f"{properized['best_s'] * 1e3:.1f} ms"
    )
    return [
        record(
            f"lower_merge/{count}",
            "lower",
            engine,
            schemas=count,
            speedup_vs_reference=speedup,
        ),
        record(
            f"reference_lower_merge/{count}", "lower", reference, schemas=count
        ),
        record(f"annotated_leq/{count}", "lower", leq, schemas=count),
        record(f"lower_properize/{count}", "lower", properized, schemas=count),
    ]


def run_ordering(size: int, repeat: int) -> List[Dict[str, Any]]:
    """is_sub and compatible of every family member against the join."""
    family = _family(size)
    merged = join_all(family)
    pairs = [(g, merged) for g in family]

    def count(test: Callable[[Any, Any], bool]) -> Callable[[], int]:
        return lambda: sum(1 for left, right in pairs if test(left, right))

    probes = {
        "is_sub": count(is_sub),
        "reference_is_sub": count(reference_is_sub),
        "compatible": count(compatible),
        "reference_compatible": count(reference_compatible),
    }
    # Every member is below, and joins into, the family's merge.
    for name, probe in probes.items():
        if probe() != len(pairs):
            raise AssertionError(f"{name} rejects a member of the family")
    cyclic = [Schema.build(spec=[edge]) for edge in [("A", "B"), ("B", "C"), ("C", "A")]]
    deciders = {"compatible": compatible, "reference_compatible": reference_compatible}
    for name, decide in deciders.items():
        if decide(*cyclic):
            raise AssertionError(f"{name} accepts the cycle A ==> B ==> C ==> A")
    records = []
    for name, probe in probes.items():
        timing = time_call(probe, repeat=repeat)
        print(f"  {name}/{size}: {timing['best_s'] * 1000:.2f} ms")
        records.append(record(f"{name}/{size}", "ordering", timing, schemas=size))
    return records


def run_with_arrows(repeat: int) -> List[Dict[str, Any]]:
    """Incremental Schema.with_arrows versus a from-scratch rebuild."""
    base = random_weak_schema(
        n_classes=40, n_labels=8, arrow_density=0.3, spec_density=0.1, seed=3
    )
    extra = [(cls, "zz", cls) for cls in list(base.sorted_classes())[:5]]

    def incremental() -> Schema:
        return base.with_arrows(extra)

    def rebuild() -> Schema:
        return Schema.build(
            classes=base.classes,
            arrows=set(base.arrows) | {(str(a), b, str(c)) for a, b, c in extra},
            spec=base.spec,
        )

    if incremental() != rebuild():
        raise AssertionError("with_arrows disagrees with a rebuild")
    fast = time_call(incremental, repeat=repeat)
    slow = time_call(rebuild, repeat=repeat)
    ratio = fast["best_s"] / slow["best_s"]
    print(
        f"  incremental {fast['best_s'] * 1e6:.1f} us, rebuild "
        f"{slow['best_s'] * 1e6:.1f} us (ratio {ratio:.3f})"
    )
    return [
        record(
            "with_arrows/incremental", "incremental", fast, ratio_vs_rebuild=ratio
        ),
        record("with_arrows/rebuild", "incremental", slow),
    ]


def run_properize(workload: str, repeat: int) -> List[Dict[str, Any]]:
    """The upper merge's stages on *workload*: mask kernel against oracle.

    Stages: the weak LUB (shared), ``Imp`` alone, and the whole
    properization (its ``Imp`` included); ``assemble_s`` is the
    difference, the cost of building ``Ḡ`` once ``Imp`` is known.  The
    mask kernel must return the very object the oracle interns.
    """
    views = get_workload(workload).schemas()
    weak = weak_merge(*views)
    if implicit_sets(weak) != reference_implicit_sets(weak):
        raise AssertionError(f"implicit_sets disagrees with reference on {workload}")
    if properize(weak) is not reference_properize(weak):
        raise AssertionError(f"properize disagrees with reference on {workload}")
    timings = {
        "weak": time_call(lambda: weak_merge(*views), repeat=repeat),
        "imp": time_call(lambda: implicit_sets(weak), repeat=repeat),
        "properize": time_call(lambda: properize(weak), repeat=repeat),
        "reference_imp": time_call(
            lambda: reference_implicit_sets(weak), repeat=repeat
        ),
        "reference_properize": time_call(
            lambda: reference_properize(weak), repeat=repeat
        ),
    }
    speedup = (
        timings["reference_properize"]["best_s"] / timings["properize"]["best_s"]
    )
    print(
        f"  {workload}: weak {timings['weak']['best_s'] * 1e3:.2f} ms, "
        f"properize {timings['properize']['best_s'] * 1e3:.1f} ms, "
        f"reference {timings['reference_properize']['best_s'] * 1e3:.1f} ms "
        f"({speedup:.1f}x)"
    )
    records = []
    for kernel in ("", "reference_"):
        imp_s = timings[f"{kernel}imp"]["best_s"]
        total_s = timings[f"{kernel}properize"]["best_s"]
        extra: Dict[str, Any] = {"assemble_s": total_s - imp_s}
        if not kernel:
            extra.update(
                acceptance=(workload == PROPERIZE_ACCEPTANCE),
                speedup_vs_reference=speedup,
            )
        records.append(
            record(f"{kernel}imp/{workload}", "properize", timings[f"{kernel}imp"])
        )
        records.append(
            record(
                f"{kernel}properize/{workload}",
                "properize",
                timings[f"{kernel}properize"],
                **extra,
            )
        )
    records.append(record(f"weak_merge/{workload}", "properize", timings["weak"]))
    return records


def run_pytest_suites() -> List[Dict[str, Any]]:
    """Run every paper-figure bench_*.py through pytest-benchmark.

    Each file's ``--benchmark-json`` stats fold into trajectory records;
    a file that fails lands as a record carrying the error.
    """
    records: List[Dict[str, Any]] = []
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(_ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    for path in sorted(glob.glob(os.path.join(_HERE, "bench_*.py"))):
        stem = os.path.splitext(os.path.basename(path))[0]
        if stem in _NOT_SWEPT:
            continue
        with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
            out_path = tmp.name
        cmd = [
            sys.executable, "-m", "pytest", path, "-q",
            "--benchmark-only", f"--benchmark-json={out_path}",
        ]
        print(f"  pytest {stem} ...", flush=True)
        try:
            proc = subprocess.run(
                cmd, env=env, cwd=_ROOT, capture_output=True, text=True
            )
            if proc.returncode != 0:
                records.append(
                    record(
                        stem,
                        "pytest",
                        {
                            "best_s": None,
                            "mean_s": None,
                            "repeat": 0,
                            "runs": [],
                        },
                        error=proc.stdout[-2000:] + proc.stderr[-2000:],
                    )
                )
                continue
            try:
                with open(out_path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, ValueError) as exc:
                # Suite exited 0 but left no readable JSON (e.g. plugin
                # missing): record it rather than silently omitting the
                # suite from the artifact.
                records.append(
                    record(
                        stem,
                        "pytest",
                        {
                            "best_s": None,
                            "mean_s": None,
                            "repeat": 0,
                            "runs": [],
                        },
                        error=f"no benchmark JSON produced: {exc}",
                    )
                )
                continue
        finally:
            try:
                os.unlink(out_path)
            except OSError:
                pass
        for bench in payload.get("benchmarks", []):
            stats = bench.get("stats", {})
            records.append(
                record(
                    bench.get("name", stem),
                    f"pytest/{stem}",
                    {
                        "best_s": stats.get("min"),
                        "mean_s": stats.get("mean"),
                        "repeat": stats.get("rounds", 0),
                        "runs": [],
                    },
                )
            )
    return records


@suite("merge_engine", "BENCH_merge_engine.json")
def merge_engine_suite(args: argparse.Namespace) -> SuiteResult:
    """The engine cases plus (full mode) the pytest sweep."""
    sizes = [40, 80] if args.smoke else [50, 100, ACCEPTANCE_SIZE, 320]
    repeat = 3 if args.smoke else 5

    print("merge-engine scalability:")
    records = run_scalability(sizes, repeat)
    print("ordering:")
    records += run_ordering(sizes[-1] if args.smoke else ACCEPTANCE_SIZE, repeat)
    print("incremental with_arrows:")
    arrows = run_with_arrows(repeat)
    records += arrows
    print("lower merge:")
    lower = run_lower(repeat, count=10 if args.smoke else 30)
    records += lower
    print("properization:")
    # Best of 7 (and of 3 on the larger input): one noisy stretch of the
    # host must not set the committed figure.  Each record's timing
    # carries its repeat.
    properize_records = run_properize(PROPERIZE_ACCEPTANCE, 1 if args.smoke else 7)
    if not args.smoke:
        properize_records += run_properize("views-large", 3)
    records += properize_records
    if not args.smoke and not args.skip_pytest_suite:
        print("pytest suites:")
        records += run_pytest_suites()

    ratio = arrows[0]["ratio_vs_rebuild"]
    summary: Dict[str, Any] = {"smoke": args.smoke, "with_arrows_ratio": ratio}
    if args.smoke:
        # Smoke sizes are too small to time fairly on shared runners:
        # the equality asserts above still ran, the ratio gates do not.
        return records, {"summary": summary, "engine_stats": engine_stats()}
    speedup, properize_speedup = (
        next(
            r for r in records if r["group"] == group and r.get("acceptance")
        )["speedup_vs_reference"]
        for group in ("scalability", "properize")
    )
    lower_speedup = lower[0]["speedup_vs_reference"]
    print(f"join_all speedup: {speedup:.1f}x")
    print(f"properize speedup: {properize_speedup:.1f}x")
    print(f"lower_merge speedup: {lower_speedup:.1f}x")
    summary.update(
        join_all_speedup=speedup,
        min_speedup_required=MIN_SPEEDUP,
        max_with_arrows_ratio=MAX_WITH_ARROWS_RATIO,
        properize_speedup=properize_speedup,
        min_properize_speedup_required=MIN_PROPERIZE_SPEEDUP,
        lower_merge_speedup=lower_speedup,
        min_lower_speedup_required=MIN_LOWER_SPEEDUP,
        acceptance_pass=(
            speedup >= MIN_SPEEDUP
            and ratio <= MAX_WITH_ARROWS_RATIO
            and properize_speedup >= MIN_PROPERIZE_SPEEDUP
            and lower_speedup >= MIN_LOWER_SPEEDUP
        ),
    )
    if not summary["acceptance_pass"]:
        print(
            f"FAIL: merge_engine acceptance: join_all speedup {speedup:.2f}x "
            f"(need ≥ {MIN_SPEEDUP}x), with_arrows ratio {ratio:.3f} "
            f"(need ≤ {MAX_WITH_ARROWS_RATIO}), properize speedup "
            f"{properize_speedup:.2f}x on {PROPERIZE_ACCEPTANCE} "
            f"(need ≥ {MIN_PROPERIZE_SPEEDUP}x), lower_merge speedup "
            f"{lower_speedup:.2f}x (need ≥ {MIN_LOWER_SPEEDUP}x)",
            file=sys.stderr,
        )
    return records, {"summary": summary, "engine_stats": engine_stats()}


@suite("service", "BENCH_service.json")
def service_suite(args: argparse.Namespace) -> SuiteResult:
    """MergeService request-stream workloads (bench_service)."""
    from bench_service import MIN_VIEW_SPEEDUP, run_bench

    acceptance_workload = (
        "service-sharded-small" if args.smoke else "service-sharded-200"
    )
    workloads = (
        [acceptance_workload]
        if args.smoke
        else [acceptance_workload, "service-mixed-200"]
    )
    repeat = 2 if args.smoke else 3

    telemetry_path = os.path.join(_ROOT, "TELEMETRY_service.jsonl")
    try:
        os.unlink(telemetry_path)
    except OSError:
        pass

    records: List[Dict[str, Any]] = []
    results: Dict[str, Any] = {}
    print("merge service:")
    for workload in workloads:
        is_acceptance = workload == acceptance_workload
        result = run_bench(
            workload,
            repeat=repeat,
            telemetry_jsonl=telemetry_path if is_acceptance else None,
        )
        results[workload] = result
        summary = result["summary"]
        timings = result["timings"]
        print(
            f"  {workload}: warm view "
            f"{summary['view_speedup_vs_cold_join_all']:.0f}x vs cold "
            f"join_all, {summary['requests_per_second']:.0f} req/s, "
            f"invalidation "
            f"{'ok' if summary['invalidation_ok'] else 'FAILED'}"
        )
        records.append(
            record(
                f"{workload}/join_all_cold",
                "service",
                timings["join_all_cold"],
                schemas=result["initial_schemas"],
            )
        )
        records.append(
            record(
                f"{workload}/merged_view_warm",
                "service",
                timings["merged_view_warm"],
                schemas=result["initial_schemas"],
                acceptance=is_acceptance,
                speedup_vs_cold_join_all=(
                    summary["view_speedup_vs_cold_join_all"]
                ),
            )
        )
        records.append(
            record(
                f"{workload}/stream_replay",
                "service",
                timings["stream_replay"],
                requests=result["requests"],
                requests_per_second=summary["requests_per_second"],
                latency=result["latency"],
                cache_hit_rates=result["cache_hit_rates"],
            )
        )

    accepted = results[acceptance_workload]["summary"]
    summary = {
        "smoke": args.smoke,
        "acceptance_workload": acceptance_workload,
        "view_speedup": accepted["view_speedup_vs_cold_join_all"],
        "invalidation_ok": accepted["invalidation_ok"],
        "latency": results[acceptance_workload]["latency"],
        "cache_hit_rates": results[acceptance_workload]["cache_hit_rates"],
        "telemetry_jsonl": os.path.basename(telemetry_path),
        "min_view_speedup_required": None if args.smoke else MIN_VIEW_SPEEDUP,
        # The invalidation invariant must hold even in smoke mode; the
        # speedup floor only gates full runs (smoke sizes are too small
        # to measure fairly on shared runners).
        "acceptance_pass": accepted["invalidation_ok"]
        and (
            args.smoke
            or accepted["view_speedup_vs_cold_join_all"] >= MIN_VIEW_SPEEDUP
        ),
    }
    if not summary["acceptance_pass"]:
        print(
            f"FAIL: service acceptance on {acceptance_workload}: "
            f"view speedup {summary['view_speedup']:.1f}x "
            f"(need ≥ {MIN_VIEW_SPEEDUP}x), invalidation_ok="
            f"{summary['invalidation_ok']}",
            file=sys.stderr,
        )
    meta = {
        "summary": summary,
        "workloads": results,
        "service_stats": results[acceptance_workload]["service_stats"],
    }
    return records, meta


@suite("persistence", "BENCH_persistence.json")
def persistence_suite(args: argparse.Namespace) -> SuiteResult:
    """The durable registry: warm restarts and log-append overhead.

    Acceptance (full mode, judged by ``bench_persistence``): the first
    ``merged_view`` after a snapshot-led restart is ≥
    ``MIN_RESTART_SPEEDUP`` (10x) faster than a cold ``join_all`` over
    the same 200-schema family, and the software cost of the stream's
    log appends (encode + write + flush; fsync priced separately as
    durability rent) stays within 10% of the in-memory stream replay
    wall.  Restored-view equality with the pre-restart service is
    asserted in every mode, and so is a recovery that closes no single
    schema (``recovery_schema_closures`` is 0).
    """
    from bench_persistence import run_persistence_bench

    print("persistence:")
    result = run_persistence_bench(smoke=args.smoke)
    summary = dict(result["summary"])
    timings = result["timings"]
    print(
        f"  restart: cold join_all "
        f"{timings['join_all_cold']['best_s'] * 1e3:.2f} ms, first view "
        f"{timings['first_view_after_restart']['best_s'] * 1e6:.1f} us "
        f"({summary['restart_speedup_vs_cold_join_all']:.0f}x); recovery "
        f"{summary['recovery_wall_s'] * 1e3:.1f} ms (snapshot) / "
        f"{summary['replay_recovery_wall_s'] * 1e3:.1f} ms (full replay)"
    )
    print(
        "  recovery layers: "
        + ", ".join(
            f"{layer} {timings['recovery_' + layer]['best_s'] * 1e3:.2f} ms"
            for layer in ("load_state", "replay", "prewarm")
        )
        + f"; {summary['recovery_schema_decodes']:.0f} schema decodes, "
        f"{summary['recovery_schema_closures']:.0f} schema closures, "
        f"{summary['recovery_replayed_records']:.0f} records replayed per open"
    )
    print(
        f"  appends: software {summary['append_cost_soft_s'] * 1e3:.2f} ms "
        f"({summary['stream_overhead_soft'] * 100:.1f}% of the stream), "
        f"fsync'd {summary['append_cost_fsync_s'] * 1e3:.2f} ms "
        f"({summary['stream_overhead_fsync'] * 100:.1f}%)"
    )
    records = [
        record(
            f"{summary['workload']}/{name}",
            "persistence",
            timings[name],
            schemas=summary["schemas"],
            **(
                {
                    "acceptance": True,
                    "speedup_vs_cold_join_all": (
                        summary["restart_speedup_vs_cold_join_all"]
                    ),
                }
                if name == "first_view_after_restart"
                else {}
            ),
        )
        for name in sorted(timings)
    ]
    summary["acceptance_pass"] = bool(
        summary["append_overhead_ok"]
        and summary["restart_ok"]
        and summary["recovery_closures_ok"]
    )
    if not summary["acceptance_pass"]:
        print(
            f"FAIL: persistence acceptance: restart speedup "
            f"{summary['restart_speedup_vs_cold_join_all']:.1f}x "
            f"(need ≥ {summary['min_restart_speedup']}x), append overhead "
            f"{summary['stream_overhead_soft'] * 100:.1f}% "
            f"(budget {summary['append_overhead_budget'] * 100:.0f}%), "
            f"{summary['recovery_schema_closures']:.0f} schema closures "
            f"per recovery (need 0)",
            file=sys.stderr,
        )
    return records, {"summary": summary}


@suite("http", "BENCH_http.json")
def http_suite(args: argparse.Namespace) -> SuiteResult:
    """The asyncio HTTP front end under 1/4/16 concurrent writers.

    Acceptance: 16-writer disjoint-component throughput ≥ 2x the
    single-writer figure (gated in full mode on multi-core hosts —
    a single core CPU-saturates the round trip, so the ratio there
    measures the GIL, not the locking), and warm reads stay
    non-blocking (median read latency well under an in-flight
    register's duration; see bench_http for why the median is the
    lock-freedom statistic) — the wire-level witnesses that concurrent
    clients overlap their round trips and that reads never wait on the
    service's writer lock.
    """
    from bench_http import run_http_bench

    print("http front end:")
    result = run_http_bench(smoke=args.smoke)
    records: List[Dict[str, Any]] = []
    for name, level in result["levels"].items():
        latency = level["latency_s"]
        print(
            f"  {name:>2} writer(s): {level['rps']:8.0f} req/s   "
            f"p50 {latency['p50'] * 1e3:6.2f} ms   "
            f"p95 {latency['p95'] * 1e3:6.2f} ms"
        )
        records.append(
            record(
                f"register/{name}_writers",
                "http",
                {
                    "best_s": level["wall_s"],
                    "mean_s": level["wall_s"],
                    "repeat": 1,
                    "runs": [level["wall_s"]],
                },
                requests=level["requests"],
                requests_per_second=level["rps"],
                latency=latency,
            )
        )
    for route, warm in result["warm_gets"].items():
        latency = warm["latency_s"]
        print(
            f"  warm GET {route:>5}: {warm['rps']:8.0f} req/s   "
            f"p50 {latency['p50'] * 1e3:6.3f} ms   "
            f"p99 {latency['p99'] * 1e3:6.3f} ms"
        )
        records.append(
            record(
                f"warm_get/{route}",
                "http",
                {
                    "best_s": warm["wall_s"],
                    "mean_s": warm["wall_s"],
                    "repeat": 1,
                    "runs": [warm["wall_s"]],
                },
                requests=warm["requests"],
                requests_per_second=warm["rps"],
                latency=latency,
                body_bytes=warm["body_bytes"],
            )
        )
    ruw = result["read_latency_under_write"]
    for attempt in ruw["attempts"]:
        print(
            f"  fired {attempt['write_batch_schemas']} schemas: "
            f"{attempt['write_duration_s'] * 1e3:.0f} ms write, "
            f"{attempt['reads_during_write']} reads inside"
        )
    during = {
        key: "n/a" if value is None else f"{value * 1e3:.2f} ms"
        for key, value in ruw["latency_during_write_s"].items()
    }
    print(
        f"  reads during a {ruw['write_duration_s'] * 1e3:.0f} ms write: "
        f"p50 {during['p50']}   p95 {during['p95']} "
        f"(bar {ruw['bar_s'] * 1e3:.2f} ms: "
        f"{'non-blocking' if ruw['reads_nonblocking_ok'] else 'BLOCKED'})"
    )
    summary = result["summary"]
    scaling_note = (
        f"{summary['scaling_16_vs_1']:.2f}x"
        if summary["rps_1_writer"]
        else "n/a"
    )
    if summary["scaling_gate_active"]:
        print(f"  scaling 16v1: {scaling_note}")
    else:
        print(
            f"  scaling 16v1: {scaling_note} "
            f"(gate inactive: {summary['scaling_not_gated_reason']})"
        )
    if not summary["acceptance_pass"]:
        failed = []
        if summary["scaling_gate_active"] and not summary["scaling_ok"]:
            failed.append(
                f"scaling {scaling_note} "
                f"(need ≥ {summary['scaling_required']}x)"
            )
        if not summary["reads_nonblocking_ok"]:
            failed.append("reads blocked behind an in-flight register")
        if not failed:
            failed.append("writer levels reported failures or hung clients")
        print(f"FAIL: http acceptance: {'; '.join(failed)}", file=sys.stderr)
    return records, {
        "summary": summary,
        "read_latency_under_write": ruw,
        "levels": result["levels"],
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=sorted(SUITES) + ["all"],
        default="all",
        help="which registered suite to run (default: all)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes, no pytest sweep, no speedup gates (CI smoke job)",
    )
    parser.add_argument(
        "--json",
        default=None,
        help=(
            "trajectory output path (single suite only; default: the "
            "suite's BENCH_<name>.json at the repo root)"
        ),
    )
    parser.add_argument(
        "--skip-pytest-suite",
        action="store_true",
        help="skip the per-file pytest sweep even in full mode",
    )
    args = parser.parse_args(argv)

    selected = sorted(SUITES) if args.suite == "all" else [args.suite]
    if args.json and len(selected) > 1:
        parser.error("--json requires a single --suite")

    failed: List[str] = []
    for name in selected:
        entry = SUITES[name]
        records, meta = entry.run(args)
        if args.json:
            out_path = args.json
        elif args.smoke:
            # Smoke artifacts are quick sanity probes with tiny sizes
            # and no gates — never let them overwrite the committed
            # full-run BENCH_<name>.json (which records the acceptance
            # evidence reviewers and CI diffs rely on).
            stem, ext = os.path.splitext(entry.default_json)
            out_path = os.path.join(_ROOT, f"{stem}.smoke{ext}")
        else:
            out_path = os.path.join(_ROOT, entry.default_json)
        write_trajectory(out_path, records, suite=name, meta=meta)
        print(f"wrote {out_path}")
        if meta.get("summary", {}).get("acceptance_pass") is False:
            failed.append(name)
    if failed:
        print(f"acceptance failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
