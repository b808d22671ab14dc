"""ENGINE — merge-engine benchmarks: interning and incremental closure.

Unlike the figure benchmarks (which time the *paper's* constructions),
these time the *engine* against the preserved pre-engine reference
implementations in :mod:`repro.perf.reference`, asserting both that the
results are equal and that the engine actually is faster.  The speedup
floors asserted here are deliberately loose (shared CI runners jitter);
``benchmarks/runner.py`` enforces the strict ≥5x acceptance bar on the
200-schema case and records the exact ratios in the trajectory file.
"""

from __future__ import annotations

import pytest

from repro.core.lower import annotated_leq, lower_merge
from repro.core.ordering import compatible, is_sub, join_all
from repro.core.schema import Schema
from repro.generators.random_schemas import (
    random_annotated_schema,
    random_schema_family,
    random_weak_schema,
)
from repro.perf import clear_caches
from repro.perf.reference import (
    reference_is_sub,
    reference_join_all,
    reference_lower_merge,
)

SCALE_FAMILY = dict(
    n_schemas=200,
    pool_size=60,
    n_classes=14,
    n_labels=6,
    arrow_density=0.2,
    spec_density=0.08,
    seed=7,
)


@pytest.fixture(scope="module")
def scale_family():
    return random_schema_family(**SCALE_FAMILY)


def test_join_all_equals_reference(scale_family):
    assert join_all(scale_family) == reference_join_all(scale_family)


def test_join_all_scalability(perf_record, scale_family):
    engine = perf_record(
        "join_all/200",
        "scalability",
        lambda: join_all(scale_family),
        setup=clear_caches,
        schemas=len(scale_family),
    )
    reference = perf_record(
        "reference_join_all/200",
        "scalability",
        lambda: reference_join_all(scale_family),
        schemas=len(scale_family),
    )
    speedup = reference["best_s"] / engine["best_s"]
    assert speedup >= 2.0, f"engine only {speedup:.1f}x faster than reference"


def test_is_sub_vs_reference(perf_record, scale_family):
    merged = join_all(scale_family)
    pairs = [(g, merged) for g in scale_family]

    def probe():
        return sum(1 for left, right in pairs if is_sub(left, right))

    def probe_reference():
        return sum(1 for left, right in pairs if reference_is_sub(left, right))

    assert probe() == probe_reference() == len(pairs)
    perf_record("is_sub/200", "ordering", probe)
    perf_record("reference_is_sub/200", "ordering", probe_reference)


def test_compatible(perf_record, scale_family):
    merged = join_all(scale_family)
    pairs = [(g, merged) for g in scale_family]

    def probe():
        return sum(1 for left, right in pairs if compatible(left, right))

    assert probe() == len(pairs)  # every member joins into the merge
    perf_record("compatible/200", "ordering", probe)


def test_with_arrows_incremental(perf_record):
    base = random_weak_schema(
        n_classes=40, n_labels=8, arrow_density=0.3, spec_density=0.1, seed=3
    )
    extra = [(cls, "zz", cls) for cls in list(base.sorted_classes())[:5]]

    def incremental():
        return base.with_arrows(extra)

    def rebuild():
        return Schema.build(
            classes=base.classes,
            arrows=set(base.arrows) | {
                (s, label, t)
                for s, label, t in (
                    (str(a), b, str(c)) for a, b, c in extra
                )
            },
            spec=base.spec,
        )

    assert incremental() == rebuild()
    fast = perf_record("with_arrows/incremental", "incremental", incremental)
    slow = perf_record("with_arrows/rebuild", "incremental", rebuild)
    # Generous slack: noisy shared runners must not flake this assert
    # (the measured ratio is ~20x; the runner records the exact value).
    assert fast["best_s"] <= slow["best_s"] * 1.5


def test_lower_merge_equals_reference(perf_record):
    schemas = [
        random_annotated_schema(
            n_classes=12, n_labels=5, arrow_density=0.25, seed=i
        )
        for i in range(30)
    ]
    merged = lower_merge(*schemas)
    assert merged == reference_lower_merge(*schemas)
    perf_record("lower_merge/30", "lower", lambda: lower_merge(*schemas))
    perf_record(
        "reference_lower_merge/30",
        "lower",
        lambda: reference_lower_merge(*schemas),
    )

    def probe_leq():
        return sum(1 for g in schemas if annotated_leq(merged, g))

    perf_record("annotated_leq/30", "lower", probe_leq, schemas=len(schemas))
