"""Property tests for the dense-id bitset kernels.

The dense representation (``ClosureBuilder`` dense ids + Python-int
bitmask kernels in ``repro.perf.closure``) must be observationally
identical to the cold pre-engine reference (:mod:`repro.perf.reference`).
Every test here drives the same workload through both implementations
and asserts equality — on results, on the
cycle-detection failure path (including atomic rollback of the id
table), and on the dense snapshot codec that serializes a component
without re-walking its object graph.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ordering import is_sub, join_all
from repro.core.schema import Schema
from repro.exceptions import IncompatibleSchemasError, SerializationError
from repro.generators.random_schemas import random_schema_family
from repro.io import json_io
from repro.perf.closure import ClosureBuilder, DenseClosure
from repro.perf.reference import (
    reference_is_sub,
    reference_join_all,
)
from repro.service import MergeService
from tests.conftest import schemas

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

families = st.lists(schemas(), min_size=0, max_size=6)


def chain_family(depth: int) -> list:
    """A single deep specialization chain, split across schemas."""
    return [
        Schema.build(
            arrows=[(f"C{i}", "next", f"C{i + 1}")],
            spec=[(f"C{i + 1}", f"C{i}")],
        )
        for i in range(depth)
    ]


def diamond_family(width: int) -> list:
    """Many diamonds sharing a top class — dense pred/succ rectangles."""
    out = []
    for i in range(width):
        out.append(
            Schema.build(
                spec=[(f"L{i}", "Top"), (f"R{i}", "Top"),
                      (f"B{i}", f"L{i}"), (f"B{i}", f"R{i}")],
                arrows=[("Top", f"f{i % 3}", f"L{i}")],
            )
        )
    return out


PATHOLOGICAL = [
    chain_family(24),
    diamond_family(12),
    # Label-heavy: W2 must union many rows per (source, label).
    [
        Schema.build(arrows=[("Hub", f"l{j}", f"T{i}_{j}") for j in range(8)])
        for i in range(6)
    ],
    # Spec-only (no arrows at all): the sweep has nothing to do.
    [Schema.build(spec=[(f"S{i}", f"S{i + 1}")]) for i in range(20)],
]


class TestOracleEquality:
    @RELAXED
    @given(families)
    def test_join_all_equals_both_oracles(self, family):
        try:
            merged = join_all(family)
        except IncompatibleSchemasError:
            with pytest.raises(IncompatibleSchemasError):
                reference_join_all(family)
            return
        oracle = reference_join_all(family)
        assert merged == oracle
        assert merged.spec == oracle.spec
        assert merged.arrows == oracle.arrows

    @pytest.mark.parametrize("seed", range(6))
    def test_random_families_equal(self, seed):
        family = random_schema_family(
            n_schemas=30,
            pool_size=40,
            n_classes=10,
            n_labels=5,
            arrow_density=0.25,
            spec_density=0.12,
            seed=seed,
        )
        assert join_all(family) == reference_join_all(family)

    @pytest.mark.parametrize(
        "family",
        PATHOLOGICAL,
        ids=["chain", "diamonds", "label-heavy", "spec-only"],
    )
    def test_pathological_families_equal(self, family):
        assert join_all(family) == reference_join_all(family)

    @RELAXED
    @given(schemas(), schemas())
    def test_is_sub_on_dense_built_schemas(self, left, right):
        """``is_sub`` agrees with the reference on engine-built merges."""
        try:
            merged = join_all([left, right])
        except IncompatibleSchemasError:
            return
        assert is_sub(left, merged)
        assert is_sub(left, merged) == reference_is_sub(left, merged)
        assert is_sub(merged, left) == reference_is_sub(merged, left)

    @pytest.mark.parametrize("seed", range(4))
    def test_reach_rows_equal_reference(self, seed):
        """The dense reach decode matches the reference closure row-wise."""
        family = random_schema_family(
            n_schemas=12, pool_size=30, n_classes=8, n_labels=4,
            arrow_density=0.3, spec_density=0.1, seed=seed,
        )
        dense_builder = ClosureBuilder().add_schemas(family)
        oracle = reference_join_all(family)
        assert dense_builder.build() == oracle
        state = dense_builder.dense_state()
        decoded = {
            (str(state.names[src]), label): {
                str(state.names[t])
                for t in range(len(state.names))
                if (mask >> t) & 1
            }
            for (src, label), mask in state.reach.items()
        }
        oracle_index = {}
        for src, label, target in oracle.arrows:
            oracle_index.setdefault((str(src), label), set()).add(str(target))
        assert decoded == oracle_index


class TestCycleDetection:
    def test_cycle_raises_and_rolls_back(self):
        builder = ClosureBuilder().add_schemas(
            [Schema.build(spec=[("B", "A")], arrows=[("A", "f", "X")])]
        )
        before = builder.build()
        bad = Schema.build(spec=[("A", "Z"), ("Z", "B")])  # A ⊑ Z ⊑ B ⊑ A
        with pytest.raises(IncompatibleSchemasError) as err:
            builder.add_schemas([bad])
        assert err.value.cycle, "error must carry a witness cycle"
        # Atomic rollback: state AND id table revert — the names the
        # failed fold interned ("Z") are gone, and the builder keeps
        # accepting compatible schemas afterwards.
        assert builder.build() == before
        assert "Z" not in {str(c) for c in builder.classes}
        builder.add_schemas([Schema.build(spec=[("C", "B")])])
        assert is_sub(before, builder.build())

    @RELAXED
    @given(families, st.randoms(use_true_random=False))
    def test_cycle_behavior_matches_reference(self, family, rng):
        """Randomly reverse spec edges; engine and reference agree on failure."""
        edges = sorted(
            {
                (str(p), str(q))
                for g in family
                for p, q in g.spec
                if p != q
            }
        )
        if edges:
            flipped = [
                (q, p) for p, q in rng.sample(edges, rng.randint(1, len(edges)))
            ]
            family = family + [Schema.build(spec=flipped)]
        try:
            merged = join_all(family)
        except IncompatibleSchemasError:
            with pytest.raises(IncompatibleSchemasError):
                reference_join_all(family)
            return
        assert merged == reference_join_all(family)

    def test_failed_fold_leaves_dense_state_valid(self):
        builder = ClosureBuilder().add_schemas(
            [Schema.build(spec=[("B", "A")], arrows=[("B", "f", "B")])]
        )
        with pytest.raises(IncompatibleSchemasError):
            builder.add_schemas([Schema.build(spec=[("A", "New"), ("New", "B")])])
        builder.dense_state().validate()  # no partial ids, masks in range


class TestIdRemapping:
    def test_interning_keeps_existing_ids_stable(self):
        builder = ClosureBuilder().add_schemas(
            [Schema.build(spec=[("B", "A")])]
        )
        first = builder.dense_state()
        builder.add_schemas([Schema.build(spec=[("C", "B"), ("D", "A")])])
        second = builder.dense_state()
        # Dense ids are append-only: the original prefix of the id
        # table is untouched, so masks from before the fold still
        # address the same classes.
        assert second.names[: len(first.names)] == first.names

    def test_component_merge_remaps_into_one_table(self):
        service = MergeService()
        service.register(
            [
                Schema.build(spec=[("Puppy", "Dog")]),
                Schema.build(arrows=[("Case", "judge", "Court")]),
            ]
        )
        assert len(service.components()) == 2
        sid_dog = service.component_of("Dog")
        before = service.component_snapshot(sid_dog)
        # Bridge the two components: their shards merge, and the merged
        # shard's snapshot must carry one id table spanning the union.
        service.register([Schema.build(arrows=[("Dog", "case", "Case")])])
        assert len(service.components()) == 1
        after = service.component_snapshot(service.component_of("Dog"))
        union = {str(c) for c in after.dense.names}
        assert {"Puppy", "Dog", "Case", "Court"} <= union
        assert after.schema() == service.merged_view("Dog")
        # The pre-merge snapshot is still internally consistent (old id
        # space), just superseded.
        before.dense.validate()
        assert is_sub(before.schema(), after.schema())


class TestSnapshotCodec:
    @RELAXED
    @given(families)
    def test_round_trip(self, family):
        try:
            builder = ClosureBuilder().add_schemas(family)
        except IncompatibleSchemasError:
            return
        state = builder.dense_state()
        assert json_io.snapshot_from_dict(json_io.snapshot_to_dict(state)) == state
        assert json_io.loads(json_io.dumps(state)) == state

    def test_round_trip_preserves_schema(self):
        family = random_schema_family(
            n_schemas=15, pool_size=30, n_classes=8, n_labels=4,
            arrow_density=0.25, spec_density=0.1, seed=11,
        )
        state = ClosureBuilder().add_schemas(family).dense_state()
        decoded = json_io.snapshot_from_dict(json_io.snapshot_to_dict(state))
        assert decoded.to_schema() == join_all(family)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d["succ"].__setitem__(0, "f00"),  # out-of-range bits
            lambda d: d["succ"].__setitem__(1, "3"),  # antisymmetry broken
            lambda d: d["reach"].append([0, "f", "0"]),  # empty target row
            lambda d: d.__setitem__("format", "repro.schema/1"),
            lambda d: d["reach"].append(["0", "f", "1"]),  # non-int id
            lambda d: d["names"].__setitem__(0, "Dog"),  # duplicate name
            lambda d: d["succ"].pop(),  # table length mismatch
        ],
    )
    def test_tampered_documents_rejected(self, mutate):
        state = (
            ClosureBuilder()
            .add_spec_edge("Puppy", "Dog")
            .add_arrow("Dog", "owner", "Person")
            .dense_state()
        )
        doc = json_io.snapshot_to_dict(state)
        mutate(doc)
        with pytest.raises(SerializationError):
            json_io.snapshot_from_dict(doc)

    def test_validate_rejects_non_transitive(self):
        good = (
            ClosureBuilder()
            .add_spec_edge("C", "B")
            .add_spec_edge("B", "A")
            .dense_state()
        )
        # Drop C ⊑ A from C's mask: still reflexive, no cycle, but the
        # relation is no longer transitively closed.
        broken = DenseClosure(
            good.names,
            tuple(
                mask & ~(1 << 2) if i == 0 else mask
                for i, mask in enumerate(good.succ)
            ),
            good.reach,
        )
        if broken.succ == good.succ:  # id layout shifted; recompute
            pytest.skip("unexpected id layout")
        with pytest.raises(ValueError):
            broken.validate()

    def test_service_snapshot_round_trip_and_cache(self):
        service = MergeService()
        service.register(
            [
                Schema.build(
                    arrows=[("Dog", "owner", "Person")], spec=[("Puppy", "Dog")]
                ),
                Schema.build(arrows=[("Case", "judge", "Court")]),
            ]
        )
        snap = service.component_snapshot("Puppy")
        doc = snap.to_dict()
        assert doc["component"]["sid"] == snap.sid
        assert json_io.snapshot_from_dict(doc) == snap.dense
        assert snap.schema() == service.merged_view("Puppy")
        # Second lookup is a cache hit; a write to the *other*
        # component revalidates instead of rebuilding.
        assert service.component_snapshot("Puppy") is snap
        service.register([Schema.build(arrows=[("Case", "clerk", "Clerk")])])
        assert service.component_snapshot("Puppy") is snap
        # A write to the snapshot's own component invalidates it.
        service.register([Schema.build(spec=[("Chihuahua", "Dog")])])
        fresh = service.component_snapshot("Puppy")
        assert fresh is not snap
        assert "Chihuahua" in {str(c) for c in fresh.dense.names}
