"""Tests for repro.service — the long-lived, sharded merge service.

Four properties carry the whole design, and each gets its own class
here: answers equal the cold-path ``join_all`` (per component and
globally), registration batches commit atomically or not at all,
invalidation is component-local, and everything survives concurrent
use from a thread pool.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.ordering import join_all
from repro.core.schema import Schema
from repro.exceptions import IncompatibleSchemasError, UnknownClassError
from repro.generators.random_schemas import random_schema_family
from repro.generators.workloads import get_request_stream, replay
from repro.service import (
    MergeService,
    RegisterReceipt,
    UnionFind,
    plan_groups,
)


def pets_schema() -> Schema:
    return Schema.build(
        arrows=[("Dog", "owner", "Person")], spec=[("Puppy", "Dog")]
    )


def court_schema() -> Schema:
    return Schema.build(arrows=[("Case", "judge", "Court")])


def bridge_schema() -> Schema:
    return Schema.build(arrows=[("Person", "argues", "Case")])


class TestRegistry:
    def test_disjoint_schemas_land_in_separate_components(self):
        service = MergeService()
        outcome = service.register([pets_schema(), court_schema()])
        assert outcome == RegisterReceipt(
            accepted=2, components=2, generation=1
        )
        assert service.component_of("Dog") != service.component_of("Case")

    def test_overlapping_schemas_share_a_component(self):
        service = MergeService(
            [pets_schema(), Schema.build(arrows=[("Person", "name", "Str")])]
        )
        assert service.component_of("Dog") == service.component_of("Str")
        assert len(service.components()) == 1

    def test_bridge_merges_existing_components(self):
        service = MergeService([pets_schema(), court_schema()])
        assert len(service.components()) == 2
        service.register([bridge_schema()])
        assert len(service.components()) == 1
        assert service.component_of("Dog") == service.component_of("Court")
        merged = service.merged_view("Dog")
        assert merged.has_arrow("Person", "argues", "Case")
        assert merged.has_arrow("Puppy", "owner", "Person")

    def test_generation_bumps_once_per_batch(self):
        service = MergeService()
        outcome = service.register([pets_schema(), court_schema()])
        assert outcome.generation == 1
        outcome = service.register([bridge_schema()])
        assert outcome.generation == 2

    def test_empty_schemas_are_accepted_but_change_nothing(self):
        service = MergeService([pets_schema()])
        before = service.service_stats()["generation"]
        outcome = service.register([Schema.empty()])
        assert outcome.accepted == 1
        assert outcome.generation == before
        assert service.service_stats()["components"] == 1

    def test_unknown_lookups_raise_key_error(self):
        service = MergeService([pets_schema()])
        with pytest.raises(KeyError):
            service.merged_view("Unicorn")
        with pytest.raises(KeyError):
            service.merged_view(99)
        with pytest.raises(KeyError):
            service.query("Unicorn")
        assert service.component_of("Unicorn") is None


class TestColdPathEquivalence:
    def test_global_view_equals_join_all_on_overlapping_family(self):
        family = random_schema_family(n_schemas=20, seed=3)
        service = MergeService(family)
        assert service.merged_view() == join_all(family)

    def test_component_views_equal_join_all_after_full_replay(self):
        initial, requests = get_request_stream("service-sharded-small").make()
        service = MergeService(initial)
        replay(service, requests)
        assert len(service.components()) > 1
        for sid in service.components():
            members = list(service.component_schemas(sid))
            assert service.merged_view(sid) == join_all(members)

    def test_global_view_equals_join_all_across_shards(self):
        initial, _requests = get_request_stream("service-sharded-small").make()
        service = MergeService(initial)
        assert service.merged_view() == join_all(initial)

    def test_incremental_equals_batch_registration(self):
        family = random_schema_family(n_schemas=12, seed=5)
        one_shot = MergeService(family)
        incremental = MergeService()
        for schema in family:
            incremental.register([schema])
        assert incremental.merged_view() == one_shot.merged_view()


class TestAtomicRollback:
    def incompatible_pair(self):
        return (
            Schema.build(spec=[("X", "Y")]),
            Schema.build(spec=[("Y", "X")]),
        )

    def test_incompatible_batch_raises_and_commits_nothing(self):
        service = MergeService([pets_schema()])
        baseline_view = service.merged_view("Dog")
        baseline = service.service_stats()
        good = Schema.build(arrows=[("Fresh", "f", "Dog")])
        bad_one, bad_two = self.incompatible_pair()
        with pytest.raises(IncompatibleSchemasError):
            service.register([good, bad_one, bad_two])
        after = service.service_stats()
        assert after["generation"] == baseline["generation"]
        assert after["components"] == baseline["components"]
        assert after["registered_schemas"] == baseline["registered_schemas"]
        # The good member of the failed batch must not leak in.
        assert service.component_of("Fresh") is None
        assert service.merged_view("Dog") == baseline_view

    def test_conflict_with_already_registered_schema_rolls_back(self):
        service = MergeService([Schema.build(spec=[("X", "Y")])])
        with pytest.raises(IncompatibleSchemasError):
            service.register([Schema.build(spec=[("Y", "X")])])
        assert service.service_stats()["generation"] == 1
        assert service.merged_view("X") == Schema.build(spec=[("X", "Y")])

    def test_failed_batch_leaves_caches_serving(self):
        service = MergeService([pets_schema(), court_schema()])
        service.merged_view("Dog")
        bad_one, bad_two = self.incompatible_pair()
        with pytest.raises(IncompatibleSchemasError):
            service.register([bad_one, bad_two])
        hits_before = service.service_stats()["component_cache"]["hits"]
        service.merged_view("Dog")
        assert (
            service.service_stats()["component_cache"]["hits"]
            == hits_before + 1
        )


class TestInvalidation:
    @pytest.fixture
    def sharded_service(self):
        initial, _requests = get_request_stream("service-sharded-small").make()
        service = MergeService(initial)
        for sid in service.components():
            service.merged_view(sid)
        service.merged_view()
        return service

    def test_registration_invalidates_only_its_component(
        self, sharded_service
    ):
        service = sharded_service
        components = sorted(service.components())
        anchor = str(
            service.component_schemas(components[0])[0].sorted_classes()[0]
        )
        before = service.service_stats()["component_cache"]["misses"]
        service.register(
            [Schema.build(arrows=[(anchor, "probe", "ProbeTarget")])]
        )
        for sid in sorted(service.components()):
            service.merged_view(sid)
        delta = service.service_stats()["component_cache"]["misses"] - before
        assert delta == 1

    def test_query_partial_hit_when_other_component_changes(
        self, sharded_service
    ):
        service = sharded_service
        components = sorted(service.components())
        anchor_touched = str(
            service.component_schemas(components[0])[0].sorted_classes()[0]
        )
        anchor_other = str(
            service.component_schemas(components[1])[0].sorted_classes()[0]
        )
        first = service.query(anchor_other)
        service.register(
            [
                Schema.build(
                    arrows=[(anchor_touched, "probe", "ProbeTarget")]
                )
            ]
        )
        misses_before = service.service_stats()["snapshot_cache"]["misses"]
        second = service.query(anchor_other)
        # The other component's shard was not replaced, so its memoized
        # answer is served as-is, without being derived again.
        assert second is first
        assert (
            service.service_stats()["snapshot_cache"]["misses"]
            == misses_before
        )

    def test_query_recomputed_when_its_component_changes(
        self, sharded_service
    ):
        service = sharded_service
        components = sorted(service.components())
        anchor = str(
            service.component_schemas(components[0])[0].sorted_classes()[0]
        )
        first = service.query(anchor)
        service.register(
            [Schema.build(arrows=[(anchor, "probe", "ProbeTarget")])]
        )
        second = service.query(anchor)
        assert ("probe", "ProbeTarget") in second.arrows_out
        assert second != first

    def test_global_view_tracks_registrations(self, sharded_service):
        service = sharded_service
        before = service.merged_view()
        components = sorted(service.components())
        anchor = str(
            service.component_schemas(components[0])[0].sorted_classes()[0]
        )
        service.register(
            [Schema.build(arrows=[(anchor, "probe", "ProbeTarget")])]
        )
        after = service.merged_view()
        assert after != before
        assert after.has_arrow(anchor, "probe", "ProbeTarget")


class TestShardMemos:
    """Answers live on the shard that produced them."""

    @staticmethod
    def wide_service() -> MergeService:
        # Four components of 80 classes each: more distinct classes
        # than a 256-entry answer cache could hold.
        return MergeService(
            [
                Schema.build(
                    arrows=[
                        (f"C{c}_{i}", "next", f"C{c}_{i + 1}")
                        for i in range(79)
                    ]
                )
                for c in range(4)
            ]
        )

    def test_write_rederives_only_its_components_answers(self):
        service = self.wide_service()
        classes = sorted(f"C{c}_{i}" for c in range(4) for i in range(80))
        for cls in classes:
            service.query(cls)
        touched = service.component_of("C0_0")
        touched_classes = service.components()[touched]["classes"]
        service.register([Schema.build(arrows=[("C0_0", "probe", "C0_1")])])
        before = service.service_stats()["snapshot_cache"]["misses"]
        for cls in classes:
            service.query(cls)
        misses = service.service_stats()["snapshot_cache"]["misses"] - before
        assert len(classes) > 256
        assert misses == touched_classes == 80

    def test_unknown_class_leaves_every_memo_unchanged(self):
        service = self.wide_service()
        for c in range(4):
            service.query(f"C{c}_3")

        def memos():
            return {
                sid: dict(shard.answers)
                for sid, shard in service._registry.shards.items()
            }

        before = memos()
        with pytest.raises(UnknownClassError):
            service.query("NoSuchClass")
        assert memos() == before
        for shard in service._registry.shards.values():
            assert set(shard.answers) <= shard.view.classes


class TestConcurrency:
    def test_concurrent_queries_against_static_registry(self):
        initial, _requests = get_request_stream("service-sharded-small").make()
        service = MergeService(initial)
        expected = join_all(initial)
        classes = sorted(str(c) for g in initial for c in g.classes)

        def read(index: int):
            assert service.merged_view() == expected
            answer = service.query(classes[index % len(classes)])
            assert answer.component in service.components()
            return True

        with ThreadPoolExecutor(max_workers=8) as pool:
            assert all(pool.map(read, range(64)))

    def test_concurrent_register_and_query(self):
        initial, _requests = get_request_stream("service-sharded-small").make()
        service = MergeService(initial)
        components = sorted(service.components())
        anchors = [
            str(service.component_schemas(sid)[0].sorted_classes()[0])
            for sid in components
        ]

        def write(index: int):
            anchor = anchors[index % len(anchors)]
            service.register(
                [
                    Schema.build(
                        arrows=[(anchor, f"w{index:02d}", f"W{index:02d}")]
                    )
                ]
            )
            return True

        def read(index: int):
            service.merged_view(anchors[index % len(anchors)])
            answer = service.query(anchors[index % len(anchors)])
            return answer.class_name == anchors[index % len(anchors)]

        with ThreadPoolExecutor(max_workers=8) as pool:
            writes = [pool.submit(write, i) for i in range(16)]
            reads = [pool.submit(read, i) for i in range(48)]
            assert all(f.result() for f in writes + reads)

        # Every write landed exactly once, atomically.
        stats = service.service_stats()
        assert stats["registered_schemas"] == len(initial) + 16
        assert stats["generation"] == 1 + 16
        for sid in service.components():
            members = list(service.component_schemas(sid))
            assert service.merged_view(sid) == join_all(members)


class TestSharding:
    def test_union_find_groups(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("c", "d")
        uf.union("b", "c")
        uf.find("e")
        groups = {
            frozenset(members) for members in uf.groups().values()
        }
        assert groups == {frozenset("abcd"), frozenset("e")}

    def test_plan_groups_links_batch_members_through_shared_names(self):
        left = Schema.build(arrows=[("A", "f", "B")])
        right = Schema.build(arrows=[("B", "g", "C")])
        plans = plan_groups([left, right], {})
        assert len(plans) == 1
        assert plans[0][1] == [0, 1]

    def test_plan_groups_links_through_existing_shards(self):
        incoming = Schema.build(arrows=[("A", "f", "B")])
        schema_a = Schema.build(classes=["A"])
        schema_b = Schema.build(classes=["B"])
        assignment = {
            schema_a.sorted_classes()[0]: 0,
            schema_b.sorted_classes()[0]: 7,
        }
        plans = plan_groups([incoming], assignment)
        assert plans == [({0, 7}, [0])]

    def test_plan_groups_reports_untouched_shards_nowhere(self):
        schema_c = Schema.build(classes=["C"])
        assignment = {schema_c.sorted_classes()[0]: 3}
        plans = plan_groups([Schema.build(classes=["Z"])], {**assignment})
        assert plans == [(set(), [0])]


class TestRequestStreams:
    def test_streams_are_deterministic(self):
        stream = get_request_stream("service-tiny")
        first_initial, first_requests = stream.make()
        second_initial, second_requests = stream.make()
        assert first_initial == second_initial
        assert first_requests == second_requests

    def test_unknown_stream_raises_with_known_names(self):
        with pytest.raises(KeyError, match="service-tiny"):
            get_request_stream("nope")

    def test_sharded_stream_registrations_stay_in_their_pod(self):
        initial, requests = get_request_stream("service-sharded-small").make()
        service = MergeService(initial)
        components_before = len(service.components())
        replay(service, requests)
        # Late registrations overlap existing pods, never bridge them.
        assert len(service.components()) == components_before

    def test_replay_counts_every_request(self):
        initial, requests = get_request_stream("service-tiny").make()
        counts = replay(MergeService(initial), requests)
        assert sum(counts.values()) == len(requests)
        assert counts["register"] == 2
