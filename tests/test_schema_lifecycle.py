"""Schema lifecycle tests: named versions, supersede chains, retirement.

The lifecycle layer rides on the durable registry (``ISSUE`` tentpole):
named registrations get monotonically increasing versions and a
``recommended``/``supported``/``obsolete`` state, a new recommended
version demotes its predecessor (the supersede chain), and ``retire``
is the registry's first *removal* path — implemented as
rebuild-on-retire, so these tests also pin the invalidation contract:
retiring a schema rebuilds exactly its owning component and leaves
every other component's caches warm (observed through the
``closure.components_rebuilt`` counter and the snapshot-cache stats).
"""

from __future__ import annotations

import pytest

from repro.core.schema import Schema
from repro.exceptions import (
    IncompatibleSchemasError,
    InvalidRequestError,
    RetiredSchemaError,
    UnknownClassError,
    UnknownSchemaError,
)
from repro.obs.metrics import REGISTRY
from repro.service import MergeService, RegistrationEntry


def pets_v1() -> Schema:
    return Schema.build(arrows=[("Dog", "owner", "Person")])


def pets_v2() -> Schema:
    return Schema.build(
        arrows=[("Dog", "owner", "Person"), ("Dog", "licence", "Licence")]
    )


def court() -> Schema:
    return Schema.build(arrows=[("Case", "judge", "Court")])


def library() -> Schema:
    return Schema.build(arrows=[("Book", "shelf", "Shelf")])


def rebuilds() -> int:
    return REGISTRY.value("closure.components_rebuilt")


class TestNamedRegistration:
    def test_versions_count_up_from_one(self):
        service = MergeService()
        service.register([RegistrationEntry(pets_v1(), name="pets")])
        service.register([RegistrationEntry(pets_v2(), name="pets")])
        info = service.schema_info("pets")
        assert [v["version"] for v in info["versions"]] == [1, 2]

    def test_default_lifecycle_is_recommended_and_supersedes(self):
        service = MergeService()
        service.register([RegistrationEntry(pets_v1(), name="pets")])
        assert service.schema_info("pets")["recommended"] == 1
        service.register([RegistrationEntry(pets_v2(), name="pets")])
        info = service.schema_info("pets")
        assert info["recommended"] == 2
        assert [v["lifecycle"] for v in info["versions"]] == [
            "supported",
            "recommended",
        ]
        assert service.resolve_schema("pets") == pets_v2()

    def test_supported_registration_does_not_demote_recommended(self):
        service = MergeService()
        service.register([RegistrationEntry(pets_v1(), name="pets")])
        service.register(
            [RegistrationEntry(pets_v2(), name="pets", lifecycle="supported")]
        )
        info = service.schema_info("pets")
        assert info["recommended"] == 1
        assert service.resolve_schema("pets") == pets_v1()

    def test_resolution_falls_back_through_the_lifecycle_order(self):
        service = MergeService()
        service.register(
            [RegistrationEntry(pets_v1(), name="pets", lifecycle="obsolete")]
        )
        # Nothing better exists: the obsolete version still resolves.
        assert service.resolve_schema("pets") == pets_v1()
        service.register(
            [RegistrationEntry(pets_v2(), name="pets", lifecycle="supported")]
        )
        assert service.resolve_schema("pets") == pets_v2()

    def test_duplicate_version_rolls_back_the_whole_batch(self):
        service = MergeService()
        service.register(
            [RegistrationEntry(pets_v1(), name="pets", version=1)]
        )
        generation = service.service_stats()["generation"]
        rollbacks = service.telemetry.rollbacks
        with pytest.raises(InvalidRequestError, match="version"):
            service.register(
                [
                    RegistrationEntry(court()),
                    RegistrationEntry(pets_v2(), name="pets", version=1),
                ]
            )
        assert service.service_stats()["generation"] == generation
        assert service.component_of("Case") is None
        assert rollbacks.value == 1
        # The fold runs before the version check: a batch that is both
        # cyclic and a duplicate version is refused for its cycle.
        with pytest.raises(IncompatibleSchemasError):
            service.register(
                [
                    RegistrationEntry(Schema.build(spec=[("Puppy", "Dog")])),
                    RegistrationEntry(
                        Schema.build(spec=[("Dog", "Puppy")]),
                        name="pets",
                        version=1,
                    ),
                ]
            )
        assert service.service_stats()["generation"] == generation
        assert rollbacks.value == 2

    def test_named_empty_schema_is_rejected(self):
        service = MergeService()
        with pytest.raises(InvalidRequestError, match="empty"):
            service.register(
                [RegistrationEntry(Schema.empty(), name="pets")]
            )

    def test_anonymous_entries_cannot_carry_lifecycle_fields(self):
        with pytest.raises(InvalidRequestError):
            RegistrationEntry(pets_v1(), version=1)
        with pytest.raises(InvalidRequestError):
            RegistrationEntry(pets_v1(), lifecycle="recommended")
        with pytest.raises(InvalidRequestError):
            RegistrationEntry(pets_v1(), name="pets", version=0)
        with pytest.raises(InvalidRequestError):
            RegistrationEntry(pets_v1(), name="pets", lifecycle="zombie")

    def test_unknown_name_raises_typed_error(self):
        service = MergeService()
        with pytest.raises(UnknownSchemaError):
            service.resolve_schema("ghost")
        with pytest.raises(UnknownSchemaError):
            service.schema_info("ghost")
        with pytest.raises(UnknownSchemaError):
            service.retire("ghost")


class TestRetire:
    def test_retire_withdraws_every_live_version(self):
        service = MergeService()
        service.register([RegistrationEntry(pets_v1(), name="pets")])
        service.register([RegistrationEntry(pets_v2(), name="pets")])
        receipt = service.retire("pets")
        assert receipt.versions == (1, 2)
        with pytest.raises(RetiredSchemaError):
            service.resolve_schema("pets")
        with pytest.raises(RetiredSchemaError):
            service.retire("pets")

    def test_retired_classes_leave_the_registry(self):
        service = MergeService()
        service.register([RegistrationEntry(pets_v1(), name="pets")])
        service.retire("pets")
        assert service.component_of("Dog") is None
        with pytest.raises(UnknownClassError):
            service.query("Dog")
        assert service.merged_view() == Schema.empty()

    def test_equal_anonymous_registration_survives_a_retire(self):
        service = MergeService()
        service.register(
            [RegistrationEntry(pets_v1(), name="pets"), pets_v1()]
        )
        service.retire("pets")
        # Only the named occurrence was dropped; the anonymous twin
        # still asserts the same content.
        assert service.merged_view() == pets_v1()
        assert service.component_of("Dog") is not None

    def test_version_numbers_are_never_reused(self):
        service = MergeService()
        service.register([RegistrationEntry(pets_v1(), name="pets")])
        service.retire("pets")
        service.register([RegistrationEntry(pets_v2(), name="pets")])
        info = service.schema_info("pets")
        assert [v["version"] for v in info["versions"]] == [1, 2]
        assert info["recommended"] == 2
        assert [v["retired"] for v in info["versions"]] == [True, False]

    def test_generation_bumps_once_per_retire(self):
        service = MergeService()
        service.register([RegistrationEntry(pets_v1(), name="pets")])
        service.register([RegistrationEntry(pets_v2(), name="pets")])
        generation = service.service_stats()["generation"]
        receipt = service.retire("pets")
        assert receipt.generation == generation + 1

    def test_retired_versions_show_in_storage_stats(self):
        service = MergeService()
        service.register([RegistrationEntry(pets_v1(), name="pets")])
        service.register([RegistrationEntry(court(), name="court")])
        service.retire("pets")
        storage = service.service_stats()["storage"]
        assert storage["named_schemas"] == 2
        assert storage["retired_versions"] == 1


class TestRetireInvalidation:
    def sharded_service(self) -> MergeService:
        service = MergeService()
        service.register(
            [
                RegistrationEntry(pets_v1(), name="pets"),
                RegistrationEntry(pets_v2(), name="pets"),
                # Anonymous member of the pets component: it survives
                # the retire, so the component must be *rebuilt* from
                # it rather than dropped outright.
                Schema.build(arrows=[("Dog", "vet", "Vet")]),
                RegistrationEntry(court(), name="court"),
                RegistrationEntry(library()),
            ]
        )
        return service

    def test_retire_rebuilds_exactly_the_owning_component(self):
        service = self.sharded_service()
        service.merged_view()  # warm every component's cache
        before = rebuilds()
        assert service.merged_view() is not None
        assert rebuilds() == before  # fully warm: no rebuild on reads
        service.retire("pets")
        view = service.merged_view()
        # Only the pets component was refolded (lazily, on this first
        # read after the retire); court and library answered from
        # their still-valid cache entries.
        assert rebuilds() == before + 1
        assert view.has_arrow("Dog", "vet", "Vet")
        assert not view.has_arrow("Dog", "owner", "Person")

    def test_untouched_components_revalidate_instead_of_recomputing(self):
        service = self.sharded_service()
        case, book = service.query("Case"), service.query("Book")
        baseline = service.service_stats()["snapshot_cache"]
        service.retire("pets")
        # The generation moved on, but both shards are untouched: their
        # memoized answers are served as-is, never derived again.
        assert service.query("Case") is case
        assert service.query("Book") is book
        stats = service.service_stats()["snapshot_cache"]
        assert stats["hits"] == baseline["hits"] + 2
        assert stats["misses"] == baseline["misses"]

    def test_retiring_the_last_member_drops_the_component(self):
        service = self.sharded_service()
        components = service.service_stats()["components"]
        service.retire("court")
        assert service.service_stats()["components"] == components - 1
        assert service.component_of("Case") is None

    def test_retire_receipt_counts_surviving_components(self):
        service = self.sharded_service()
        receipt = service.retire("court")
        assert receipt.components == service.service_stats()["components"]
