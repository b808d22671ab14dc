"""Tests for repro.service.api_types — typed results.

The API contract: ``register``, ``retire`` and ``query`` return frozen
dataclasses that are immutable, hashable and compare by value; fields
are read as attributes and ``to_dict()`` gives the JSON-ready shape.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.schema import Schema
from repro.service import (
    MergeService,
    QueryResult,
    RegisterReceipt,
    RegistrationEntry,
    RetireReceipt,
)


@pytest.fixture
def receipt() -> RegisterReceipt:
    return RegisterReceipt(accepted=2, components=2, generation=1)


@pytest.fixture
def retirement() -> RetireReceipt:
    return RetireReceipt(name="pets", versions=(1, 2), components=3,
                         generation=7)


@pytest.fixture
def result() -> QueryResult:
    service = MergeService(
        [
            Schema.build(
                arrows=[("Dog", "owner", "Person")], spec=[("Puppy", "Dog")]
            )
        ]
    )
    return service.query("Dog")


class TestRegisterReceipt:
    def test_service_returns_the_typed_receipt(self):
        service = MergeService()
        outcome = service.register([Schema.build(classes=["A"])])
        assert isinstance(outcome, RegisterReceipt)
        assert (outcome.accepted, outcome.components, outcome.generation) == (
            1,
            1,
            1,
        )

    def test_frozen(self, receipt):
        with pytest.raises(dataclasses.FrozenInstanceError):
            receipt.generation = 9

    def test_to_dict_round_trips_through_json(self, receipt):
        doc = json.loads(json.dumps(receipt.to_dict()))
        assert doc == {"accepted": 2, "components": 2, "generation": 1}

    def test_equality_with_same_type(self, receipt):
        twin = RegisterReceipt(accepted=2, components=2, generation=1)
        other = RegisterReceipt(accepted=2, components=2, generation=9)
        assert receipt == twin
        assert receipt != other
        assert hash(receipt) == hash(twin)

    def test_no_mapping_access(self, receipt):
        with pytest.raises(TypeError):
            receipt["generation"]
        assert receipt != receipt.to_dict()


class TestRetireReceipt:
    def test_service_returns_the_typed_receipt(self):
        service = MergeService()
        service.register(
            [RegistrationEntry(Schema.build(classes=["A"]), name="alpha")]
        )
        outcome = service.retire("alpha")
        assert isinstance(outcome, RetireReceipt)
        assert outcome == RetireReceipt(
            name="alpha", versions=(1,), components=0, generation=2
        )

    def test_frozen(self, retirement):
        with pytest.raises(dataclasses.FrozenInstanceError):
            retirement.generation = 9

    def test_to_dict_is_json_ready(self, retirement):
        doc = json.loads(json.dumps(retirement.to_dict()))
        assert doc == {
            "name": "pets",
            "versions": [1, 2],
            "components": 3,
            "generation": 7,
        }

    def test_hashable(self, retirement):
        assert hash(retirement) == hash(
            RetireReceipt(name="pets", versions=(1, 2), components=3,
                          generation=7)
        )


class TestQueryResult:
    def test_fields_are_sorted_tuples(self, result):
        assert result.class_name == "Dog"
        assert result.arrows_out == (("owner", "Person"),)
        assert result.specializations == ("Puppy",)
        assert result.generalizations == ()

    def test_to_dict_keeps_the_legacy_class_key(self, result):
        doc = result.to_dict()
        assert doc["class"] == "Dog"
        assert doc["component"] == result.component
        assert doc["arrows_out"] == (("owner", "Person"),)

    def test_hashable_and_cache_safe(self, result):
        assert {result: "cached"}[result] == "cached"

    def test_frozen(self, result):
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.component = 99
