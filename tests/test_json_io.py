"""Unit tests for JSON serialization round trips."""

import json

import pytest
from hypothesis import given, settings

from repro.core.lower import AnnotatedSchema
from repro.core.merge import upper_merge
from repro.core.names import BaseName, GenName, ImplicitName
from repro.core.participation import Participation
from repro.exceptions import IncompatibleSchemasError, SerializationError
from repro.figures import (
    figure1_er_diagram,
    figure2_schema,
    figure3_schemas,
    figure9_keyed_schema,
)
from repro.instances.instance import Instance
from repro.io.json_io import (
    annotated_from_dict,
    annotated_to_dict,
    dumps,
    er_from_dict,
    er_to_dict,
    generators_from_dict,
    generators_to_dict,
    instance_from_dict,
    instance_to_dict,
    keyed_from_dict,
    keyed_to_dict,
    loads,
    name_from_json,
    name_to_json,
    schema_from_dict,
    schema_to_dict,
)
from repro.perf.closure import ClosureBuilder
from tests.conftest import schema_docs, schemas


class TestNames:
    def test_base_round_trip(self):
        assert name_from_json(name_to_json(BaseName("Dog"))) == BaseName(
            "Dog"
        )

    def test_implicit_round_trip(self):
        imp = ImplicitName(["A", "B"])
        assert name_from_json(name_to_json(imp)) == imp

    def test_gen_round_trip(self):
        gen = GenName([ImplicitName(["A", "B"]), "C"])
        assert name_from_json(name_to_json(gen)) == gen

    def test_bad_document(self):
        with pytest.raises(SerializationError):
            name_from_json({"mystery": []})


class TestSchema:
    def test_round_trip(self):
        schema = figure2_schema()
        assert schema_from_dict(schema_to_dict(schema)) == schema

    def test_round_trip_with_implicit_classes(self):
        merged = upper_merge(*figure3_schemas())
        assert schema_from_dict(schema_to_dict(merged)) == merged

    def test_wrong_format_rejected(self):
        with pytest.raises(SerializationError):
            schema_from_dict({"format": "nope"})

    def test_json_is_deterministic(self):
        schema = figure2_schema()
        assert dumps(schema) == dumps(schema)

    def test_dumps_loads(self):
        schema = figure2_schema()
        assert loads(dumps(schema)) == schema

    def test_document_is_valid_json(self):
        parsed = json.loads(dumps(figure2_schema()))
        assert parsed["format"] == "repro.schema/1"


class TestKeyed:
    def test_round_trip(self):
        keyed = figure9_keyed_schema()
        restored = keyed_from_dict(keyed_to_dict(keyed))
        assert restored == keyed

    def test_dumps_dispatch(self):
        keyed = figure9_keyed_schema()
        assert loads(dumps(keyed)) == keyed


class TestAnnotated:
    def test_round_trip(self):
        schema = AnnotatedSchema.build(
            arrows=[
                ("Dog", "name", "Str", Participation.REQUIRED),
                ("Dog", "age", "Int", Participation.OPTIONAL),
            ],
            spec=[("Puppy", "Dog")],
        )
        assert annotated_from_dict(annotated_to_dict(schema)) == schema

    def test_dumps_dispatch(self):
        schema = AnnotatedSchema.build(
            arrows=[("A", "f", "B", Participation.OPTIONAL)]
        )
        assert loads(dumps(schema)) == schema


class TestInstance:
    def test_round_trip(self):
        instance = Instance.build(
            extents={"Dog": {"rex"}, "Person": {"alice"}},
            values={("rex", "owner"): "alice"},
        )
        assert instance_from_dict(instance_to_dict(instance)) == instance

    def test_tuple_oids_round_trip(self):
        # The shape federation's disjointification produces.
        instance = Instance.build(
            extents={"Dog": {("src0", "d1"), "plain"}},
            values={(("src0", "d1"), "owner"): "plain"},
        )
        assert instance_from_dict(instance_to_dict(instance)) == instance
        assert loads(dumps(instance)) == instance

    def test_other_oid_types_rejected(self):
        instance = Instance.build(extents={"Dog": {42}})
        with pytest.raises(SerializationError):
            instance_to_dict(instance)

    def test_malformed_oid_document_rejected(self):
        from repro.io.json_io import instance_from_dict as decode

        with pytest.raises(SerializationError, match="oid"):
            decode(
                {"format": "repro.instance/1", "oids": [{"bad": True}]}
            )


class TestER:
    def test_round_trip(self):
        diagram = figure1_er_diagram()
        assert er_from_dict(er_to_dict(diagram)) == diagram

    def test_dumps_dispatch(self):
        diagram = figure1_er_diagram()
        assert loads(dumps(diagram)) == diagram


class TestOO:
    @staticmethod
    def _diagram():
        from repro.models.oo import OOAttribute, OOClass, OODiagram

        return OODiagram(
            classes=[
                OOClass(
                    "Person",
                    [
                        OOAttribute("name", "Str"),
                        OOAttribute("spouse", "Person"),
                    ],
                ),
                OOClass(
                    "Author",
                    [OOAttribute("royalties", "Money")],
                    bases=("Person",),
                ),
            ],
            value_types=["Unused"],
        )

    def test_round_trip(self):
        from repro.io.json_io import oo_from_dict, oo_to_dict

        diagram = self._diagram()
        assert oo_from_dict(oo_to_dict(diagram)) == diagram

    def test_dumps_dispatch(self):
        diagram = self._diagram()
        assert loads(dumps(diagram)) == diagram

    def test_wrong_format_rejected(self):
        from repro.io.json_io import oo_from_dict

        with pytest.raises(SerializationError, match="format"):
            oo_from_dict({"format": "repro.er/1"})

    def test_malformed_document_rejected(self):
        from repro.io.json_io import oo_from_dict

        with pytest.raises(SerializationError, match="malformed"):
            oo_from_dict(
                {"format": "repro.oo/1", "classes": [{"no-name": True}]}
            )

    def test_explicit_value_types_survive(self):
        from repro.io.json_io import oo_from_dict, oo_to_dict

        recovered = oo_from_dict(oo_to_dict(self._diagram()))
        assert "Unused" in recovered.value_types


class TestLoadsErrors:
    def test_invalid_json(self):
        with pytest.raises(SerializationError):
            loads("{not json")

    def test_non_object(self):
        with pytest.raises(SerializationError):
            loads("[1, 2]")

    def test_unknown_format(self):
        with pytest.raises(SerializationError):
            loads('{"format": "unknown/9"}')

    def test_unsupported_type(self):
        with pytest.raises(SerializationError):
            dumps(42)


#: Malformed schema documents, each a change to a valid one.  Both
#: decoders must refuse each with the same exception type.
MALFORMED = [
    lambda d: {**d, "format": "repro.schema/2"},
    lambda d: {k: v for k, v in d.items() if k != "format"},
    lambda d: [d],
    lambda d: {**d, "classes": 7},
    lambda d: {**d, "classes": None},
    lambda d: {**d, "classes": [""]},
    lambda d: {**d, "classes": [5]},
    lambda d: {**d, "classes": [{"mystery": []}]},
    lambda d: {**d, "arrows": 7},
    lambda d: {**d, "arrows": "abc"},
    lambda d: {**d, "arrows": [["K0", "a"]]},
    lambda d: {**d, "arrows": [[None, "a", "K1"]]},
    lambda d: {**d, "arrows": [["K0", "", "K1"]]},
    lambda d: {**d, "arrows": [["K0", 5, "K1"]]},
    lambda d: {**d, "arrows": [["K0", ["a"], "K1"]]},
    lambda d: {**d, "spec": 5},
    lambda d: {**d, "spec": [["K0"]]},
    lambda d: {**d, "spec": [["K0", "K1", "K2"]]},
    lambda d: {**d, "spec": [["K0", {"gen": 5}]]},
    # A bad name in spec is reported before a bad label in arrows.
    lambda d: {**d, "arrows": [["K0", "", "K1"]], "spec": [["K0", 7]]},
]


def _refusal(decode, doc):
    try:
        decode(doc)
    except Exception as exc:  # the type is what is compared
        return type(exc)
    return None


class TestGenerators:
    """``generators_from_dict``: a document's own edges, never closed."""

    @settings(max_examples=150, deadline=None)
    @given(schema_docs(), schemas())
    def test_folding_the_generator_form_builds_the_closed_schema(
        self, drawn, other
    ):
        schema, doc = drawn
        gens = generators_from_dict(doc)
        assert gens.classes == schema.classes
        assert ClosureBuilder().add_schema(gens).build() == schema
        assert schema_from_dict(doc) == schema
        assert (
            ClosureBuilder([other, gens]).build()
            == ClosureBuilder([other, schema_from_dict(doc)]).build()
        )

    @settings(max_examples=100, deadline=None)
    @given(schema_docs())
    def test_the_canonical_document_is_a_fixed_point(self, drawn):
        schema, doc = drawn
        canonical = generators_to_dict(generators_from_dict(doc))
        assert generators_to_dict(generators_from_dict(canonical)) == canonical
        assert schema_from_dict(canonical) == schema
        closed = schema_to_dict(schema)  # its own canonical form
        assert generators_to_dict(generators_from_dict(closed)) == closed

    def test_composite_names_decode_to_the_same_schema(self):
        merged = upper_merge(*figure3_schemas())
        closed = schema_to_dict(merged)
        gens = generators_from_dict(closed)
        assert ClosureBuilder().add_schema(gens).build() == merged
        assert generators_to_dict(gens) == closed

    @settings(max_examples=10, deadline=None)
    @given(schemas())
    @pytest.mark.parametrize("mutate", MALFORMED)
    def test_malformed_documents_raise_what_schema_from_dict_raises(
        self, mutate, schema
    ):
        doc = mutate(schema_to_dict(schema))
        refused = _refusal(schema_from_dict, doc)
        assert refused is not None
        assert _refusal(generators_from_dict, doc) is refused

    def test_a_cyclic_document_decodes_and_the_fold_refuses_it(self):
        doc = {"format": "repro.schema/1", "spec": [["A", "B"], ["B", "A"]]}
        with pytest.raises(IncompatibleSchemasError):
            schema_from_dict(doc)
        gens = generators_from_dict(doc)
        assert gens.spec == {(BaseName("A"), BaseName("B")), (BaseName("B"), BaseName("A"))}
        with pytest.raises(IncompatibleSchemasError):
            ClosureBuilder().add_schema(gens)
