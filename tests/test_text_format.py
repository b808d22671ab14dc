"""Unit + property tests for the hand-writable text format."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.keys import KeyFamily, KeyedSchema
from repro.core.lower import AnnotatedSchema
from repro.core.merge import upper_merge
from repro.core.names import BaseName, GenName, ImplicitName, sort_key
from repro.core.participation import Participation
from repro.core.schema import Schema
from repro.exceptions import IncompatibleSchemasError, SerializationError
from repro.figures import figure2_schema, figure9_keyed_schema
from repro.io.text_format import (
    format_annotated,
    format_keyed,
    format_schema,
    parse,
)
from repro.render.dot import schema_to_dot

from tests.conftest import annotated_schemas, schema_pairs, schemas

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestParse:
    def test_basic_document(self):
        schema = parse(
            """
            # dog registry
            class Kennel
            Police-dog ==> Dog
            Dog --owner--> Person
            """
        )
        assert isinstance(schema, Schema)
        assert schema.has_class("Kennel")
        assert schema.is_spec("Police-dog", "Dog")
        assert schema.has_arrow("Police-dog", "owner", "Person")  # closure

    def test_optional_marks_give_annotated(self):
        schema = parse("Dog --age?--> Int\nDog --name--> Str\n")
        assert isinstance(schema, AnnotatedSchema)
        assert (
            schema.participation_of("Dog", "age", "Int")
            == Participation.OPTIONAL
        )
        assert (
            schema.participation_of("Dog", "name", "Str")
            == Participation.REQUIRED
        )

    def test_key_lines_give_keyed(self):
        document = """
        T --loc--> Machine
        T --at--> Time
        T --card--> Card
        key T: {loc, at}, {card, at}
        """
        keyed = parse(document)
        assert isinstance(keyed, KeyedSchema)
        assert keyed.keys_of("T") == KeyFamily.of(
            {"loc", "at"}, {"card", "at"}
        )

    def test_quoted_names(self):
        schema = parse('"Police dog" ==> Dog\n')
        assert schema.has_class(BaseName("Police dog"))

    def test_composite_names(self):
        schema = parse("<B1&B2> ==> B1\n[C|D] ==> Top\n")
        assert ImplicitName(["B1", "B2"]) in schema.classes
        assert GenName(["C", "D"]) in schema.classes

    def test_comments_and_blanks_ignored(self):
        schema = parse("\n# nothing\n   \nclass A  # trailing\n")
        assert schema.classes == {BaseName("A")}

    def test_mixing_keys_and_marks_rejected(self):
        with pytest.raises(SerializationError):
            parse("Dog --age?--> Int\nkey Dog: {age}\n")

    def test_garbage_line_rejected(self):
        with pytest.raises(SerializationError) as excinfo:
            parse("class A\nwhat is this\n")
        assert "line 2" in str(excinfo.value)

    def test_empty_key_set_rejected(self):
        with pytest.raises(SerializationError):
            parse("T --a--> D\nkey T: {}\n")

    def test_bad_name_rejected(self):
        with pytest.raises(SerializationError):
            parse("class a{b\n")

    def test_empty_label_rejected(self):
        with pytest.raises(SerializationError):
            parse("A -- --> B\n")


class TestRoundTrips:
    def test_figure2(self):
        schema = figure2_schema()
        assert parse(format_schema(schema)) == schema

    def test_figure9_keyed(self):
        keyed = figure9_keyed_schema()
        assert parse(format_keyed(keyed)) == keyed

    def test_annotated_example(self):
        schema = AnnotatedSchema.build(
            arrows=[
                ("Dog", "name", "Str", Participation.REQUIRED),
                ("Dog", "age", "Int", Participation.OPTIONAL),
            ],
            spec=[("Puppy", "Dog")],
        )
        assert parse(format_annotated(schema)) == schema

    @given(schemas())
    @RELAXED
    def test_schema_round_trip(self, schema):
        assert parse(format_schema(schema)) == schema

    @given(annotated_schemas())
    @RELAXED
    def test_annotated_round_trip(self, schema):
        parsed = parse(format_annotated(schema))
        if isinstance(parsed, Schema):
            # No optional arrows: the document parses as plain; compare
            # through the canonical embedding.
            parsed = AnnotatedSchema.from_schema(parsed)
        assert parsed == schema

    def test_composite_name_round_trip(self):
        from repro.core.merge import upper_merge
        from repro.figures import figure3_schemas

        merged = upper_merge(*figure3_schemas())
        assert parse(format_schema(merged)) == merged


def name_level_own_arrows(schema: Schema):
    """The per-class loop ``format_schema`` and ``schema_to_dot`` ran before
    ``Schema.own_arrows``: one ``arrows_from`` per strict generalization."""
    drawn = []
    for cls in schema.sorted_classes():
        inherited = set()
        for sup in schema.generalizations_of(cls):
            if sup != cls:
                inherited.update(
                    (label, target) for (_s, label, target) in schema.arrows_from(sup)
                )
        for label in sorted(schema.out_labels(cls)):
            for target in sorted(
                schema.min_classes(schema.reach(cls, label)), key=sort_key
            ):
                if (label, target) not in inherited:
                    drawn.append((cls, label, target))
    return tuple(drawn)


class TestOwnArrows:
    @RELAXED
    @given(schemas())
    def test_equals_the_name_level_loop(self, schema):
        assert schema.own_arrows() == name_level_own_arrows(schema)

    @RELAXED
    @given(schema_pairs())
    def test_equals_the_name_level_loop_on_proper_merges(self, pair):
        try:
            merged = upper_merge(*pair)
        except IncompatibleSchemasError:
            return
        assert merged.own_arrows() == name_level_own_arrows(merged)

    @RELAXED
    @given(schemas())
    def test_format_and_dot_draw_exactly_the_own_arrows(self, schema):
        drawn = name_level_own_arrows(schema)
        text = format_schema(schema)
        assert [line for line in text.splitlines() if "--" in line] == [
            f"{src} --{label}--> {dst}" for src, label, dst in drawn
        ]
        edges = [
            line for line in schema_to_dot(schema).splitlines()
            if " -> " in line and "[label=" in line
        ]
        assert len(edges) == len(drawn)
