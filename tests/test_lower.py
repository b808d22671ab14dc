"""Unit tests for annotated schemas and lower merges (§6)."""

import pytest

from repro.core.lower import (
    AnnotatedSchema,
    annotated_leq,
    complete_classes,
    lower_merge,
    lower_properize,
    lower_properness_violations,
)
from repro.core.names import BaseName, GenName
from repro.core.participation import Participation
from repro.exceptions import (
    IncompatibleSchemasError,
    ParticipationError,
    SchemaValidationError,
)

P0 = Participation.ABSENT
P01 = Participation.OPTIONAL
P1 = Participation.REQUIRED


class TestAnnotatedSchemaBuild:
    def test_default_constraint_is_required(self):
        schema = AnnotatedSchema.build(arrows=[("Dog", "name", "Str")])
        assert schema.participation_of("Dog", "name", "Str") == P1

    def test_explicit_constraints(self):
        schema = AnnotatedSchema.build(
            arrows=[("Dog", "age", "Int", P01)]
        )
        assert schema.participation_of("Dog", "age", "Int") == P01

    def test_string_constraints_parsed(self):
        schema = AnnotatedSchema.build(
            arrows=[("Dog", "age", "Int", "0/1")]
        )
        assert schema.participation_of("Dog", "age", "Int") == P01

    def test_absent_entries_dropped(self):
        schema = AnnotatedSchema.build(arrows=[("Dog", "age", "Int", P0)])
        assert schema.participation_of("Dog", "age", "Int") == P0
        assert not schema.present_arrows()

    def test_required_propagates_down_spec(self):
        schema = AnnotatedSchema.build(
            arrows=[("Dog", "name", "Str", P1)],
            spec=[("Puppy", "Dog")],
        )
        assert schema.participation_of("Puppy", "name", "Str") == P1

    def test_optional_does_not_propagate_down_spec(self):
        schema = AnnotatedSchema.build(
            arrows=[("Dog", "chip", "Id", P01)],
            spec=[("Puppy", "Dog")],
        )
        assert schema.participation_of("Puppy", "chip", "Id") == P0

    def test_constraints_propagate_up_targets(self):
        schema = AnnotatedSchema.build(
            arrows=[("Dog", "home", "Kennel", P01)],
            spec=[("Kennel", "Place")],
        )
        assert schema.participation_of("Dog", "home", "Place") == P01

    def test_required_beats_optional_on_duplicates(self):
        schema = AnnotatedSchema.build(
            arrows=[
                ("Dog", "name", "Str", P01),
                ("Dog", "name", "Str", P1),
            ]
        )
        assert schema.participation_of("Dog", "name", "Str") == P1

    def test_spec_cycle_rejected(self):
        with pytest.raises(IncompatibleSchemasError):
            AnnotatedSchema.build(spec=[("A", "B"), ("B", "A")])

    def test_bad_arity_rejected(self):
        with pytest.raises(SchemaValidationError):
            AnnotatedSchema.build(arrows=[("A", "f")])

    def test_from_schema_round_trip(self, dog_schema):
        annotated = AnnotatedSchema.from_schema(dog_schema)
        assert annotated.required_schema() == dog_schema
        assert annotated.present_arrows() == dog_schema.arrows

    def test_from_schema_rejects_absent_default(self, dog_schema):
        with pytest.raises(ParticipationError):
            AnnotatedSchema.from_schema(dog_schema, default=P0)

    @pytest.mark.parametrize(
        "spec_pairs, table",
        [
            pytest.param(
                [("B", "T")],
                {("A", "f", "B"): P01},  # missing W2' (A, f, T)
                id="optional-row-missing-w2-generalization",
            ),
            pytest.param(
                [("P", "A")],
                {("A", "f", "B"): P1},  # missing W1' (P, f, B)
                id="required-row-missing-w1-subclass-copy",
            ),
            pytest.param(
                [("A", "B"), ("B", "A")],
                {},  # A ==> B ==> A: not antisymmetric
                id="spec-not-a-partial-order",
            ),
        ],
    )
    def test_constructor_requires_closed_table(self, spec_pairs, table):
        classes = frozenset(
            BaseName(c) for c in ["A", "B", "P", "T"]
        )
        spec = {(c, c) for c in classes} | {
            (BaseName(a), BaseName(b)) for a, b in spec_pairs
        }
        with pytest.raises(SchemaValidationError):
            AnnotatedSchema(
                classes,
                frozenset(spec),
                {
                    (BaseName(s), label, BaseName(t)): v
                    for (s, label, t), v in table.items()
                },
            )


class TestAnnotatedOrdering:
    def test_reflexive(self):
        schema = AnnotatedSchema.build(arrows=[("A", "f", "B", P01)])
        assert annotated_leq(schema, schema)

    def test_optional_below_required(self):
        optional = AnnotatedSchema.build(arrows=[("A", "f", "B", P01)])
        required = AnnotatedSchema.build(arrows=[("A", "f", "B", P1)])
        assert annotated_leq(optional, required)
        assert not annotated_leq(required, optional)

    def test_absence_over_known_classes_is_information(self):
        # Left knows A and B but has no arrow (constraint 0); right has
        # the arrow required: incomparable.
        bare = AnnotatedSchema.build(classes=["A", "B"])
        with_arrow = AnnotatedSchema.build(arrows=[("A", "f", "B", P1)])
        assert not annotated_leq(bare, with_arrow)
        assert not annotated_leq(with_arrow, bare)

    def test_optional_below_absence(self):
        optional = AnnotatedSchema.build(arrows=[("A", "f", "B", P01)])
        bare = AnnotatedSchema.build(classes=["A", "B"])
        assert annotated_leq(optional, bare)


class TestCompleteClasses:
    def test_union_classes_everywhere(self):
        one = AnnotatedSchema.build(classes=["A"])
        two = AnnotatedSchema.build(classes=["B"])
        completed = complete_classes([one, two])
        for schema in completed:
            assert schema.classes == {BaseName("A"), BaseName("B")}

    def test_default_adds_isolated(self):
        one = AnnotatedSchema.build(classes=["A"])
        two = AnnotatedSchema.build(spec=[("B", "C")])
        completed = complete_classes([one, two])
        assert not completed[0].is_spec("B", "C")


class TestLowerMerge:
    def test_agreement_preserved(self):
        one = AnnotatedSchema.build(arrows=[("Dog", "name", "Str")])
        two = AnnotatedSchema.build(arrows=[("Dog", "name", "Str")])
        merged = lower_merge(one, two)
        assert merged.participation_of("Dog", "name", "Str") == P1

    def test_disagreement_becomes_optional(self):
        one = AnnotatedSchema.build(
            arrows=[("Dog", "name", "Str"), ("Dog", "age", "Int")]
        )
        two = AnnotatedSchema.build(
            arrows=[("Dog", "name", "Str"), ("Dog", "breed", "Breed")]
        )
        merged = lower_merge(one, two)
        assert merged.participation_of("Dog", "age", "Int") == P01
        assert merged.participation_of("Dog", "breed", "Breed") == P01

    def test_missing_class_retained(self):
        # The Guide-Dog problem: plain meet loses it; lower merge keeps it.
        one = AnnotatedSchema.build(
            arrows=[("Guide-dog", "name", "Str")]
        )
        two = AnnotatedSchema.build(arrows=[("Dog", "name", "Str")])
        merged = lower_merge(one, two)
        assert BaseName("Guide-dog") in merged.classes
        assert merged.participation_of("Guide-dog", "name", "Str") == P01

    def test_is_lower_bound_of_completed_inputs(self):
        one = AnnotatedSchema.build(
            arrows=[("Dog", "name", "Str"), ("Dog", "age", "Int")]
        )
        two = AnnotatedSchema.build(
            arrows=[("Dog", "name", "Str", P01)]
        )
        merged = lower_merge(one, two)
        for completed in complete_classes([one, two]):
            assert annotated_leq(merged, completed)

    def test_empty_merge(self):
        assert lower_merge() == AnnotatedSchema.empty()

    def test_spec_intersection(self):
        one = AnnotatedSchema.build(spec=[("A", "B"), ("C", "D")])
        two = AnnotatedSchema.build(spec=[("A", "B")])
        merged = lower_merge(one, two)
        assert merged.is_spec("A", "B")
        assert not merged.is_spec("C", "D")


class TestLowerProperize:
    def test_no_violations_is_identity(self):
        schema = AnnotatedSchema.build(arrows=[("A", "f", "B")])
        assert lower_properize(schema) is schema or lower_properize(
            schema
        ) == schema

    def test_conflicting_targets_generalized(self):
        one = AnnotatedSchema.build(arrows=[("F", "a", "C")])
        two = AnnotatedSchema.build(arrows=[("F", "a", "D")])
        merged = lower_merge(one, two)
        assert lower_properness_violations(merged)
        proper = lower_properize(merged)
        gen = GenName(["C", "D"])
        assert gen in proper.classes
        assert proper.is_spec("C", gen) and proper.is_spec("D", gen)
        assert proper.participation_of("F", "a", gen) == P01
        assert not lower_properness_violations(proper)

    def test_required_conflict_gets_intersection_class(self):
        # Two *required* arrows to incomparable targets assert the value
        # lies in both — an intersection constraint, repaired by an
        # implicit class *below* (not a generalization above).
        from repro.core.names import ImplicitName

        schema = AnnotatedSchema.build(
            arrows=[("F", "a", "C", P1), ("F", "a", "D", P1)]
        )
        proper = lower_properize(schema)
        imp = ImplicitName(["C", "D"])
        assert imp in proper.classes
        assert proper.is_spec(imp, "C") and proper.is_spec(imp, "D")
        assert proper.participation_of("F", "a", imp) == P1
        assert not lower_properness_violations(proper)

    def test_required_typing_drops_conflicting_optional_refinements(self):
        schema = AnnotatedSchema.build(
            arrows=[
                ("F", "a", "Top", P1),
                ("F", "a", "C", P01),
                ("F", "a", "D", P01),
            ],
            spec=[("C", "Top"), ("D", "Top")],
        )
        proper = lower_properize(schema)
        # The required typing at Top is the canonical class; the
        # conflicting optional refinements were soundly dropped.
        assert proper.participation_of("F", "a", "Top") == P1
        assert proper.participation_of("F", "a", "C") == Participation.ABSENT
        assert not lower_properness_violations(proper)

    def test_gen_class_below_common_generalizations(self):
        schema = AnnotatedSchema.build(
            arrows=[("F", "a", "C", P01), ("F", "a", "D", P01)],
            spec=[("C", "Top"), ("D", "Top")],
        )
        proper = lower_properize(schema)
        gen = GenName(["C", "D"])
        assert proper.is_spec(gen, "Top")

    def test_convergence_on_self_referential_gen_sources(self):
        # Regression: when a generalization class's own (regenerated)
        # member arrows conflict, the repair must not resurrect the
        # arrows it just replaced.  This exact shape looped forever
        # before the created-this-round guard.
        merged = AnnotatedSchema.build(
            arrows=[
                ("C000", "l00", "C000", P01),
                ("C000", "l00", "C001", P01),
                ("C000", "l00", "C002", P01),
                ("C000", "l00", "C003", P01),
                ("C000", "l01", "C001", P01),
                ("C000", "l01", "C002", P01),
                ("C001", "l00", "C001", P01),
                ("C001", "l01", "C000", P01),
                ("C001", "l01", "C002", P01),
                ("C002", "l00", "C000", P01),
                ("C002", "l00", "C002", P01),
                ("C002", "l01", "C002", P01),
                ("C004", "l00", "C001", P01),
                ("C004", "l00", "C002", P01),
            ],
            spec=[("C000", "C002")],
        )
        proper = lower_properize(merged)
        assert not lower_properness_violations(proper)
        assert lower_properize(proper) == proper

    def test_gen_inherits_unanimous_member_arrows(self):
        schema = AnnotatedSchema.build(
            arrows=[
                ("F", "a", "C", P01),
                ("F", "a", "D", P01),
                ("C", "g", "X", P1),
                ("D", "g", "X", P1),
            ]
        )
        proper = lower_properize(schema)
        gen = GenName(["C", "D"])
        assert proper.participation_of(gen, "g", "X") == P1
