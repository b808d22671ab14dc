"""Property-based tests for lower merges and annotated schemas (§6)."""

from hypothesis import HealthCheck, given, settings

from repro.core.lower import (
    AnnotatedSchema,
    annotated_leq,
    complete_classes,
    lower_merge,
    lower_properize,
    lower_properness_violations,
)
from repro.core.ordering import join_all
from repro.core.participation import Participation, glb

from tests.conftest import annotated_schemas, schema_pairs, schemas

RELAXED = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestAnnotatedOrdering:
    @given(annotated_schemas())
    @RELAXED
    def test_reflexive(self, schema):
        assert annotated_leq(schema, schema)

    @given(annotated_schemas(), annotated_schemas())
    @RELAXED
    def test_antisymmetric_on_same_classes(self, left, right):
        left_c, right_c = complete_classes([left, right])
        if annotated_leq(left_c, right_c) and annotated_leq(
            right_c, left_c
        ):
            assert left_c == right_c


class TestLowerMergeIsGLB:
    @given(annotated_schemas(), annotated_schemas())
    @RELAXED
    def test_below_completed_inputs(self, left, right):
        merged = lower_merge(left, right)
        for completed in complete_classes([left, right]):
            assert annotated_leq(merged, completed)

    @given(annotated_schemas(), annotated_schemas(), annotated_schemas())
    @RELAXED
    def test_greatest_among_lower_bounds(self, one, two, three):
        merged = lower_merge(one, two)
        # lower_merge(one, two, three) is a lower bound of one and two
        # (after completion); it must lie below the binary merge.
        triple = lower_merge(one, two, three)
        completed_pair = complete_classes(
            [merged, triple]
        )
        assert annotated_leq(completed_pair[1], completed_pair[0])

    @given(annotated_schemas(), annotated_schemas())
    @RELAXED
    def test_commutative(self, left, right):
        assert lower_merge(left, right) == lower_merge(right, left)

    @given(annotated_schemas(), annotated_schemas(), annotated_schemas())
    @RELAXED
    def test_associative(self, one, two, three):
        assert lower_merge(lower_merge(one, two), three) == lower_merge(
            one, lower_merge(two, three)
        )

    @given(annotated_schemas())
    @RELAXED
    def test_idempotent(self, schema):
        assert lower_merge(schema, schema) == schema

    @given(annotated_schemas(), annotated_schemas())
    @RELAXED
    def test_arrow_constraints_are_pointwise_glb(self, left, right):
        merged = lower_merge(left, right)
        for (source, label, target) in merged.present_arrows():
            expected = glb(
                left.participation_of(source, label, target),
                right.participation_of(source, label, target),
            )
            assert (
                merged.participation_of(source, label, target) == expected
            )


class TestLowerProperize:
    @given(annotated_schemas(), annotated_schemas())
    @RELAXED
    def test_result_has_no_violations(self, left, right):
        merged = lower_merge(left, right)
        proper = lower_properize(merged)
        assert lower_properness_violations(proper) == []

    @given(annotated_schemas(), annotated_schemas())
    @RELAXED
    def test_idempotent(self, left, right):
        proper = lower_properize(lower_merge(left, right))
        assert lower_properize(proper) == proper

    @given(annotated_schemas())
    @RELAXED
    def test_identity_when_already_proper(self, schema):
        if not lower_properness_violations(schema):
            assert lower_properize(schema) == schema

    @given(annotated_schemas(), annotated_schemas())
    @RELAXED
    def test_base_classes_preserved(self, left, right):
        merged = lower_merge(left, right)
        proper = lower_properize(merged)
        assert merged.classes <= proper.classes
        assert merged.spec <= proper.spec


class TestFromSchema:
    @staticmethod
    def _assert_embeds_like_build(schema):
        for default in (Participation.REQUIRED, Participation.OPTIONAL):
            embedded = AnnotatedSchema.from_schema(schema, default)
            built = AnnotatedSchema.build(
                classes=schema.classes,
                arrows=[(s, a, t, default) for s, a, t in schema.arrows],
                spec=schema.spec,
            )
            assert embedded == built
            assert embedded.participation_table() == built.participation_table()

    @given(schemas())
    @RELAXED
    def test_equals_build_of_decoded_arrows(self, schema):
        self._assert_embeds_like_build(schema)

    @given(schema_pairs())
    @RELAXED
    def test_equals_build_off_canonical_ids(self, pair):
        # A join keeps the builder's id order, not ``sort_key`` order.
        self._assert_embeds_like_build(join_all(list(pair)))
