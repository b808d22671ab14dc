"""Property-based tests of the core algebra (hypothesis).

These machine-check the paper's theorems over randomized weak schemas:
Proposition 4.1 (bounded joins), the lattice laws of ``⊔``/``⊓``, the
monoid laws of the merge, and the contract of properization.
"""

from hypothesis import HealthCheck, given, settings

from repro.core.implicit import (
    implicit_classes_of,
    implicit_sets,
    properize,
    strip_implicits,
)
from repro.core.merge import upper_merge
from repro.core.names import name, sort_key
from repro.core.ordering import is_sub, join, join_all, meet
from repro.core.proper import (
    canonical_arrows,
    check_d2,
    from_canonical,
    is_proper,
)
from repro.core.schema import Schema

from tests.conftest import schema_pairs, schema_triples, schemas

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestInformationOrdering:
    @given(schemas())
    @RELAXED
    def test_reflexive(self, schema):
        assert is_sub(schema, schema)

    @given(schema_pairs())
    @RELAXED
    def test_antisymmetric(self, pair):
        left, right = pair
        if is_sub(left, right) and is_sub(right, left):
            assert left == right

    @given(schema_triples())
    @RELAXED
    def test_transitive(self, triple):
        one, two, _ = triple
        joined = join(one, two)
        # one ⊑ joined and joined ⊑ join(joined, _) chains up.
        bigger = join(joined, triple[2])
        assert is_sub(one, joined)
        assert is_sub(joined, bigger)
        assert is_sub(one, bigger)


class TestProposition41:
    @given(schema_pairs())
    @RELAXED
    def test_join_is_upper_bound(self, pair):
        left, right = pair
        joined = join(left, right)
        assert is_sub(left, joined) and is_sub(right, joined)

    @given(schema_triples())
    @RELAXED
    def test_join_is_least(self, triple):
        left, right, other = triple
        joined = join(left, right)
        candidate = join(joined, other)  # some upper bound of both
        assert is_sub(joined, candidate)

    @given(schema_pairs())
    @RELAXED
    def test_join_construction_matches_proof(self, pair):
        left, right = pair
        joined = join(left, right)
        assert joined.classes == left.classes | right.classes
        assert joined.spec >= left.spec | right.spec
        assert joined.arrows >= left.arrows | right.arrows


class TestMergeMonoidLaws:
    @given(schema_pairs())
    @RELAXED
    def test_commutative(self, pair):
        left, right = pair
        assert upper_merge(left, right) == upper_merge(right, left)

    @given(schema_triples())
    @RELAXED
    def test_associative(self, triple):
        one, two, three = triple
        assert upper_merge(upper_merge(one, two), three) == upper_merge(
            one, upper_merge(two, three)
        )

    @given(schema_triples())
    @RELAXED
    def test_binary_fold_equals_nary(self, triple):
        one, two, three = triple
        assert upper_merge(
            upper_merge(one, two), three
        ) == upper_merge(one, two, three)

    @given(schemas())
    @RELAXED
    def test_idempotent(self, schema):
        assert upper_merge(schema, schema) == upper_merge(schema)

    @given(schemas())
    @RELAXED
    def test_empty_is_identity(self, schema):
        assert upper_merge(schema, Schema.empty()) == upper_merge(schema)


class TestMeetLaws:
    @given(schema_pairs())
    @RELAXED
    def test_meet_is_lower_bound(self, pair):
        left, right = pair
        lower = meet(left, right)
        assert is_sub(lower, left) and is_sub(lower, right)

    @given(schema_pairs())
    @RELAXED
    def test_meet_is_greatest(self, pair):
        left, right = pair
        lower = meet(left, right)
        other = meet(lower, left)  # any lower bound of both
        assert is_sub(other, lower)

    @given(schema_pairs())
    @RELAXED
    def test_absorption(self, pair):
        left, right = pair
        assert meet(left, join(left, right)) == left
        assert join(left, meet(left, right)) == left


class TestProperization:
    @given(schemas())
    @RELAXED
    def test_result_is_proper(self, schema):
        assert is_proper(properize(schema))

    @given(schemas())
    @RELAXED
    def test_inflationary(self, schema):
        assert is_sub(schema, properize(schema))

    @given(schemas())
    @RELAXED
    def test_idempotent(self, schema):
        once = properize(schema)
        assert properize(once) == once

    @given(schemas())
    @RELAXED
    def test_strip_recovers_weak_schema(self, schema):
        assert strip_implicits(properize(schema)) == schema

    @given(schemas())
    @RELAXED
    def test_implicit_class_count_matches_imp(self, schema):
        proper = properize(schema)
        assert len(implicit_classes_of(proper)) == len(
            implicit_sets(schema)
        )

    @given(schemas())
    @RELAXED
    def test_implicit_classes_sit_below_members(self, schema):
        proper = properize(schema)
        for cls in implicit_classes_of(proper):
            for member in cls.members:
                assert proper.is_spec(cls, member)


class TestD1D2Equivalence:
    @given(schemas())
    @RELAXED
    def test_functional_round_trip(self, schema):
        proper = properize(schema)
        canon = canonical_arrows(proper)
        check_d2(proper.classes, proper.spec, canon)
        rebuilt = from_canonical(proper.classes, proper.spec, canon)
        assert rebuilt == proper


def _assert_arrow_answers(schema: Schema) -> None:
    """Every arrow accessor equals its definition over ``schema.arrows``."""
    arrows = schema.arrows
    outside = name("Not-a-class")
    probe = sorted(schema.classes, key=sort_key) + [outside]
    labels = sorted(schema.labels()) + ["zz"]
    for cls in probe:
        assert schema.out_labels(cls) == {a for p, a, _t in arrows if p == cls}
        assert schema.arrows_from(cls) == {e for e in arrows if e[0] == cls}
        assert schema.arrows_into(cls) == {e for e in arrows if e[2] == cls}
        for label in labels:
            reached = {t for p, a, t in arrows if p == cls and a == label}
            assert schema.reach(cls, label) == reached
            for target in probe:
                assert schema.has_arrow(cls, label, target) == (
                    (cls, label, target) in arrows
                )
    for label in labels:
        for subset in (schema.classes, set(probe), probe[::2], [outside], []):
            assert schema.reach_set(subset, label) == {
                t for p, a, t in arrows if p in set(subset) and a == label
            }
    assert schema.arrows == {
        (p, a, t)
        for p in schema.classes
        for a in schema.labels()
        for t in schema.reach(p, a)
    }


class TestArrowsOnMasks:
    @given(schemas())
    @RELAXED
    def test_accessors_match_definitions(self, schema):
        _assert_arrow_answers(schema)

    @given(schema_pairs())
    @RELAXED
    def test_accessors_match_definitions_off_canonical_ids(self, pair):
        # A join keeps the builder's id order, not ``sort_key`` order.
        _assert_arrow_answers(join_all(list(pair)))
