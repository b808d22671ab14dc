"""Property tests for the merge engine: warm paths ≡ cold paths.

The engine (repro.perf) must be *observationally invisible*: interning
and incremental closure may only change speed, never results.  Every test here drives a randomized workload twice — through
the engine and through the preserved pre-engine reference
implementations (:mod:`repro.perf.reference`) — and asserts equality,
including across cache clears (which simulate eviction at the worst
possible moment).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.lower import (
    AnnotatedSchema,
    annotated_leq,
    complete_classes,
    lower_merge,
)
from repro.core.names import BaseName, GenName, ImplicitName, name, sort_key
from repro.core.ordering import compatibility_cycle, compatible, is_sub, join_all
from repro.core.participation import Participation
from repro.core.schema import Schema
from repro.exceptions import IncompatibleSchemasError
from repro.generators.random_schemas import (
    random_annotated_schema,
    random_schema_family,
    random_weak_schema,
)
from repro.perf import clear_caches, engine_stats
from repro.perf.closure import ClosureBuilder
from repro.perf.reference import (
    reference_annotated_leq,
    reference_close_annotations,
    reference_compatible,
    reference_is_sub,
    reference_join_all,
    reference_lower_merge,
    minimal_elements,
)
from tests.conftest import annotated_schemas, schema_pairs, schemas

P01 = Participation.OPTIONAL
P1 = Participation.REQUIRED

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestInterning:
    def test_base_names_pointer_equal(self):
        assert BaseName("Dog") is BaseName("Dog")

    def test_composite_names_pointer_equal(self):
        assert ImplicitName(["A", "B"]) is ImplicitName([BaseName("B"), "A"])
        assert GenName(["A", "B"]) is GenName(["B", "A"])
        assert ImplicitName(["A", "B"]) != GenName(["A", "B"])

    def test_schemas_pointer_equal(self):
        def build():
            return Schema.build(
                arrows=[("Dog", "owner", "Person")], spec=[("Puppy", "Dog")]
            )

        assert build() is build()

    def test_interning_survives_clear(self):
        before = Schema.build(arrows=[("A", "f", "B")])
        clear_caches()
        after = Schema.build(arrows=[("A", "f", "B")])
        # Pointer-equality may be lost across a clear (that is the
        # documented eviction semantics) but equality never is.
        assert before == after and hash(before) == hash(after)

    @RELAXED
    @given(schemas())
    def test_random_schema_rebuild_interns(self, schema):
        rebuilt = Schema.build(
            classes=schema.classes, arrows=schema.arrows, spec=schema.spec
        )
        assert rebuilt is schema


class TestMemoizedPredicates:
    @RELAXED
    @given(schema_pairs())
    def test_is_sub_matches_reference(self, pair):
        left, right = pair
        for a, b in [(left, right), (right, left), (left, left)]:
            assert is_sub(a, b) == reference_is_sub(a, b)

    @RELAXED
    @given(schema_pairs())
    def test_is_sub_after_cache_clear(self, pair):
        left, right = pair
        warm = is_sub(left, right)
        clear_caches()
        assert is_sub(left, right) == warm

    @RELAXED
    @given(schema_pairs())
    def test_compatible_matches_reference(self, pair):
        left, right = pair
        assert compatible(left, right) == reference_compatible(left, right)

    @RELAXED
    @given(annotated_schemas(), annotated_schemas())
    def test_annotated_leq_matches_reference(self, left, right):
        for a, b in [(left, right), (right, left), (left, left)]:
            assert annotated_leq(a, b) == reference_annotated_leq(a, b)
        clear_caches()
        assert annotated_leq(left, right) == reference_annotated_leq(
            left, right
        )


class TestJoinEquivalence:
    @RELAXED
    @given(st.lists(schemas(), max_size=5))
    def test_join_all_matches_reference(self, family):
        assert join_all(family) == reference_join_all(family)

    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=15, deadline=None)
    def test_join_all_matches_reference_generated(self, seed):
        family = random_schema_family(
            n_schemas=6,
            pool_size=18,
            n_classes=8,
            n_labels=4,
            arrow_density=0.25,
            spec_density=0.15,
            seed=seed,
        )
        assert join_all(family) == reference_join_all(family)

    def test_join_all_large_family(self):
        family = random_schema_family(
            n_schemas=60, pool_size=40, n_classes=10, n_labels=5, seed=11
        )
        assert join_all(family) == reference_join_all(family)

    def test_closure_builder_incremental_equals_batch(self):
        family = random_schema_family(n_schemas=8, seed=3)
        builder = ClosureBuilder()
        for i, schema in enumerate(family):
            builder.add_schema(schema)
            # Every prefix snapshot must equal the batch join of the prefix.
            assert builder.build() == reference_join_all(family[: i + 1])

    def test_closure_builder_rejects_incompatible_atomically(self):
        accepted = Schema.build(
            arrows=[("A", "f", "B")], spec=[("Sub", "Sup")]
        )
        poison = Schema.build(
            arrows=[("Evil", "g", "B")], spec=[("Sup", "Sub")]
        )
        builder = ClosureBuilder([accepted])
        try:
            builder.add_schema(poison)
            raise AssertionError("expected IncompatibleSchemasError")
        except IncompatibleSchemasError:
            pass
        # The rejected schema must leave no trace: classes, arrows, spec.
        assert builder.build() == accepted

    def test_closure_builder_coerces_inputs(self):
        from repro.exceptions import SchemaValidationError

        built = (
            ClosureBuilder()
            .add_class("A")
            .add_arrow("A", "f", "B")
            .add_arrow("X", "g", "Y")
            .build()
        )
        # Raw strings are coerced to names and endpoints join C, so the
        # result passes the validating public constructor (cache cleared
        # first so the intern table cannot short-circuit validation).
        clear_caches()
        assert built == Schema(built.classes, built.arrows, built.spec)
        assert built.has_arrow("X", "g", "Y") and built.has_class("Y")
        with pytest.raises(SchemaValidationError):
            ClosureBuilder().add_arrow("A", 123, "B")
        with pytest.raises(SchemaValidationError):
            ClosureBuilder().add_arrow("A", "", "B")


class TestLowerEquivalence:
    @given(st.integers(min_value=0, max_value=25))
    @settings(max_examples=15, deadline=None)
    def test_lower_merge_matches_reference(self, seed):
        inputs = [
            random_annotated_schema(
                n_classes=8, n_labels=4, arrow_density=0.3, seed=seed * 7 + i
            )
            for i in range(3)
        ]
        assert lower_merge(*inputs) == reference_lower_merge(*inputs)

    @RELAXED
    @given(annotated_schemas(), annotated_schemas())
    def test_lower_merge_and_leq_match_reference_on_mixed_classes(
        self, left, right
    ):
        # Drawn class sets differ, so completion widens the id tables.
        merged = lower_merge(left, right)
        assert merged == reference_lower_merge(left, right)
        for other in [left, right, *complete_classes([left, right])]:
            for a, b in [(merged, other), (other, merged)]:
                assert annotated_leq(a, b) == reference_annotated_leq(a, b)


def _raw_entries(table):
    return [(*arrow, constraint) for arrow, constraint in table.items()]


class TestAnnotationClosureOracle:
    """``AnnotatedSchema.build`` ≡ the set-based worklist closure."""

    @RELAXED
    @given(annotated_schemas(), st.data())
    def test_build_matches_reference_closure(self, schema, data):
        arrows = sorted(schema.present_arrows(), key=repr)
        raw = {
            arrow: data.draw(st.sampled_from([P01, P1]))
            for arrow in data.draw(
                st.lists(st.sampled_from(arrows), unique=True)
                if arrows
                else st.just([])
            )
        }
        built = AnnotatedSchema.build(
            classes=schema.classes,
            arrows=_raw_entries(raw),
            spec=schema.required_schema().spec_covers(),
        )
        assert built.spec == schema.spec
        assert built.participation_table() == reference_close_annotations(
            raw, built.spec
        )

    @pytest.mark.parametrize(
        "arrows, spec",
        [
            # Figure 11's dog inputs (section 6).
            ([("Dog", "name", "Str", P1), ("Dog", "age", "Int", P1)], []),
            ([("Dog", "name", "Str", P1), ("Dog", "breed", "Breed", P1)], []),
            # The same inputs below a hierarchy, optional arrows included.
            (
                [
                    ("Dog", "name", "Str", P1),
                    ("Dog", "chip", "Id", P01),
                    ("Puppy", "age", "Int", P01),
                    ("Dog", "age", "Int", P1),
                ],
                [("Puppy", "Dog"), ("Guide-dog", "Dog"), ("Int", "Number")],
            ),
        ],
    )
    def test_fig11_dog_inputs_match_reference_closure(self, arrows, spec):
        built = AnnotatedSchema.build(arrows=arrows, spec=spec)
        raw = {}
        for source, label, target, constraint in arrows:
            key = (name(source), label, name(target))
            raw[key] = P1 if P1 in (raw.get(key), constraint) else constraint
        assert built.participation_table() == reference_close_annotations(
            raw, built.spec
        )


class TestIncrementalUpdates:
    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_with_arrows_equals_rebuild(self, seed):
        base = random_weak_schema(
            n_classes=8, n_labels=3, arrow_density=0.25, spec_density=0.2,
            seed=seed,
        )
        classes = [str(c) for c in base.sorted_classes()]
        extra = [
            (classes[seed % len(classes)], "zz", classes[(seed * 3) % len(classes)]),
            ("Fresh", "ww", classes[0]),
        ]
        incremental = base.with_arrows(extra)
        rebuilt = Schema.build(
            classes=base.classes,
            arrows=list(base.arrows) + extra,
            spec=base.spec,
        )
        assert incremental == rebuilt

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_with_spec_equals_rebuild(self, seed):
        base = random_weak_schema(
            n_classes=8, n_labels=3, arrow_density=0.25, spec_density=0.2,
            seed=seed,
        )
        classes = [str(c) for c in base.sorted_classes()]
        sub = classes[seed % len(classes)]
        sup = classes[(seed * 5 + 1) % len(classes)]
        try:
            incremental = base.with_spec(sub, sup)
        except Exception as exc:  # incompatible: rebuild must agree
            rebuilt_raises = False
            try:
                Schema.build(
                    classes=base.classes,
                    arrows=base.arrows,
                    spec=list(base.spec) + [(sub, sup)],
                )
            except type(exc):
                rebuilt_raises = True
            assert rebuilt_raises
            return
        rebuilt = Schema.build(
            classes=base.classes,
            arrows=base.arrows,
            spec=list(base.spec) + [(sub, sup)],
        )
        assert incremental == rebuilt


def _runner_family(n_schemas: int):
    """The family ``benchmarks/runner.py`` times the ordering probes on."""
    return random_schema_family(
        n_schemas=n_schemas,
        pool_size=60,
        n_classes=14,
        n_labels=6,
        arrow_density=0.2,
        spec_density=0.08,
        seed=7,
    )


OUTSIDE = name("Not-a-class")


def _assert_order_answers(schema: Schema) -> None:
    """Every mask accessor equals its definition over ``schema.spec``."""
    spec = schema.spec
    strict = {(p, q) for p, q in spec if p != q}
    probe = sorted(schema.classes, key=sort_key) + [OUTSIDE]
    for cls in probe:
        assert schema.specializations_of(cls) == {p for p, q in spec if q == cls}
        assert schema.generalizations_of(cls) == {q for p, q in spec if p == cls}
        for other in probe:
            assert schema.is_spec(cls, other) == ((cls, other) in spec)
    assert schema.root_classes() == schema.classes - {p for p, _q in strict}
    assert schema.leaf_classes() == schema.classes - {q for _p, q in strict}
    assert schema.spec_covers() == {
        (p, q)
        for p, q in strict
        if not any((p, z) in strict and (z, q) in strict for z in schema.classes)
    }
    subsets = [schema.classes] + [
        schema.reach(cls, label) for cls in schema.classes for label in schema.labels()
    ]
    for subset in subsets:
        for candidate in (subset, subset | {OUTSIDE}):
            assert schema.min_classes(candidate) == minimal_elements(candidate, spec)


def _reversed(schema: Schema) -> Schema:
    """*schema* with its specialization order turned upside down."""
    return Schema.build(
        classes=schema.classes, spec=[(q, p) for p, q in schema.strict_spec()]
    )


def _assert_witness(family) -> None:
    """The cycle witness decides like the oracle and walks asserted edges."""
    cycle = compatibility_cycle(family)
    assert (cycle is None) == reference_compatible(*family)
    if cycle is None:
        return
    assert cycle[0] == cycle[-1] and len(cycle) > 2
    asserted = set().union(*(g.strict_spec() for g in family))
    assert all(edge in asserted for edge in zip(cycle, cycle[1:]))
    with pytest.raises(IncompatibleSchemasError) as err:
        join_all(family)
    assert err.value.cycle == cycle


class TestOrderOnMasks:
    @RELAXED
    @given(schemas())
    def test_accessors_match_definitions(self, schema):
        _assert_order_answers(schema)

    def test_accessors_match_definitions_on_runner_family(self):
        family = _runner_family(200)
        for schema in family[:10] + [join_all(family)]:
            _assert_order_answers(schema)

    @RELAXED
    @given(schemas(), st.data())
    def test_restrict_equals_validating_constructor(self, schema, data):
        pool = sorted(schema.classes, key=sort_key) + [OUTSIDE]
        keep = data.draw(st.sets(st.sampled_from(pool)))
        kept = frozenset(keep) & schema.classes
        expected = Schema(
            kept,
            frozenset(a for a in schema.arrows if a[0] in kept and a[2] in kept),
            frozenset(e for e in schema.spec if e[0] in kept and e[1] in kept),
        )
        assert schema.restrict(keep) == expected

    @RELAXED
    @given(schemas(), schemas(), schemas())
    def test_compatibility_cycle_matches_reference(self, first, second, third):
        _assert_witness([first, _reversed(second)])
        _assert_witness([first, second, _reversed(third)])

    def test_witness_on_runner_family(self):
        family = _runner_family(200)
        merged = join_all(family)
        for g in family[:50]:
            _assert_witness([g, merged])
            _assert_witness([g, _reversed(merged)])

    def test_witness_is_a_chain_of_asserted_edges(self):
        family = [
            Schema.build(spec=[("A", "B")]),
            Schema.build(spec=[("B", "C")]),
            Schema.build(spec=[("C", "A")]),
        ]
        _assert_witness(family)
        assert compatibility_cycle(family) == tuple(map(name, "ABCA"))


class TestCacheMachinery:
    def test_engine_stats_shape(self):
        is_sub(Schema.empty(), Schema.empty())
        stats = engine_stats()
        assert set(stats) == {"intern"}
        for table in stats["intern"].values():
            assert {"size", "hits", "misses"} <= set(table)
