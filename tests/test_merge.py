"""Unit tests for the upper merge pipeline (§3, §4)."""

import pytest

from repro.core import implicit, merge
from repro.core.assertions import isa
from repro.core.consistency import ConsistencyRelation
from repro.core.implicit import implicit_classes_of, properize
from repro.core.merge import merge_report, upper_merge, weak_merge
from repro.core.names import BaseName, ImplicitName
from repro.core.ordering import is_sub
from repro.core.proper import is_proper
from repro.core.schema import Schema
from repro.exceptions import (
    IncompatibleSchemasError,
    InconsistentSchemasError,
    SchemaValidationError,
)
from repro.figures import figure3_schemas, figure4_schemas
from repro.generators.workloads import get_workload


class TestWeakMerge:
    def test_upper_bound(self, dog_schema):
        other = Schema.build(arrows=[("Dog", "licence", "Licence")])
        merged = weak_merge(dog_schema, other)
        assert is_sub(dog_schema, merged) and is_sub(other, merged)

    def test_same_name_means_same_class(self):
        # The section 3 Dog example: attributes union up.
        one = Schema.build(
            arrows=[
                ("Dog", "license", "Str"),
                ("Dog", "owner", "Person"),
                ("Dog", "breed", "Breed"),
            ]
        )
        two = Schema.build(
            arrows=[
                ("Dog", "name", "Str"),
                ("Dog", "age", "Int"),
                ("Dog", "breed", "Breed"),
            ]
        )
        merged = weak_merge(one, two)
        assert merged.out_labels("Dog") == {
            "license",
            "owner",
            "breed",
            "name",
            "age",
        }

    def test_assertions_folded_in(self, dog_schema):
        merged = weak_merge(dog_schema, assertions=[isa("Puppy", "Dog")])
        assert merged.has_arrow("Puppy", "owner", "Person")

    def test_incompatible_raises(self):
        with pytest.raises(IncompatibleSchemasError):
            weak_merge(
                Schema.build(spec=[("A", "B")]),
                Schema.build(spec=[("B", "A")]),
            )


class TestUpperMerge:
    def test_result_is_proper(self):
        merged = upper_merge(*figure3_schemas())
        assert is_proper(merged)

    def test_above_all_inputs(self):
        one, two = figure3_schemas()
        merged = upper_merge(one, two)
        assert is_sub(one, merged) and is_sub(two, merged)

    def test_commutative(self):
        one, two = figure3_schemas()
        assert upper_merge(one, two) == upper_merge(two, one)

    def test_associative_via_stripping(self):
        g1, g2, g3 = figure4_schemas()
        assert upper_merge(upper_merge(g1, g2), g3) == upper_merge(
            g1, upper_merge(g2, g3)
        ) == upper_merge(g1, g2, g3)

    def test_idempotent(self, dog_schema):
        assert upper_merge(dog_schema, dog_schema) == upper_merge(dog_schema)

    def test_empty_merge(self):
        assert upper_merge() == Schema.empty()

    def test_without_stripping_intermediates_linger(self):
        # Unstripped, the intermediate <D&E> would linger: the kernel
        # refuses that input, and upper_merge strips it away.
        g1, g2, g3 = figure4_schemas()
        first = upper_merge(g1, g2)
        assert ImplicitName(["D", "E"]) in first.classes
        with pytest.raises(SchemaValidationError, match="strip_implicits"):
            properize(weak_merge(first, g3))
        stripped = upper_merge(first, g3)
        assert ImplicitName(["D", "E"]) not in stripped.classes
        assert ImplicitName(["D", "E", "F"]) in stripped.classes

    def test_unstripped_triple_is_refused_and_stripped_chain_is_n_ary(self):
        # Unstripped, the second merge's Imp holds {<K0&K1>, K5}, which
        # names <K0&K1&K5> like {K0, K1, K5}; the set-based construction
        # then fails with NotProperError on compatible inputs.
        g1 = Schema.build(arrows=[("K1", "c", "K0")])
        g2 = Schema.build(
            arrows=[("K0", "b", "K1"), ("K1", "c", "K5"), ("K5", "b", "K0")]
        )
        g3 = Schema.build(arrows=[("K5", "b", "K5")])
        with pytest.raises(SchemaValidationError, match="strip_implicits"):
            properize(weak_merge(upper_merge(g1, g2), g3))
        assert upper_merge(upper_merge(g1, g2), g3) == upper_merge(g1, g2, g3)

    def test_consistency_vetoes(self):
        one, two = figure3_schemas()
        relation = ConsistencyRelation()  # nothing is consistent
        with pytest.raises(InconsistentSchemasError) as excinfo:
            upper_merge(one, two, consistency=relation)
        assert set(map(str, excinfo.value.offending_pair)) == {"B1", "B2"}

    def test_consistency_permits(self):
        one, two = figure3_schemas()
        merged = upper_merge(
            one, two, consistency=ConsistencyRelation.permissive()
        )
        assert ImplicitName(["B1", "B2"]) in merged.classes

    def test_imp_computed_once_without_consistency(self, monkeypatch):
        calls = []

        def counting(schema):
            calls.append(schema)
            return original(schema)

        original = implicit.implicit_sets
        monkeypatch.setattr(implicit, "implicit_sets", counting)
        monkeypatch.setattr(merge, "implicit_sets", counting)
        views = get_workload("views-small").schemas()
        upper_merge(*views)
        assert len(calls) == 1

    def test_user_assertion_changes_merge(self):
        # Asserting B1 ==> B2 removes the need for an implicit class.
        one, two = figure3_schemas()
        merged = upper_merge(one, two, assertions=[isa("B1", "B2")])
        assert not implicit_classes_of(merged)
        assert merged.is_spec("B1", "B2")

    def test_assertion_order_irrelevant(self):
        one, two = figure3_schemas()
        a1, a2 = isa("B1", "B2"), isa("X", "A1")
        assert upper_merge(one, two, assertions=[a1, a2]) == upper_merge(
            one, two, assertions=[a2, a1]
        )


class TestMergeReport:
    def test_report_contents(self):
        one, two = figure3_schemas()
        report = merge_report(one, two)
        assert report.inputs == (one, two)
        assert report.weak == weak_merge(one, two)
        assert report.merged == upper_merge(one, two)
        assert report.implicit_members == (
            frozenset({BaseName("B1"), BaseName("B2")}),
        )
        assert report.implicit_classes == {ImplicitName(["B1", "B2"])}

    def test_summary_mentions_counts(self):
        one, two = figure3_schemas()
        summary = merge_report(one, two).summary()
        assert "2 schema(s)" in summary
        assert "1 implicit class(es)" in summary

    def test_report_consistency_veto(self):
        one, two = figure3_schemas()
        with pytest.raises(InconsistentSchemasError):
            merge_report(one, two, consistency=ConsistencyRelation())
