"""Unit tests for Imp construction and properization (§4.2).

``TestDenseEqualsOracle`` pins the mask kernel to the set-based
construction it replaced (:mod:`repro.perf.reference`): same ``Imp``,
same ``I∞`` and the *same interned object* out of properization.
"""

from itertools import permutations
from typing import Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.implicit import (
    implicit_classes_of,
    implicit_sets,
    is_implicit,
    properize,
    reachable_sets,
    strip_implicits,
)
from repro.core.merge import upper_merge, weak_merge
from repro.core.names import BaseName, GenName, ImplicitName
from repro.core.ordering import is_sub
from repro.core.proper import canonical_class, is_proper
from repro.core.schema import Schema
from repro.exceptions import IncompatibleSchemasError, SchemaValidationError
from repro.figures import figure3_schemas, figure4_schemas, figure6_schemas
from repro.generators.pathological import (
    diamond_chain_schemas,
    nfa_blowup_pair,
)
from repro.generators.random_schemas import random_weak_schema
from repro.generators.workloads import get_workload
from repro.perf.reference import (
    reference_implicit_sets,
    reference_properize,
    reference_reachable_sets,
)
from tests.conftest import schema_triples

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _merge_fig3() -> Schema:
    return weak_merge(*figure3_schemas())


class TestReachableSets:
    def test_singleton_steps(self):
        schema = Schema.build(arrows=[("A", "f", "B"), ("B", "f", "C")])
        reached = reachable_sets(schema)
        assert frozenset({BaseName("B")}) in reached
        assert frozenset({BaseName("C")}) in reached

    def test_multi_element_reach(self):
        weak = _merge_fig3()
        reached = reachable_sets(weak)
        assert frozenset({BaseName("B1"), BaseName("B2")}) in reached

    def test_empty_schema(self):
        assert reachable_sets(Schema.empty()) == set()

    def test_fixpoint_iterates_sets(self):
        # R({B1,B2}, f) is only reachable by applying f to a 2-set.
        schema = Schema.build(
            arrows=[
                ("A", "a", "B1"),
                ("A", "a", "B2"),
                ("B1", "f", "C1"),
                ("B2", "f", "C2"),
            ]
        )
        reached = reachable_sets(schema)
        assert frozenset({BaseName("C1"), BaseName("C2")}) in reached


class TestImplicitSets:
    def test_figure3(self):
        assert implicit_sets(_merge_fig3()) == {
            frozenset({BaseName("B1"), BaseName("B2")})
        }

    def test_minimality_filter(self):
        # Reach {Sub, Sup} has MinS {Sub}: no implicit class needed.
        schema = Schema.build(
            arrows=[("F", "a", "Sub"), ("F", "a", "Sup")],
            spec=[("Sub", "Sup")],
        )
        assert implicit_sets(schema) == set()

    def test_proper_schema_has_none(self, dog_schema):
        assert implicit_sets(dog_schema) == set()


class TestProperize:
    def test_figure3_result(self):
        result = properize(_merge_fig3())
        imp = ImplicitName(["B1", "B2"])
        assert imp in result.classes
        assert result.is_spec(imp, "B1") and result.is_spec(imp, "B2")
        assert result.has_arrow("C", "a", imp)
        assert canonical_class(result, "C", "a") == imp
        assert is_proper(result)

    def test_inflationary(self):
        weak = _merge_fig3()
        assert is_sub(weak, properize(weak))

    def test_identity_on_proper(self, dog_schema):
        assert properize(dog_schema) is dog_schema or properize(
            dog_schema
        ) == dog_schema

    def test_figure6_adds_e_below_implicit(self):
        weak = weak_merge(*figure6_schemas())
        result = properize(weak)
        imp = ImplicitName(["C", "D"])
        assert imp in result.classes
        # E specializes both C and D, so the algorithm adds E ==> <C&D>.
        assert result.is_spec("E", imp)

    def test_implicit_classes_inherit_member_arrows(self):
        schema = Schema.build(
            arrows=[
                ("F", "a", "C"),
                ("F", "a", "D"),
                ("C", "g", "X"),
                ("D", "g", "X"),
            ]
        )
        result = properize(schema)
        imp = ImplicitName(["C", "D"])
        assert result.has_arrow(imp, "g", "X")

    def test_nested_implicits(self):
        # The chained case: implicit class whose own arrows conflict.
        schema = Schema.build(
            arrows=[
                ("A", "a", "B1"),
                ("A", "a", "B2"),
                ("B1", "f", "C1"),
                ("B2", "f", "C2"),
            ]
        )
        result = properize(schema)
        first = ImplicitName(["B1", "B2"])
        second = ImplicitName(["C1", "C2"])
        assert first in result.classes and second in result.classes
        assert result.has_arrow(first, "f", second)
        assert is_proper(result)

    def test_implicit_spec_between_implicits(self):
        # <B1&B2&B3> must specialize <B1&B2> when both exist.
        schema = Schema.build(
            arrows=[
                ("P", "a", "B1"),
                ("P", "a", "B2"),
                ("P", "a", "B3"),
                ("Q", "a", "B1"),
                ("Q", "a", "B2"),
            ]
        )
        result = properize(schema)
        big = ImplicitName(["B1", "B2", "B3"])
        small = ImplicitName(["B1", "B2"])
        assert result.is_spec(big, small)
        assert canonical_class(result, "P", "a") == big
        assert canonical_class(result, "Q", "a") == small


class TestStripImplicits:
    def test_round_trip(self):
        weak = _merge_fig3()
        assert strip_implicits(properize(weak)) == weak

    def test_strip_is_noop_without_implicits(self, dog_schema):
        assert strip_implicits(dog_schema) == dog_schema

    def test_is_implicit_predicate(self):
        assert is_implicit(ImplicitName(["A", "B"]))
        assert is_implicit(GenName(["A", "B"]))
        assert not is_implicit(BaseName("A"))

    def test_implicit_classes_of(self):
        result = properize(_merge_fig3())
        assert implicit_classes_of(result) == {ImplicitName(["B1", "B2"])}


def assert_matches_oracle(weak: Schema) -> Optional[Schema]:
    """Dense ``I∞``/``Imp``/``Ḡ`` equal the set-based ones; returns ``Ḡ``.

    An input that holds an ``ImplicitName`` and has a non-empty ``Imp``
    is outside ``properize``'s domain: the kernel refuses it with
    ``SchemaValidationError`` and ``None`` is returned.  On every other
    input the kernel returns the oracle's interned object.
    """
    assert reachable_sets(weak) == reference_reachable_sets(weak)
    imp = implicit_sets(weak)
    assert imp == reference_implicit_sets(weak)
    if imp and any(isinstance(cls, ImplicitName) for cls in weak.classes):
        with pytest.raises(SchemaValidationError, match="strip_implicits"):
            properize(weak)
        return None
    proper = properize(weak)
    assert proper is reference_properize(weak)
    return proper


def random_weak(seed: int, n_classes: int, prefix: str = "C") -> Schema:
    return random_weak_schema(
        n_classes=n_classes,
        n_labels=3,
        arrow_density=0.35,
        spec_density=0.2,
        seed=seed,
        class_pool=[f"{prefix}{i}" for i in range(n_classes)],
    )


class TestDenseEqualsOracle:
    @RELAXED
    @given(st.integers(0, 10_000), st.integers(2, 14))
    def test_random_weak_schemas(self, seed, n_classes):
        assert_matches_oracle(random_weak(seed, n_classes))

    @RELAXED
    @given(schema_triples())
    def test_surviving_implicit_classes(self, triple):
        # The first merge's implicit classes survive into the second weak
        # merge unstripped: refused exactly when that merge needs new ones.
        first, second, third = triple
        kept = upper_merge(first, second)
        assert_matches_oracle(weak_merge(kept, third))

    @pytest.mark.parametrize("k", [1, 2, 5, 8, 12])
    def test_diamond_chains(self, k):
        proper = assert_matches_oracle(weak_merge(*diamond_chain_schemas(k)))
        assert len(implicit_classes_of(proper)) == k

    @pytest.mark.parametrize("k", range(3, 9))
    def test_nfa_blowup(self, k):
        assert_matches_oracle(weak_merge(*nfa_blowup_pair(k)))

    def test_views_medium(self):
        weak = weak_merge(*get_workload("views-medium").schemas())
        proper = assert_matches_oracle(weak)
        assert len(implicit_classes_of(proper)) == len(implicit_sets(weak))

    @pytest.mark.parametrize("order", list(permutations(range(3))))
    def test_figure4_chains_keep_intermediate_classes(self, order):
        # The first merge keeps its implicit classes; merging on without
        # stripping is refused in four orders, and upper_merge, which
        # strips, reaches <D&E&F> in all six.
        first, second, third = (figure4_schemas()[i] for i in order)
        kept = assert_matches_oracle(weak_merge(first, second))
        refused = assert_matches_oracle(weak_merge(kept, third)) is None
        assert refused == (order in {(0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 0, 1)})
        merged = upper_merge(kept, third)
        assert ImplicitName(["D", "E", "F"]) in merged.classes

    def test_input_already_holding_the_rederived_class(self):
        # <B1&B2> survives from the first merge and Imp derives it again.
        first = upper_merge(*figure3_schemas())
        again = Schema.build(arrows=[("X", "b", "B1"), ("X", "b", "B2")])
        weak = weak_merge(first, again)
        assert ImplicitName(["B1", "B2"]) in weak.classes
        assert assert_matches_oracle(weak) is None
        merged = upper_merge(first, again)
        assert merged is assert_matches_oracle(strip_implicits(weak))
        assert canonical_class(merged, "X", "b") == ImplicitName(["B1", "B2"])

    def test_rederived_class_with_its_own_edges_is_reclosed(self):
        # The old <P&Q> sits between S and T.  The oracle re-derives it
        # below P and Q and closes S ==> P through it; the kernel refuses
        # the input, and derives <P&Q> afresh once it is stripped.
        bar = ImplicitName(["P", "Q"])
        weak = Schema.build(
            arrows=[("X", "b", "P"), ("X", "b", "Q"), (bar, "c", "Z")],
            spec=[("S", bar), (bar, "T")],
        )
        assert assert_matches_oracle(weak) is None
        assert reference_properize(weak).is_spec("S", "P")
        proper = assert_matches_oracle(strip_implicits(weak))
        assert proper.is_spec("S", "T") and not proper.is_spec("S", "P")
        assert canonical_class(proper, "X", "b") == bar

    def test_two_names_with_one_member_set_raise_like_the_oracle(self):
        # {P, <Q&R>} and {Q, <P&R>} both flatten to <P&Q&R>, whose members
        # MinS their union to {P, Q} — the members of <P&Q> as well, so
        # the two implicit classes specialize each other.
        above_q, above_p = ImplicitName(["Q", "R"]), ImplicitName(["P", "R"])
        weak = Schema.build(
            arrows=[
                ("F", "a", "P"), ("F", "a", above_q),
                ("G", "b", "Q"), ("G", "b", above_p),
                ("H", "c", "P"), ("H", "c", "Q"),
            ],
            spec=[("Q", above_q), ("P", above_p)],
        )
        # The total oracle reaches that cycle; the kernel refuses first.
        assert assert_matches_oracle(weak) is None
        with pytest.raises(IncompatibleSchemasError):
            reference_properize(weak)

    @RELAXED
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_disjoint_union_properizes_componentwise(self, seed_a, seed_b):
        left = random_weak(seed_a, 8, prefix="L")
        right = random_weak(seed_b, 8, prefix="R")
        assert properize(weak_merge(left, right)) == weak_merge(
            properize(left), properize(right)
        )
