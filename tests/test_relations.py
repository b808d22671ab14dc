"""Unit tests for order questions: the mask answers, the cycle witness
and the pair-set oracle helpers."""

import pytest

from repro.core import relations
from repro.core.names import name, names
from repro.core.proper import canonical_class
from repro.core.schema import DenseClosure, Schema
from repro.exceptions import NotProperError
from repro.perf import reference


class TestClosures:
    def test_reflexive_closure(self):
        closed = reference.reflexive_closure({(1, 2)}, [1, 2, 3])
        assert closed == frozenset({(1, 2), (1, 1), (2, 2), (3, 3)})

    def test_transitive_closure_chain(self):
        closed = reference.transitive_closure({(1, 2), (2, 3), (3, 4)})
        assert (1, 4) in closed
        assert (1, 3) in closed
        assert (4, 1) not in closed

    def test_transitive_closure_of_cycle_contains_self_loops(self):
        closed = reference.transitive_closure({(1, 2), (2, 1)})
        assert (1, 1) in closed and (2, 2) in closed

    def test_reflexive_transitive_closure(self):
        closed = reference.reflexive_transitive_closure({(1, 2)}, [1, 2, 9])
        assert (9, 9) in closed and (1, 2) in closed and (1, 1) in closed


class TestPredicates:
    """Is ``succ`` a partial order?  Production asks ``DenseClosure.validate``."""

    @staticmethod
    def table(*succ):
        return DenseClosure(tuple(names("abc"[: len(succ)])), succ, {})

    def test_is_reflexive(self):
        self.table(0b01, 0b10).validate()
        with pytest.raises(ValueError, match="not reflexive"):
            self.table(0b01, 0b00).validate()

    def test_is_transitive(self):
        self.table(0b111, 0b110, 0b100).validate()
        with pytest.raises(ValueError, match="not transitive"):
            self.table(0b011, 0b110, 0b100).validate()

    def test_is_antisymmetric(self):
        assert reference.is_antisymmetric({(1, 2), (1, 1)})
        assert not reference.is_antisymmetric({(1, 2), (2, 1)})

    def test_is_partial_order(self):
        self.table(0b11, 0b10).validate()
        with pytest.raises(ValueError, match="not antisymmetric"):
            self.table(0b11, 0b11).validate()


class TestFindCycle:
    def test_no_cycle(self):
        assert relations.find_cycle({(1, 2), (2, 3)}) is None

    def test_self_loops_ignored(self):
        assert relations.find_cycle({(1, 1), (1, 2)}) is None

    def test_two_cycle_found(self):
        cycle = relations.find_cycle({(1, 2), (2, 1)})
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {1, 2}

    def test_longer_cycle_found(self):
        cycle = relations.find_cycle({(1, 2), (2, 3), (3, 1), (3, 4)})
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert {1, 2, 3} <= set(cycle)


class TestExtremalElements:
    EDGES = [("c", "a"), ("c", "b"), ("d", "c")]
    ORDER = Schema.build(classes="abcde", spec=EDGES)

    def test_minimal_elements(self):
        assert self.ORDER.min_classes("abc") == names("c")
        assert self.ORDER.min_classes("ab") == names("ab")
        spec = reference.reflexive_transitive_closure(
            {(name(p), name(q)) for p, q in self.EDGES}, names("abcde")
        )
        assert reference.minimal_elements(names("abc"), spec) == names("c")

    def test_maximal_elements(self):
        assert self.ORDER.restrict("abc").root_classes() == names("ab")

    def least(self, targets):
        schema = Schema.build(
            classes="abcde",
            arrows=[("x", "f", t) for t in targets],
            spec=self.EDGES,
        )
        return canonical_class(schema, "x", "f")

    def test_least_element_exists(self):
        assert self.least("acd") == name("d")

    def test_least_element_missing(self):
        with pytest.raises(NotProperError):
            self.least("ab")

    def test_least_of_singleton(self):
        assert self.least("e") == name("e")

    def test_greatest_element(self):
        assert self.ORDER.restrict("acd").root_classes() == names("a")
        assert self.ORDER.restrict("ab").root_classes() == names("ab")

    def test_down_and_up_sets(self):
        assert self.ORDER.specializations_of("a") == names("acd")
        assert self.ORDER.generalizations_of("c") == names("abc")


class TestCovers:
    def test_transitive_edge_removed(self):
        edges = [("1", "2"), ("2", "3")]
        order = Schema.build(spec=edges)
        assert order.spec_covers() == {(name(p), name(q)) for p, q in edges}

    def test_diamond_keeps_all_sides(self):
        edges = [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")]
        order = Schema.build(spec=edges)
        assert order.spec_covers() == {(name(p), name(q)) for p, q in edges}


class TestRestrict:
    def test_keeps_internal_pairs_only(self):
        order = Schema.build(spec=[("1", "2"), ("2", "3")])
        kept = order.restrict(["1", "2"])
        assert kept.strict_spec() == {(name("1"), name("2"))}
