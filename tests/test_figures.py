"""Integration tests: every paper figure reconstructs and behaves as
the prose claims.  These are the paper's figures run as assertions
(the ``benchmarks/bench_fig*.py`` files re-run them with timing)."""


from repro.core.implicit import implicit_classes_of, properize
from repro.core.merge import upper_merge, weak_merge
from repro.core.names import BaseName, ImplicitName
from repro.core.ordering import is_sub
from repro.core.proper import canonical_class, is_proper
from repro.figures import (
    figure1_er_diagram,
    figure2_schema,
    figure3_expected_weak_merge,
    figure3_schemas,
    figure4_schemas,
    figure6_schemas,
    figure7_candidate_g3_description,
    figure7_candidate_g4,
    figure8_expected_weak_merge,
    figure9_advisor_schema,
    figure9_committee_schema,
    figure9_keyed_schema,
    figure10_keyed_schema,
)
from repro.models.er import from_schema, to_schema


class TestFigures1And2:
    def test_translation_matches_figure2(self):
        assert to_schema(figure1_er_diagram()).schema == figure2_schema()

    def test_round_trip(self):
        diagram = figure1_er_diagram()
        assert from_schema(to_schema(diagram)) == diagram

    def test_inherited_arrows_present(self):
        # The figure draws kind/age on all three dog classes.
        schema = figure2_schema()
        for dog in ("Dog", "Police-dog", "Guide-dog"):
            assert schema.has_arrow(dog, "kind", "Breed")
            assert schema.has_arrow(dog, "age", "Int")

    def test_figure2_is_proper(self):
        assert is_proper(figure2_schema())


class TestFigure3:
    def test_weak_merge_matches_hand_expansion(self):
        assert weak_merge(*figure3_schemas()) == figure3_expected_weak_merge()

    def test_c_needs_common_specialization(self):
        merged = upper_merge(*figure3_schemas())
        imp = ImplicitName(["B1", "B2"])
        assert canonical_class(merged, "C", "a") == imp
        assert merged.is_spec(imp, "B1") and merged.is_spec(imp, "B2")


class TestFigures4And5:
    def test_prose_scenario_merge_g1_g2(self):
        g1, g2, _g3 = figure4_schemas()
        merged = upper_merge(g1, g2)
        assert implicit_classes_of(merged) == {ImplicitName(["D", "E"])}

    def test_prose_scenario_merge_g1_g3(self):
        g1, _g2, g3 = figure4_schemas()
        merged = upper_merge(g1, g3)
        assert implicit_classes_of(merged) == {ImplicitName(["E", "F"])}

    def test_three_way_wants_single_implicit(self):
        merged = upper_merge(*figure4_schemas())
        assert implicit_classes_of(merged) == {
            ImplicitName(["D", "E", "F"])
        }

    def test_our_merge_is_order_independent(self):
        g1, g2, g3 = figure4_schemas()
        results = {
            upper_merge(upper_merge(g1, g2), g3),
            upper_merge(upper_merge(g1, g3), g2),
            upper_merge(upper_merge(g2, g3), g1),
            upper_merge(g1, g2, g3),
        }
        assert len(results) == 1


class TestFigures6To8:
    def test_weak_merge_matches_figure8(self):
        assert weak_merge(*figure6_schemas()) == figure8_expected_weak_merge()

    def test_figure8_has_four_a_arrows_from_f(self):
        merged = weak_merge(*figure6_schemas())
        assert merged.reach("F", "a") == {
            BaseName("A"),
            BaseName("B"),
            BaseName("C"),
            BaseName("D"),
        }

    def test_g3_facts(self):
        facts = figure7_candidate_g3_description()
        g3 = properize(weak_merge(*figure6_schemas()))
        base = {str(c) for c in g3.classes if isinstance(c, BaseName)}
        assert base == facts["base_classes"]
        implicits = implicit_classes_of(g3)
        assert len(implicits) == facts["implicit_count"]
        (imp,) = implicits
        assert {str(m) for m in imp.members} == facts["implicit_below"]

    def test_g4_is_a_stronger_upper_bound(self):
        g1, g2 = figure6_schemas()
        g4 = figure7_candidate_g4()
        weak = weak_merge(g1, g2)
        assert is_proper(g4)
        assert is_sub(weak, g4)
        # G4 asserts extra information the inputs never stated:
        assert g4.has_arrow("F", "a", "E")
        assert not weak.has_arrow("F", "a", "E")

    def test_g4_has_fewer_classes_than_g3(self):
        g3 = properize(weak_merge(*figure6_schemas()))
        g4 = figure7_candidate_g4()
        assert len(g4.classes) < len(g3.classes)


class TestFigure9:
    def test_key_constraint_holds(self):
        keyed = figure9_keyed_schema()
        assert keyed.keys_of("Advisor").contains_family(
            keyed.keys_of("Committee")
        )

    def test_cardinality_reading(self):
        keyed = figure9_keyed_schema()
        # Advisor is one-to-many: victim determines the pair.
        assert keyed.keys_of("Advisor").is_superkey({"victim"})
        # Committee is many-to-many: only the full role set is a key.
        assert not keyed.keys_of("Committee").is_superkey({"victim"})
        assert keyed.keys_of("Committee").is_superkey(
            {"faculty", "victim"}
        )

    def test_component_views_merge_into_figure9(self):
        from repro.core.assertions import isa
        from repro.core.keys import merge_keyed

        merged = merge_keyed(
            figure9_advisor_schema(),
            figure9_committee_schema(),
            assertions=[isa("Advisor", "Committee")],
        )
        expected = figure9_keyed_schema()
        assert merged.schema == expected.schema
        assert merged.keys_of("Advisor") == expected.keys_of("Advisor")
        assert merged.keys_of("Committee") == expected.keys_of("Committee")


class TestFigure10:
    def test_two_composite_keys(self):
        keyed = figure10_keyed_schema()
        family = keyed.keys_of("Transaction")
        assert family.is_superkey({"loc", "at"})
        assert family.is_superkey({"card", "at"})
        assert not family.is_superkey({"at"})
        assert not family.is_superkey({"loc", "card"})

    def test_no_single_edge_labelling_equivalent(self):
        # The paper's point: neither loc nor card alone is a key, yet
        # the relationship is not plain many-many either.
        family = figure10_keyed_schema().keys_of("Transaction")
        roles = {"loc", "at", "card", "amount"}
        single_role_keys = [r for r in roles if family.is_superkey({r})]
        assert not single_role_keys
        assert not family.is_superkey(roles - {"at"})
