"""One-shot reproduction report: every paper claim, checked and printed.

``python -m repro.analysis.report`` re-derives the qualitative results
that ``tests/test_figures.py`` and ``benchmarks/`` assert, in one run (no timing — that is the benchmark
harness's job) and prints a claim-by-claim PASS table.  Each section
function returns its lines and raises ``AssertionError`` on any
deviation, so the module doubles as an executable summary and a smoke
test of the whole reproduction.
"""

from __future__ import annotations

from itertools import permutations
from typing import List

from repro.analysis.growth import (
    adversarial_growth,
    diamond_growth,
    random_growth,
)
from repro.baselines.naive import order_sensitivity
from repro.core.assertions import isa
from repro.core.implicit import implicit_classes_of, properize
from repro.core.keys import KeyFamily, merge_keyed
from repro.core.lower import (
    AnnotatedSchema,
    lower_merge,
)
from repro.core.merge import upper_merge, weak_merge
from repro.core.names import ImplicitName
from repro.core.ordering import is_sub
from repro.core.participation import Participation, glb, lub
from repro.figures import (
    figure1_er_diagram,
    figure2_schema,
    figure3_expected_weak_merge,
    figure3_schemas,
    figure4_schemas,
    figure6_schemas,
    figure7_candidate_g4,
    figure8_expected_weak_merge,
    figure9_advisor_schema,
    figure9_committee_schema,
    figure10_keyed_schema,
)
from repro.models.er import from_schema, to_schema

__all__ = ["full_report", "main"]


def _check(lines: List[str], label: str, condition: bool, detail: str) -> None:
    status = "PASS" if condition else "FAIL"
    lines.append(f"  [{status}] {label}: {detail}")
    assert condition, f"{label}: {detail}"


def report_figures_1_2() -> List[str]:
    """FIG1/FIG2 — ER translation round trip."""
    lines = ["Figures 1-2 (ER translation):"]
    diagram = figure1_er_diagram()
    stratified = to_schema(diagram)
    _check(
        lines,
        "FIG2",
        stratified.schema == figure2_schema(),
        "translation equals the Figure 2 schema",
    )
    _check(
        lines,
        "FIG1",
        from_schema(stratified) == diagram,
        "back-translation recovers Figure 1",
    )
    return lines


def report_figure_3() -> List[str]:
    """FIG3 — the implicit-class merge."""
    lines = ["Figure 3 (implicit classes):"]
    one, two = figure3_schemas()
    _check(
        lines,
        "weak merge",
        weak_merge(one, two) == figure3_expected_weak_merge(),
        "equals the hand-written expansion",
    )
    merged = upper_merge(one, two)
    imp = ImplicitName(["B1", "B2"])
    _check(
        lines,
        "properization",
        imp in merged.classes
        and merged.is_spec(imp, "B1")
        and merged.is_spec(imp, "B2"),
        "introduces <B1&B2> below B1 and B2",
    )
    return lines


def report_figures_4_5() -> List[str]:
    """FIG4/FIG5 — (non-)associativity."""
    lines = ["Figures 4-5 (associativity):"]
    schemas = list(figure4_schemas())
    naive = order_sensitivity(schemas)
    _check(
        lines,
        "naive baseline",
        naive["distinct_results"] >= 2,
        f"{naive['distinct_results']} distinct schemas across "
        f"{naive['permutations']} merge orders (non-associative)",
    )
    ours = {
        upper_merge(*(schemas[i] for i in order))
        for order in permutations(range(3))
    }
    _check(
        lines,
        "our merge",
        len(ours) == 1,
        "1 schema across all 6 merge orders",
    )
    (merged,) = ours
    _check(
        lines,
        "implicit class",
        implicit_classes_of(merged) == {ImplicitName(["D", "E", "F"])},
        "exactly one class below {D, E, F}, as the prose demands",
    )
    return lines


def report_figures_6_to_8() -> List[str]:
    """FIG6/7/8 — the least-upper-bound argument."""
    lines = ["Figures 6-8 (least upper bound):"]
    g1, g2 = figure6_schemas()
    weak = weak_merge(g1, g2)
    _check(
        lines,
        "FIG8",
        weak == figure8_expected_weak_merge(),
        "G1 ⊔ G2 equals the Figure 8 drawing (four a-arrows from F)",
    )
    g3 = properize(weak)
    g4 = figure7_candidate_g4()
    _check(
        lines,
        "FIG7 G3",
        implicit_classes_of(g3) == {ImplicitName(["C", "D"])},
        "the merge adds one implicit class below {C, D}",
    )
    _check(
        lines,
        "FIG7 G4",
        is_sub(weak, g4)
        and len(g4.classes) < len(g3.classes)
        and g4.has_arrow("F", "a", "E")
        and not weak.has_arrow("F", "a", "E"),
        "G4 is a smaller upper bound but asserts F --a--> E, which "
        "neither input stated",
    )
    return lines


def report_figures_9_10() -> List[str]:
    """FIG9/FIG10 — keys."""
    lines = ["Figures 9-10 (keys):"]
    merged = merge_keyed(
        figure9_advisor_schema(),
        figure9_committee_schema(),
        assertions=[isa("Advisor", "Committee")],
    )
    _check(
        lines,
        "FIG9",
        merged.keys_of("Advisor") == KeyFamily.of({"victim"})
        and merged.keys_of("Committee")
        == KeyFamily.of({"faculty", "victim"})
        and merged.keys_of("Advisor").contains_family(
            merged.keys_of("Committee")
        ),
        "SK(Advisor) = {{victim}} ⊇ SK(Committee) = {{faculty, victim}}",
    )
    family = figure10_keyed_schema().keys_of("Transaction")
    roles = ["loc", "at", "card", "amount"]
    from itertools import product

    expressible = []
    for labels in product("1N", repeat=len(roles)):
        keys = [
            set(roles) - {role}
            for role, label in zip(roles, labels)
            if label == "1"
        ] or [set(roles)]
        expressible.append(KeyFamily(keys))
    _check(
        lines,
        "FIG10",
        family not in expressible,
        "the two-key Transaction family is not expressible by any of "
        "the 16 edge labelings",
    )
    return lines


def report_figure_11() -> List[str]:
    """FIG11 — the participation semilattice and lower merges."""
    lines = ["Figure 11 (lower merges):"]
    _check(
        lines,
        "semilattice",
        glb(Participation.ABSENT, Participation.REQUIRED)
        == Participation.OPTIONAL
        and lub(Participation.ABSENT, Participation.REQUIRED) is None,
        "glb(0, 1) = 0/1 and lub(0, 1) does not exist",
    )
    one = AnnotatedSchema.build(
        arrows=[("Dog", "name", "Str"), ("Dog", "age", "Int")]
    )
    two = AnnotatedSchema.build(
        arrows=[("Dog", "name", "Str"), ("Dog", "breed", "Breed")]
    )
    merged = lower_merge(one, two)
    _check(
        lines,
        "§6 Dog example",
        merged.participation_of("Dog", "name", "Str")
        == Participation.REQUIRED
        and merged.participation_of("Dog", "age", "Int")
        == Participation.OPTIONAL
        and merged.participation_of("Dog", "breed", "Breed")
        == Participation.OPTIONAL,
        "name stays required; age and breed become optional",
    )
    return lines


def report_growth() -> List[str]:
    """IMPGROWTH — the §7 open question, both directions."""
    lines = ["Implicit-class growth (§7):"]
    diamonds = diamond_growth((4, 8, 16))
    _check(
        lines,
        "linear regime",
        [imp for _k, _c, imp in diamonds] == [4, 8, 16],
        f"stacked diamonds: |Imp| = k exactly ({diamonds})",
    )
    adversarial = adversarial_growth((4, 6, 8))
    _check(
        lines,
        "exponential regime",
        [imp for _k, _c, imp in adversarial] == [15, 63, 255],
        f"NFA adversary: |Imp| = 2^k - 1 exactly ({adversarial})",
    )
    random_rows = random_growth(sizes=(10, 20), seed=7)
    _check(
        lines,
        "random views",
        all(imp < classes**2 for _s, classes, imp in random_rows),
        f"random views stay polynomial ({random_rows})",
    )
    return lines


def full_report() -> str:
    """Run every section and return the combined report text."""
    sections = [
        report_figures_1_2(),
        report_figure_3(),
        report_figures_4_5(),
        report_figures_6_to_8(),
        report_figures_9_10(),
        report_figure_11(),
        report_growth(),
    ]
    lines = [
        "Reproduction report — Theoretical Aspects of Schema Merging "
        "(EDBT '92)",
        "=" * 70,
    ]
    for section in sections:
        lines.extend(section)
        lines.append("")
    lines.append("all claims reproduced")
    return "\n".join(lines)


def main() -> int:
    """CLI entry point: print the report, exit non-zero on deviation."""
    try:
        print(full_report())
    except AssertionError as failure:  # pragma: no cover - failure path
        print(f"REPRODUCTION FAILURE: {failure}")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
