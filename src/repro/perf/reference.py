"""Pre-engine reference implementations, preserved verbatim in spirit.

These are the cold-path algorithms the merge engine replaced, kept for
two jobs:

* the **benchmark baseline** — ``benchmarks/runner.py`` times
  :func:`reference_join_all` against the engine's ``join_all`` and
  records the speedup in ``BENCH_merge_engine.json``;
* the **property-test oracle** — ``tests/test_perf_engine.py`` asserts
  on randomized schemas that the interned/incremental paths
  return values *equal* to these direct computations.

They intentionally re-derive everything from scratch: the naive
per-arrow ``below × above`` W1/W2 closure, a separate compatibility
pass that closes the union specialization a second time, and per-arrow
participation lookups in the lower merge.  Do not "optimize" them —
their slowness is their purpose.

>>> from repro.core.ordering import join_all
>>> from repro.core.schema import Schema
>>> pair = [Schema.build(arrows=[("A", "f", "B")]),
...         Schema.build(spec=[("B", "C")])]
>>> reference_join_all(pair) == join_all(pair)
True
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.core import relations
from repro.core.lower import AnnotatedSchema, complete_classes
from repro.core.participation import Participation, glb_all, leq
from repro.core.schema import Arrow, Schema
from repro.exceptions import IncompatibleSchemasError

__all__ = [
    "reference_arrow_closure",
    "reference_join_all",
    "reference_is_sub",
    "reference_compatible",
    "reference_annotated_leq",
    "reference_lower_merge",
]


def reference_arrow_closure(arrows, spec):
    """The naive one-pass W1/W2 closure: ``below(p) × above(q)`` per arrow."""
    below = relations.predecessors_map(spec)
    above = relations.successors_map(spec)
    closed = set()
    for source, label, target in arrows:
        for sub in below.get(source, {source}):
            for sup in above.get(target, {target}):
                closed.add((sub, label, sup))
    return frozenset(closed)


def reference_join_all(schemas: Iterable[Schema]) -> Schema:
    """The pre-engine ``join_all``: compatibility pass + full re-closure."""
    schema_list: List[Schema] = list(schemas)
    if not schema_list:
        return Schema.empty()
    all_classes: Set = set()
    union_spec: Set = set()
    all_arrows: Set[Arrow] = set()
    for g in schema_list:
        all_classes |= g.classes
        union_spec |= g.spec
        all_arrows |= g.arrows
    # Pass 1: close the union specialization for the compatibility check.
    check = relations.reflexive_transitive_closure(union_spec, all_classes)
    if not relations.is_antisymmetric(check):
        cycle = relations.find_cycle(check) or ()
        raise IncompatibleSchemasError(
            "schemas are incompatible; their combined specializations "
            "contain the cycle " + " ==> ".join(str(c) for c in cycle),
            cycle=cycle,
        )
    # Pass 2: the old Schema.build recomputed the very same closure.
    closed_spec = relations.reflexive_transitive_closure(union_spec, all_classes)
    closed_arrows = reference_arrow_closure(all_arrows, closed_spec)
    # Wrap the closed components without validating them: every schema
    # is masks, so this only encodes what the closure above computed.
    return Schema._from_closed(all_classes, closed_arrows, closed_spec)


def reference_is_sub(left: Schema, right: Schema) -> bool:
    """The component-wise containment test on flat arrow sets."""
    return (
        left.classes <= right.classes
        and left.arrows <= right.arrows
        and left.spec <= right.spec
    )


def reference_compatible(*schemas: Schema) -> bool:
    """The compatibility check by full union closure."""
    all_classes: Set = set()
    union_spec: Set = set()
    for g in schemas:
        all_classes |= g.classes
        union_spec |= g.spec
    closed = relations.reflexive_transitive_closure(union_spec, all_classes)
    return relations.is_antisymmetric(closed)


def reference_annotated_leq(
    left: AnnotatedSchema, right: AnnotatedSchema
) -> bool:
    """The refined ordering of section 6, by per-arrow lookups."""
    if not (left.classes <= right.classes and left.spec <= right.spec):
        return False
    table_left = left.participation_table()
    table_right = right.participation_table()
    known = left.classes
    for arrow, constraint in table_left.items():
        if not leq(constraint, table_right.get(arrow, Participation.ABSENT)):
            return False
    for arrow, constraint in table_right.items():
        source, _label, target = arrow
        if source in known and target in known and arrow not in table_left:
            if not leq(Participation.ABSENT, constraint):
                return False
    return True


def reference_lower_merge(
    *schemas: AnnotatedSchema,
    import_specializations: bool = False,
) -> AnnotatedSchema:
    """The pre-engine lower merge: per-arrow method-call GLB lookups."""
    if not schemas:
        return AnnotatedSchema.empty()
    completed = complete_classes(list(schemas), import_specializations)
    merged_classes = completed[0].classes
    merged_spec = frozenset.intersection(*(s.spec for s in completed))
    all_arrows: Set[Arrow] = set()
    for schema in completed:
        all_arrows |= schema.present_arrows()
    table: Dict[Arrow, Participation] = {}
    for arrow in all_arrows:
        source, label, target = arrow
        combined = glb_all(
            schema.participation_of(source, label, target)
            for schema in completed
        )
        if combined != Participation.ABSENT:
            table[arrow] = combined
    return AnnotatedSchema(merged_classes, merged_spec, table)
