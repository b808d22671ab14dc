"""Pre-engine reference implementations, preserved verbatim in spirit.

These are the cold-path algorithms the merge engine replaced, kept for
two jobs:

* the **benchmark baseline** — ``benchmarks/runner.py`` times
  :func:`reference_join_all` against the engine's ``join_all`` and
  records the speedup in ``BENCH_merge_engine.json``;
* the **property-test oracle** — ``tests/test_perf_engine.py`` asserts
  on randomized schemas that the interned/incremental paths and the
  annotated closure behind ``AnnotatedSchema.build`` return values
  *equal* to these direct computations, and
  ``tests/test_implicit.py`` that the mask properization returns the
  *same interned object* as :func:`reference_properize`.

They intentionally re-derive everything from scratch: the naive
per-arrow ``below × above`` W1/W2 closure, a separate compatibility
pass that closes the union specialization a second time, the
worklist closure of participation tables, and per-arrow participation
lookups in the lower merge.  Do not "optimize" them —
their slowness is their purpose.  The pair-set order algebra they run
on (closing a set of pairs, antisymmetry, ``MinS``) lives here too:
production code answers every order question on a schema's masks.

>>> from repro.core.ordering import join_all
>>> from repro.core.schema import Schema
>>> pair = [Schema.build(arrows=[("A", "f", "B")]),
...         Schema.build(spec=[("B", "C")])]
>>> reference_join_all(pair) == join_all(pair)
True
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Set,
    Tuple,
    TypeVar,
)

from repro.core.lower import AnnotatedSchema, complete_classes
from repro.core.names import ClassName, ImplicitName, Label
from repro.core.participation import Participation, glb_all, leq
from repro.core.proper import check_proper
from repro.core.relations import find_cycle, successors_map
from repro.core.schema import Arrow, Schema, SpecEdge
from repro.exceptions import IncompatibleSchemasError

__all__ = [
    "reference_arrow_closure",
    "reference_join_all",
    "reference_is_sub",
    "reference_compatible",
    "reference_close_annotations",
    "reference_annotated_leq",
    "reference_lower_merge",
    "reference_reachable_sets",
    "reference_implicit_sets",
    "reference_properize",
    "predecessors_map",
    "reflexive_closure",
    "transitive_closure",
    "reflexive_transitive_closure",
    "is_antisymmetric",
    "minimal_elements",
]

T = TypeVar("T", bound=Hashable)
Pair = Tuple[T, T]
Relation = FrozenSet[Pair]


# ----------------------------------------------------------------------
# Pair-set order algebra
# ----------------------------------------------------------------------


def predecessors_map(relation: AbstractSet[Pair]) -> Dict[T, Set[T]]:
    """Index a relation as ``{y: {x | (x, y) in relation}}``."""
    index: Dict[T, Set[T]] = {}
    for x, y in relation:
        index.setdefault(y, set()).add(x)
    return index


def reflexive_closure(
    relation: AbstractSet[Pair], universe: Iterable[T]
) -> Relation:
    """Add ``(x, x)`` for every ``x`` in *universe*."""
    closed = set(relation)
    closed.update((x, x) for x in universe)
    return frozenset(closed)


def transitive_closure(relation: AbstractSet[Pair]) -> Relation:
    """The least transitive relation containing *relation*.

    A breadth-first reachability sweep from each source, ``O(V · E)``.
    """
    succ = successors_map(relation)
    closed: Set[Pair] = set()
    for source in succ:
        frontier = list(succ[source])
        seen: Set[T] = set()
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(succ.get(node, ()))
        closed.update((source, target) for target in seen)
    return frozenset(closed)


def reflexive_transitive_closure(
    relation: AbstractSet[Pair], universe: Iterable[T]
) -> Relation:
    """``relation* ∪ identity`` over *universe* — the paper's ``(S1 ∪ S2)*``."""
    return reflexive_closure(transitive_closure(relation), universe)


def is_antisymmetric(relation: AbstractSet[Pair]) -> bool:
    """Does ``(x, y), (y, x) ∈ relation`` imply ``x == y``?"""
    pairs = set(relation)
    return all(x == y or (y, x) not in pairs for x, y in pairs)


def minimal_elements(
    subset: AbstractSet[T], order: AbstractSet[Pair]
) -> FrozenSet[T]:
    """The paper's ``MinS(X)``: elements of *subset* with no strict lower bound in it.

    ``MinS(X) = {p ∈ X | ∀q ∈ X . q ⇒ p implies q = p}`` (section 4.2).
    """
    return frozenset(
        p
        for p in subset
        if all(q == p or (q, p) not in order for q in subset)
    )


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------


def reference_arrow_closure(arrows, spec):
    """The naive one-pass W1/W2 closure: ``below(p) × above(q)`` per arrow."""
    below = predecessors_map(spec)
    above = successors_map(spec)
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
    check = reflexive_transitive_closure(union_spec, all_classes)
    if not is_antisymmetric(check):
        cycle = find_cycle(check) or ()
        raise IncompatibleSchemasError(
            "schemas are incompatible; their combined specializations "
            "contain the cycle " + " ==> ".join(str(c) for c in cycle),
            cycle=cycle,
        )
    # Pass 2: the old Schema.build recomputed the very same closure.
    closed_spec = reflexive_transitive_closure(union_spec, all_classes)
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
    closed = reflexive_transitive_closure(union_spec, all_classes)
    return is_antisymmetric(closed)


def _stronger(
    left: Participation, right: Participation
) -> Participation:
    """Combine two derivations of the same present arrow (REQUIRED wins)."""
    if Participation.REQUIRED in (left, right):
        return Participation.REQUIRED
    return Participation.OPTIONAL


def reference_close_annotations(
    table: Dict[Arrow, Participation], spec: AbstractSet[SpecEdge]
) -> Dict[Arrow, Participation]:
    """Close a participation table under the annotated W1'/W2' rules.

    * **W2'** — a present arrow ``p --a--> s`` yields ``p --a--> r`` for
      every ``s ==> r``, at the same constraint (a value in ``s`` is a
      value in ``r``; if the value must exist it still must).
    * **W1'** — a **required** arrow ``q --a--> r`` yields a required
      ``p --a--> r`` for every ``p ==> q`` (instances of ``p`` are
      instances of ``q``).  Optional arrows do *not* propagate down:
      a specialization may forbid an attribute its superclass merely
      allows.
    """
    above = successors_map(spec)
    below = predecessors_map(spec)
    closed: Dict[Arrow, Participation] = {}
    pending = list(table.items())
    while pending:
        (source, label, target), constraint = pending.pop()
        existing = closed.get((source, label, target))
        if existing is not None and _stronger(existing, constraint) == existing:
            continue
        combined = (
            constraint if existing is None else _stronger(existing, constraint)
        )
        closed[(source, label, target)] = combined
        for sup in above.get(target, {target}):
            if sup != target:
                pending.append(((source, label, sup), combined))
        if combined == Participation.REQUIRED:
            for sub in below.get(source, {source}):
                if sub != source:
                    pending.append(((sub, label, target), Participation.REQUIRED))
    return closed


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


def reference_lower_merge(*schemas: AnnotatedSchema) -> AnnotatedSchema:
    """The pre-engine lower merge: per-arrow method-call GLB lookups."""
    if not schemas:
        return AnnotatedSchema.empty()
    completed = complete_classes(list(schemas))
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


def reference_reachable_sets(schema: Schema) -> Set[FrozenSet[ClassName]]:
    """The set-based ``I∞``: a worklist over name-level reach sets."""
    seen: Set[FrozenSet[ClassName]] = set()
    frontier: List[FrozenSet[ClassName]] = [
        frozenset({p}) for p in schema.classes
    ]
    labels = schema.labels()
    while frontier:
        current = frontier.pop()
        for label in labels:
            reached = schema.reach_set(current, label)
            if reached and reached not in seen:
                seen.add(reached)
                frontier.append(reached)
    return seen


def reference_implicit_sets(schema: Schema) -> Set[FrozenSet[ClassName]]:
    """The set-based ``Imp``: ``MinS`` of every reach set, size > 1."""
    result: Set[FrozenSet[ClassName]] = set()
    for reached in reference_reachable_sets(schema):
        minimal = minimal_elements(reached, schema.spec)
        if len(minimal) > 1:
            result.add(minimal)
    return result


def reference_properize(schema: Schema) -> Schema:
    """The set-based ``G ↦ Ḡ`` of section 4.2, closed by ``Schema.build``.

    Name-level ``any``/``all`` loops over the specialization pairs for
    ``S̄`` and a subset test per implicit class and row for ``Ē``; the
    output triple is re-interned (and re-closed) through
    ``Schema.build``.
    """
    imp = reference_implicit_sets(schema)
    if not imp:
        return check_proper(schema)

    name_of: Dict[FrozenSet[ClassName], ImplicitName] = {
        member_set: ImplicitName(member_set) for member_set in imp
    }
    # Deduplicate by name: flattening may identify member sets; keep the
    # minimal classes of their union as the single definition.
    members_of: Dict[ImplicitName, FrozenSet[ClassName]] = {}
    for member_set, label in name_of.items():
        if label in members_of:
            members_of[label] = minimal_elements(
                members_of[label] | member_set, schema.spec
            )
        else:
            members_of[label] = member_set

    new_classes = set(schema.classes) | set(members_of)

    # --- arrows -------------------------------------------------------
    def reach_bar(node: ClassName, label: Label) -> FrozenSet[ClassName]:
        if isinstance(node, ImplicitName) and node in members_of:
            return schema.reach_set(members_of[node], label)
        return schema.reach(node, label)

    labels = schema.labels()
    new_arrows: Set[Tuple[ClassName, Label, ClassName]] = set()
    for node in new_classes:
        for label in labels:
            reached = reach_bar(node, label)
            if not reached:
                continue
            for target in reached:
                new_arrows.add((node, label, target))
            reached_size = len(reached)
            for imp_label, imp_members in members_of.items():
                if len(imp_members) <= reached_size and imp_members <= reached:
                    new_arrows.add((node, label, imp_label))

    # --- specializations ----------------------------------------------
    new_spec: Set[Tuple[ClassName, ClassName]] = set(schema.spec)
    spec_pairs = schema.spec
    for x_label, x_members in members_of.items():
        for y_label, y_members in members_of.items():
            if x_label != y_label and all(
                any((q, p) in spec_pairs for q in x_members) for p in y_members
            ):
                new_spec.add((x_label, y_label))
        for p in schema.classes:
            if any((q, p) in spec_pairs for q in x_members):
                new_spec.add((x_label, p))
            if all((p, q) in spec_pairs for q in x_members):
                new_spec.add((p, x_label))

    result = Schema.build(
        classes=new_classes, arrows=new_arrows, spec=new_spec
    )
    return check_proper(result)
