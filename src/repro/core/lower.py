"""Lower merges: greatest lower bounds for federated views (section 6).

The upper merge answers "what single schema presents *all* the
information of the inputs"; a federated system needs the dual — a
schema every input's instances already satisfy, so their union can be
queried uniformly.  Taking the plain greatest lower bound under ``⊑``
is unsatisfactory (everything the schemas disagree on vanishes), so the
paper refines schemas with **participation constraints** on arrows
(:mod:`repro.core.participation`) and merges them by pointwise greatest
lower bound: a required arrow merged with an absent one becomes
*optional* instead of disappearing.

This module provides:

* :class:`AnnotatedSchema` — a schema whose arrows carry participation
  constraints, with its own closure discipline (required arrows behave
  exactly like ordinary weak-schema arrows; optional arrows only
  propagate along target generalization, since a specialization may
  legitimately *forbid* an attribute its superclass allows);
* :func:`annotated_leq` — the refined information ordering, under which
  an absent arrow (constraint ``0``) is *information*, incomparable
  with ``1``;
* :func:`lower_merge` — class completion followed by the pointwise GLB
  (the section 6 construction);
* :func:`lower_properize` — our formalization of the paper's one-line
  sketch that lower implicit classes are "introduced above, rather than
  below": conflicting alternative targets are generalized into a
  :class:`~repro.core.names.GenName` class (see DESIGN.md §5 for the
  rationale and soundness argument).
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core import relations
from repro.core.names import (
    ClassName,
    GenName,
    ImplicitName,
    Label,
    check_label,
    name,
    names,
    sort_key,
)
from repro.core.participation import Participation, glb_all, leq
from repro.core.schema import Arrow, Schema, SpecEdge
from repro.exceptions import (
    IncompatibleSchemasError,
    NotProperError,
    ParticipationError,
    SchemaValidationError,
)

__all__ = [
    "AnnotatedSchema",
    "annotated_leq",
    "complete_classes",
    "lower_merge",
    "lower_properize",
    "lower_properness_violations",
]

NameLike = Union[ClassName, str]
AnnotatedArrowLike = Union[
    Tuple[NameLike, Label, NameLike],
    Tuple[NameLike, Label, NameLike, Participation],
]


def _stronger(
    left: Participation, right: Participation
) -> Participation:
    """Combine two derivations of the same present arrow (REQUIRED wins)."""
    if Participation.REQUIRED in (left, right):
        return Participation.REQUIRED
    return Participation.OPTIONAL


def _close_annotations(
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
    above = relations.successors_map(spec)
    below = relations.predecessors_map(spec)
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


class AnnotatedSchema:
    """A schema whose arrows carry participation constraints.

    Arrows absent from the table have constraint ``0`` (the paper's
    convention); present arrows are ``0/1`` or ``1``.  The structure is
    immutable and closed under the annotated rules documented on
    :func:`_close_annotations`.
    """

    __slots__ = ("_classes", "_spec", "_participation", "_hash")

    def __init__(
        self,
        classes: AbstractSet[ClassName],
        spec: AbstractSet[SpecEdge],
        participation: Mapping[Arrow, Participation],
    ):
        classes = frozenset(classes)
        spec = frozenset(spec)
        table = dict(participation)
        for (source, label, target), constraint in table.items():
            check_label(label)
            if source not in classes or target not in classes:
                raise SchemaValidationError(
                    f"arrow {source} --{label}--> {target} mentions a class "
                    "outside C"
                )
            if constraint == Participation.ABSENT:
                raise ParticipationError(
                    "present arrows must be OPTIONAL or REQUIRED; encode "
                    "constraint 0 by omitting the arrow"
                )
        if not relations.is_partial_order(spec, classes):
            raise SchemaValidationError(
                "specialization relation is not a partial order over C"
            )
        for sub, sup in spec:
            if sub not in classes or sup not in classes:
                raise SchemaValidationError(
                    f"specialization {sub} ==> {sup} mentions a class outside C"
                )
        if _close_annotations(table, spec) != table:
            raise SchemaValidationError(
                "participation table is not closed under the annotated "
                "W1'/W2' rules; use AnnotatedSchema.build"
            )
        object.__setattr__(self, "_classes", classes)
        object.__setattr__(self, "_spec", spec)
        object.__setattr__(self, "_participation", dict(table))
        object.__setattr__(
            self,
            "_hash",
            hash((classes, spec, frozenset(table.items()))),
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        classes: Iterable[NameLike] = (),
        arrows: Iterable[AnnotatedArrowLike] = (),
        spec: Iterable[Tuple[NameLike, NameLike]] = (),
    ) -> "AnnotatedSchema":
        """Build from raw data, closing specializations and annotations.

        Arrow entries are ``(source, label, target)`` — defaulting to
        ``REQUIRED``, so plain schemas embed unchanged — or
        ``(source, label, target, participation)``.
        """
        class_set: Set[ClassName] = set(names(classes))
        table: Dict[Arrow, Participation] = {}
        for entry in arrows:
            if len(entry) == 3:
                source, label, target = entry  # type: ignore[misc]
                constraint = Participation.REQUIRED
            elif len(entry) == 4:
                source, label, target, constraint = entry  # type: ignore[misc]
                if isinstance(constraint, str):
                    constraint = Participation.parse(constraint)
            else:
                raise SchemaValidationError(
                    f"annotated arrows have 3 or 4 components, got {entry!r}"
                )
            if constraint == Participation.ABSENT:
                continue
            arrow = (name(source), check_label(label), name(target))
            class_set.update((arrow[0], arrow[2]))
            existing = table.get(arrow)
            table[arrow] = (
                constraint if existing is None else _stronger(existing, constraint)
            )
        spec_set = {(name(a), name(b)) for a, b in spec}
        for sub, sup in spec_set:
            class_set.update((sub, sup))
        closed_spec = relations.reflexive_transitive_closure(spec_set, class_set)
        if not relations.is_antisymmetric(closed_spec):
            cycle = relations.find_cycle(closed_spec) or ()
            raise IncompatibleSchemasError(
                "specialization edges form a cycle: "
                + " ==> ".join(str(c) for c in cycle),
                cycle=cycle,
            )
        closed_table = _close_annotations(table, closed_spec)
        return cls(frozenset(class_set), closed_spec, closed_table)

    @classmethod
    def from_schema(
        cls,
        schema: Schema,
        default: Participation = Participation.REQUIRED,
    ) -> "AnnotatedSchema":
        """Embed a plain schema: every arrow gets constraint *default*.

        With the default ``REQUIRED`` this matches the paper's reading
        of plain arrows ("any instance of the class p must have an
        a-attribute").
        """
        if default == Participation.ABSENT:
            raise ParticipationError("cannot embed arrows at constraint 0")
        return cls.build(
            classes=schema.classes,
            arrows=[(s, a, t, default) for s, a, t in schema.arrows],
            spec=schema.spec,
        )

    @classmethod
    def empty(cls) -> "AnnotatedSchema":
        """The annotated schema with no classes."""
        return cls(frozenset(), frozenset(), {})

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def classes(self) -> FrozenSet[ClassName]:
        """The class set ``C``."""
        return self._classes

    @property
    def spec(self) -> FrozenSet[SpecEdge]:
        """The specialization partial order (reflexive & transitive)."""
        return self._spec

    def __setattr__(self, key, val):  # pragma: no cover - immutability guard
        raise AttributeError("AnnotatedSchema is immutable")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, AnnotatedSchema):
            return NotImplemented
        if self._hash != other._hash:
            return False
        return (
            self._classes == other._classes
            and self._spec == other._spec
            and self._participation == other._participation
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        required = sum(
            1
            for v in self._participation.values()
            if v == Participation.REQUIRED
        )
        return (
            f"AnnotatedSchema(|C|={len(self._classes)}, "
            f"|E|={len(self._participation)} "
            f"({required} required), |S|={len(self._spec)})"
        )

    def participation_of(
        self, source: NameLike, label: Label, target: NameLike
    ) -> Participation:
        """The constraint on an arrow (``ABSENT`` when not present)."""
        arrow = (name(source), label, name(target))
        return self._participation.get(arrow, Participation.ABSENT)

    def present_arrows(self) -> FrozenSet[Arrow]:
        """Arrows with constraint ``0/1`` or ``1``."""
        return frozenset(self._participation)

    def required_arrows(self) -> FrozenSet[Arrow]:
        """Arrows with constraint ``1``."""
        return frozenset(
            a
            for a, v in self._participation.items()
            if v == Participation.REQUIRED
        )

    def optional_arrows(self) -> FrozenSet[Arrow]:
        """Arrows with constraint ``0/1``."""
        return frozenset(
            a
            for a, v in self._participation.items()
            if v == Participation.OPTIONAL
        )

    def participation_table(self) -> Dict[Arrow, Participation]:
        """A copy of the full arrow-constraint table."""
        return dict(self._participation)

    def reach_present(self, cls: NameLike, label: Label) -> FrozenSet[ClassName]:
        """All present targets of ``cls``'s *label*-arrows."""
        p = name(cls)
        return frozenset(
            t for (s, a, t) in self._participation if s == p and a == label
        )

    def labels(self) -> FrozenSet[Label]:
        """Every label on a present arrow."""
        return frozenset(a for (_s, a, _t) in self._participation)

    def is_spec(self, sub: NameLike, sup: NameLike) -> bool:
        """Does ``sub ==> sup`` hold?"""
        return (name(sub), name(sup)) in self._spec

    def required_schema(self) -> Schema:
        """The plain weak schema of required arrows.

        Required arrows propagate exactly like weak-schema arrows, so
        this projection is always a valid :class:`Schema`.
        """
        return Schema(self._classes, self.required_arrows(), self._spec)

    def min_classes(self, subset: Iterable[NameLike]) -> FrozenSet[ClassName]:
        """``MinS(X)`` relative to this schema's specialization order."""
        return relations.minimal_elements(names(subset), self._spec)

    def with_classes(self, extra: Iterable[NameLike]) -> "AnnotatedSchema":
        """Add isolated classes (the section 6 completion step)."""
        additions = names(extra) - self._classes
        if not additions:
            return self
        return AnnotatedSchema(
            self._classes | additions,
            self._spec | {(c, c) for c in additions},
            self._participation,
        )

    def with_spec_edges(
        self, edges: Iterable[Tuple[NameLike, NameLike]]
    ) -> "AnnotatedSchema":
        """Add specialization edges (closures recomputed)."""
        return AnnotatedSchema.build(
            classes=self._classes,
            arrows=[
                (s, a, t, v) for (s, a, t), v in self._participation.items()
            ],
            spec=set(self._spec) | {(name(a), name(b)) for a, b in edges},
        )


def annotated_leq(left: AnnotatedSchema, right: AnnotatedSchema) -> bool:
    """The refined information ordering of section 6.

    ``left ⊑ right`` iff ``C_left ⊆ C_right``, ``S_left ⊆ S_right`` and
    for every arrow over *left*'s classes the participation constraints
    satisfy ``K_left(e) ≤ K_right(e)`` in the Figure 11 order — where an
    arrow absent over known classes means constraint ``0``, which is
    maximal information, not ignorance.
    """
    if left is right:
        return True
    if not (left.classes <= right.classes and left.spec <= right.spec):
        return False
    table_left = left._participation
    table_right = right._participation
    known = left.classes
    for arrow, constraint in table_left.items():
        if not leq(constraint, table_right.get(arrow, Participation.ABSENT)):
            return False
    for arrow, constraint in table_right.items():
        source, _label, target = arrow
        if source in known and target in known and arrow not in table_left:
            # left says ABSENT (constraint 0); right must agree.
            if not leq(Participation.ABSENT, constraint):
                return False
    return True


def complete_classes(
    schemas: Sequence[AnnotatedSchema],
    import_specializations: bool = False,
) -> List[AnnotatedSchema]:
    """Give every schema the union class set (section 6's preparation).

    By default foreign classes arrive isolated.  With
    *import_specializations* each schema also adopts the other schemas'
    specialization edges that touch classes it lacked — sound for lower
    merging because a coerced instance populates imported classes with
    empty extents (see DESIGN.md §5).  Raises
    :class:`~repro.exceptions.IncompatibleSchemasError` if importing
    creates a specialization cycle.
    """
    all_classes: Set[ClassName] = set()
    for schema in schemas:
        all_classes |= schema.classes
    completed = []
    for schema in schemas:
        extended = schema.with_classes(all_classes)
        if import_specializations:
            foreign: Set[SpecEdge] = set()
            for other in schemas:
                if other is schema:
                    continue
                for sub, sup in other.spec:
                    if sub not in schema.classes or sup not in schema.classes:
                        foreign.add((sub, sup))
            if foreign:
                extended = extended.with_spec_edges(foreign)
        completed.append(extended)
    return completed


def lower_merge(
    *schemas: AnnotatedSchema,
    import_specializations: bool = False,
) -> AnnotatedSchema:
    """The weak lower merge of section 6 — a greatest lower bound.

    After class completion, the merged specialization relation is the
    intersection of the inputs' relations and every arrow's constraint
    is the GLB of its constraints across inputs (``ABSENT`` when an
    input lacks it).  The result is below every completed input under
    :func:`annotated_leq`, and any common lower bound is below it —
    both properties are machine-checked in the test suite.
    """
    if not schemas:
        return AnnotatedSchema.empty()
    completed = complete_classes(list(schemas), import_specializations)
    merged_classes = completed[0].classes
    merged_spec = frozenset.intersection(*(s.spec for s in completed))
    all_arrows: Set[Arrow] = set()
    for schema in completed:
        all_arrows |= schema.present_arrows()
    # Direct table lookups instead of per-arrow accessor calls: on wide
    # federations this loop dominates, and the method-call overhead
    # (name coercion included) is a measurable constant factor.
    tables = [schema._participation for schema in completed]
    absent = Participation.ABSENT
    table: Dict[Arrow, Participation] = {}
    for arrow in all_arrows:
        combined = glb_all(t.get(arrow, absent) for t in tables)
        if combined != absent:
            table[arrow] = combined
    # The pointwise GLB of closed tables is closed (each rule's premise
    # in the merge implies the premise in some/all inputs — see module
    # docstring), so direct construction is safe; the constructor
    # re-verifies.
    return AnnotatedSchema(merged_classes, merged_spec, table)


def lower_properness_violations(
    schema: AnnotatedSchema,
) -> List[Tuple[ClassName, Label, FrozenSet[ClassName]]]:
    """Arrow bundles with no least present target — the lower analogue
    of :func:`repro.core.proper.properness_violations`."""
    found = []
    seen: Set[Tuple[ClassName, Label]] = set()
    for (source, label, _target) in schema.present_arrows():
        if (source, label) in seen:
            continue
        seen.add((source, label))
        targets = schema.reach_present(source, label)
        if relations.least_element(targets, schema.spec) is None:
            found.append((source, label, schema.min_classes(targets)))
    found.sort(key=lambda item: (sort_key(item[0]), item[1]))
    return found


def _expand_gen_members(
    alternatives: FrozenSet[ClassName],
    base_spec: FrozenSet[SpecEdge],
) -> FrozenSet[ClassName]:
    """Canonical member set for a generalization of *alternatives*.

    Nested generalization classes are expanded into their members and
    the result is reduced to its maximal elements under the gen-free
    part of the specialization order.  Two alternative sets with the
    same downward denotation therefore always canonicalize to the same
    member set — which is what keeps the derived specialization edges
    antisymmetric across properization rounds.
    """
    expanded: Set[ClassName] = set()
    frontier = list(alternatives)
    while frontier:
        cls = frontier.pop()
        if isinstance(cls, GenName):
            frontier.extend(cls.members)
        else:
            expanded.add(cls)
    return relations.maximal_elements(expanded, base_spec)


def lower_properize(schema: AnnotatedSchema) -> AnnotatedSchema:
    """Repair canonicality by generalizing conflicting targets upward.

    Our formalization of the paper's sketch (section 6; DESIGN.md §5):
    for every ``(p, a)`` whose present targets have no least element,
    the minimal alternatives ``M`` are *alternative typings* — the
    value, when present, lies in **some** member of ``M``.  We therefore

    The repair distinguishes the two ways a reach set can lack a least
    element, because they mean different things:

    * **required-vs-required** — two *required* arrows with incomparable
      minimal targets say the value lies in **both** targets, an
      intersection constraint; the repair adds an upper-merge-style
      :class:`~repro.core.names.ImplicitName` class *below* the minimal
      required targets and a required canonical arrow to it.  Nothing
      is deleted (the annotated closure would resurrect deletions of
      required arrows from their ancestor copies anyway).
    * **optional alternatives** — optional arrows to incomparable
      targets are *alternative typings*; with no required typing in
      play they are replaced by one optional arrow to a generalization
      class ``Gen(M*)`` above the canonical (expanded, maximal-element)
      member set ``M*``; when a required typing exists the conflicting
      optional refinements are simply dropped — a sound weakening for
      a lower bound, since the required typing already covers the
      value.

    All generalization-class specialization edges are re-derived each
    round from *denotation containment* (the union of the members'
    gen-free down-sets): ``p ==> Gen`` when ``p`` lies in the
    denotation, ``Gen ==> p`` when every member specializes ``p``,
    ``Gen1 ==> Gen2`` on strict containment.  New generalization
    classes receive the arrows their members unanimously support, at
    the GLB of their constraints.

    The construction iterates until no violations remain; each round
    either strictly removes optional arrows (which the closure cannot
    resurrect) or adds a class from a finite name space, so it
    terminates.
    """
    current = schema
    for _round in range(1 + 2 ** min(len(schema.classes), 16)):
        violations = lower_properness_violations(current)
        if not violations:
            return current
        base_spec = frozenset(
            (a, b)
            for a, b in current.spec
            if not isinstance(a, GenName) and not isinstance(b, GenName)
        )
        base_classes = frozenset(
            c for c in current.classes if not isinstance(c, GenName)
        )
        table = current.participation_table()
        spec_extra: Set[SpecEdge] = set()
        new_classes = set(current.classes)
        created_this_round: Set[GenName] = set()

        for source, label, minimal in violations:
            reach = current.reach_present(source, label)
            required_targets = frozenset(
                t
                for t in reach
                if table.get((source, label, t)) == Participation.REQUIRED
            )
            required_min = relations.minimal_elements(
                required_targets, current.spec
            )
            if len(required_min) > 1:
                # Intersection constraint: implicit class below.
                intersection = ImplicitName(required_min)
                new_classes.add(intersection)
                for member in required_min:
                    spec_extra.add((intersection, member))
                table[(source, label, intersection)] = Participation.REQUIRED
                continue
            optional_min = [
                m
                for m in minimal
                if table.get((source, label, m)) == Participation.OPTIONAL
            ]
            if required_targets:
                # A required typing covers the value; conflicting
                # optional refinements are dropped (sound weakening).
                for target in optional_min:
                    table.pop((source, label, target), None)
                continue
            # Pure optional conflict: generalize the alternatives up.
            members = _expand_gen_members(minimal, base_spec)
            for target in optional_min:
                table.pop((source, label, target), None)
            if len(members) == 1:
                (canonical,) = members
            else:
                canonical = GenName(members)
                if canonical not in new_classes:
                    created_this_round.add(canonical)
                new_classes.add(canonical)
            table[(source, label, canonical)] = Participation.OPTIONAL

        # Derive every gen-related specialization edge from scratch.
        gens = sorted(
            (c for c in new_classes if isinstance(c, GenName)),
            key=sort_key,
        )
        down = relations.predecessors_map(base_spec)

        def denotation(gen: GenName) -> FrozenSet[ClassName]:
            collected: Set[ClassName] = set()
            for member in gen.members:
                collected.add(member)
                collected.update(down.get(member, ()))
            return frozenset(collected)

        denot = {gen: denotation(gen) for gen in gens}
        new_spec: Set[SpecEdge] = set(base_spec) | spec_extra
        for gen in gens:
            for member in gen.members:
                new_spec.add((member, gen))
            for cls in base_classes:
                if cls in denot[gen]:
                    new_spec.add((cls, gen))
                if all((m, cls) in base_spec for m in gen.members):
                    new_spec.add((gen, cls))
            for other in gens:
                if other != gen and denot[gen] < denot[other]:
                    new_spec.add((gen, other))

        # Arrows the members unanimously support, at the GLB.  Only for
        # generalization classes created in *this* round: re-running the
        # rule for older classes would resurrect exactly the arrows a
        # later violation-replacement removed, and the repair loop would
        # never converge.
        for gen in sorted(created_this_round, key=sort_key):
            member_list = sorted(gen.members, key=sort_key)
            by_member = [
                {(a, t) for (s, a, t) in table if s == m}
                for m in member_list
            ]
            for label, target in set.intersection(*by_member):
                key = (gen, label, target)
                if key not in table:
                    table[key] = glb_all(
                        table[(m, label, target)] for m in member_list
                    )

        current = AnnotatedSchema.build(
            classes=new_classes,
            arrows=[(s, a, t, v) for (s, a, t), v in table.items()],
            spec=new_spec,
        )
    raise NotProperError(
        "lower properization did not converge (pathological input)"
    )
