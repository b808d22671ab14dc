"""Lower merges: greatest lower bounds for federated views (section 6).

A federated system needs a schema every input's instances already
satisfy.  The plain GLB under ``⊑`` loses everything the inputs
disagree on, so the paper annotates arrows with **participation
constraints** (:mod:`repro.core.participation`) and merges pointwise in
Figure 11's order: a required arrow met with an absent one becomes
*optional*.  Here: :class:`AnnotatedSchema`, the order
:func:`annotated_leq` (an absent arrow, constraint ``0``, is
information), :func:`lower_merge` (class completion, then the GLB),
:func:`annotated_meet` (the GLB alone) and :func:`lower_properize`.
The §6 dog example — ages in one source, breeds in another:

>>> one = AnnotatedSchema.build(arrows=[("Dog", "name", "Str"),
...                                     ("Dog", "age", "Int")])
>>> two = AnnotatedSchema.build(arrows=[("Dog", "name", "Str"),
...                                     ("Dog", "breed", "Breed")])
>>> merged = lower_merge(one, two)
>>> [str(merged.participation_of("Dog", a, t))
...  for a, t in [("name", "Str"), ("age", "Int"), ("breed", "Breed")]]
['1', '0/1', '0/1']
>>> [annotated_leq(merged, g) for g in complete_classes([one, two])]
[True, True]
>>> annotated_leq(one, merged)  # age was required in one, is optional now
False

**Representation.**  Required arrows obey W1′/W2′, which are exactly
W1/W2; optional arrows obey W2′ only (a value in ``s`` is in every
``s ==> r``), since a specialization may forbid what its superclass
merely allows.  So an annotated schema is a required
:class:`~repro.core.schema.Schema` (``C``, ``S``, required arrows,
closed by ``Schema.build``, ids in ``sort_key`` order) plus one
optional-only target mask per ``(source_id, label)`` row on its id
table: the OR of ``succ[t]`` over the row's optional targets, minus
the required bits.  A table is closed iff ``succ[t] ⊆ opt | req`` for
each optional ``t``.  The GLB meets the required schemas
(:func:`repro.core.ordering.meet_all`) and ORs the present rows; an
optional bit ``t`` of the result is present in some input, whose
``succ[t]`` holds the result's, so the result is closed.

**Alternative typings.**  A row whose present targets ``C``, ``D``
have no least element records disagreement: the value, when present,
is a ``C`` *or* a ``D``.  :func:`lower_properize` names the
disjunction ``Gen(C, D)`` (:class:`~repro.core.names.GenName`) *above*
its members, populated by the union of their extents
(:func:`repro.instances.lifting.lift_to_lower_properized`), so one
optional arrow to it licenses exactly what the alternatives did.  Two
*required* typings are a conjunction and get an implicit class below
instead.  Member sets are canonical (expanded, maximal), so equal
denotations give one class and the derived order stays antisymmetric.

**Licensing.**  :func:`repro.instances.satisfaction.violations_annotated`
reads absence as "may not", existentially across an object's classes:
a value is licensed when *some* class of the object has a present
arrow whose target extent holds it.  A per-class reading would make
the plain→annotated embedding unsound (a sibling class that never
mentions the label would object) and falsify the §6 claim that the
union of the inputs' instances satisfies the lower merge.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
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
from repro.core.ordering import is_sub, meet_all
from repro.core.participation import Participation, glb_all
from repro.core.proper import _rows_without_least
from repro.core.schema import Arrow, DenseClosure, RowTable, Schema, SpecEdge
from repro.exceptions import (
    NotProperError,
    ParticipationError,
    SchemaValidationError,
)

__all__ = [
    "AnnotatedSchema",
    "annotated_leq",
    "annotated_meet",
    "complete_classes",
    "forbidden_arrow",
    "lower_merge",
    "lower_properize",
    "lower_properness_violations",
]

NameLike = Union[ClassName, str]
AnnotatedArrowLike = Union[
    Tuple[NameLike, Label, NameLike],
    Tuple[NameLike, Label, NameLike, Participation],
]

REQUIRED = Participation.REQUIRED
OPTIONAL = Participation.OPTIONAL


def _moved(
    schema: AnnotatedSchema, rows: RowTable, table: Sequence[ClassName]
) -> RowTable:
    """*rows* on *schema*'s id table moved onto *table*, restricted to
    its classes (the same dict when the tables agree)."""
    dense = schema._required._dense
    return DenseClosure(dense.names, dense.succ, rows).reindexed(table).reach


def _optional_rows(
    schema: Schema, arrows: Iterable[Arrow], up: bool = True
) -> RowTable:
    """*arrows* as rows on *schema*'s id table; with *up*, each target
    brings its generalizations ``succ[t]`` (rule W2′)."""
    ids = schema._id_map()
    succ = schema._dense.succ
    rows: RowTable = {}
    for source, label, target in arrows:
        key = (ids[source], label)
        t = ids[target]
        rows[key] = rows.get(key, 0) | (succ[t] if up else 1 << t)
    return rows


class AnnotatedSchema:
    """A schema whose arrows carry participation constraints.

    Arrows absent from the table have constraint ``0`` (the paper's
    convention); present arrows are ``0/1`` or ``1``.  The structure is
    immutable, closed under the annotated rules, and held as a required
    :class:`~repro.core.schema.Schema` plus optional rows (see the
    module docstring).  The constructor validates a closed table;
    :meth:`build` closes raw input.
    """

    __slots__ = ("_required", "_optional", "_hash")
    _required: Schema
    _optional: RowTable

    def __init__(
        self,
        classes: AbstractSet[ClassName],
        spec: AbstractSet[SpecEdge],
        participation: Mapping[Arrow, Participation],
    ):
        classes = frozenset(classes)
        required: List[Arrow] = []
        optional: List[Arrow] = []
        for arrow, constraint in participation.items():
            source, label, target = arrow
            check_label(label)
            if source not in classes or target not in classes:
                raise SchemaValidationError(
                    f"arrow {source} --{label}--> {target} mentions a class "
                    "outside C"
                )
            if constraint == REQUIRED:
                required.append(arrow)
            elif constraint == OPTIONAL:
                optional.append(arrow)
            else:
                raise ParticipationError(
                    "present arrows must be OPTIONAL or REQUIRED; encode "
                    "constraint 0 by omitting the arrow"
                )
        schema = Schema(classes, frozenset(required), frozenset(spec))
        closed = AnnotatedSchema._make(schema, _optional_rows(schema, optional))
        if closed._optional != _optional_rows(schema, optional, up=False):
            raise SchemaValidationError(
                "participation table is not closed under the annotated W2' "
                "rule (an optional arrow lacks a target's generalization); "
                "use AnnotatedSchema.build"
            )
        object.__setattr__(self, "_required", schema)
        object.__setattr__(self, "_optional", closed._optional)

    @classmethod
    def _make(cls, required: Schema, optional: RowTable) -> "AnnotatedSchema":
        """Internal: *required* (ids in ``sort_key`` order) plus W2′-closed
        *optional* rows on its table, with the required bits masked off."""
        reach = required._dense.reach
        rows: RowTable = {}
        for key, mask in optional.items():
            mask &= ~reach.get(key, 0)
            if mask:
                rows[key] = mask
        instance = object.__new__(cls)
        object.__setattr__(instance, "_required", required)
        object.__setattr__(instance, "_optional", rows)
        return instance

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
        ``(source, label, target, participation)``.  The required
        arrows close through ``Schema.build`` (a specialization cycle
        raises :class:`~repro.exceptions.IncompatibleSchemasError`), and
        each optional row ORs the up-sets of its targets.
        """
        class_set: Set[ClassName] = set(names(classes))
        required: List[Arrow] = []
        optional: List[Arrow] = []
        for entry in arrows:
            if len(entry) == 3:
                source, label, target = entry  # type: ignore[misc]
                constraint = REQUIRED
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
            (required if constraint == REQUIRED else optional).append(arrow)
        schema = Schema.build(classes=class_set, arrows=required, spec=spec)
        return cls._make(schema, _optional_rows(schema, optional))

    @classmethod
    def from_schema(
        cls,
        schema: Schema,
        default: Participation = Participation.REQUIRED,
    ) -> "AnnotatedSchema":
        """Embed a plain schema: every arrow gets constraint *default*.

        With the default ``REQUIRED`` this matches the paper's reading
        of plain arrows ("any instance of the class p must have an
        a-attribute").  With ``OPTIONAL`` the schema's rows, already
        W2-closed, become the optional rows over its bare order.
        """
        if isinstance(default, str):
            default = Participation.parse(default)
        if default == Participation.ABSENT:
            raise ParticipationError("cannot embed arrows at constraint 0")
        dense = schema._dense.reindexed(sorted(schema.classes, key=sort_key))
        if default == REQUIRED:
            return cls._make(Schema._from_dense(dense), {})
        bare = DenseClosure(dense.names, dense.succ, {})
        return cls._make(Schema._from_dense(bare), dense.reach)

    @classmethod
    def empty(cls) -> "AnnotatedSchema":
        """The annotated schema with no classes."""
        return cls._make(Schema.empty(), {})

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def classes(self) -> FrozenSet[ClassName]:
        """The class set ``C``."""
        return self._required.classes

    @property
    def spec(self) -> FrozenSet[SpecEdge]:
        """The specialization partial order (reflexive & transitive)."""
        return self._required.spec

    def __setattr__(self, key, val):  # pragma: no cover - immutability guard
        raise AttributeError("AnnotatedSchema is immutable")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, AnnotatedSchema):
            return NotImplemented
        # Both id tables are canonical, so equal values have equal rows.
        return (
            self._required == other._required
            and self._optional == other._optional
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self._required, frozenset(self._optional.items())))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        required = self._required._arrow_count()
        optional = sum(mask.bit_count() for mask in self._optional.values())
        return (
            f"AnnotatedSchema(|C|={len(self.classes)}, "
            f"|E|={required + optional} "
            f"({required} required), |S|={self._required._spec_count()})"
        )

    def participation_of(
        self, source: NameLike, label: Label, target: NameLike
    ) -> Participation:
        """The constraint on an arrow (``ABSENT`` when not present)."""
        ids = self._required._id_map()
        src, t = ids.get(name(source)), ids.get(name(target))
        if src is not None and t is not None:
            if self._required._dense.reach.get((src, label), 0) >> t & 1:
                return REQUIRED
            if self._optional.get((src, label), 0) >> t & 1:
                return OPTIONAL
        return Participation.ABSENT

    def present_arrows(self) -> FrozenSet[Arrow]:
        """Arrows with constraint ``0/1`` or ``1``."""
        return self.required_arrows() | self.optional_arrows()

    def required_arrows(self) -> FrozenSet[Arrow]:
        """Arrows with constraint ``1``."""
        return self._required.arrows

    def optional_arrows(self) -> FrozenSet[Arrow]:
        """Arrows with constraint ``0/1``."""
        table = self._required._dense.names
        return frozenset(
            (table[src], label, table[t])
            for (src, label), mask in self._optional.items()
            for t in relations.iter_bits(mask)
        )

    def participation_table(self) -> Dict[Arrow, Participation]:
        """A copy of the full arrow-constraint table."""
        table = dict.fromkeys(self.optional_arrows(), OPTIONAL)
        table.update(dict.fromkeys(self.required_arrows(), REQUIRED))
        return table

    def reach_present(self, cls: NameLike, label: Label) -> FrozenSet[ClassName]:
        """All present targets of ``cls``'s *label*-arrows."""
        src = self._required._id_map().get(name(cls))
        if src is None:
            return frozenset()
        mask = self._required._dense.reach.get((src, label), 0)
        mask |= self._optional.get((src, label), 0)
        table = self._required._dense.names
        return frozenset(table[t] for t in relations.iter_bits(mask))

    def labels(self) -> FrozenSet[Label]:
        """Every label on a present arrow."""
        return self._required.labels() | {label for _src, label in self._optional}

    def is_spec(self, sub: NameLike, sup: NameLike) -> bool:
        """Does ``sub ==> sup`` hold?"""
        return self._required.is_spec(sub, sup)

    def required_schema(self) -> Schema:
        """The plain weak schema of required arrows.

        Required arrows propagate exactly like weak-schema arrows, so
        this projection is always a valid :class:`Schema`.
        """
        return self._required

    def min_classes(self, subset: Iterable[NameLike]) -> FrozenSet[ClassName]:
        """``MinS(X)`` relative to this schema's specialization order."""
        return self._required.min_classes(subset)

    def with_classes(self, extra: Iterable[NameLike]) -> "AnnotatedSchema":
        """Add isolated classes (the section 6 completion step)."""
        additions = names(extra) - self.classes
        if not additions:
            return self
        order = tuple(sorted(self.classes | additions, key=sort_key))
        return AnnotatedSchema._make(
            Schema._from_dense(self._required._dense.reindexed(order)),
            _moved(self, self._optional, order),
        )


def forbidden_arrow(
    left: AnnotatedSchema, right: AnnotatedSchema
) -> Optional[Tuple[Arrow, Participation]]:
    """The first arrow *right* holds between *left*'s classes that *left*
    forbids, with *right*'s constraint on it; ``None`` when there is none.

    *left* says ``0`` about every arrow it lacks between its own
    classes, and ``0`` is maximal in Figure 11's order, so each such
    arrow that *right* holds present breaks ``left ⊑ right``.  *right*'s
    rows move onto *left*'s id table, which drops every bit outside
    *left*'s classes, and each is tested against *left*'s present row.
    """
    mine = left._required._dense
    for rows, constraint in (
        (right._required._dense.reach, REQUIRED),
        (right._optional, OPTIONAL),
    ):
        for key, mask in _moved(right, rows, mine.names).items():
            extra = mask & ~(mine.reach.get(key, 0) | left._optional.get(key, 0))
            if extra:
                src, label = key
                t = (extra & -extra).bit_length() - 1
                return (mine.names[src], label, mine.names[t]), constraint
    return None


def annotated_leq(left: AnnotatedSchema, right: AnnotatedSchema) -> bool:
    """The refined information ordering of section 6.

    ``left ⊑ right`` iff ``C_left ⊆ C_right``, ``S_left ⊆ S_right`` and
    for every arrow over *left*'s classes the participation constraints
    satisfy ``K_left(e) ≤ K_right(e)`` in the Figure 11 order — where an
    arrow absent over known classes means constraint ``0``, which is
    maximal information, not ignorance.  ``0/1`` is below everything,
    so that is ``is_sub`` on the required schemas plus
    :func:`forbidden_arrow` finding nothing.
    """
    if left is right:
        return True
    return (
        is_sub(left._required, right._required)
        and forbidden_arrow(left, right) is None
    )


def annotated_meet(*schemas: AnnotatedSchema) -> AnnotatedSchema:
    """The greatest lower bound under :func:`annotated_leq` — *without*
    the class completion of section 6's lower merge.

    Shared classes and specializations, and per arrow between them the
    GLB in Figure 11's order (``glb(1, 1) = 1``, any other mix of
    present and absent ``0/1``): the required parts meet and the
    present rows OR.  :func:`lower_merge` is this meet after completing
    each input with the others' classes.
    """
    required = meet_all(schema._required for schema in schemas)
    table = required._dense.names
    present: RowTable = {}
    for schema in schemas:
        for rows in (schema._required._dense.reach, schema._optional):
            for key, mask in _moved(schema, rows, table).items():
                present[key] = present.get(key, 0) | mask
    return AnnotatedSchema._make(required, present)


def complete_classes(schemas: Sequence[AnnotatedSchema]) -> List[AnnotatedSchema]:
    """Give every schema the union class set (section 6's preparation).

    Foreign classes arrive isolated: no schema adopts another's
    specialization edges.
    """
    all_classes: Set[ClassName] = set()
    for schema in schemas:
        all_classes |= schema.classes
    return [schema.with_classes(all_classes) for schema in schemas]


def lower_merge(*schemas: AnnotatedSchema) -> AnnotatedSchema:
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
    return annotated_meet(*complete_classes(list(schemas)))


def lower_properness_violations(
    schema: AnnotatedSchema,
) -> List[Tuple[ClassName, Label, FrozenSet[ClassName]]]:
    """Arrow bundles with no least present target — the lower analogue
    of :func:`repro.core.proper.properness_violations`.

    A present row ``required | optional`` is W2/W2′-closed, so the
    least-target test of plain rows applies to it unchanged.
    """
    dense = schema._required._dense
    rows = dict(dense.reach)
    for key, mask in schema._optional.items():
        rows[key] = rows.get(key, 0) | mask
    return [
        (source, label, schema.min_classes(schema.reach_present(source, label)))
        for source, label in _rows_without_least(dense, rows)
    ]


def _expand_gen_members(
    alternatives: FrozenSet[ClassName], order: Schema
) -> FrozenSet[ClassName]:
    """Canonical member set for a generalization of *alternatives*.

    Nested generalization classes are expanded into their members and
    the result is reduced to its maximal elements under *order* (the
    expansion holds no generalization class, so this is the gen-free
    part of the specialization order).  Two alternative sets with the
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
    return frozenset(
        cls
        for cls in expanded
        if not (order.generalizations_of(cls) - {cls}) & expanded
    )


def lower_properize(schema: AnnotatedSchema) -> AnnotatedSchema:
    """Repair canonicality by generalizing conflicting targets upward.

    Our formalization of the paper's sketch (section 6; "Alternative
    typings" in the module docstring): every ``(p, a)`` whose present
    targets have no least element is repaired, round by round, until
    every present reach set has one.

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
        order = current.required_schema()
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
            required_min = current.min_classes(required_targets)
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
            members = _expand_gen_members(minimal, order)
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

        def denotation(gen: GenName) -> FrozenSet[ClassName]:
            collected: Set[ClassName] = set()
            for member in gen.members:
                collected.add(member)
                collected.update(
                    p
                    for p in order.specializations_of(member)
                    if not isinstance(p, GenName)
                )
            return frozenset(collected)

        denot = {gen: denotation(gen) for gen in gens}
        new_spec: Set[SpecEdge] = set(base_spec) | spec_extra
        for gen in gens:
            for member in gen.members:
                new_spec.add((member, gen))
            for cls in base_classes:
                if cls in denot[gen]:
                    new_spec.add((cls, gen))
                if all(order.is_spec(m, cls) for m in gen.members):
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
