"""Weak schemas — the central data structure of the reproduction.

Section 4.1 of the paper defines a *weak schema* over ``N, L`` as a
triple ``(C, E, S)`` where

* ``C ⊆ N`` is a finite set of classes,
* ``S`` is a partial order on ``C`` (reflexive, transitive,
  antisymmetric) — the *specialization* relation, written ``p ==> q``,
* ``E ⊆ C × L × C`` is the *arrow* relation, written ``p --a--> q``,
  satisfying the two closure conditions

  * **W1** if ``p ==> q`` and ``q --a--> r`` then ``p --a--> r``
    (arrows are inherited by specializations), and
  * **W2** if ``p --a--> s`` and ``s ==> r`` then ``p --a--> r``
    (arrows to a class also reach its generalizations).

:class:`Schema` represents exactly this, as an immutable, structurally
hashable value.  Its *constructor* validates that the given triple
already is a weak schema; the far more convenient classmethod
:meth:`Schema.build` accepts un-closed user input (strings for names,
missing reflexive edges, un-inherited arrows) and computes the closures,
which is how every example in the paper is written down.

Internally a schema is one :class:`DenseClosure`: the classes as a
dense id table, ``S`` as one up-set bitmask per class and ``E`` as one
target bitmask per ``(source, label)`` row.  Order questions (up- and
down-sets, ``MinS``, covers, restriction) and arrow questions
(``R(p, a)``, ``R(X, a)``, arrows from or into a class) read those
masks directly; only :attr:`Schema.arrows` and :attr:`Schema.spec`
decode them into name-level relations, on first use.

Proper schemas (section 2) are weak schemas satisfying an extra
canonicality condition; see :mod:`repro.core.proper`.

>>> from repro.core.schema import Schema
>>> g = Schema.build(arrows=[("Employee", "salary", "Int")],
...                  spec=[("Manager", "Employee")])
>>> g.has_arrow("Manager", "salary", "Int")  # W1: arrows are inherited
True
>>> sorted(str(c) for c in g.specializations_of("Employee"))
['Employee', 'Manager']
>>> g == Schema.build(arrows=[("Employee", "salary", "Int"),
...                           ("Manager", "salary", "Int")],
...                   spec=[("Manager", "Employee")])  # same closure
True
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - the engine imports this module
    from repro.perf.closure import ClosureBuilder

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
from repro.exceptions import SchemaValidationError
from repro.perf.interning import InternTable

__all__ = ["Arrow", "SpecEdge", "Schema", "DenseClosure", "Foldable"]


Arrow = Tuple[ClassName, Label, ClassName]
SpecEdge = Tuple[ClassName, ClassName]

NameLike = Union[ClassName, str]
ArrowLike = Tuple[NameLike, Label, NameLike]
SpecLike = Tuple[NameLike, NameLike]

#: Closed arrow rows on dense ids: ``(source_id, label) → bitset of
#: target ids`` — the arrow relation as :class:`DenseClosure` holds it.
RowTable = Dict[Tuple[int, Label], int]

#: A generating view as positions into its id table (see
#: :meth:`Schema._fold_layout`): the table, the spec groups
#: ``(sub, first_sup, rest)`` and the arrow rows
#: ``(source, label, first_target, rest)``.
FoldLayout = Tuple[
    Tuple[ClassName, ...],
    Tuple[Tuple[int, int, Optional[Tuple[int, ...]]], ...],
    Tuple[Tuple[int, Label, int, Optional[Tuple[int, ...]]], ...],
]


class Foldable(Protocol):
    """What :meth:`ClosureBuilder.add_schemas
    <repro.perf.closure.ClosureBuilder.add_schemas>` folds: a class set
    and a generating layout of it.  A :class:`Schema` is one; so is a
    schema document's generator form
    (:class:`repro.io.json_io.SchemaGenerators`), which is not closed.
    """

    @property
    def classes(self) -> FrozenSet[ClassName]: ...

    def _fold_layout(self) -> FoldLayout: ...


# Hash-consing table (see repro.perf).  Every schema is interned on its
# masks, so structurally equal schemas built from name-level data are
# pointer-equal and repeated constructions of the same value skip
# validation entirely.
_SCHEMA_INTERN = InternTable("schema.schemas", maxsize=4096)


def _coerce_arrow(edge: ArrowLike) -> Arrow:
    try:
        source, label, target = edge
    except (TypeError, ValueError) as exc:
        raise SchemaValidationError(
            f"arrows must be (source, label, target) triples, got {edge!r}"
        ) from exc
    return (name(source), check_label(label), name(target))


def _coerce_spec(edge: SpecLike) -> SpecEdge:
    try:
        sub, sup = edge
    except (TypeError, ValueError) as exc:
        raise SchemaValidationError(
            f"specializations must be (sub, super) pairs, got {edge!r}"
        ) from exc
    return (name(sub), name(sup))


def _builder_of(dense: "DenseClosure") -> "ClosureBuilder":
    """*dense* revived as a closure builder, to extend or re-close it."""
    from repro.perf.closure import ClosureBuilder  # imports this module

    return ClosureBuilder.from_dense(dense)


class DenseClosure:
    """A closed weak schema on dense ids — the representation of :class:`Schema`.

    *names* is the id table (position = dense id), *succ* the
    reflexive-transitive specialization closure (``succ[i]`` bit *j*
    set ⇔ ``i ==> j``), *reach* the W1/W2-closed arrow rows keyed on
    ``(source_id, label)`` — the paper's ``R(p, a)`` as one mask.  Every
    relation is integers, so a snapshot encoder writes each name exactly
    once and never walks a schema object graph (``repro.io.json_io``),
    and a ``Schema`` answers its queries on the masks.

    >>> from repro.perf.closure import ClosureBuilder
    >>> state = (ClosureBuilder().add_spec_edge("Puppy", "Dog")
    ...          .add_arrow("Dog", "owner", "Person").dense_state())
    >>> len(state.names), state.to_schema().has_arrow("Puppy", "owner", "Person")
    (3, True)
    """

    __slots__ = ("names", "succ", "reach")

    def __init__(
        self,
        names: Tuple[ClassName, ...],
        succ: Tuple[int, ...],
        reach: RowTable,
    ) -> None:
        self.names = names  # frozen-after-init
        self.succ = succ  # frozen-after-init
        self.reach = reach  # frozen-after-init

    def validate(self) -> None:
        """Check the weak-schema invariants; raise :class:`ValueError` if broken.

        Used on untrusted input: the snapshot decoder and the validating
        :class:`Schema` constructor.  Every check runs on masks: id
        ranges, reflexivity, transitivity and antisymmetry per node and
        reachable pair, and W1/W2-closedness by re-sweeping through
        the closure engine (the sweep is idempotent on closed rows, so
        closed input must re-sweep to itself).
        """
        names = self.names
        succ = self.succ
        n = len(names)
        if len(succ) != n:
            raise ValueError("succ table length differs from the id table")
        full = (1 << n) - 1
        for i, mask in enumerate(succ):
            if mask & ~full:
                raise ValueError(f"succ[{i}] references ids outside the table")
        for (src, label), tmask in self.reach.items():
            if not 0 <= src < n or tmask & ~full or not tmask:
                raise ValueError(
                    f"arrow row ({src}, {label!r}) references ids outside "
                    "the table or is empty"
                )
        for i, mask in enumerate(succ):
            if not (mask >> i) & 1:
                raise ValueError(
                    "specialization relation is not reflexive over C; "
                    f"missing {names[i]} ==> {names[i]}"
                )
        for i, mask in enumerate(succ):
            for j in relations.iter_bits(mask):
                lost = succ[j] & ~mask
                if lost:
                    k = lost.bit_length() - 1
                    raise ValueError(
                        "specialization relation is not transitive; "
                        f"{names[i]} ==> {names[j]} ==> {names[k]} but not "
                        f"{names[i]} ==> {names[k]}"
                    )
                if i != j and (succ[j] >> i) & 1:
                    raise ValueError(
                        "specialization relation is not antisymmetric; "
                        f"cycle: {names[i]} ==> {names[j]} ==> {names[i]}"
                    )
        swept = _builder_of(self).dense_state().reach
        if swept != self.reach:
            missing = sorted(
                (sort_key(names[src]), label, sort_key(names[t]), src, t)
                for (src, label), up in swept.items()
                for t in relations.iter_bits(up & ~self.reach.get((src, label), 0))
            )[:3]
            pretty = ", ".join(
                f"{names[src]} --{label}--> {names[t]}"
                for _s, label, _t, src, t in missing
            )
            raise ValueError(
                f"arrow relation is not W1/W2-closed; missing e.g. {pretty}"
            )

    def reindexed(self, names: Sequence[ClassName]) -> "DenseClosure":
        """The same closure over the id table *names*.

        Classes outside *names* drop out with their bits and rows, and
        classes new to *names* come in isolated; both keep a closed
        value closed (a restricted partial order is one, and W1/W2 are
        implications over present edges).
        """
        if tuple(names) == self.names:
            return self
        pos = {cls: k for k, cls in enumerate(names)}
        perm = [pos.get(cls) for cls in self.names]
        bits = [0 if k is None else 1 << k for k in perm]
        moved: Dict[int, int] = {}

        def move(mask: int) -> int:
            out = moved.get(mask)
            if out is None:
                out = 0
                for i in relations.iter_bits(mask):
                    out |= bits[i]
                moved[mask] = out
            return out

        succ = [1 << k for k in range(len(pos))]
        for i, mask in enumerate(self.succ):
            if perm[i] is not None:
                succ[perm[i]] = move(mask)
        reach: RowTable = {}
        for (src, label), tmask in self.reach.items():
            k, up = perm[src], move(tmask)
            if k is not None and up:
                reach[(k, label)] = up
        return DenseClosure(tuple(names), tuple(succ), reach)

    def decode_spec(self) -> FrozenSet[SpecEdge]:
        """The name-level specialization closure of the ``succ`` table."""
        names = self.names
        rows_memo: Dict[int, Tuple[ClassName, ...]] = {}
        spec: Set[SpecEdge] = set()
        for i, mask in enumerate(self.succ):
            ups = rows_memo.get(mask)
            if ups is None:
                ups = rows_memo[mask] = tuple(
                    names[j] for j in relations.iter_bits(mask)
                )
            sub = names[i]
            for sup in ups:
                spec.add((sub, sup))
        return frozenset(spec)

    def to_schema(self) -> "Schema":
        """This closure as an (interned) :class:`Schema`."""
        return Schema._from_dense(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DenseClosure):
            return NotImplemented
        return (
            self.names == other.names
            and self.succ == other.succ
            and self.reach == other.reach
        )

    def __hash__(self) -> int:
        return hash((self.names, self.succ))

    def __repr__(self) -> str:
        return (
            f"DenseClosure(classes={len(self.names)}, "
            f"rows={len(self.reach)})"
        )


def _encode(
    classes: Iterable[ClassName],
    arrows: Iterable[Arrow],
    spec: Iterable[SpecEdge],
) -> DenseClosure:
    """Name-level components as masks, ids in ``sort_key`` order — no closing.

    The canonical id order makes the encoding a function of the value:
    equal triples encode to identical masks, hence one intern key.
    """
    order = tuple(sorted(frozenset(classes), key=sort_key))
    pos = {cls: k for k, cls in enumerate(order)}
    succ = [0] * len(order)
    for sub, sup in spec:
        i, j = pos.get(sub), pos.get(sup)
        if i is None or j is None:
            raise SchemaValidationError(
                f"specialization {sub} ==> {sup} mentions a class outside C"
            )
        succ[i] |= 1 << j
    reach: RowTable = {}
    for source, label, target in arrows:
        i, j = pos.get(source), pos.get(target)
        if i is None or j is None:
            raise SchemaValidationError(
                f"arrow {source} --{label}--> {target} mentions a class "
                "outside C"
            )
        key = (i, label)
        reach[key] = reach.get(key, 0) | 1 << j
    return DenseClosure(order, tuple(succ), reach)


class Schema:
    """An immutable weak schema ``(C, E, S)``.

    Use :meth:`Schema.build` to construct one from raw, un-closed data;
    the plain constructor insists the input is already a valid weak
    schema and raises :class:`~repro.exceptions.SchemaValidationError`
    otherwise.

    Every schema is one :class:`DenseClosure`, and every query reads
    its masks; the name-level relations :attr:`arrows` and :attr:`spec`
    are views decoded from it on first use.  Equality and hashing are
    structural, so two independently built schemas with the same
    classes, arrows and specializations compare equal — which is what lets the test
    suite assert "our merge equals the paper's figure" directly.
    """

    __slots__ = (
        "_classes",
        "_dense",
        "_hash",
        "_arrows",
        "_spec",
        "_layout",
        "_ids",
    )
    _classes: FrozenSet[ClassName]
    _dense: DenseClosure

    def __new__(
        cls,
        classes: AbstractSet[ClassName],
        arrows: AbstractSet[Arrow],
        spec: AbstractSet[SpecEdge],
    ):
        # Construction (validation, interning) happens in __new__ so the
        # intern table can return the canonical instance.
        return cls._from_dense(_encode(classes, arrows, spec), validate=True)

    @classmethod
    def _from_closed(
        cls,
        classes: AbstractSet[ClassName],
        arrows: AbstractSet[Arrow],
        spec: AbstractSet[SpecEdge],
    ) -> "Schema":
        """Internal: wrap name-level components already known to be closed.

        Encodes them into masks without closing or validating them.
        Library-internal only; every public path still validates.
        """
        return cls._from_dense(_encode(classes, arrows, spec))

    @classmethod
    def _from_dense(
        cls, dense: DenseClosure, validate: bool = False
    ) -> "Schema":
        """The schema represented by *dense* — interned on its masks.

        An equal key was validated when first seen, so a hit skips
        validation entirely.  *validate* maps the dense checks onto
        :class:`~repro.exceptions.SchemaValidationError`.
        """
        key = (dense.names, dense.succ, frozenset(dense.reach.items()))
        cached = _SCHEMA_INTERN.get(key)
        if cached is not None:
            return cached
        if validate:
            for label in {label for _src, label in dense.reach}:
                check_label(label)
            try:
                dense.validate()
            except ValueError as exc:
                raise SchemaValidationError(str(exc)) from None
        instance = object.__new__(cls)
        object.__setattr__(instance, "_classes", frozenset(dense.names))
        object.__setattr__(instance, "_dense", dense)
        return _SCHEMA_INTERN.put(key, instance)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        classes: Iterable[NameLike] = (),
        arrows: Iterable[ArrowLike] = (),
        spec: Iterable[SpecLike] = (),
    ) -> "Schema":
        """Build a weak schema from raw data, computing all closures.

        * strings are accepted wherever class names are expected;
        * classes mentioned only in edges are added to ``C``;
        * the specialization relation is closed reflexively and
          transitively (raising
          :class:`~repro.exceptions.IncompatibleSchemasError` if that
          closure has a non-trivial cycle);
        * the arrow relation is closed under W1/W2.

        This mirrors how the paper draws schemas: "edges in E implied by
        constraint 2 will be omitted" — the reader (here: the builder)
        restores them.  The closure is one
        :class:`~repro.perf.closure.ClosureBuilder` sweep with ids in
        canonical ``sort_key`` order, so equal inputs intern as one
        object.
        """
        from repro.perf.closure import ClosureBuilder  # imports this module

        class_set = set(names(classes))
        arrow_list = [_coerce_arrow(edge) for edge in arrows]
        spec_list = [_coerce_spec(edge) for edge in spec]
        for source, _label, target in arrow_list:
            class_set.add(source)
            class_set.add(target)
        for sub, sup in spec_list:
            class_set.add(sub)
            class_set.add(sup)
        order = sorted(class_set, key=sort_key)
        return cls._from_dense(ClosureBuilder.close(order, arrow_list, spec_list))

    @classmethod
    def empty(cls) -> "Schema":
        """The schema with no classes — the bottom of the information order."""
        return cls(frozenset(), frozenset(), frozenset())

    # ------------------------------------------------------------------
    # Primitive accessors
    # ------------------------------------------------------------------

    @property
    def classes(self) -> FrozenSet[ClassName]:
        """The class set ``C``."""
        return self._classes

    @property
    def arrows(self) -> FrozenSet[Arrow]:
        """The full (W1/W2-closed) arrow relation ``E``, decoded on first use."""
        try:
            return self._arrows
        except AttributeError:
            table = self._dense.names
            arrows = frozenset(
                (table[src], label, table[t])
                for (src, label), tmask in self._dense.reach.items()
                for t in relations.iter_bits(tmask)
            )
            object.__setattr__(self, "_arrows", arrows)
            return arrows

    def _arrow_count(self) -> int:
        """``|E|`` without decoding."""
        return sum(mask.bit_count() for mask in self._dense.reach.values())

    def _spec_count(self) -> int:
        """``|S|`` without decoding."""
        return sum(mask.bit_count() for mask in self._dense.succ)

    @property
    def spec(self) -> FrozenSet[SpecEdge]:
        """The specialization partial order ``S`` (reflexive & transitive)."""
        try:
            return self._spec
        except AttributeError:
            spec = self._dense.decode_spec()
            object.__setattr__(self, "_spec", spec)
            return spec

    def __setattr__(self, key, val):  # pragma: no cover - immutability guard
        raise AttributeError("Schema is immutable")

    def __eq__(self, other) -> bool:
        if self is other:
            # Interning makes this the common case for equal schemas.
            return True
        if not isinstance(other, Schema):
            return NotImplemented
        if self._classes != other._classes:
            return False
        mine, theirs = self._dense, other._dense
        if mine.names != theirs.names:
            theirs = theirs.reindexed(mine.names)
        return mine.succ == theirs.succ and mine.reach == theirs.reach

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            # Independent of the id order, like equality: per-row target
            # counts stand in for the target sets.
            dense = self._dense
            names = dense.names
            h = hash(
                (
                    self._classes,
                    self._spec_count(),
                    frozenset(
                        (names[src], label, tmask.bit_count())
                        for (src, label), tmask in dense.reach.items()
                    ),
                )
            )
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        return (
            f"Schema(|C|={len(self._classes)}, |E|={self._arrow_count()}, "
            f"|S|={self._spec_count()})"
        )

    def __contains__(self, cls: NameLike) -> bool:
        return name(cls) in self._classes

    def __len__(self) -> int:
        return len(self._classes)

    def __iter__(self) -> Iterator[ClassName]:
        return iter(sorted(self._classes, key=sort_key))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def has_class(self, cls: NameLike) -> bool:
        """Is *cls* a class of this schema?"""
        return name(cls) in self._classes

    def has_arrow(self, source: NameLike, label: Label, target: NameLike) -> bool:
        """Does ``source --label--> target`` hold (in the closed relation)?"""
        ids = self._id_map()
        j = ids.get(name(target))
        row = self._dense.reach.get((ids.get(name(source)), label), 0)
        return j is not None and bool(row >> j & 1)

    def is_spec(self, sub: NameLike, sup: NameLike) -> bool:
        """Does ``sub ==> sup`` hold?"""
        ids = self._id_map()
        i, j = ids.get(name(sub)), ids.get(name(sup))
        return i is not None and j is not None and bool(self._dense.succ[i] >> j & 1)

    def strict_spec(self) -> FrozenSet[SpecEdge]:
        """The specialization pairs with distinct endpoints."""
        return frozenset((p, q) for p, q in self.spec if p != q)

    def _fold_layout(self) -> FoldLayout:
        """A *generating* view of the schema as positions into its id table.

        ``ClosureBuilder`` folds schemas repeatedly; resolving each
        class name to a builder id once per schema (via the *order*
        tuple) and then walking spec covers and reach rows as plain
        index tuples keeps name hashing out of the per-element hot
        loops entirely.  Because a schema's own ``S`` and rows are
        already W1/W2-closed, the fold does not need all of them: any
        generating subset yields the identical union closure (closing
        is monotone and idempotent, so ``close(∪ Eᵢ) = close(∪ Gᵢ)``
        whenever ``close(Gᵢ) = Eᵢ``).  Three parts, all read off the
        masks: *order* (the id table), the Hasse *covers* grouped per
        subclass as ``(sub_pos, first_sup_pos, rest)``, superclasses
        first (transitive and reflexive pairs are regenerated by the
        builder's rectangle updates), and the *generator* rows as flat
        ``(source_pos, label, first_target_pos, rest)`` quads — per row
        only the minimal targets not already inherited from an
        immediate superclass's row, since W2 restores the upward target
        closure and W1 the downward source copies.  Cover groups and
        generator rows are overwhelmingly singular, so the first
        position rides unwrapped and *rest* is ``None`` unless the
        entry genuinely holds more.  Populated on first use — derived
        data over an immutable value.
        """
        try:
            return self._layout
        except AttributeError:
            pass
        dense = self._dense
        succ = dense.succ
        reach = dense.reach
        iter_bits = relations.iter_bits
        parents: List[int] = []
        for i, mask in enumerate(succ):
            ups = mask ^ (1 << i)
            above = 0
            for j in iter_bits(ups):
                above |= succ[j] ^ (1 << j)
            parents.append(ups & ~above)
        groups = []
        for i in sorted(range(len(succ)), key=lambda k: succ[k].bit_count()):
            sups = list(iter_bits(parents[i]))
            if sups:
                groups.append((i, sups[0], tuple(sups[1:]) or None))
        rows = []
        for (src, label), tmask in reach.items():
            inherited = 0
            for p in iter_bits(parents[src]):
                inherited |= reach.get((p, label), 0)
            extra = tmask & ~inherited
            if not extra:
                continue
            above = 0
            for t in iter_bits(extra):
                above |= succ[t] ^ (1 << t)
            gen = list(iter_bits(extra & ~above))
            rows.append((src, label, gen[0], tuple(gen[1:]) or None))
        layout = (dense.names, tuple(groups), tuple(rows))
        object.__setattr__(self, "_layout", layout)
        return layout

    def spec_covers(self) -> FrozenSet[SpecEdge]:
        """The Hasse edges of ``S`` — what the paper's figures draw.

        Decoded from the cover groups of :meth:`_fold_layout`, so
        rendering and folding share one cover computation.
        """
        table, groups, _rows = self._fold_layout()
        return frozenset(
            (table[i], table[j])
            for i, first, rest in groups
            for j in (first, *(rest or ()))
        )

    def labels(self) -> FrozenSet[Label]:
        """Every arrow label used in the schema."""
        return frozenset(label for _src, label in self._dense.reach)

    def _id_map(self) -> Dict[ClassName, int]:
        """Class → dense id in this schema's table, built on first use."""
        try:
            return self._ids
        except AttributeError:
            ids = {cls: k for k, cls in enumerate(self._dense.names)}
            object.__setattr__(self, "_ids", ids)
            return ids

    def out_labels(self, cls: NameLike) -> FrozenSet[Label]:
        """Labels of arrows leaving *cls* — the candidate key components of §5."""
        i = self._id_map().get(name(cls))
        return frozenset(label for src, label in self._dense.reach if src == i)

    def arrows_from(self, cls: NameLike) -> FrozenSet[Arrow]:
        """All arrows whose source is *cls*."""
        p = name(cls)
        return frozenset(
            (p, label, t) for label in self.out_labels(p) for t in self.reach(p, label)
        )

    def own_arrows(self) -> Tuple[Arrow, ...]:
        """The arrows the text format and figures draw, in canonical order.

        For each class (in :meth:`sorted_classes` order) and each of its
        labels (sorted), the arrows to the row's minimal targets that no
        strict generalization's row of that label holds; W1/W2
        regenerate every other arrow.  Rows are grouped by source once
        and the generalizations' rows ORed per label, so no class scans
        the whole relation.
        """
        dense = self._dense
        succ = dense.succ
        by_source: Dict[int, Dict[Label, int]] = {}
        for (src, label), tmask in dense.reach.items():
            by_source.setdefault(src, {})[label] = tmask
        ids = self._id_map()
        out: List[Arrow] = []
        for cls in self.sorted_classes():
            i = ids[cls]
            rows = by_source.get(i)
            if rows is None:
                continue
            inherited: Dict[Label, int] = {}
            for j in relations.iter_bits(succ[i] ^ (1 << i)):
                for label, tmask in by_source.get(j, {}).items():
                    inherited[label] = inherited.get(label, 0) | tmask
            for label in sorted(rows):
                mask = rows[label]
                above = 0
                for t in relations.iter_bits(mask):
                    above |= succ[t] ^ (1 << t)
                drawn = mask & ~above & ~inherited.get(label, 0)
                out.extend(
                    (cls, label, target)
                    for target in sorted(self._names_of(drawn), key=sort_key)
                )
        return tuple(out)

    def arrows_into(self, cls: NameLike) -> FrozenSet[Arrow]:
        """All arrows whose target is *cls*: bit ``j`` of each row."""
        q = name(cls)
        j = self._id_map().get(q)
        if j is None:
            return frozenset()
        table = self._dense.names
        return frozenset(
            (table[src], label, q)
            for (src, label), tmask in self._dense.reach.items()
            if tmask >> j & 1
        )

    def reach(self, cls: NameLike, label: Label) -> FrozenSet[ClassName]:
        """The paper's ``R(p, a)``: all classes reachable from *cls* by *label*."""
        i = self._id_map().get(name(cls))
        return self._names_of(self._dense.reach.get((i, label), 0))

    def reach_set(
        self, subset: Iterable[NameLike], label: Label
    ) -> FrozenSet[ClassName]:
        """The paper's ``R(X, a)``: the OR of the rows ``R(p, a)``, ``p ∈ X``."""
        ids = self._id_map()
        rows = self._dense.reach
        mask = 0
        for member in names(subset):
            mask |= rows.get((ids.get(member), label), 0)
        return self._names_of(mask)

    def _names_of(self, mask: int) -> FrozenSet[ClassName]:
        """The classes whose ids are set in *mask*."""
        table = self._dense.names
        return frozenset(table[i] for i in relations.iter_bits(mask))

    def min_classes(self, subset: Iterable[NameLike]) -> FrozenSet[ClassName]:
        """The paper's ``MinS(X)`` relative to this schema's order.

        ``X & ~OR(strict up-sets in X)`` on the masks.  Names outside
        ``C`` are comparable to nothing, so every one of them is minimal.
        """
        members = names(subset)
        ids = self._id_map()
        succ = self._dense.succ
        mask = 0
        for cls in members & self._classes:
            mask |= 1 << ids[cls]
        above = 0
        for i in relations.iter_bits(mask):
            above |= succ[i] ^ (1 << i)
        return self._names_of(mask & ~above) | (members - self._classes)

    def specializations_of(self, cls: NameLike) -> FrozenSet[ClassName]:
        """All ``p`` with ``p ==> cls`` (the down-set; includes *cls*).

        Bit ``i`` of *cls* read across the ``succ`` rows; empty for a
        name outside ``C``.
        """
        i = self._id_map().get(name(cls))
        if i is None:
            return frozenset()
        table = self._dense.names
        return frozenset(
            table[k] for k, up in enumerate(self._dense.succ) if up >> i & 1
        )

    def generalizations_of(self, cls: NameLike) -> FrozenSet[ClassName]:
        """All ``q`` with ``cls ==> q`` (the up-set; includes *cls*).

        The ``succ`` row of *cls*; empty for a name outside ``C``.
        """
        i = self._id_map().get(name(cls))
        return frozenset() if i is None else self._names_of(self._dense.succ[i])

    def root_classes(self) -> FrozenSet[ClassName]:
        """Classes with no strict generalization."""
        table = self._dense.names
        return frozenset(
            table[i] for i, up in enumerate(self._dense.succ) if up == 1 << i
        )

    def leaf_classes(self) -> FrozenSet[ClassName]:
        """Classes with no strict specialization."""
        succ = self._dense.succ
        below = 0
        for i, up in enumerate(succ):
            below |= up ^ (1 << i)
        return self._names_of(((1 << len(succ)) - 1) & ~below)

    def is_empty(self) -> bool:
        """Is this the empty schema?"""
        return not self._classes

    # ------------------------------------------------------------------
    # Derived schemas
    # ------------------------------------------------------------------

    def restrict(self, keep: Iterable[NameLike]) -> "Schema":
        """The induced sub-schema on ``C ∩ keep``.

        The masks move onto the kept classes' id table, with no closing:
        restriction preserves weak-schema-hood (W1/W2 are universally
        quantified implications over present edges, and restricting a
        partial order keeps it one).
        """
        kept = names(keep) & self._classes
        return Schema._from_dense(
            self._dense.reindexed(sorted(kept, key=sort_key))
        )

    def without_classes(self, drop: Iterable[NameLike]) -> "Schema":
        """The induced sub-schema with *drop* removed."""
        return self.restrict(self._classes - names(drop))

    def rename(self, mapping: Mapping[NameLike, NameLike]) -> "Schema":
        """Apply a class-renaming map (the manual prep step of section 3).

        The map may be partial; unmentioned classes keep their names.
        Raises :class:`~repro.exceptions.SchemaValidationError` if the
        renaming collapses two distinct classes onto one name, since
        identification of classes must go through the merge (where it is
        an explicit, order-independent assertion), not through renaming.
        """
        table: Dict[ClassName, ClassName] = {
            name(old): name(new) for old, new in mapping.items()
        }

        def sub(cls: ClassName) -> ClassName:
            return table.get(cls, cls)

        new_classes = {sub(c) for c in self._classes}
        if len(new_classes) != len(self._classes):
            raise SchemaValidationError(
                "renaming collapses distinct classes; merge them via "
                "assertions instead"
            )
        return Schema(
            frozenset(new_classes),
            frozenset((sub(s), a, sub(t)) for s, a, t in self.arrows),
            frozenset((sub(p), sub(q)) for p, q in self.spec),
        )

    def rename_labels(self, mapping: Mapping[Label, Label]) -> "Schema":
        """Apply an arrow-label renaming map (synonym resolution, section 3)."""
        for old, new in mapping.items():
            check_label(old)
            check_label(new)
        return Schema(
            self._classes,
            frozenset(
                (s, mapping.get(a, a), t) for s, a, t in self.arrows
            ),
            self.spec,
        )

    def with_arrow(
        self, source: NameLike, label: Label, target: NameLike
    ) -> "Schema":
        """A new schema with one more arrow (closure delta-updated)."""
        return self.with_arrows([(source, label, target)])

    def with_arrows(self, edges: Iterable[ArrowLike]) -> "Schema":
        """A new schema with extra arrows, re-closed by the engine.

        Endpoints not yet in ``C`` are added (with their reflexive
        specialization), mirroring :meth:`build`.
        """
        builder = _builder_of(self._dense)
        for edge in edges:
            builder.add_arrow(*_coerce_arrow(edge))
        return Schema._from_dense(builder.dense_state())

    def with_spec(self, sub: NameLike, sup: NameLike) -> "Schema":
        """A new schema with one more specialization edge, re-closed.

        Raises :class:`~repro.exceptions.IncompatibleSchemasError` if
        ``sup ==> sub`` already held (the witness cycle is then
        ``sub ==> sup ==> sub``).
        """
        return Schema._from_dense(
            _builder_of(self._dense).add_spec_edge(sub, sup).dense_state()
        )

    def with_class(self, cls: NameLike) -> "Schema":
        """A new schema with one more (isolated) class."""
        extra = name(cls)
        if extra in self._classes:
            return self
        return Schema._from_dense(
            _builder_of(self._dense).add_class(extra).dense_state()
        )

    # ------------------------------------------------------------------
    # Introspection niceties
    # ------------------------------------------------------------------

    def sorted_classes(self) -> Tuple[ClassName, ...]:
        """Classes in the library's canonical (deterministic) order."""
        return tuple(sorted(self._classes, key=sort_key))

    def sorted_arrows(self) -> Tuple[Arrow, ...]:
        """Arrows in a deterministic order."""
        return tuple(
            sorted(
                self.arrows,
                key=lambda e: (sort_key(e[0]), e[1], sort_key(e[2])),
            )
        )

    def stats(self) -> Dict[str, int]:
        """Size statistics used by the analysis and benchmark layers."""
        implicit = sum(1 for c in self._classes if isinstance(c, ImplicitName))
        general = sum(1 for c in self._classes if isinstance(c, GenName))
        return {
            "classes": len(self._classes),
            "base_classes": len(self._classes) - implicit - general,
            "implicit_classes": implicit,
            "generalization_classes": general,
            "arrows": self._arrow_count(),
            "spec_edges": self._spec_count() - len(self._classes),
            "labels": len(self.labels()),
        }
