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
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.perf.closure import DenseClosure

from repro.core import relations
from repro.core.names import (
    BaseName,
    ClassName,
    GenName,
    ImplicitName,
    Label,
    check_label,
    name,
    names,
    sort_key,
)
from repro.exceptions import (
    IncompatibleSchemasError,
    SchemaValidationError,
)
from repro.perf.interning import InternTable

__all__ = ["Arrow", "SpecEdge", "Schema"]


Arrow = Tuple[ClassName, Label, ClassName]
SpecEdge = Tuple[ClassName, ClassName]

NameLike = Union[ClassName, str]
ArrowLike = Tuple[NameLike, Label, NameLike]
SpecLike = Tuple[NameLike, NameLike]

# Hash-consing tables (see repro.perf).  Arrows entering through the
# public coercion path share one canonical tuple per (source, label,
# target), and every closed schema is interned on its component triple,
# so structurally equal schemas are usually pointer-equal and repeated
# constructions of the same value skip validation entirely.
_ARROW_INTERN = InternTable("schema.arrows", maxsize=1 << 17)
_SCHEMA_INTERN = InternTable("schema.schemas", maxsize=4096)


def _coerce_arrow(edge: ArrowLike) -> Arrow:
    try:
        source, label, target = edge
    except (TypeError, ValueError) as exc:
        raise SchemaValidationError(
            f"arrows must be (source, label, target) triples, got {edge!r}"
        ) from exc
    arrow = (name(source), check_label(label), name(target))
    cached = _ARROW_INTERN.get(arrow)
    if cached is not None:
        return cached
    return _ARROW_INTERN.put(arrow, arrow)


def _coerce_spec(edge: SpecLike) -> SpecEdge:
    try:
        sub, sup = edge
    except (TypeError, ValueError) as exc:
        raise SchemaValidationError(
            f"specializations must be (sub, super) pairs, got {edge!r}"
        ) from exc
    return (name(sub), name(sup))


def _closure_index(
    arrows: Iterable[Arrow],
    below: Mapping[ClassName, AbstractSet[ClassName]],
    above: Mapping[ClassName, AbstractSet[ClassName]],
) -> Dict[Tuple[ClassName, Label], FrozenSet[ClassName]]:
    """The W1/W2-closed reach index ``{(p, a): R(p, a)}`` of an arrow set.

    *below*/*above* map each class to its down-/up-set in an already
    reflexive, transitive specialization (a class absent from a map is
    treated as related only to itself).

    The naive closure enumerates ``below(source) × above(target)`` per
    input arrow, re-adding the same closed arrow once per derivation —
    ~4.2M ``set.add`` calls for an output of 19k arrows on the 200-schema
    benchmark.  This version deduplicates first (group raw arrows by
    ``(source, label)``, expand targets upward once) and then pushes each
    group down the specialization with bulk ``set.update``, so the work
    is proportional to the number of *distinct* (class, label) rows, not
    the number of derivations.
    """
    expanded: Dict[Tuple[ClassName, Label], set] = {}
    for source, label, target in arrows:
        bucket = expanded.get((source, label))
        if bucket is None:
            bucket = expanded[(source, label)] = set()
        sups = above.get(target)
        if sups:
            bucket.update(sups)
        else:
            bucket.add(target)
    out: Dict[Tuple[ClassName, Label], set] = {}
    for (source, label), targets in expanded.items():
        for sub in below.get(source) or (source,):
            existing = out.get((sub, label))
            if existing is None:
                out[(sub, label)] = set(targets)
            else:
                existing.update(targets)
    return {key: frozenset(targets) for key, targets in out.items()}


def _index_arrows(
    index: Dict[Tuple[ClassName, Label], FrozenSet[ClassName]],
) -> FrozenSet[Arrow]:
    """Flatten a reach index back into the closed arrow relation."""
    return frozenset(
        (source, label, target)
        for (source, label), targets in index.items()
        for target in targets
    )


def _arrow_closure(
    arrows: AbstractSet[Arrow], spec: AbstractSet[SpecEdge]
) -> FrozenSet[Arrow]:
    """Close an arrow set under W1 and W2 given a transitive, reflexive spec.

    With ``S`` already reflexive and transitive a single pass suffices:
    every arrow ``q --a--> s`` induces ``p --a--> r`` for all ``p ==> q``
    and ``s ==> r``.
    """
    return _index_arrows(
        _closure_index(
            arrows,
            relations.predecessors_map(spec),
            relations.successors_map(spec),
        )
    )


class Schema:
    """An immutable weak schema ``(C, E, S)``.

    Use :meth:`Schema.build` to construct one from raw, un-closed data;
    the plain constructor insists the input is already a valid weak
    schema and raises :class:`~repro.exceptions.SchemaValidationError`
    otherwise.

    Equality and hashing are structural, so two independently built
    schemas with the same classes, arrows and specializations compare
    equal — which is what lets the test suite assert "our merge equals
    the paper's figure" directly.
    """

    __slots__ = (
        "_classes",
        "_arrows",
        "_spec",
        "_hash",
        "_reach_cache",
        "_dense",
        "_strict_cache",
    )

    def __new__(
        cls,
        classes: AbstractSet[ClassName],
        arrows: AbstractSet[Arrow],
        spec: AbstractSet[SpecEdge],
    ):
        classes = frozenset(classes)
        arrows = frozenset(arrows)
        spec = frozenset(spec)
        key = (classes, arrows, spec)
        if cls is Schema:
            cached = _SCHEMA_INTERN.get(key)
            if cached is not None:
                # An equal schema was already validated; components equal
                # to a valid weak schema's are themselves valid.
                return cached
        cls._validate(classes, arrows, spec)
        self = object.__new__(cls)
        object.__setattr__(self, "_classes", classes)
        object.__setattr__(self, "_arrows", arrows)
        object.__setattr__(self, "_spec", spec)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_reach_cache", None)
        object.__setattr__(self, "_dense", None)
        if cls is Schema:
            _SCHEMA_INTERN.put(key, self)
        return self

    def __init__(
        self,
        classes: AbstractSet[ClassName],
        arrows: AbstractSet[Arrow],
        spec: AbstractSet[SpecEdge],
    ):
        # Construction (validation, interning) happens in __new__ so the
        # intern table can return the canonical instance.
        pass

    @classmethod
    def _from_closed(
        cls,
        classes: FrozenSet[ClassName],
        arrows: Optional[FrozenSet[Arrow]],
        spec: Optional[FrozenSet[SpecEdge]],
        reach_index: Optional[
            Dict[Tuple[ClassName, Label], FrozenSet[ClassName]]
        ] = None,
        dense: Optional["DenseClosure"] = None,
    ) -> "Schema":
        """Internal: wrap components already known to be valid.

        Used by :meth:`build` and the incremental update paths (which
        have just computed the closures themselves) to avoid re-deriving
        them during validation — the dominant cost on large merges.
        Library-internal only; every public path still validates.

        *reach_index*, when supplied, pre-populates the reach cache with
        the index the closure computation produced as a by-product.

        *arrows* may be ``None`` when *reach_index* or *dense* is given:
        the flat arrow relation is then materialized lazily, on first
        access to :attr:`arrows` (or to the structural hash).  The dense
        closure engine goes one step further and passes *dense* (a
        ``repro.perf.closure.DenseClosure``) with ``spec=None``: the
        specialization closure and the whole name-level reach index are
        decoded lazily too, so ``join_all`` hands back a view over
        id-space bitmasks without walking a single target set — the
        zero-copy handoff.  Semantics are unchanged: the dense rows
        *are* the closed relations, just in id space.  Lazy schemas
        intern on keys embedding the grouped rows (for dense schemas,
        the id table plus both mask tables, which determine every
        component) — key spaces disjoint from the eager
        ``(classes, arrows, spec)`` key (tuple arities and element
        shapes differ) except at the empty schema, where all denote the
        same value.
        """
        if arrows is None:
            if dense is not None:
                key: Tuple[object, ...] = (
                    classes,
                    dense.names,
                    dense.succ,
                    frozenset(dense.reach.items()),
                )
            else:
                assert reach_index is not None and spec is not None
                key = (
                    classes,
                    spec,
                    frozenset(reach_index.items()),
                )
            hash_value: Optional[int] = None
        else:
            key = (classes, arrows, spec)
            hash_value = hash(key)
        if cls is Schema:
            # Same guard as __new__: subclasses must not receive (or
            # leak) base-class instances through the intern table.
            cached = _SCHEMA_INTERN.get(key)
            if cached is not None:
                if reach_index is not None and cached._reach_cache is None:
                    object.__setattr__(cached, "_reach_cache", reach_index)
                return cached
        instance = object.__new__(cls)
        object.__setattr__(instance, "_classes", classes)
        object.__setattr__(instance, "_arrows", arrows)
        object.__setattr__(instance, "_spec", spec)
        object.__setattr__(instance, "_hash", hash_value)
        object.__setattr__(instance, "_reach_cache", reach_index)
        object.__setattr__(instance, "_dense", dense)
        if cls is Schema:
            _SCHEMA_INTERN.put(key, instance)
        return instance

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def _validate(
        classes: FrozenSet[ClassName],
        arrows: FrozenSet[Arrow],
        spec: FrozenSet[SpecEdge],
    ) -> None:
        for cls in classes:
            if not isinstance(cls, (BaseName, ImplicitName, GenName)):
                raise SchemaValidationError(f"not a class name: {cls!r}")
        for source, label, target in arrows:
            check_label(label)
            if source not in classes or target not in classes:
                raise SchemaValidationError(
                    f"arrow {source} --{label}--> {target} mentions a class "
                    "outside C"
                )
        for sub, sup in spec:
            if sub not in classes or sup not in classes:
                raise SchemaValidationError(
                    f"specialization {sub} ==> {sup} mentions a class outside C"
                )
        if not relations.is_reflexive(spec, classes):
            raise SchemaValidationError(
                "specialization relation is not reflexive over C"
            )
        if not relations.is_transitive(spec):
            raise SchemaValidationError(
                "specialization relation is not transitive"
            )
        if not relations.is_antisymmetric(spec):
            cycle = relations.find_cycle(spec) or ()
            raise SchemaValidationError(
                "specialization relation is not antisymmetric; cycle: "
                + " ==> ".join(str(c) for c in cycle)
            )
        # W1 and W2 in one check: arrows must already be their own closure.
        closure = _arrow_closure(arrows, spec)
        if closure != arrows:
            missing = closure - arrows
            sample = sorted(missing, key=lambda e: (sort_key(e[0]), e[1]))[:3]
            pretty = ", ".join(f"{s} --{a}--> {t}" for s, a, t in sample)
            raise SchemaValidationError(
                f"arrow relation is not W1/W2-closed; missing e.g. {pretty}"
            )

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
        restores them.
        """
        class_set = set(names(classes))
        arrow_set = {_coerce_arrow(edge) for edge in arrows}
        spec_set = {_coerce_spec(edge) for edge in spec}
        for source, _label, target in arrow_set:
            class_set.add(source)
            class_set.add(target)
        for sub, sup in spec_set:
            class_set.add(sub)
            class_set.add(sup)
        closed_spec = relations.reflexive_transitive_closure(spec_set, class_set)
        if not relations.is_antisymmetric(closed_spec):
            cycle = relations.find_cycle(closed_spec) or ()
            raise IncompatibleSchemasError(
                "specialization edges form a cycle: "
                + " ==> ".join(str(c) for c in cycle),
                cycle=cycle,
            )
        index = _closure_index(
            arrow_set,
            relations.predecessors_map(closed_spec),
            relations.successors_map(closed_spec),
        )
        closed_arrows = _index_arrows(index)
        return cls._from_closed(
            frozenset(class_set), closed_arrows, closed_spec, reach_index=index
        )

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
        """The full (W1/W2-closed) arrow relation ``E``.

        Schemas produced by the dense closure engine carry the relation
        as a reach index (or as id-space bitmask rows) and flatten it
        here, once, on first access — derived data over an immutable
        value, so the backfill is observationally pure.
        """
        cached = self._arrows
        if cached is None:
            cached = _index_arrows(self._reach_index())
            object.__setattr__(self, "_arrows", cached)
        return cached

    def _arrow_count(self) -> int:
        """``|E|`` without forcing lazy materialization."""
        if self._arrows is not None:
            return len(self._arrows)
        if self._reach_cache is not None:
            return sum(len(targets) for targets in self._reach_cache.values())
        return sum(mask.bit_count() for mask in self._dense.reach.values())

    def _spec_count(self) -> int:
        """``|S|`` without forcing lazy materialization."""
        if self._spec is not None:
            return len(self._spec)
        return sum(mask.bit_count() for mask in self._dense.succ)

    @property
    def spec(self) -> FrozenSet[SpecEdge]:
        """The specialization partial order ``S`` (reflexive & transitive).

        Dense-engine schemas carry ``S`` as id-space ``succ`` masks and
        decode it here, once, on first access.
        """
        cached = self._spec
        if cached is None:
            cached = self._dense.decode_spec()
            object.__setattr__(self, "_spec", cached)
        return cached

    def __setattr__(self, key, val):  # pragma: no cover - immutability guard
        raise AttributeError("Schema is immutable")

    def __eq__(self, other) -> bool:
        if self is other:
            # Interning makes this the common case for equal schemas.
            return True
        if not isinstance(other, Schema):
            return NotImplemented
        if (
            self._hash is not None
            and other._hash is not None
            and self._hash != other._hash
        ):
            return False
        if self._classes != other._classes:
            return False
        mine = getattr(self, "_dense", None)
        theirs = getattr(other, "_dense", None)
        if mine is not None and theirs is not None and mine.names == theirs.names:
            # Both dense over the same id table: compare the bitmask
            # tables directly — no decoding at all.
            return mine.succ == theirs.succ and mine.reach == theirs.reach
        if self.spec != other.spec:
            return False
        if self._arrows is not None and other._arrows is not None:
            return self._arrows == other._arrows
        # The grouped indexes determine the flat relation (rows are
        # never empty), so comparing them avoids flattening.
        return self._reach_index() == other._reach_index()

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            # Lazy schemas hash exactly like eager ones — on the
            # component triple — so mixed eager/lazy equality keeps the
            # hash contract.  Computed once, cached.
            h = hash((self._classes, self.arrows, self.spec))
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
        targets = self._reach_index().get((name(source), label))
        return targets is not None and name(target) in targets

    def is_spec(self, sub: NameLike, sup: NameLike) -> bool:
        """Does ``sub ==> sup`` hold?"""
        return (name(sub), name(sup)) in self.spec

    def strict_spec(self) -> FrozenSet[SpecEdge]:
        """The specialization pairs with distinct endpoints."""
        return frozenset((p, q) for p, q in self.spec if p != q)

    def _fold_layout(
        self,
    ) -> Tuple[
        Tuple[ClassName, ...],
        Tuple[Tuple[int, int, Optional[Tuple[int, ...]]], ...],
        Tuple[Tuple[int, Label, int, Optional[Tuple[int, ...]]], ...],
    ]:
        """A *generating* view of the schema as positions into its classes.

        ``ClosureBuilder`` folds schemas repeatedly; resolving each
        class name to a builder id once per schema (via the *order*
        tuple) and then walking spec edges and reach rows as plain
        index tuples keeps name hashing out of the per-element hot
        loops entirely.  Because a schema's own ``S`` and reach index
        are already W1/W2-closed, the fold does not need all of them:
        any generating subset yields the identical union closure
        (closing is monotone and idempotent, so
        ``close(∪ Eᵢ) = close(∪ Gᵢ)`` whenever ``close(Gᵢ) = Eᵢ``).
        Three parts: *order* (the classes), the spec *covers* grouped
        per subclass as ``(sub_pos, first_sup_pos, rest)`` (transitive
        and reflexive pairs are regenerated by the builder's rectangle
        updates), and the reach *generator* rows as flat
        ``(source_pos, label, first_target_pos, rest)`` quads — for
        each ``(source, label)`` only the minimal targets not already
        inherited from a strict superclass's row, since W2 restores
        the upward target closure and W1 the downward source copies.
        Cover groups and generator rows are overwhelmingly singular,
        so the first position rides unwrapped and *rest* is ``None``
        unless the entry genuinely holds more.
        Populated on first use — derived data over an immutable value.
        """
        try:
            return self._strict_cache
        except AttributeError:
            order = tuple(self._classes)
            pos = {cls: k for k, cls in enumerate(order)}
            strict = {(p, q) for p, q in self.spec if p != q}
            depth: Dict[ClassName, int] = {}
            for p, _q in strict:
                depth[p] = depth.get(p, 0) + 1
            ups: Dict[int, List[int]] = {}
            for p, q in relations.covers(self.spec):
                ups.setdefault(pos[p], []).append(pos[q])
            # Superclasses first (ascending strict up-set size): each
            # class's rectangle then propagates its fully-updated
            # ancestor set in one shot instead of re-pushing later.
            groups = tuple(
                (i, sups[0], tuple(sups[1:]) if len(sups) > 1 else None)
                for i, sups in sorted(
                    ups.items(), key=lambda g: depth[order[g[0]]]
                )
            )
            sup_names: Dict[ClassName, List[ClassName]] = {}
            for p, q in strict:
                sup_names.setdefault(p, []).append(q)
            index = self._reach_index()
            index_get = index.get
            row_list: List[
                Tuple[int, Label, int, Optional[Tuple[int, ...]]]
            ] = []
            for (source, label), targets in index.items():
                extra = set(targets)
                for q in sup_names.get(source, ()):
                    inherited = index_get((q, label))
                    if inherited:
                        extra -= inherited
                if not extra:
                    continue
                gen = tuple(
                    pos[t]
                    for t in extra
                    if not any(e is not t and (e, t) in strict for e in extra)
                )
                row_list.append(
                    (
                        pos[source],
                        label,
                        gen[0],
                        gen[1:] if len(gen) > 1 else None,
                    )
                )
            rows = tuple(row_list)
            layout = (order, groups, rows)
            object.__setattr__(self, "_strict_cache", layout)
            return layout

    def spec_covers(self) -> FrozenSet[SpecEdge]:
        """The Hasse edges of ``S`` — what the paper's figures draw."""
        return relations.covers(self.spec)

    def labels(self) -> FrozenSet[Label]:
        """Every arrow label used in the schema."""
        return frozenset(label for _s, label in self._reach_index())

    def _reach_index(self) -> Dict[Tuple[ClassName, Label], FrozenSet[ClassName]]:
        """``R(p, a)`` for every populated pair, built once per schema.

        The index is derived data over an immutable value, so caching
        it is observationally pure; it turns the hot ``reach`` queries
        of properization and satisfaction checking from O(|E|) scans
        into dictionary lookups.
        """
        cached = self._reach_cache
        if cached is None:
            dense = getattr(self, "_dense", None)
            if dense is not None:
                cached = dense.decode_index()
            else:
                collected: Dict[Tuple[ClassName, Label], set] = {}
                for source, label, target in self._arrows:
                    collected.setdefault((source, label), set()).add(target)
                cached = {
                    key: frozenset(targets)
                    for key, targets in collected.items()
                }
            object.__setattr__(self, "_reach_cache", cached)
        return cached

    def out_labels(self, cls: NameLike) -> FrozenSet[Label]:
        """Labels of arrows leaving *cls* — the candidate key components of §5."""
        p = name(cls)
        return frozenset(
            label for (source, label) in self._reach_index() if source == p
        )

    def arrows_from(self, cls: NameLike) -> FrozenSet[Arrow]:
        """All arrows whose source is *cls*."""
        p = name(cls)
        return frozenset(
            (p, label, target)
            for (source, label), targets in self._reach_index().items()
            if source == p
            for target in targets
        )

    def arrows_into(self, cls: NameLike) -> FrozenSet[Arrow]:
        """All arrows whose target is *cls*."""
        q = name(cls)
        return frozenset(
            (source, label, q)
            for (source, label), targets in self._reach_index().items()
            if q in targets
        )

    def reach(self, cls: NameLike, label: Label) -> FrozenSet[ClassName]:
        """The paper's ``R(p, a)``: all classes reachable from *cls* by *label*."""
        return self._reach_index().get((name(cls), label), frozenset())

    def reach_set(
        self, subset: Iterable[NameLike], label: Label
    ) -> FrozenSet[ClassName]:
        """The paper's ``R(X, a)``: union of ``R(p, a)`` over ``p ∈ X``."""
        index = self._reach_index()
        combined: set = set()
        for member in names(subset):
            combined |= index.get((member, label), frozenset())
        return frozenset(combined)

    def min_classes(self, subset: Iterable[NameLike]) -> FrozenSet[ClassName]:
        """The paper's ``MinS(X)`` relative to this schema's order."""
        return relations.minimal_elements(names(subset), self.spec)

    def specializations_of(self, cls: NameLike) -> FrozenSet[ClassName]:
        """All ``p`` with ``p ==> cls`` (the down-set; includes *cls*)."""
        return relations.down_set(name(cls), self.spec)

    def generalizations_of(self, cls: NameLike) -> FrozenSet[ClassName]:
        """All ``q`` with ``cls ==> q`` (the up-set; includes *cls*)."""
        return relations.up_set(name(cls), self.spec)

    def root_classes(self) -> FrozenSet[ClassName]:
        """Classes with no strict generalization."""
        return relations.maximal_elements(self._classes, self.spec)

    def leaf_classes(self) -> FrozenSet[ClassName]:
        """Classes with no strict specialization."""
        return relations.minimal_elements(self._classes, self.spec)

    def is_empty(self) -> bool:
        """Is this the empty schema?"""
        return not self._classes

    # ------------------------------------------------------------------
    # Derived schemas
    # ------------------------------------------------------------------

    def restrict(self, keep: Iterable[NameLike]) -> "Schema":
        """The induced sub-schema on ``C ∩ keep``.

        Restriction preserves weak-schema-hood: W1/W2 are universally
        quantified implications over present edges, and restricting a
        partial order keeps it one.
        """
        kept = names(keep) & self._classes
        return Schema(
            kept,
            frozenset(
                (s, a, t) for s, a, t in self.arrows if s in kept and t in kept
            ),
            relations.restrict(self.spec, kept),
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
        """A new schema with extra arrows, closed by *delta update*.

        Because ``S`` is unchanged and ``E`` is already W1/W2-closed,
        the closure of the extended arrow set is ``E`` plus the one-pass
        closure of just the additions — ``below(source) × above(target)``
        per new arrow — so cost scales with the delta, not the schema.
        Endpoints not yet in ``C`` are added (with their reflexive
        specialization), mirroring :meth:`build`.
        """
        additions = {_coerce_arrow(edge) for edge in edges} - self.arrows
        if not additions:
            return self
        classes = self._classes
        spec = self.spec
        new_classes = frozenset(
            endpoint
            for source, _label, target in additions
            for endpoint in (source, target)
            if endpoint not in classes
        )
        if new_classes:
            classes = classes | new_classes
            spec = spec | frozenset((c, c) for c in new_classes)
        delta = _index_arrows(
            _closure_index(
                additions,
                relations.predecessors_map(spec),
                relations.successors_map(spec),
            )
        )
        return Schema._from_closed(classes, self.arrows | delta, spec)

    def with_spec(self, sub: NameLike, sup: NameLike) -> "Schema":
        """A new schema with one more specialization edge (delta-closed).

        The transitive closure gains exactly ``down(sub) × up(sup)``;
        antisymmetry breaks iff ``sup ==> sub`` already held (the
        witness cycle is then ``sub ==> sup ==> sub``).  Arrows are
        re-derived only for the classes whose down-/up-sets changed —
        every other arrow's W1/W2 consequences are already present.
        """
        p, q = name(sub), name(sup)
        classes = self._classes
        spec = self.spec
        added = frozenset(c for c in (p, q) if c not in classes)
        if added:
            classes = classes | added
            spec = spec | frozenset((c, c) for c in added)
        if (p, q) in spec:
            if not added:
                return self
            return Schema._from_closed(classes, self.arrows, spec)
        if (q, p) in spec:
            raise IncompatibleSchemasError(
                "specialization edges form a cycle: "
                + " ==> ".join(str(c) for c in (p, q, p)),
                cycle=(p, q, p),
            )
        down = frozenset(x for x, y in spec if y == p) | {p}
        up = frozenset(y for x, y in spec if x == q) | {q}
        new_spec = spec | frozenset((x, y) for x in down for y in up)
        # Down-sets grew for classes above sup; up-sets for those below
        # sub.  Only arrows touching those classes can close further.
        affected = [
            arrow
            for arrow in self.arrows
            if arrow[0] in up or arrow[2] in down
        ]
        delta = _index_arrows(
            _closure_index(
                affected,
                relations.predecessors_map(new_spec),
                relations.successors_map(new_spec),
            )
        )
        return Schema._from_closed(classes, self.arrows | delta, new_spec)

    def with_class(self, cls: NameLike) -> "Schema":
        """A new schema with one more (isolated) class."""
        extra = name(cls)
        if extra in self._classes:
            return self
        return Schema(
            self._classes | {extra},
            self.arrows,
            self.spec | {(extra, extra)},
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
            "spec_edges": len(self.strict_spec()),
            "labels": len(self.labels()),
        }
