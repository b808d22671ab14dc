"""The one closure engine: W1/W2 closure on dense ids, as bitmasks.

Every :class:`~repro.core.schema.Schema` is a
:class:`~repro.core.schema.DenseClosure` (an id table, one up-set mask
per class, one target mask per ``(source_id, label)`` row), and every
closure in the library is computed here.  A :class:`ClosureBuilder`
holds the same three things mutably — its own id table maps each class
name to a dense id in first-appearance order, so any set of classes is
one Python ``int`` bitset — and closes them with two kernels:

* **edge insertion** (:func:`repro.core.relations.closure_insert_bits`)
  delta-updates the ``down(sub) × up(sup)`` rectangle with one ``|``
  per affected node — cycles surface at insertion time, so there is
  no separate compatibility pass;
* the **grouped W1/W2 sweep** (:meth:`ClosureBuilder._fold_sweep`)
  expands each raw arrow row's targets upward (OR of ``succ`` masks)
  and inherits rows down the Hasse diagram of the specialization.

Bulk int OR/AND is *word-parallel*: CPython operates on the limbs of a
big int in C, so a 60-class component's whole row updates in a couple
of machine words instead of ~60 hash-and-probe set operations.

Entry points: :meth:`ClosureBuilder.close` is the one closure of a
single schema — ``Schema.build``'s raw edges (ids in canonical
``sort_key`` order) and a schema document's generator form both fold
through it; ``join_all`` folds whole families through one builder
(:meth:`ClosureBuilder.add_schemas`, reading each schema's generating
layout straight off its masks); ``Schema.with_*`` and the service's
warm restart revive a closed value as a builder
(:meth:`ClosureBuilder.from_dense`).  The builder is also
public API for callers that accumulate schemas over time (sessions,
streaming merges): add schemas as they arrive, ``build()`` when a
closed value is needed, keep adding afterwards.
:mod:`repro.perf.reference` keeps its own naive set-based closure as
the property-test oracle.

Process-wide work counters (``closure.inserts``,
``closure.arrows_swept``, ``closure.components_rebuilt``) report into
:data:`repro.obs.metrics.REGISTRY`; they are plain integer adds per
*structural* builder operation (edge insertion, full build), far off
the per-lookup hot paths.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core import relations
from repro.core.names import ClassName, Label, name
from repro.core.schema import (
    DenseClosure,
    Foldable,
    RowTable,
    Schema,
    _coerce_arrow,
    _layout_spec,
)
from repro.exceptions import IncompatibleSchemasError
from repro.obs.metrics import REGISTRY

__all__ = ["ClosureBuilder", "DenseClosure", "cycle_error"]

_INSERTS = REGISTRY.counter("closure.inserts")
_ARROWS_SWEPT = REGISTRY.counter("closure.arrows_swept")
_REBUILDS = REGISTRY.counter("closure.components_rebuilt")

#: Accumulated raw rows, grouped by source id: ``source_id → {label →
#: OR of every asserted target bitset}``.  Two levels so the hot fold
#: hashes one small int per source and one label string per row — no
#: tuple keys on the per-row path.
RawRows = Dict[int, Dict[Label, int]]


def cycle_error(cycle: Tuple[ClassName, ...]) -> IncompatibleSchemasError:
    """The error for specialization edges that close *cycle*."""
    return IncompatibleSchemasError(
        "specialization edges form a cycle: "
        + " ==> ".join(str(c) for c in cycle),
        cycle=cycle,
    )


class ClosureBuilder:
    """A mutable accumulator whose ``build()`` is the LUB of everything added.

    Invariants: the id table (``_names`` by id, ``_ids`` by name) assigns
    dense ids in first-appearance order (for :meth:`close`, the layout's
    own order) and only ever grows, except that a failed fold drops the
    tail it interned;
    ``_succ[i]``/``_pred[i]`` always hold the reflexive-transitive
    closure of the specialization edges seen so far as bitsets (every
    registered node's own bit is set), and
    ``_rows`` holds the un-closed input arrows as one raw target
    bitset per ``(source_id, label)`` key (the OR of every asserted
    row under that key).  Arrows are closed once, at build time —
    closing them per addition would redo work the final grouped sweep
    does in one pass.
    """

    __slots__ = ("_names", "_ids", "_succ", "_pred", "_rows")

    def __init__(self, schemas: Iterable[Foldable] = ()):
        self._names: List[ClassName] = []
        self._ids: Dict[ClassName, int] = {}
        self._succ: List[int] = []
        self._pred: List[int] = []
        self._rows: RawRows = {}
        for schema in schemas:
            self.add_schema(schema)

    def _intern(self, cls: ClassName) -> int:
        """The dense id of *cls*, registering it (with its self-bit) if new."""
        idx = self._ids.get(cls)
        if idx is None:
            idx = self._ids[cls] = len(self._names)
            self._names.append(cls)
            bit = 1 << idx
            self._succ.append(bit)
            self._pred.append(bit)
        return idx

    def add_class(self, cls: ClassName) -> "ClosureBuilder":
        """Register a class (idempotent)."""
        self._intern(name(cls))
        return self

    def add_spec_edge(self, sub: ClassName, sup: ClassName) -> "ClosureBuilder":
        """Add ``sub ==> sup``, delta-updating the closure.

        Raises :class:`~repro.exceptions.IncompatibleSchemasError` the
        moment an edge closes a cycle — no separate compatibility pass
        (and no undo log: the kernel checks for a cycle before mutating
        anything).
        """
        i = self._intern(name(sub))
        j = self._intern(name(sup))
        try:
            relations.closure_insert_bits(self._succ, self._pred, i, j)
        except ValueError:
            names = self._names
            raise cycle_error((names[i], names[j], names[i])) from None
        _INSERTS.inc()
        return self

    def add_arrow(
        self, source: ClassName, label: Label, target: ClassName
    ) -> "ClosureBuilder":
        """Add one raw arrow (closed at build time)."""
        source, label, target = _coerce_arrow((source, label, target))
        sid = self._intern(source)
        bit = 1 << self._intern(target)
        table = self._rows.setdefault(sid, {})
        table[label] = table.get(label, 0) | bit
        return self

    def add_schema(self, schema: Foldable) -> "ClosureBuilder":
        """Fold a whole schema into the accumulator — atomically.

        Equivalent to ``add_schemas((schema,))`` — see there for the
        rollback contract and the dense fold mechanics.
        """
        return self.add_schemas((schema,))

    def _fold_cycle(
        self, a: int, b: int, snap: Optional[Tuple[List[int], List[int]]],
        base: int,
    ) -> IncompatibleSchemasError:
        """Roll back a failed fold and build its cycle error (cold path).

        Adding ``a ==> b`` would close a cycle.  The witness is named
        while the id tail is still alive, then the accumulator is
        restored to *base*: the pre-schema snapshot (when one was
        taken) both clears gained bits and truncates the mask tables,
        otherwise only the untouched fresh tail needs dropping.
        """
        names = self._names
        cycle = (names[a], names[b], names[a])
        succ = self._succ
        pred = self._pred
        if snap is not None:
            succ[:], pred[:] = snap
        elif len(names) != base:
            del succ[base:]
            del pred[base:]
        for cls in names[base:]:
            del self._ids[cls]
        del names[base:]
        return cycle_error(cycle)

    def add_schemas(
        self,
        schemas: Iterable[Foldable],
        *,
        _spec_only: bool = False,
        _counted: bool = True,
    ) -> "ClosureBuilder":
        """Fold many schemas — each one atomically, in order.

        On :class:`~repro.exceptions.IncompatibleSchemasError` the
        accumulator is rolled back to its state before the *offending
        schema* (schemas folded earlier in the same call remain), so a
        streaming caller can catch the error, drop that schema, and
        keep going; ``build()`` then reflects exactly the accepted
        schemas.

        Rollback is by snapshot: before a schema's first novel edge is
        inserted, the pre-schema slice of both mask tables is copied
        (two C-level list copies — gained-bit undo logs measured
        slower); restoring it clears every gained bit *and* drops the
        freshly interned id tail in one assignment (ids are assigned
        contiguously, so the classes the failed fold introduced are
        exactly the tail).

        This is the engine's hottest entry point (``join_all`` folds
        whole families through it), so the loop works on resolved ids:
        each schema's cached fold layout is translated to builder ids
        once (one table probe per class, a C-level ``map``), the
        strict spec pairs and the reach rows then walk as plain index
        tuples — no class-name hashing anywhere in the per-element
        loops.  The layout is a *generating* view (spec covers, minimal
        non-inherited reach rows — see ``Schema._fold_layout``; or a
        schema document's own edges, unclosed — see
        :class:`repro.core.schema.SchemaGenerators`): the builder's own
        rectangle updates and build-time sweep regenerate everything
        the layout omits, so the fold does strictly less work for the
        identical closure.  Each generator row encodes
        positionally through the translation and is OR'd into the raw
        row table under its ``(source_id, label)`` key — closure is
        deferred to the build-time sweep.  ``_spec_only`` (set only by
        the compatibility check, which discards the builder) skips the
        rows: only the specialization fold can fail.  ``_counted``
        (cleared only by :meth:`close`) leaves ``closure.inserts`` alone.
        """
        ids = self._ids
        ids_get = ids.get
        intern = self._intern
        succ = self._succ
        pred = self._pred
        rows = self._rows
        rows_get = rows.get
        inserts = 0
        try:
            for schema in schemas:
                base = len(ids)
                order, groups, row_layout = schema._fold_layout()
                tr = list(map(ids_get, order))
                if None in tr:
                    for k, idx in enumerate(tr):
                        if idx is None:
                            tr[k] = intern(order[k])
                snap = None
                for i, j0, more in groups:
                    a = tr[i]
                    sa = succ[a]
                    b = tr[j0]
                    if (sa >> b) & 1:
                        novel = 0
                    else:
                        if (succ[b] >> a) & 1:
                            raise self._fold_cycle(a, b, snap, base)
                        novel = succ[b]
                        inserts += 1
                    if more is not None:
                        for j in more:
                            b = tr[j]
                            if not (sa >> b) & 1:
                                if (succ[b] >> a) & 1:
                                    raise self._fold_cycle(a, b, snap, base)
                                novel |= succ[b]
                                inserts += 1
                    new_bits = novel & ~sa
                    if new_bits:
                        if snap is None:
                            # Fresh ids past *base* carry only their
                            # untouched self-bits; the snapshot excludes
                            # them so restoring also truncates.
                            snap = (succ[:base], pred[:base])
                        # One rectangle for the whole up-set delta: every
                        # subclass of *a* (which already reaches all of
                        # ``sa``, by closure) gains exactly these bits,
                        # and every newly reached node gains *a*'s
                        # down-set.  OR is idempotent and rollback is by
                        # snapshot, so no per-write gained-bit filtering.
                        down_a = pred[a]
                        mask = down_a
                        while mask:
                            low = mask & -mask
                            succ[low.bit_length() - 1] |= new_bits
                            mask ^= low
                        mask = new_bits
                        while mask:
                            low = mask & -mask
                            pred[low.bit_length() - 1] |= down_a
                            mask ^= low
                if _spec_only:
                    continue
                for spos, label, t0, rest in row_layout:
                    acc = 1 << tr[t0]
                    if rest is not None:
                        for t in rest:
                            acc |= 1 << tr[t]
                    sid = tr[spos]
                    table = rows_get(sid)
                    if table is None:
                        rows[sid] = {label: acc}
                    else:
                        table[label] = table.get(label, 0) | acc
        finally:
            if inserts and _counted:
                _INSERTS.inc(inserts)
        return self

    @classmethod
    def close(cls, source: Foldable) -> Schema:
        """The one closure of a single schema: fold *source*, then sweep.

        *source* is one generating layout — the raw edges
        ``Schema.build`` lays out in canonical ``sort_key`` order, a
        schema document's generator form
        (``json_io.schema_from_dict``), or a service member.  It folds
        through :meth:`add_schemas` into a builder whose id table is
        the layout's own order, so equal inputs close to identical
        masks, interning as one object.  A cycle raises
        :class:`~repro.exceptions.IncompatibleSchemasError` whose
        witness is a chain of the layout's own spec edges.  Work
        counters are left alone: they account component folds and
        rebuilds.
        """
        order = source._fold_layout()[0]
        builder = cls.__new__(cls)
        builder._names = list(order)
        builder._ids = dict(zip(order, range(len(order))))
        builder._succ = [1 << i for i in range(len(order))]
        builder._pred = builder._succ[:]
        builder._rows = {}
        try:
            builder.add_schemas((source,), _counted=False)
        except IncompatibleSchemasError:
            spec = _layout_spec(source._fold_layout())
            raise cycle_error(relations.find_cycle(spec) or ()) from None
        return Schema._from_dense(builder.dense_state())

    @classmethod
    def from_dense(cls, dense: DenseClosure) -> "ClosureBuilder":
        """A builder whose accumulated state *is* the given closed value.

        The warm-restart path of ``repro.service.storage``: a component
        restored from a snapshot re-enters service as a live builder
        without re-folding its member schemas.  The id table is adopted
        in order (dense ids are positions, so they survive the round
        trip), ``succ`` is taken verbatim, ``pred`` is derived by one
        pass over the succ bits, and the closed reach rows regroup into
        the raw row table by source id.  Seeding raw rows with *closed*
        rows is sound because the W1/W2 sweep is idempotent on closed
        input (the same property :meth:`DenseClosure.validate` checks),
        so the next ``build()`` reproduces exactly *dense* — and further
        additions fold incrementally, as if the builder had never left
        memory.

        >>> from repro.perf.closure import ClosureBuilder
        >>> state = (ClosureBuilder().add_spec_edge("Puppy", "Dog")
        ...          .add_arrow("Dog", "owner", "Person").dense_state())
        >>> revived = ClosureBuilder.from_dense(state)
        >>> revived.dense_state() == state
        True
        >>> _ = revived.add_spec_edge("Dog", "Animal")
        >>> revived.build().is_spec("Puppy", "Animal")
        True
        """
        builder = cls()
        builder._names = list(dense.names)
        builder._ids = dict(zip(dense.names, range(len(dense.names))))
        succ = list(dense.succ)
        builder._succ = succ
        pred = [0] * len(succ)
        for i, mask in enumerate(succ):
            bit = 1 << i
            while mask:
                low = mask & -mask
                pred[low.bit_length() - 1] |= bit
                mask ^= low
        builder._pred = pred
        rows: RawRows = {}
        for (src, label), tmask in dense.reach.items():
            table = rows.get(src)
            if table is None:
                rows[src] = {label: tmask}
            else:
                table[label] = table.get(label, 0) | tmask
        builder._rows = rows
        return builder

    @property
    def classes(self) -> FrozenSet[ClassName]:
        """Every class registered so far (a snapshot, not a live view)."""
        return frozenset(self._names)

    def clone(self) -> "ClosureBuilder":
        """An independent copy sharing no mutable state with the original.

        Dense state makes this cheap: masks are immutable ints, so the
        copy is two list copies and per-source dicts of shared ints
        regardless of how dense the relations are.  This is the substrate of
        transactional callers (``repro.service``): apply a whole batch
        to a clone, then either swap it in or throw it away — the
        original is never half-updated.

        >>> from repro.perf.closure import ClosureBuilder
        >>> original = ClosureBuilder().add_spec_edge("Puppy", "Dog")
        >>> twin = original.clone()
        >>> _ = twin.add_spec_edge("Dog", "Animal")
        >>> [b.build().is_spec("Dog", "Animal") for b in (original, twin)]
        [False, True]
        """
        twin = ClosureBuilder()
        twin._names = list(self._names)
        twin._ids = dict(self._ids)
        twin._succ = list(self._succ)
        twin._pred = list(self._pred)
        twin._rows = {sid: dict(t) for sid, t in self._rows.items()}
        return twin

    def _fold_sweep(
        self,
        succ: List[int],
        rows: RawRows,
    ) -> Tuple[RowTable, int]:
        """W1/W2-close the accumulated raw rows, entirely on bitmasks.

        W2 first: each ``(source_id, label)`` key's raw target mask
        expands up the specialization.  W1 second, but not by pushing
        every row to every subclass of its source: rows propagate
        *down the Hasse diagram* of the specialization in topological
        order (supers first), so each node inherits its immediate
        parents' already-closed label tables — ``O(covers × labels)``
        merge operations instead of ``O(closure × rows)`` pushes, and a
        node with one parent and no own rows shares the parent's table
        outright (copy-on-write).  Returns the closed id-keyed rows and
        the number of raw arrows swept (the ``closure.arrows_swept``
        increment).
        """
        n = len(succ)
        src_rows: List[Optional[Dict[Label, int]]] = [None] * n
        swept = 0
        for sid, table in rows.items():
            expanded: Dict[Label, int] = {}
            for label, tmask in table.items():
                swept += tmask.bit_count()
                acc = 0
                mask = tmask
                while mask:
                    low = mask & -mask
                    acc |= succ[low.bit_length() - 1]
                    mask ^= low
                expanded[label] = acc
            src_rows[sid] = expanded
        # W1 down the Hasse diagram.  Processing in ascending |succ|
        # visits every strict ancestor before its descendants (p ==> q
        # implies succ[q] ⊊ succ[p]), so each closed table is final
        # when read.
        closed: List[Optional[Dict[Label, int]]] = [None] * n
        out: RowTable = {}
        for i in sorted(range(n), key=lambda k: succ[k].bit_count()):
            ups = succ[i] ^ (1 << i)
            if ups:
                # Immediate parents: strict ancestors not above another.
                red = 0
                mask = ups
                while mask:
                    low = mask & -mask
                    red |= succ[low.bit_length() - 1] ^ low
                    mask ^= low
                parents = ups & ~red
            else:
                parents = 0
            acc: Optional[Dict[Label, int]] = None
            shared = False
            mask = parents
            while mask:
                low = mask & -mask
                inherited = closed[low.bit_length() - 1]
                mask ^= low
                if inherited is None:
                    continue
                if acc is None:
                    acc = inherited
                    shared = True
                    continue
                if shared:
                    acc = dict(acc)
                    shared = False
                for label, up in inherited.items():
                    prev = acc.get(label)
                    if prev is None:
                        acc[label] = up
                    else:
                        merged = prev | up
                        if merged is not prev and merged != prev:
                            acc[label] = merged
            own = src_rows[i]
            if own is not None:
                if acc is None:
                    acc = own
                else:
                    if shared:
                        acc = dict(acc)
                    for label, up in own.items():
                        prev = acc.get(label)
                        acc[label] = up if prev is None else prev | up
            closed[i] = acc
            if acc:
                for label, up in acc.items():
                    out[(i, label)] = up
        return out, swept

    def dense_state(self) -> DenseClosure:
        """The fully closed component as a dense value (see DenseClosure).

        Runs the same fold-and-sweep as :meth:`build` but stops at the
        id-level representation — the input to zero-copy snapshot
        serialization (``repro.service`` / ``repro.io.json_io``).  The
        builder is not mutated.
        """
        out, _swept = self._fold_sweep(self._succ, self._rows)
        return DenseClosure(tuple(self._names), tuple(self._succ), out)

    def build(self) -> Schema:
        """Close the accumulated components into an (interned) Schema.

        The builder stays usable afterwards — ``build`` is a snapshot,
        not a terminal operation.  The returned schema is backed by the
        dense closure directly: its flat arrow relation and structural
        hash materialize lazily, on first use.
        """
        succ = self._succ
        out, swept = self._fold_sweep(succ, self._rows)
        _REBUILDS.inc()
        _ARROWS_SWEPT.inc(swept)
        return Schema._from_dense(DenseClosure(tuple(self._names), tuple(succ), out))
