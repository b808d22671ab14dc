"""The one closure engine: W1/W2 closure on dense ids, as bitmasks.

Every :class:`~repro.core.schema.Schema` is a
:class:`~repro.core.schema.DenseClosure` (an id table, one up-set mask
per class, one target mask per ``(source_id, label)`` row), and every
closure in the library is computed here.  A :class:`ClosureBuilder`
holds the same three things mutably, over a per-component
:class:`repro.perf.namespace.NameSpace`, and closes them with two
kernels:

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

Entry points: ``Schema.build`` is the one-shot :meth:`ClosureBuilder.close`
(ids in canonical ``sort_key`` order); ``join_all`` folds whole
families through one builder (:meth:`ClosureBuilder.add_schemas`,
reading each schema's generating layout straight off its masks);
``Schema.with_*`` and the service's warm restart revive a closed value
as a builder (:meth:`ClosureBuilder.from_dense`).  The builder is also
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

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core import relations
from repro.core.names import ClassName, Label, name
from repro.core.schema import (
    Arrow,
    DenseClosure,
    Foldable,
    RowTable,
    Schema,
    SpecEdge,
    _coerce_arrow,
)
from repro.exceptions import IncompatibleSchemasError
from repro.obs.metrics import REGISTRY
from repro.perf.namespace import NameSpace

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

    Invariants: the per-component :class:`NameSpace` assigns dense ids
    in first-appearance order (in the given order for :meth:`close`);
    ``_succ[i]``/``_pred[i]`` always hold the reflexive-transitive
    closure of the specialization edges seen so far as bitsets (every
    registered node's own bit is set), and
    ``_rows`` holds the un-closed input arrows as one raw target
    bitset per ``(source_id, label)`` key (the OR of every asserted
    row under that key).  Arrows are closed once, at build time —
    closing them per addition would redo work the final grouped sweep
    does in one pass.
    """

    __slots__ = ("_ns", "_succ", "_pred", "_rows")

    def __init__(self, schemas: Iterable[Foldable] = ()):
        self._ns = NameSpace()
        self._succ: List[int] = []
        self._pred: List[int] = []
        self._rows: RawRows = {}
        for schema in schemas:
            self.add_schema(schema)

    def _intern(self, cls: ClassName) -> int:
        """The dense id of *cls*, registering it (with its self-bit) if new."""
        ns = self._ns
        size = len(ns)
        idx = ns.intern(cls)
        if idx == size:
            bit = 1 << idx
            self._succ.append(bit)
            self._pred.append(bit)
        return idx

    def add_class(self, cls: ClassName) -> "ClosureBuilder":
        """Register a class (idempotent)."""
        self._intern(name(cls))
        return self

    def _insert_edge(self, sub: int, sup: int) -> None:
        """closure_insert_bits with the domain error mapped on.

        Serves the single-edge entry point (which needs no undo log:
        the kernel checks for a cycle before mutating anything); the
        bulk fold inlines the kernel call.  Counter discipline:
        callers account ``closure.inserts``.
        """
        try:
            relations.closure_insert_bits(self._succ, self._pred, sub, sup)
        except ValueError:
            ns = self._ns
            raise cycle_error(
                (ns.name_of(sub), ns.name_of(sup), ns.name_of(sub))
            ) from None

    def add_spec_edge(self, sub: ClassName, sup: ClassName) -> "ClosureBuilder":
        """Add ``sub ==> sup``, delta-updating the closure.

        Raises :class:`~repro.exceptions.IncompatibleSchemasError` the
        moment an edge closes a cycle — no separate compatibility pass.
        """
        self._insert_edge(self._intern(name(sub)), self._intern(name(sup)))
        _INSERTS.inc()
        return self

    def _add_row(
        self,
        rows: RawRows,
        source: ClassName,
        label: Label,
        target: ClassName,
    ) -> None:
        sid = self._intern(source)
        bit = 1 << self._intern(target)
        table = rows.get(sid)
        if table is None:
            rows[sid] = {label: bit}
        else:
            prev = table.get(label)
            table[label] = bit if prev is None else prev | bit

    def add_arrow(
        self, source: ClassName, label: Label, target: ClassName
    ) -> "ClosureBuilder":
        """Add one raw arrow (closed at build time)."""
        arrow = _coerce_arrow((source, label, target))
        self._add_row(self._rows, arrow[0], arrow[1], arrow[2])
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
        ns = self._ns
        cycle = (ns.name_of(a), ns.name_of(b), ns.name_of(a))
        succ = self._succ
        pred = self._pred
        if snap is not None:
            succ[:], pred[:] = snap
        elif len(ns) != base:
            del succ[base:]
            del pred[base:]
        ns.truncate(base)
        return cycle_error(cycle)

    def add_schemas(
        self, schemas: Iterable[Foldable], *, _spec_only: bool = False
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
        :class:`repro.io.json_io.SchemaGenerators`): the builder's own
        rectangle updates and build-time sweep regenerate everything
        the layout omits, so the fold does strictly less work for the
        identical closure.  Each generator row encodes
        positionally through the translation and is OR'd into the raw
        row table under its ``(source_id, label)`` key — closure is
        deferred to the build-time sweep.  ``_spec_only`` (set only by
        the compatibility check, which discards the builder) skips the
        rows: only the specialization fold can fail.
        """
        ns = self._ns
        ids = ns._ids
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
            if inserts:
                _INSERTS.inc(inserts)
        return self

    @classmethod
    def close(
        cls,
        order: Sequence[ClassName],
        arrows: Iterable[Arrow],
        spec: Sequence[SpecEdge],
    ) -> DenseClosure:
        """The one-shot closure behind ``Schema.build``, ids in *order*.

        *order* lists every class exactly once and fixes the id table
        (``Schema.build`` passes canonical ``sort_key`` order, so equal
        inputs close to identical masks); *arrows* and *spec* are
        coerced edges between those classes.  Spec edges insert as
        rectangle updates, arrows OR into raw rows, and one sweep
        closes them.  A cycle raises
        :class:`~repro.exceptions.IncompatibleSchemasError` whose
        witness is a chain of the given *spec* edges.  Work counters
        are left alone: they account component folds and rebuilds.
        """
        builder = cls.from_dense(
            DenseClosure(tuple(order), tuple(1 << i for i in range(len(order))), {})
        )
        ids = builder._ns._ids
        try:
            for sub, sup in spec:
                builder._insert_edge(ids[sub], ids[sup])
        except IncompatibleSchemasError:
            raise cycle_error(relations.find_cycle(frozenset(spec)) or ()) from None
        rows = builder._rows
        for source, label, target in arrows:
            builder._add_row(rows, source, label, target)
        return builder.dense_state()

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
        >>> revived.add_spec_edge("Dog", "Animal").is_spec("Puppy", "Animal")
        True
        """
        builder = cls()
        builder._ns = NameSpace(dense.names)
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
        return frozenset(self._ns.names())

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
        >>> original.is_spec("Dog", "Animal"), twin.is_spec("Dog", "Animal")
        (False, True)
        """
        twin = ClosureBuilder()
        twin._ns = self._ns.clone()
        twin._succ = list(self._succ)
        twin._pred = list(self._pred)
        twin._rows = {sid: dict(t) for sid, t in self._rows.items()}
        return twin

    def is_spec(self, sub: ClassName, sup: ClassName) -> bool:
        """Does ``sub ==> sup`` hold in the accumulated closure?"""
        sub, sup = name(sub), name(sup)
        if sub == sup:
            return True
        ns = self._ns
        i = ns.id_of(sub)
        j = ns.id_of(sup)
        if i is None or j is None:
            return False
        return bool((self._succ[i] >> j) & 1)

    def spec_pairs(self) -> FrozenSet[SpecEdge]:
        """The current reflexive-transitive specialization closure."""
        return DenseClosure(self._ns.names(), tuple(self._succ), {}).decode_spec()

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
        return DenseClosure(self._ns.names(), tuple(self._succ), out)

    def build(
        self,
        extra_arrows: Iterable[Arrow] = (),
    ) -> Schema:
        """Close the accumulated components into an (interned) Schema.

        The builder stays usable afterwards — ``build`` is a snapshot,
        not a terminal operation; *extra_arrows* participate in this
        snapshot only (coerced and validated like every other input,
        with unseen endpoints appearing as isolated classes).

        The returned schema is backed by the dense closure directly:
        its flat arrow relation and structural hash materialize lazily,
        on first use.
        """
        ns = self._ns
        succ = self._succ
        rows = self._rows
        extra = [_coerce_arrow(edge) for edge in extra_arrows]
        if extra:
            # Work on copies: build() must not mutate the accumulator.
            saved = (self._ns, self._succ, self._pred, self._rows)
            self._ns = ns = ns.clone()
            self._succ = succ = list(succ)
            self._pred = list(self._pred)
            self._rows = rows = {sid: dict(t) for sid, t in rows.items()}
            try:
                for source, label, target in extra:
                    self._add_row(rows, source, label, target)
                out, swept = self._fold_sweep(succ, rows)
            finally:
                self._ns, self._succ, self._pred, self._rows = saved
        else:
            out, swept = self._fold_sweep(succ, rows)
        _REBUILDS.inc()
        _ARROWS_SWEPT.inc(swept)
        return Schema._from_dense(DenseClosure(ns.names(), tuple(succ), out))
