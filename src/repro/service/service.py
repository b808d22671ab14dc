"""The long-lived merge service: registry, shards, snapshot caches.

:class:`MergeService` turns the one-shot ``join_all`` pipeline into a
registry-and-query engine.  Schemas are registered in batches; each
batch folds into the per-component :class:`~repro.service.shards.Shard`
builders (creating and merging shards as name overlap dictates) and
either commits atomically or rolls back without a trace.  Queries are
answered from generation-stamped snapshot caches
(:mod:`repro.service.snapshots`), so a read-mostly workload costs a
dictionary lookup per request, and a write invalidates only the
component it touches.

**Concurrency model (per-shard locking).**  The paper's merge is
component-local — a registration touches exactly the shards its class
names reach — so the service locks at that grain instead of
serializing everything:

* one short-lived **topology lock** guards the mutable registry maps
  (``class → shard``, ``sid → shard``, the in-flight reservations) and
  is only ever held for planning, validation and the commit swap —
  never during closure work;
* one **shard lock per component** serializes writers on the same
  component; a writer acquires the locks of exactly the shards its
  batch touches, *in ascending shard-id order* (bridging batches take
  several; the global order makes deadlock impossible), then rebuilds
  on clones outside the topology lock;
* **reads take no lock at all.**  Committed :class:`Shard` objects are
  immutable (a mutation publishes a *new* shard object), commits
  append their log record first and then publish in a stale-reads-only
  order (new shards, class map, dead shards dropped, generation bumped
  last), and the caches stamp conservatively — so a racing reader sees
  either the old consistent state or the new one, never a torn one,
  and a warm ``merged_view`` never waits behind an in-flight write.

Writers that race on the same *new* class names are serialized through
**reservations**: the first validated writer claims the names (mapping
them to its target shard id under the topology lock), so contenders
plan onto the same shard id, block on its lock, and re-validate once
the claimant commits or rolls back.

**Telemetry.** Every instance reports into the global
:data:`repro.obs.metrics.REGISTRY` (last-wins, so the registry always
describes the newest service): ``service.register.{calls,schemas,
rollbacks,duration}``, ``service.merged_view.{hits,partial_hits,misses,
duration}``, ``service.query.duration``, plus ``service.components`` /
``service.generation`` / ``service.requests`` callback gauges.
Counters are always live; spans and duration histograms engage only
after :func:`repro.obs.enable`, and the read paths *sample* their
timing 1-in-``telemetry_sample_every`` requests.  The sample test is a
phase compare — ``(requests & mask) == phase`` where the phase is
unreachable while telemetry is off — so the disabled hot path executes
the very same instructions and the enabled-mode overhead on a warm
``merged_view`` is just the occasional sampled clock pair (measured
well under the 5% budget by ``benchmarks/bench_obs_overhead.py``).

>>> from repro.core.schema import Schema
>>> service = MergeService()
>>> service.register([
...     Schema.build(arrows=[("Dog", "owner", "Person")]),
...     Schema.build(arrows=[("Case", "judge", "Court")]),
... ])
RegisterReceipt(accepted=2, components=2, generation=1)
>>> service.merged_view("Dog").has_arrow("Dog", "owner", "Person")
True
>>> service.register([Schema.build(arrows=[("Person", "argues", "Case")])])
RegisterReceipt(accepted=1, components=1, generation=2)
>>> service.query("Dog").component == service.query("Court").component
True
>>> stats = service.service_stats()
>>> stats["registered_schemas"], stats["requests_served"]
(3, 3)
"""

from __future__ import annotations

import itertools
import threading
import weakref
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple, Union, cast

from dataclasses import replace as _dc_replace
from pathlib import Path

from repro.check.witness import LockLike, WitnessedLock, witness_active
from repro.core.names import ClassName, name
from repro.core.schema import DenseClosure, Schema
from repro.exceptions import (
    CorruptLogError,
    InvalidRequestError,
    RetiredSchemaError,
    ServiceShutdownError,
    UnknownClassError,
    UnknownSchemaError,
)
from repro.obs import _state as _obs_state
from repro.obs.metrics import Counter, Gauge, Histogram, REGISTRY
from repro.obs.tracing import span
from repro.perf.closure import ClosureBuilder
from repro.service.api_types import QueryResult, RegisterReceipt, RetireReceipt
from repro.service.shards import Shard, plan_groups
from repro.service.snapshots import ComponentSnapshot, SnapshotCache
from repro.service.storage import (
    RECOVERIES,
    REPLAYS,
    ComponentState,
    FileBackend,
    LogRecord,
    MemoryBackend,
    RegistrationEntry,
    ServiceState,
    StorageBackend,
    VersionState,
    _LazyMembers,
)

__all__ = ["MergeService"]

_MISS = SnapshotCache.MISS

ComponentRef = Union[int, ClassName, str]


def _new_topology_lock() -> LockLike:
    """The planner lock — witnessed when the debug witness is enabled.

    :func:`repro.check.witness.enable_witness` must be called *before*
    the service is constructed; existing locks are never retrofitted.
    """
    if witness_active():
        return WitnessedLock(planner=True)
    return threading.Lock()


def _new_shard_lock(sid: int) -> LockLike:
    """A shard lock, order-checked by sid when the witness is enabled."""
    if witness_active():
        return WitnessedLock(sid=sid)
    return threading.Lock()


class _ServiceTelemetry:
    """One service's instrument bundle, registered last-wins.

    Counters and histograms are owned per instance (a fresh service
    starts its telemetry from zero and replaces its predecessor in the
    global registry); the gauges read the live service through a weak
    reference so telemetry never keeps a dead service alive.
    """

    __slots__ = (
        "calls",
        "schemas",
        "rollbacks",
        "retries",
        "register_duration",
        "view_hits",
        "view_partial",
        "view_misses",
        "view_duration",
        "query_duration",
        "gauges",
    )

    def __init__(self, service: "MergeService") -> None:
        self.calls = REGISTRY.register(Counter("service.register.calls"))
        self.schemas = REGISTRY.register(Counter("service.register.schemas"))
        self.rollbacks = REGISTRY.register(
            Counter("service.register.rollbacks")
        )
        self.retries = REGISTRY.register(
            Counter("service.register.plan_retries")
        )
        self.register_duration = REGISTRY.register(
            Histogram("service.register.duration")
        )
        self.view_hits = REGISTRY.register(
            Counter("service.merged_view.hits")
        )
        self.view_partial = REGISTRY.register(
            Counter("service.merged_view.partial_hits")
        )
        self.view_misses = REGISTRY.register(
            Counter("service.merged_view.misses")
        )
        self.view_duration = REGISTRY.register(
            Histogram("service.merged_view.duration")
        )
        self.query_duration = REGISTRY.register(
            Histogram("service.query.duration")
        )
        ref = weakref.ref(service)

        def _reader(attr: str) -> "Callable[[], int]":
            def read() -> int:
                svc = ref()
                return int(getattr(svc, attr)) if svc is not None else 0

            return read

        def _components() -> int:
            svc = ref()
            return len(svc._shards) if svc is not None else 0

        self.gauges = [
            REGISTRY.register(Gauge("service.components", fn=_components)),
            REGISTRY.register(
                Gauge("service.generation", fn=_reader("_generation"))
            ),
            REGISTRY.register(
                Gauge("service.requests", fn=_reader("_requests"))
            ),
        ]

    def view_counts(self) -> Dict[str, int]:
        return {
            "hits": self.view_hits.value,
            "partial_hits": self.view_partial.value,
            "misses": self.view_misses.value,
        }


#: Live services, so flipping the global telemetry switch re-phases
#: every instance's read-path sampling in one pass.
_SERVICES: "weakref.WeakSet[MergeService]" = weakref.WeakSet()


def _sync_sampling(enabled: bool) -> None:
    for service in list(_SERVICES):
        service._sample_on = 0 if enabled else service._sample_mask + 1


_obs_state.subscribe(_sync_sampling)


class _Group:
    """One component a write touches: planned, then staged, then committed.

    *sid* is the component the group commits as, *replaced* the
    committed shards it supersedes (frozen: the writer holds their
    locks; none for a fresh sid), *indices* the batch members landing
    in it, *reserved* the class names this writer claimed for *sid*.
    Staging sets *builder* (``None`` drops the component) and *members*.
    """

    __slots__ = ("sid", "replaced", "indices", "reserved", "builder", "members")

    def __init__(
        self, sid: int, replaced: List[Shard], indices: List[int], reserved: List[ClassName]
    ) -> None:
        self.sid = sid
        self.replaced = replaced
        self.indices = indices
        self.reserved = reserved
        self.builder: Optional[ClosureBuilder] = None
        self.members: List[Schema] = []


#: ``plan_groups`` output: per group, the shard ids it replaces and its batch indices.
_Plan = List[Tuple[Set[int], List[int]]]
#: A write's lifecycle-table delta plus the log record describing it.
_Delta = Tuple[Dict[str, Tuple[VersionState, ...]], LogRecord]


def _disjoint_union(parts: List[Schema]) -> Schema:
    """The union of class-disjoint closed schemas, without re-closing.

    A union of class-disjoint closed schemas is itself closed, so the
    id tables chain and each part's masks shift past the ids before it.
    """
    names: List[ClassName] = []
    succ: List[int] = []
    reach: Dict[Tuple[int, str], int] = {}
    for part in parts:
        dense = part._dense
        shift = len(names)
        names.extend(dense.names)
        succ.extend(mask << shift for mask in dense.succ)
        reach.update(
            ((src + shift, label), tmask << shift)
            for (src, label), tmask in dense.reach.items()
        )
    return DenseClosure(tuple(names), tuple(succ), reach).to_schema()

class MergeService:
    """A thread-safe registry of schemas serving merged views and queries.

    Writes lock per component (see the module docstring), reads are
    lock-free against published immutable shards.  *component_cache_size*
    bounds the per-shard merged-schema cache, *snapshot_cache_size* the
    request-level answer cache; both are pure memory ceilings — eviction
    costs a recomputation, never correctness.  *telemetry_sample_every*
    (a power of two) sets how often the read paths time themselves while
    telemetry is enabled: the default 64 keeps the warm-path overhead
    negligible; benchmarks pass 1 for full latency distributions.
    """

    def __init__(
        self,
        schemas: Iterable[Union[Schema, RegistrationEntry]] = (),
        *,
        component_cache_size: int = 4096,
        snapshot_cache_size: int = 256,
        telemetry_sample_every: int = 64,
        storage: Optional[StorageBackend] = None,
        snapshot_every: Optional[int] = None,
    ) -> None:
        if telemetry_sample_every < 1 or (
            telemetry_sample_every & (telemetry_sample_every - 1)
        ):
            raise InvalidRequestError(
                "telemetry_sample_every must be a power of two, got "
                f"{telemetry_sample_every!r}"
            )
        if snapshot_every is not None and snapshot_every < 1:
            raise InvalidRequestError(
                f"snapshot_every must be positive, got {snapshot_every!r}"
            )
        #: Guards the registry maps below; held only for plan/validate/
        #: commit — never while closure work runs.
        self._topology = _new_topology_lock()  # lock: planner
        self._shards: Dict[int, Shard] = {}  # guarded-by(writes): _topology
        self._shard_locks: Dict[int, LockLike] = {}  # guarded-by: _topology
        self._class_to_sid: Dict[ClassName, int] = {}  # guarded-by(writes): _topology
        #: In-flight writers' claims on not-yet-committed class names.
        self._reserved: Dict[ClassName, int] = {}  # guarded-by: _topology
        self._next_sid = 0  # guarded-by: _topology
        self._generation = 0  # guarded-by(writes): _topology
        self._closed = False  # guarded-by(writes): _topology
        self._requests = 0
        self._ticker = itertools.count(1)  # frozen-after-init
        self._sample_mask = telemetry_sample_every - 1  # frozen-after-init
        # The phase trick: sampling tests `(requests & mask) == _sample_on`.
        # Enabled sets the phase to 0 (1-in-N requests match); disabled
        # sets it past the mask so no request ever matches — the compare
        # itself runs either way, keeping both modes instruction-identical.
        self._sample_on = 0 if _obs_state.enabled else self._sample_mask + 1
        self._component_cache = SnapshotCache(
            "service.components", maxsize=component_cache_size
        )
        self._snapshot_cache = SnapshotCache(
            "service.snapshots", maxsize=snapshot_cache_size
        )
        self._telemetry = _ServiceTelemetry(self)  # frozen-after-init
        #: The binding never changes after construction; the *object* is
        #: mutated (``append``) only under the topology lock, which is
        #: what makes log order equal commit order.
        self._storage: StorageBackend = (  # guarded-by(writes): _topology
            storage if storage is not None else MemoryBackend()
        )
        self._snapshot_every = snapshot_every  # frozen-after-init
        self._log_seq = 0  # guarded-by(writes): _topology
        self._last_cut_seq = 0  # guarded-by(writes): _topology
        #: The schema-lifecycle table: name → version records, sorted by
        #: version.  Values are replaced wholesale, never mutated.
        self._series: Dict[str, Tuple[VersionState, ...]] = {}  # guarded-by(writes): _topology
        #: True only while single-threaded recovery replays the log —
        #: suppresses re-appending and snapshot cuts.
        self._replaying = False
        _SERVICES.add(self)
        self._recover()
        initial = list(schemas)
        if initial:
            self.register(initial)

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        *,
        component_cache_size: int = 4096,
        snapshot_cache_size: int = 256,
        telemetry_sample_every: int = 64,
        snapshot_every: Optional[int] = None,
        fsync: bool = True,
    ) -> "MergeService":
        """A service durably backed by directory *path* (warm restart).

        Creates the directory on first use; on every later open the
        registry is restored from the newest complete snapshot cut and
        the log suffix is replayed through the ordinary registration
        code path — the decoder re-validates every restored component's
        closure invariants before the service answers anything.  Raises
        :class:`~repro.exceptions.CorruptLogError` /
        :class:`~repro.exceptions.CorruptSnapshotError` when the
        persisted artifacts fail their integrity checks.
        """
        return cls(
            component_cache_size=component_cache_size,
            snapshot_cache_size=snapshot_cache_size,
            telemetry_sample_every=telemetry_sample_every,
            storage=FileBackend(path, fsync=fsync),
            snapshot_every=snapshot_every,
        )

    @property
    def telemetry(self) -> _ServiceTelemetry:
        """This instance's registered instruments (counters read live)."""
        return self._telemetry

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Refuse further requests (idempotent; in-flight calls finish).

        Also releases the storage backend's resources.  Durability does
        not depend on a clean close — every committed mutation was
        fsync'd when it was logged — so a killed process loses nothing
        a closed one keeps.
        """
        with self._topology:
            self._closed = True
        self._storage.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceShutdownError("the merge service has been shut down")

    # ------------------------------------------------------------------
    # Durability (storage backend, recovery, snapshot cuts)
    # ------------------------------------------------------------------

    def _recover(self) -> None:
        """Restore from the backend: newest snapshot cut + log suffix.

        Runs single-threaded during construction, before the instance
        is shared.  Replayed records go through the ordinary
        ``register``/``retire`` code paths (with re-appending
        suppressed), so a warm restart and a cold re-registration of
        the same log are the *same computation* — the restart-
        equivalence property the recovery tests pin down.
        """
        state = self._storage.load_state()
        base_seq = 0
        if state is not None:
            self._restore_state(state)
            base_seq = state.seq
        replayed = 0
        last_seq = base_seq
        self._replaying = True
        try:
            for seq, record in self._storage.records(after=base_seq):
                if seq <= base_seq:  # backends may ignore the hint
                    continue
                self._apply_record(seq, record)
                last_seq = seq
                replayed += 1
        finally:
            self._replaying = False
        with self._topology:
            self._log_seq = last_seq
            self._last_cut_seq = base_seq
        if replayed:
            REPLAYS.inc(replayed)
        if state is not None or replayed:
            RECOVERIES.inc()
            # Recovery ends with a ready-to-serve registry: assembling
            # the global view here (still single-threaded, before the
            # instance is shared) means the first post-restart
            # ``merged_view`` is a cache hit instead of a latency spike
            # that re-materializes every component's closed relations.
            self._global_view()

    def _restore_state(self, state: ServiceState) -> None:
        """Adopt a decoded snapshot cut as the live registry layout.

        Each component's dense closure (already invariant-validated by
        the decoder) seeds a live builder via
        :meth:`ClosureBuilder.from_dense` — no member re-folding — and
        its merged view is pre-warmed into the component cache, which
        is what makes the first post-restart ``merged_view`` cheap.
        """
        with self._topology:
            for component in state.components:
                builder = ClosureBuilder.from_dense(component.dense)
                # The member sequence is adopted as-is: a FileBackend
                # hands back a lazily-decoded view whose hydration cost
                # is only paid by a later mutation of this shard.
                shard = Shard(
                    component.sid,
                    builder,
                    component.members,
                    component.generation,
                )
                self._shards[component.sid] = shard
                self._shard_locks[component.sid] = _new_shard_lock(
                    component.sid
                )
                for cls in builder.classes:
                    self._class_to_sid[cls] = component.sid
            self._series = {
                schema_name: tuple(versions)
                for schema_name, versions in state.series.items()
            }
            self._generation = state.generation
            self._next_sid = max(state.next_sid, self._next_sid)
        for component in state.components:
            self._component_cache.store(
                component.sid,
                component.dense.to_schema(),
                component.generation,
            )

    def _apply_record(self, seq: int, record: LogRecord) -> None:
        """Replay one log record; reject a log that no longer determines
        the state it recorded (Hellerstein-style: same log, same state)."""
        try:
            if record.kind == "register":
                # The recorded sids are forced onto fresh groups so the
                # recovered registry hands out the component ids the
                # original did (rollbacks and plan retries burn ids that
                # committed history never sees).
                self._register(record.entries, record.sids or None)
            elif record.kind == "retire":
                if record.name is None:
                    raise CorruptLogError(
                        f"log record {seq} retires without a schema name"
                    )
                self._retire(record.name, record.versions)
            else:
                raise CorruptLogError(
                    f"log record {seq} has unknown kind {record.kind!r}"
                )
        except CorruptLogError:
            raise
        except Exception as exc:
            # Only committed mutations are ever logged, so a replay that
            # fails (incompatible batch, duplicate version, unknown
            # name) means the log does not match the state it claims.
            raise CorruptLogError(
                f"log record {seq} no longer applies cleanly: {exc}"
            ) from exc
        if self._generation != record.generation:
            raise CorruptLogError(
                f"replaying log record {seq} produced generation "
                f"{self._generation}, but the record committed "
                f"generation {record.generation} — the log and the "
                f"registry have diverged"
            )

    def save(self) -> int:
        """Cut a full snapshot set now; returns the covered log position.

        Also runs automatically every *snapshot_every* committed log
        records.  The capture is consistent (taken under the topology
        lock) but the expensive part — sweeping each component's dense
        state and writing the files — happens outside every lock, off
        immutable shard objects.
        """
        self._check_open()
        state = self._capture_state()
        self._storage.save_state(state)
        with self._topology:
            if state.seq > self._last_cut_seq:
                self._last_cut_seq = state.seq
        return state.seq

    def _capture_state(self) -> ServiceState:
        with self._topology:
            shards = sorted(self._shards.values(), key=lambda s: s.sid)
            series = dict(self._series)
            generation = self._generation
            next_sid = self._next_sid
            seq = self._log_seq
        components = tuple(
            ComponentState(
                sid=shard.sid,
                generation=shard.generation,
                dense=shard.builder.dense_state(),
                # Keep a still-lazy member view as-is (a cut right
                # after recovery re-writes the raw docs verbatim);
                # lists are copied because later commits replace them.
                members=(
                    shard.schemas
                    if isinstance(shard.schemas, _LazyMembers)
                    else tuple(shard.schemas)
                ),
            )
            for shard in shards
        )
        return ServiceState(
            seq=seq,
            generation=generation,
            next_sid=next_sid,
            components=components,
            series=series,
        )

    def _maybe_cut(self) -> None:
        """Cut a snapshot when the log has grown past the cadence."""
        every = self._snapshot_every
        if every is None or self._replaying:
            return
        with self._topology:
            due = self._log_seq - self._last_cut_seq >= every
        if due:
            self.save()

    # ------------------------------------------------------------------
    # Registration (writers)
    # ------------------------------------------------------------------

    def register(
        self, schemas: Iterable[Union[Schema, RegistrationEntry]]
    ) -> RegisterReceipt:
        """Fold a batch of schemas into the registry — atomically.

        Items may be bare :class:`~repro.core.schema.Schema` values
        (anonymous) or :class:`~repro.service.storage.RegistrationEntry`
        wrappers that name the schema and enroll it in the lifecycle
        table (see :meth:`resolve_schema` / :meth:`retire`).

        The whole batch is applied to *clones* of the touched shards'
        builders first, while holding only those shards' locks — writes
        to disjoint components proceed in parallel; only if every schema
        folds in cleanly is the new layout swapped in (one generation
        bump for the batch).  On
        :class:`~repro.exceptions.IncompatibleSchemasError` (or a
        version conflict on a named entry, or a failed log append)
        nothing is committed: shard layout, lifecycle table, generation
        and every cached answer are exactly as before the call — and
        nothing reaches the log, which records committed mutations only.

        With telemetry enabled the call produces a span tree —
        ``service.register`` → ``service.plan`` → one
        ``service.rebuild`` per touched component → ``service.snapshot``
        — and its duration lands in ``service.register.duration``.
        """
        return self._register(schemas)

    def _register(
        self,
        schemas: Iterable[Union[Schema, RegistrationEntry]],
        sids: Optional[Tuple[int, ...]] = None,
    ) -> RegisterReceipt:
        """:meth:`register`, with replay's recorded component *sids*."""
        incoming = [self._coerce_entry(item) for item in schemas]
        # Empty schemas assert nothing and belong to no component.
        entries = [e for e in incoming if not e.schema.is_empty()]
        batch = [e.schema for e in entries]
        tel = self._telemetry
        with span("service.register", schemas=len(incoming)) as root:
            self._check_open()
            tel.calls.inc()
            if not batch:
                with self._topology:
                    return RegisterReceipt(
                        accepted=len(incoming),
                        components=len(self._shards),
                        generation=self._generation,
                    )
            timing = _obs_state.enabled
            start = perf_counter() if timing else 0.0

            def delta(generation: int, groups: List[_Group], _key: Any) -> _Delta:
                update, logged = self._stage_series(entries)
                committed = tuple(group.sid for group in groups)
                return update, LogRecord("register", generation, logged, committed)

            generation, components, _key = self._write(
                root,
                lambda: (self._plan_register(batch), None),
                batch,
                lambda groups, _key: self._rebuild(groups, batch),
                delta,
                sids,
            )
            if timing:
                tel.register_duration.observe(perf_counter() - start)
            root.set(components=components, generation=generation)
            return RegisterReceipt(
                accepted=len(incoming),
                components=components,
                generation=generation,
            )

    @staticmethod
    def _coerce_entry(
        item: Union[Schema, RegistrationEntry]
    ) -> RegistrationEntry:
        if isinstance(item, RegistrationEntry):
            entry = item
        elif isinstance(item, Schema):
            entry = RegistrationEntry(item)
        else:
            raise InvalidRequestError(
                "register() accepts Schema or RegistrationEntry items, "
                f"got {type(item).__name__}"
            )
        if entry.name is not None and entry.schema.is_empty():
            raise InvalidRequestError(
                f"named registration {entry.name!r} must assert at least "
                "one class (empty schemas have no component to retire)"
            )
        return entry

    def _stage_series(  # requires-lock: _topology
        self, entries: List[RegistrationEntry]
    ) -> Tuple[
        Dict[str, Tuple[VersionState, ...]], Tuple[RegistrationEntry, ...]
    ]:
        """Validate named entries and compute the lifecycle-table delta.

        Topology lock held by the caller (versions must be checked
        against the same series state the commit publishes into).
        Returns the per-name replacement tuples plus the entries with
        versions and lifecycles *resolved* — the form that enters the
        log, so replay never depends on re-deriving defaults.  Raises
        :class:`~repro.exceptions.InvalidRequestError` on a version
        conflict, before anything is published.
        """
        update: Dict[str, Tuple[VersionState, ...]] = {}
        logged: List[RegistrationEntry] = []
        for entry in entries:
            if entry.name is None:
                logged.append(entry)
                continue
            current = update.get(entry.name)
            if current is None:
                current = self._series.get(entry.name, ())
            existing = {v.version for v in current}
            version = entry.version
            if version is None:
                version = max(existing, default=0) + 1
            elif version in existing:
                raise InvalidRequestError(
                    f"schema {entry.name!r} already has a version "
                    f"{version} (version numbers are never reused)"
                )
            lifecycle = (
                entry.lifecycle if entry.lifecycle is not None
                else "recommended"
            )
            versions = list(current)
            if lifecycle == "recommended":
                # The supersede chain: a new recommended version demotes
                # the previous one to "supported".
                versions = [
                    _dc_replace(v, lifecycle="supported")
                    if v.lifecycle == "recommended" and not v.retired
                    else v
                    for v in versions
                ]
            versions.append(
                VersionState(version, lifecycle, False, entry.schema)
            )
            versions.sort(key=lambda v: v.version)
            update[entry.name] = tuple(versions)
            logged.append(
                RegistrationEntry(entry.schema, entry.name, version, lifecycle)
            )
        return update, tuple(logged)

    def _plan_register(self, batch: List[Schema]) -> _Plan:  # requires-lock: _topology
        """Register's plan: the batch over the committed and reserved layout."""
        return plan_groups(batch, self._class_to_sid, self._reserved)

    def _write(
        self,
        root: Any,
        plan: Callable[[], Tuple[_Plan, Any]],
        batch: List[Schema],
        stage: Callable[[List[_Group], Any], None],
        delta: Callable[[int, List[_Group], Any], _Delta],
        sids: Optional[Tuple[int, ...]],
    ) -> Tuple[int, int, Any]:
        """The one write path: plan → lock → stage → commit.

        :meth:`register` and :meth:`retire` both edit the member
        multisets of some components and re-close them (the merge is
        associative and commutative, so members determine the view).
        They differ only in *plan* (the touched components plus a key
        that must survive re-validation; runs under the topology lock),
        *stage* (the closure work, outside the topology lock) and
        *delta* (the lifecycle-table change and the log record; runs in
        the commit).  Returns the generation, the component count at
        the commit, and the plan key.  A failed stage or commit is
        abandoned — counted in ``service.register.rollbacks``, nothing
        published.
        """
        with span("service.plan", batch=len(batch)):
            groups, key, held = self._plan_and_lock(plan, batch, sids)
        try:
            stage(groups, key)
            with span("service.snapshot"):
                with self._topology:
                    generation, components = self._commit(
                        groups, lambda g: delta(g, groups, key)
                    )
        except BaseException:
            with self._topology:
                self._abandon(groups)
            self._telemetry.rollbacks.inc()
            root.set(rolled_back=True)
            raise
        finally:
            for lock in reversed(held):
                lock.release()
        self._maybe_cut()
        return generation, components, key

    def _plan_and_lock(
        self,
        plan: Callable[[], Tuple[_Plan, Any]],
        batch: List[Schema],
        sids: Optional[Tuple[int, ...]],
    ) -> Tuple[List[_Group], Any, List[LockLike]]:
        """Plan a write and acquire exactly the locks it needs.

        The optimistic loop: *plan* under the topology lock, *release
        it*, acquire the planned shard locks in ascending sid order
        (blocking on contended components without stalling disjoint
        writers), then re-plan under the topology lock.  If the plan
        went stale while we waited — a contended shard was absorbed, a
        rolled-back reservation vanished, the key changed — everything
        is released and the loop replans; each pass either returns or
        observed another writer's commit/rollback, so the loop
        terminates.  If re-planning raises, the held locks are released
        and the error propagates.  On success :meth:`_reserve` claims
        the plan; returns the groups, the key, and every held lock
        (sorted by sid — release order is the reverse).
        """
        while True:
            with self._topology:
                plans, key = plan()
                needed = sorted({sid for existing, _ in plans for sid in existing})
                found = [(sid, self._shard_locks.get(sid)) for sid in needed]
            lock_for: Dict[int, LockLike] = {
                sid: lock for sid, lock in found if lock is not None
            }
            if len(lock_for) != len(needed):
                # A planned shard vanished before we even started
                # acquiring (absorbed elsewhere, or a rolled-back
                # reservation); replan from the current layout.
                self._telemetry.retries.inc()
                continue
            held: List[LockLike] = []
            for sid in needed:
                lock_for[sid].acquire()
                held.append(lock_for[sid])
            try:
                with self._topology:
                    current, current_key = plan()
                    if (
                        current_key == key
                        and sorted({sid for existing, _ in current for sid in existing})
                        == needed
                        and all(self._shard_locks.get(sid) is lock_for[sid] for sid in needed)
                    ):
                        return self._reserve(current, batch, held, sids), key, held
            except BaseException:
                for lock in reversed(held):
                    lock.release()
                raise
            for lock in reversed(held):
                lock.release()
            self._telemetry.retries.inc()

    def _reserve(  # requires-lock: _topology
        self,
        plans: _Plan,
        batch: List[Schema],
        held: List[LockLike],
        forced: Optional[Tuple[int, ...]],
    ) -> List[_Group]:
        """Claim sids and class names for a validated plan.

        Topology lock held by the caller.  Fresh groups get a new sid
        (or, during replay, the *forced* sid the log recorded) whose
        lock is created *pre-acquired* (appended to *held*; no other
        writer can know the sid before we publish the reservation, so
        acquiring it cannot block and the ascending-sid lock order is
        preserved — fresh sids sort after every existing one).  Every
        batch class with no committed assignment is reserved to its
        group's target sid so contending writers plan onto our lock.
        """
        groups: List[_Group] = []
        if forced is not None and len(forced) != len(plans):
            raise CorruptLogError(
                f"log record committed {len(forced)} component groups, "
                f"but the batch plans {len(plans)} — the log and the "
                f"registry have diverged"
            )
        # The loop's only acquire targets a fresh, unpublished lock (see
        # below) — no ordering constraint applies.
        for group_index, (existing_sids, indices) in enumerate(  # check: ignore[lock-order]
            plans
        ):
            replaced_sids = sorted(existing_sids)
            if replaced_sids:
                sid = replaced_sids[0]
                if forced is not None and forced[group_index] != sid:
                    raise CorruptLogError(
                        f"log record committed into component "
                        f"{forced[group_index]}, but replay resolves the "
                        f"group to component {sid}"
                    )
            else:
                if forced is not None:
                    sid = forced[group_index]
                    if sid in self._shards or sid in self._shard_locks:
                        raise CorruptLogError(
                            f"log record allocates component {sid}, "
                            f"which already exists at replay time"
                        )
                    self._next_sid = max(self._next_sid, sid + 1)
                else:
                    sid = self._next_sid
                    self._next_sid += 1
                lock = _new_shard_lock(sid)
                # Acquiring under the planner lock is sanctioned here
                # only because the lock is fresh: no other thread can
                # know the sid before the reservation is published, so
                # this acquire can never block.
                if isinstance(lock, WitnessedLock):
                    lock.acquire(fresh=True)  # check: ignore[lock-nesting]
                else:
                    lock.acquire()  # check: ignore[lock-nesting]
                self._shard_locks[sid] = lock
                held.append(lock)
            reserved = []
            for index in indices:
                for cls in batch[index].classes:
                    if (
                        cls not in self._class_to_sid
                        and cls not in self._reserved
                    ):
                        self._reserved[cls] = sid
                        reserved.append(cls)
            groups.append(
                _Group(
                    sid,
                    [self._shards[old] for old in replaced_sids],
                    indices,
                    reserved,
                )
            )
        return groups

    def _rebuild(self, groups: List[_Group], batch: List[Schema]) -> None:
        """Register's stage: fold each group on clones, no global lock.

        Only the involved shard locks are held, so disjoint writers run
        their closure work concurrently.  Raises
        :class:`IncompatibleSchemasError` with nothing published.
        """
        for group in groups:
            with span(
                "service.rebuild",
                component=group.sid,
                schemas=len(group.indices),
            ):
                if group.replaced:
                    # Grow the largest member in place (on a clone) and
                    # fold the others' schemas in.
                    primary = max(
                        group.replaced, key=lambda shard: len(shard.schemas)
                    )
                    builder = primary.builder.clone()
                    members = list(primary.schemas)
                    for shard in group.replaced:
                        if shard is primary:
                            continue
                        for schema in shard.schemas:
                            builder.add_schema(schema)
                            members.append(schema)
                else:
                    builder = ClosureBuilder()
                    members = []
                for index in group.indices:
                    builder.add_schema(batch[index])
                    members.append(batch[index])
            group.builder = builder
            group.members = members

    def _commit(  # requires-lock: _topology
        self,
        groups: List[_Group],
        delta: Callable[[int], _Delta],
    ) -> Tuple[int, int]:  # publishes: _shards, _class_to_sid, _generation
        """Log a staged write, then publish it.  Topology lock held.

        *delta* validates the lifecycle-table change and builds the log
        record for the new generation; the record is appended (and
        fsync'd) *before* anything is published, so no reader can ever
        observe a state the log does not describe.  If either step
        raises, nothing has been published and the caller abandons the
        write.  Appending under the topology lock makes log order commit
        order (deterministic replay); readers never take that lock, so
        only concurrent *writers* wait behind the flush.

        Publication order matters for the lock-free readers: the new
        shard objects, the class map, dropping replaced shards, the
        lifecycle table, the generation bump last.  At every
        intermediate point a reader resolves to *some* committed shard
        whose content is current or a subset of current, and data can
        only ever be *fresher* than its generation stamp — so a race
        costs at worst a cache miss, never a stale answer served as
        current.  Returns the new generation and the component count.
        """
        generation = self._generation + 1
        series, record = delta(generation)
        if not self._replaying:
            self._log_seq = self._storage.append(record)
        for group in groups:
            if group.builder is not None:
                self._shards[group.sid] = Shard(
                    group.sid, group.builder, group.members, generation
                )
        for group in groups:
            kept = group.builder.classes if group.builder is not None else frozenset()
            for cls in kept:
                self._class_to_sid[cls] = group.sid
            for shard in group.replaced:
                for cls in shard.builder.classes - kept:
                    if self._class_to_sid.get(cls) == shard.sid:
                        del self._class_to_sid[cls]
            for cls in group.reserved:
                self._reserved.pop(cls, None)
        for group in groups:
            for shard in group.replaced:
                if shard.sid != group.sid or group.builder is None:
                    self._shards.pop(shard.sid, None)
                    self._shard_locks.pop(shard.sid, None)
        self._series.update(series)
        self._generation = generation
        self._telemetry.schemas.inc(len(record.entries))
        return generation, len(self._shards)

    def _abandon(self, groups: List[_Group]) -> None:  # requires-lock: _topology
        """Undo a failed write's claims.  Topology lock held by caller.

        Reservations disappear and fresh sids' locks are deregistered
        (we still hold the lock objects; waiters wake, fail the
        identity re-validation, and replan).  Committed shards were
        never touched — their builders were only cloned.
        """
        for group in groups:
            for cls in group.reserved:
                self._reserved.pop(cls, None)
            if not group.replaced:
                self._shard_locks.pop(group.sid, None)

    # ------------------------------------------------------------------
    # Schema lifecycle (named versions, retire)
    # ------------------------------------------------------------------

    def _live_versions(  # requires-lock: _topology
        self, schema_name: str
    ) -> List[VersionState]:
        """The not-yet-retired versions of a name; typed errors otherwise."""
        versions = self._series.get(schema_name)
        if versions is None:
            raise UnknownSchemaError(
                f"no registered schema is named {schema_name!r}"
            )
        live = [v for v in versions if not v.retired]
        if not live:
            raise RetiredSchemaError(
                f"schema {schema_name!r} has been retired"
            )
        return live

    @staticmethod
    def _preferred(live: List[VersionState]) -> VersionState:
        """Supersede-chain resolution: best lifecycle, then highest version."""
        for lifecycle in ("recommended", "supported", "obsolete"):
            candidates = [v for v in live if v.lifecycle == lifecycle]
            if candidates:
                return max(candidates, key=lambda v: v.version)
        return max(live, key=lambda v: v.version)

    def resolve_schema(self, schema_name: str) -> Schema:
        """The version the supersede chain currently recommends.

        A new ``recommended`` registration demotes its predecessor to
        ``supported``, so resolution always lands on the newest
        recommended version (falling back to the highest supported,
        then obsolete, version).  Raises
        :class:`~repro.exceptions.UnknownSchemaError` for names never
        registered and :class:`~repro.exceptions.RetiredSchemaError`
        once every version is retired.
        """
        self._check_open()
        with self._topology:
            live = self._live_versions(schema_name)
        return self._preferred(live).schema

    def schema_info(self, schema_name: str) -> Dict[str, Any]:
        """One named schema's lifecycle card: versions, states, component."""
        self._check_open()
        with self._topology:
            live = self._live_versions(schema_name)
            preferred = self._preferred(live)
            sid: Optional[int] = None
            for cls in preferred.schema.classes:
                sid = self._class_to_sid.get(cls)
                if sid is not None:
                    break
            versions = self._series[schema_name]
        return {
            "name": schema_name,
            "recommended": preferred.version,
            "component": sid,
            "versions": [
                {
                    "version": v.version,
                    "lifecycle": v.lifecycle,
                    "retired": v.retired,
                    "classes": len(v.schema.classes),
                }
                for v in versions
            ],
        }

    def retire(self, schema_name: str) -> RetireReceipt:
        """Withdraw every live version of a named schema — atomically.

        The first removal path: each owning component is *rebuilt* from
        its remaining member schemas (one occurrence of each retired
        version's schema is dropped; an equal anonymous registration
        survives), classes asserted only by the retired versions leave
        the registry, and the generation bump invalidates exactly the
        touched components' cached answers — untouched components keep
        their stamps and stay warm.  A component with no remaining
        members is dropped outright.  The retirement is logged like any
        other mutation, so restarts replay it.

        Retire shares :meth:`register`'s write path and its
        all-or-nothing failure behaviour.  Raises
        :class:`~repro.exceptions.UnknownSchemaError` /
        :class:`~repro.exceptions.RetiredSchemaError` like
        :meth:`resolve_schema`.
        """
        return self._retire(schema_name)

    def _retire(
        self, schema_name: str, versions: Optional[Tuple[int, ...]] = None
    ) -> RetireReceipt:
        """:meth:`retire`, or during replay exactly the logged *versions*."""
        with span("service.retire", schema=schema_name) as root:
            self._check_open()

            def delta(generation: int, _groups: List[_Group], live: Any) -> _Delta:
                retired = tuple(v.version for v in live)
                series = tuple(
                    _dc_replace(v, lifecycle="obsolete", retired=True)
                    if v.version in retired
                    else v
                    for v in self._series[schema_name]
                )
                record = LogRecord(
                    "retire", generation, name=schema_name, versions=retired
                )
                return {schema_name: series}, record

            generation, components, live = self._write(
                root,
                lambda: self._plan_retire(schema_name, versions),
                [],
                self._rebuild_without,
                delta,
                None,
            )
            root.set(generation=generation)
            return RetireReceipt(
                name=schema_name,
                versions=tuple(v.version for v in live),
                components=components,
                generation=generation,
            )

    def _plan_retire(  # requires-lock: _topology
        self, schema_name: str, versions: Optional[Tuple[int, ...]]
    ) -> Tuple[_Plan, List[VersionState]]:
        """Retire's plan: one group per owning component, keyed by the
        live versions it withdraws (a racing retire changes the key)."""
        live = self._live_versions(schema_name)
        if versions is not None:
            live = [v for v in live if v.version in versions]
        owners = {self._class_to_sid.get(cls) for v in live for cls in v.schema.classes}
        return [({sid}, []) for sid in sorted(o for o in owners if o is not None)], live

    @staticmethod
    def _rebuild_without(groups: List[_Group], live: List[VersionState]) -> None:
        """Retire's stage: rebuild each owning component from the members
        left once one occurrence of each retired version is dropped."""
        drop = [v.schema for v in live]
        for group in groups:
            (shard,) = group.replaced
            remaining = list(shard.schemas)
            for schema in drop:
                try:
                    remaining.remove(schema)
                except ValueError:
                    pass
            with span("service.rebuild", component=group.sid, schemas=len(remaining)):
                group.builder = ClosureBuilder(remaining) if remaining else None
            group.members = remaining

    # ------------------------------------------------------------------
    # Queries (lock-free readers)
    # ------------------------------------------------------------------

    def _resolve(self, component: ComponentRef) -> Shard:
        """The live shard for a component ref, tolerating commit races.

        Shard ids are resolved in one step.  Class names need two reads
        (``class → sid``, ``sid → shard``) that can straddle a commit;
        the class map is always updated *before* absorbed shards are
        dropped, so a short retry converges on the post-commit shard.
        """
        if isinstance(component, int):
            shard = self._shards.get(component)
            if shard is None:
                raise UnknownClassError(
                    f"unknown component id {component!r}"
                )
            return shard
        cls = name(component)
        for _attempt in range(64):
            sid = self._class_to_sid.get(cls)
            if sid is None:
                raise UnknownClassError(
                    f"no registered schema mentions class {cls}"
                )
            shard = self._shards.get(sid)
            if shard is not None:
                return shard
        # Pathological contention: settle it with one consistent read.
        with self._topology:
            sid = self._class_to_sid.get(cls)
            if sid is None or sid not in self._shards:
                raise UnknownClassError(
                    f"no registered schema mentions class {cls}"
                )
            return self._shards[sid]

    def _component_schema(self, shard: Shard) -> Tuple[Schema, Counter]:
        """One shard's merged view, plus the outcome counter it earned.

        The outcome (``service.merged_view.hits`` or ``.misses``) is
        returned un-incremented: only the public entry point counts, so
        a global view assembled from many component lookups still
        registers as a single request.  Safe without locks: committed
        shards are immutable and ``ClosureBuilder.build`` mutates
        nothing, so the worst concurrent case is two readers building
        the same component once each.
        """
        cached = self._component_cache.lookup(shard.sid, shard.generation)
        if cached is not _MISS:
            return cached, self._telemetry.view_hits
        merged = shard.builder.build()
        return (
            self._component_cache.store(shard.sid, merged, shard.generation),
            self._telemetry.view_misses,
        )

    def _global_view(self) -> Tuple[Schema, Counter]:
        """The merged view of everything — disjoint union over shards.

        Outcome accounting: a direct snapshot hit is a *hit*; a view
        reassembled purely from cached component parts is a *partial
        hit*; rebuilding any part makes the request a *miss*.

        The generation is read *before* the shard table is copied, so a
        concurrent commit can only make the assembled view fresher than
        its stamp (a later lookup re-misses; never serves stale).  A
        mid-commit copy can briefly hold both a merged shard and one it
        absorbed.  Such a copy holds a shard stamped past the generation
        read, and its parts are joined instead of chained: the absorbed
        content is a subset of the merge (the join is an upper bound),
        so the result is unchanged.
        """
        tel = self._telemetry
        generation = self._generation
        cached = self._snapshot_cache.lookup(("view", None), generation)
        if cached is not _MISS:
            return cached, tel.view_hits
        shards = self._shards.copy()
        if not shards:
            merged = Schema.empty()
            outcome = tel.view_misses
        else:
            outcome = tel.view_partial
            parts = []
            for shard in shards.values():
                part, part_outcome = self._component_schema(shard)
                if part_outcome is tel.view_misses:
                    outcome = tel.view_misses
                parts.append(part)
            if any(shard.generation > generation for shard in shards.values()):
                # Copied mid-commit: a merged shard (stamped with the
                # unpublished generation) may sit beside a shard it
                # absorbed, so the parts overlap — join them.
                merged = ClosureBuilder(parts).build()
            else:
                merged = _disjoint_union(parts)
        return (
            self._snapshot_cache.store(("view", None), merged, generation),
            outcome,
        )

    def merged_view(self, component: Optional[ComponentRef] = None) -> Schema:
        """The merged schema of one component, or of the whole registry.

        *component* may be a class name (the component containing it), a
        shard id from :meth:`components`, or ``None`` for the disjoint
        union of every component's merge — which equals the cold-path
        ``join_all`` over all registered schemas.  Never blocks behind a
        writer: answers come from the latest published snapshot.
        """
        self._check_open()
        self._requests = requests = next(self._ticker)
        if (requests & self._sample_mask) == self._sample_on:
            return self._merged_view_sampled(component)
        if component is None:
            view, outcome = self._global_view()
        else:
            view, outcome = self._component_schema(self._resolve(component))
        outcome.inc()
        return view

    def _merged_view_sampled(self, component: Optional[ComponentRef]) -> Schema:
        """The sampled slow path: same answer, plus one clock pair.

        Read paths deliberately record durations only — a span per read
        would cost more than the read itself and blow the 5% budget;
        the span tree lives on the write path (:meth:`register`).
        """
        start = perf_counter()
        if component is None:
            view, outcome = self._global_view()
        else:
            view, outcome = self._component_schema(self._resolve(component))
        self._telemetry.view_duration.observe(perf_counter() - start)
        outcome.inc()
        return view

    def query(self, cls: ClassName | str) -> QueryResult:
        """Everything the merged view asserts about one class name.

        The :class:`~repro.service.api_types.QueryResult` is cached per
        name and stamped with the shard it was derived from;
        registrations in *other* components re-validate it as a partial
        hit instead of recomputing.  Lock-free, like :meth:`merged_view`.
        """
        self._check_open()
        self._requests = requests = next(self._ticker)
        key_name = name(cls)
        if (requests & self._sample_mask) != self._sample_on:
            return self._query(key_name)
        start = perf_counter()
        answer = self._query(key_name)
        self._telemetry.query_duration.observe(perf_counter() - start)
        return answer

    def _query(self, key_name: ClassName) -> QueryResult:
        key = ("query", key_name)
        generation = self._generation

        def still_valid(stamp: Any) -> bool:
            if stamp is None:
                return False
            sid, shard_generation = stamp
            shard = self._shards.get(sid)
            return (
                shard is not None
                and self._class_to_sid.get(key_name) == sid
                and shard.generation == shard_generation
            )

        cached = self._snapshot_cache.lookup(key, generation, still_valid)
        if cached is not _MISS:
            return cached
        shard = self._resolve(key_name)
        merged, _outcome = self._component_schema(shard)
        answer = QueryResult.from_component(
            merged, key_name, shard.sid, len(shard.schemas)
        )
        self._snapshot_cache.store(
            key, answer, generation, stamp=(shard.sid, shard.generation)
        )
        return answer

    def component_snapshot(self, component: ComponentRef) -> ComponentSnapshot:
        """One component's merged view as a serialization-ready value.

        The :class:`~repro.service.snapshots.ComponentSnapshot` carries
        the shard's dense closure *with its id table*, so exporting a
        component (``snapshot.to_dict()`` →
        :func:`repro.io.json_io.snapshot_to_dict`) writes each name once
        and never re-walks the merged schema's object graph.  Cached and
        generation-stamped exactly like :meth:`query`: registrations in
        other components re-validate instead of recomputing.
        """
        self._check_open()
        shard = self._resolve(component)
        key = ("snapshot", shard.sid)
        generation = self._generation

        def still_valid(stamp: Any) -> bool:
            if stamp is None:
                return False
            sid, shard_generation = stamp
            live = self._shards.get(sid)
            return live is not None and live.generation == shard_generation

        cached = self._snapshot_cache.lookup(key, generation, still_valid)
        if cached is not _MISS:
            return cast(ComponentSnapshot, cached)
        merged, _outcome = self._component_schema(shard)
        snapshot = ComponentSnapshot(
            sid=shard.sid,
            generation=shard.generation,
            schemas=len(shard.schemas),
            dense=merged._dense,
        )
        self._snapshot_cache.store(
            key, snapshot, generation, stamp=(shard.sid, shard.generation)
        )
        return snapshot

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def component_of(self, cls: ClassName | str) -> Optional[int]:
        """The shard id owning *cls*, or ``None`` if the name is unknown."""
        return self._class_to_sid.get(name(cls))

    def components(self) -> Dict[int, Dict[str, int]]:
        """Per-shard summary: class count, member schemas, last mutation."""
        return {
            shard.sid: {
                "classes": len(shard.builder.classes),
                "schemas": len(shard.schemas),
                "generation": shard.generation,
            }
            for shard in sorted(
                self._shards.copy().values(), key=lambda s: s.sid
            )
        }

    def component_schemas(self, component: ComponentRef) -> Tuple[Schema, ...]:
        """The registered schemas that make up one component."""
        return tuple(self._resolve(component).schemas)

    def service_stats(self) -> Dict[str, Any]:
        """Operational counters: components, generation, cache hit rates.

        The historical dict shape, now read from the registered
        instruments (one source of truth with ``repro.obs``): the
        top-level fields ``components``, ``registered_schemas``,
        ``generation``, ``requests_served`` and the ``component_cache``
        / ``snapshot_cache`` counter blocks keep their pre-telemetry
        keys, and a ``telemetry`` block adds the merged-view outcome
        counters plus whatever latency distributions sampling has
        collected.
        """
        tel = self._telemetry
        with self._topology:
            series = dict(self._series)
            log_seq = self._log_seq
            last_cut_seq = self._last_cut_seq
        return {
            "components": len(self._shards),
            "registered_schemas": tel.schemas.value,
            "generation": self._generation,
            "requests_served": self._requests,
            "storage": {
                "log_seq": log_seq,
                "last_cut_seq": last_cut_seq,
                "named_schemas": len(series),
                "retired_versions": sum(
                    1
                    for versions in series.values()
                    for v in versions
                    if v.retired
                ),
            },
            "component_cache": self._component_cache.stats(),
            "snapshot_cache": self._snapshot_cache.stats(),
            "telemetry": {
                "merged_view": tel.view_counts(),
                "register": {
                    "calls": tel.calls.value,
                    "rollbacks": tel.rollbacks.value,
                    "plan_retries": tel.retries.value,
                },
                "latency": {
                    "merged_view": tel.view_duration.percentiles(),
                    "query": tel.query_duration.percentiles(),
                    "register": tel.register_duration.percentiles(),
                },
            },
        }

    def clear_caches(self) -> None:
        """Drop every cached answer (recomputed on demand; never unsafe)."""
        self._component_cache.clear()
        self._snapshot_cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"MergeService(schemas={self._telemetry.schemas.value}, "
            f"components={len(self._shards)}, "
            f"generation={self._generation})"
        )
