"""The long-lived merge service: registry, shards, memoized answers.

:class:`MergeService` turns the one-shot ``join_all`` pipeline into a
registry-and-query engine.  Schemas are registered in batches; each
batch folds into the per-component :class:`~repro.service.shards.Shard`
builders (creating and merging shards as name overlap dictates) and
either commits atomically or rolls back without a trace.  Every
derived answer is memoized on the immutable shard it came from, so a
read-mostly workload costs a dictionary lookup per request, and a write
invalidates only the component it touches: the commit replaces that
shard, and its memos go with it.

**Concurrency model (one writer lock).**  Every write — ``register``
and ``retire`` alike — holds the one **writer lock** from plan to
publish: it plans which shards its class names reach, re-closes those
components on clones, appends its log record and publishes.  The
paper's merge is component-local, so a write still rebuilds only the
shards it touches, but writers run one at a time, in the lock's
arrival order — which is also the log's order, so replay needs no
tie-break between writers racing on the same new class names.

**Reads take no lock at all.**  The registry is one immutable
:class:`_Registry` value (shard table, class map, lifecycle table,
generation).  A commit appends its log record, builds the next value
on copies and publishes it with a single reference store; a reader
loads the reference once and answers from that value alone, so it
sees the whole old state or the whole new one and never waits behind
a write.

**Snapshot cuts run off the write path.**  A write that makes a cut
due hands a capture of the published value to one background cutter
thread and returns; the cut's file writes hold no service lock
(see :meth:`MergeService._cut_if_due` and :meth:`MergeService.save`).

**Telemetry.** Every instance reports into the global
:data:`repro.obs.metrics.REGISTRY` (last-wins, so the registry always
describes the newest service): ``service.register.{calls,schemas,
rollbacks,duration}``, ``service.merged_view.{hits,partial_hits,misses,
duration}``, ``service.query.duration``, the memo outcomes
``snapshot.{hits,misses}`` (``cache=service.components`` for component
views, ``cache=service.snapshots`` for the global view, query answers
and component snapshots), plus ``service.components`` /
``service.generation`` / ``service.requests`` callback gauges.
Counters are always live; spans and duration histograms engage only
after :func:`repro.obs.enable`, and the read paths *sample* their
timing 1-in-``telemetry_sample_every`` requests.  A request tests
``requests & mask`` first and reads the global switch only when the
mask selects it, so the other requests run the same instructions in
either mode, and the enabled-mode overhead on a warm ``merged_view`` is
just the occasional sampled clock pair (measured well under the 5%
budget by ``benchmarks/bench_obs_overhead.py``).

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
import json
import queue
import threading
import weakref
from contextlib import contextmanager
from time import perf_counter
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple, TypeVar,
    Union,
)

from dataclasses import replace as _dc_replace
from pathlib import Path

from repro.check.witness import LockLike, WitnessedLock, witness_active
from repro.core.names import ClassName, name
from repro.core.schema import DenseClosure, Schema
from repro.exceptions import (
    CorruptLogError,
    IncompatibleSchemasError,
    InvalidRequestError,
    RetiredSchemaError,
    ServiceShutdownError,
    UnknownClassError,
    UnknownSchemaError,
)
from repro.io.json_io import schema_to_dict
from repro.obs import _state as _obs_state
from repro.obs.metrics import Counter, Gauge, Histogram, REGISTRY
from repro.obs.tracing import span
from repro.perf.closure import ClosureBuilder
from repro.service.api_types import API_FORMAT, QueryResult, RegisterReceipt, RetireReceipt
from repro.service.shards import Shard, plan_groups
from repro.service.snapshots import ComponentSnapshot
from repro.service.storage import (
    CUT_DURATION,
    CUT_FAILURES,
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
    _Member,
)

__all__ = ["MergeService"]

ComponentRef = Union[int, ClassName, str]
_Key = TypeVar("_Key")
_Answer = TypeVar("_Answer")


def _new_writer_lock() -> LockLike:
    """The writer lock — witnessed when the debug witness is enabled.

    :func:`repro.check.witness.enable_witness` must be called *before*
    the service is constructed; existing locks are never retrofitted.
    """
    if witness_active():
        return WitnessedLock(planner=True)
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
        "register_duration",
        "view_hits",
        "view_partial",
        "view_misses",
        "view_duration",
        "query_duration",
        "component_hits",
        "component_misses",
        "answer_hits",
        "answer_misses",
        "gauges",
    )

    def __init__(self, service: "MergeService") -> None:
        self.calls = REGISTRY.register(Counter("service.register.calls"))
        self.schemas = REGISTRY.register(Counter("service.register.schemas"))
        self.rollbacks = REGISTRY.register(
            Counter("service.register.rollbacks")
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
        # Memo outcomes: component views, then every other answer.
        (
            self.component_hits, self.component_misses,
            self.answer_hits, self.answer_misses,
        ) = (
            REGISTRY.register(Counter(f"snapshot.{outcome}", cache=cache))
            for cache in ("service.components", "service.snapshots")
            for outcome in ("hits", "misses")
        )
        ref = weakref.ref(service)

        def _reader(read: "Callable[[MergeService], int]") -> "Callable[[], int]":
            def fn() -> int:
                svc = ref()
                return read(svc) if svc is not None else 0

            return fn

        self.gauges = [
            REGISTRY.register(Gauge(gauge_name, fn=_reader(read)))
            for gauge_name, read in (
                ("service.components", lambda s: len(s._registry.shards)),
                ("service.generation", lambda s: s._registry.generation),
                ("service.requests", lambda s: s._requests),
            )
        ]


class _Registry:
    """One published registry state: the whole of it, as one value.

    *shards* maps sid → :class:`Shard`, *class_to_sid* maps every class
    of those shards to its sid, *series* is the lifecycle table (name →
    version records sorted by version) and *generation* counts commits.
    Same log, same state: each log prefix determines exactly one value.
    None of the four is mutated after publication — a commit publishes a
    new value — so the parts always agree.  *view* memoizes the global
    merged view; lock-free readers fill it lazily, and it goes with the
    value a commit replaces.
    """

    __slots__ = ("shards", "class_to_sid", "series", "generation", "view")

    def __init__(
        self,
        shards: Dict[int, Shard],
        class_to_sid: Dict[ClassName, int],
        series: Dict[str, Tuple[VersionState, ...]],
        generation: int,
    ) -> None:
        self.shards = shards  # frozen-after-init
        self.class_to_sid = class_to_sid  # frozen-after-init
        self.series = series  # frozen-after-init
        self.generation = generation  # frozen-after-init
        self.view: Optional[Schema] = None


class _Group:
    """One component a write touches: planned, then staged, then committed.

    *sid* is the component the group commits as, *replaced* the
    committed shards it supersedes (none for a fresh sid), *added* the
    batch members landing in it (none for a retire).  Staging sets
    *builder* (``None`` drops the component) and *members*.
    """

    __slots__ = ("sid", "replaced", "added", "builder", "members")

    def __init__(self, sid: int, replaced: List[Shard], added: List[_Member]) -> None:
        self.sid = sid
        self.replaced = replaced
        self.added = added
        self.builder: Optional[ClosureBuilder] = None
        self.members: Tuple[_Member, ...] = ()


def _encode(payload: Dict[str, Any]) -> bytes:
    """A JSON document as the HTTP front end sends it."""
    return json.dumps(payload).encode("utf-8")


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


#: What a snapshot cut reads, taken under the writer lock: the published
#: registry value, the log position it covers and the next component id.
#: A published value and its shards never change (commits clone
#: builders), so a capture stays consistent without the lock.
_Capture = Tuple[_Registry, int, int]
#: One capture handed to the cutter: its ticket, capture time and value.
_Order = Tuple[int, float, _Capture]


def _cut_state(capture: _Capture) -> ServiceState:
    """The snapshot cut of one captured registry value."""
    registry, seq, next_sid = capture
    return ServiceState(
        seq=seq,
        generation=registry.generation,
        next_sid=next_sid,
        components=tuple(
            ComponentState(
                shard.sid,
                shard.generation,
                shard.builder.dense_state(),
                shard.members,
            )
            for shard in sorted(registry.shards.values(), key=lambda s: s.sid)
        ),
        series=registry.series,
    )


class _Cutter:
    """The one background thread that writes a service's snapshot cuts.

    A writer hands a capture over and returns: :meth:`submit` is one put
    on an unbounded queue, so the writer lock never waits on the cutter.
    The thread cuts the newest capture queued (a cut at a later log
    position covers the earlier ones) and records each outcome under
    its own lock, which it never holds across a cut.  A failed cut is
    counted in ``storage.cut_failures`` and reported to the waiters it
    leaves uncovered; the commits it was to cover are durable in the
    log, so no write fails for it.
    """

    def __init__(self, storage: StorageBackend, durable_seq: int) -> None:
        self._storage = storage  # frozen-after-init
        #: ``(ticket, capture time, capture)``; ``None`` stops the thread.
        self._inbox: "queue.SimpleQueue[Optional[_Order]]" = queue.SimpleQueue()  # frozen-after-init
        self._lock = threading.Lock()
        self._settled = threading.Condition(self._lock)  # frozen-after-init
        self._done = 0  # guarded-by: _lock
        self._durable_seq = durable_seq  # guarded-by(writes): _lock
        #: The failure of the newest cut, if it failed.
        self._error: Optional[Exception] = None  # guarded-by: _lock
        self._thread = threading.Thread(  # frozen-after-init
            target=self._run, name="repro-snapshot-cutter", daemon=True
        )
        self._thread.start()

    @property
    def durable_seq(self) -> int:
        """The log position covered by the newest durable cut."""
        return self._durable_seq

    def pending(self, ticket: int) -> bool:
        """Is the capture with *ticket* still waiting for its cut?"""
        with self._lock:
            return self._done < ticket

    def submit(self, ticket: int, capture: _Capture) -> None:
        """Queue a capture (tickets increase); never blocks."""
        self._inbox.put((ticket, perf_counter(), capture))

    def wait(self, ticket: int, seq: int) -> int:
        """Wait until capture *ticket*, at log position *seq*, is cut.

        Returns the durable cut's log position once it covers *seq*,
        even if a later cut has failed since; otherwise raises the
        failure of the newest cut, which covered *ticket* and failed.
        """
        with self._lock:
            while self._done < ticket:
                self._settled.wait()
            if self._durable_seq >= seq:
                return self._durable_seq
            assert self._error is not None  # a covering cut ran and failed
            raise self._error

    def stop(self) -> None:
        """Let the thread exit once it has cut what is queued."""
        self._inbox.put(None)

    def close(self) -> None:
        """Cut what is still queued, then stop the thread (idempotent)."""
        self.stop()
        self._thread.join()

    def _run(self) -> None:
        while True:
            items = [self._inbox.get()]
            while not self._inbox.empty():  # this thread is the only reader
                items.append(self._inbox.get_nowait())
            captures = [item for item in items if item is not None]
            if captures:
                self._cut(*captures[-1])
            if None in items:
                return

    def _cut(self, ticket: int, captured_at: float, capture: _Capture) -> None:
        error: Optional[Exception] = None
        try:
            self._storage.save_state(_cut_state(capture))
        except Exception as exc:  # noqa: BLE001 - reported to wait()
            CUT_FAILURES.inc()
            error = exc
        else:
            CUT_DURATION.observe(perf_counter() - captured_at)
        with self._lock:
            self._done = ticket
            self._error = error
            if error is None:
                self._durable_seq = capture[1]
            self._settled.notify_all()


class MergeService:
    """A thread-safe registry of schemas serving merged views and queries.

    Writes serialize on one writer lock (see the module docstring),
    reads are lock-free against the published registry value and answer from the
    memos on its shards.  *telemetry_sample_every*
    (a power of two) sets how often the read paths time themselves while
    telemetry is enabled: the default 64 keeps the warm-path overhead
    negligible; benchmarks pass 1 for full latency distributions.
    """

    def __init__(
        self,
        schemas: Iterable[Union[Schema, RegistrationEntry]] = (),
        *,
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
        #: Serializes writers from plan to publish; never taken by a reader.
        self._writer = _new_writer_lock()  # lock: planner
        #: The published registry; readers load it once per request.
        self._registry = _Registry({}, {}, {}, 0)  # guarded-by(writes): _writer
        self._next_sid = 0  # guarded-by: _writer
        self._closed = False  # guarded-by(writes): _writer
        self._requests = 0
        self._ticker = itertools.count(1)  # frozen-after-init
        self._sample_mask = telemetry_sample_every - 1  # frozen-after-init
        self._telemetry = _ServiceTelemetry(self)  # frozen-after-init
        #: The binding never changes after construction; the *object* is
        #: mutated (``append``) only under the writer lock, which is
        #: what makes log order equal commit order.
        self._storage: StorageBackend = (  # guarded-by(writes): _writer
            storage if storage is not None else MemoryBackend()
        )
        self._snapshot_every = snapshot_every  # frozen-after-init
        self._log_seq = 0  # guarded-by(writes): _writer
        #: The log position of the newest capture handed to the cutter
        #: (after recovery: of the recovered cut).
        self._captured_seq = 0  # guarded-by(writes): _writer
        self._cut_ticket = 0  # guarded-by(writes): _writer
        #: Started by the first cut that falls due.
        self._cutter: Optional[_Cutter] = None  # guarded-by(writes): _writer
        #: True only while single-threaded recovery replays the log —
        #: suppresses re-appending and snapshot cuts.
        self._replaying = False
        # A constructor that raises hands no instance back to close, so
        # every failure here releases the storage (its directory lock).
        try:
            self._recover()
            initial = list(schemas)
            if initial:
                self.register(initial)
        except BaseException:
            self._storage.close()
            raise

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        *,
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
        persisted artifacts fail their integrity checks, and
        :class:`~repro.exceptions.StorageLockedError` when another
        process has the directory open (one process must not open it
        twice; see :class:`~repro.service.storage.FileBackend`).
        """
        return cls(
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

        Waits for the write in flight, if any, and for the snapshot
        cutter to finish the cut it has queued, then releases the
        storage backend's resources (the data directory's ``LOCK``); a
        write arriving later raises
        :class:`~repro.exceptions.ServiceShutdownError`.  Durability
        does not depend on a clean close — every committed mutation was
        fsync'd when it was logged — so a killed process loses nothing
        a closed one keeps.
        """
        with self._writer:
            self._closed = True
            if self._cutter is not None:
                # Shutdown is the one wait on another thread under the
                # writer lock: the cutter never takes it, and no write
                # can follow.
                self._cutter.close()
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
        with self._writer:
            self._log_seq = last_seq
            self._captured_seq = base_seq
        if replayed:
            REPLAYS.inc(replayed)
        if state is not None or replayed:
            RECOVERIES.inc()
            # Recovery ends with a ready-to-serve registry: assembling
            # the global view here (still single-threaded, before the
            # instance is shared) means the first post-restart
            # ``merged_view`` is a memo hit instead of a latency spike
            # that re-materializes every component's closed relations.
            self._global_view()

    def _restore_state(self, state: ServiceState) -> None:
        """Adopt a decoded snapshot cut as the live registry layout.

        Each component's dense closure (already invariant-validated by
        the decoder) seeds a live builder via
        :meth:`ClosureBuilder.from_dense` — no member re-folding — and
        seeds the shard's *view* memo, which is what makes the first
        post-restart ``merged_view`` cheap.
        """
        shards: Dict[int, Shard] = {}
        class_to_sid: Dict[ClassName, int] = {}
        for component in state.components:
            builder = ClosureBuilder.from_dense(component.dense)
            # The members are adopted as-is: a FileBackend hands them
            # back undecoded, and only a later mutation of this shard
            # or introspection decodes them.
            shard = Shard(
                component.sid,
                builder,
                component.members,
                component.generation,
            )
            shard.view = component.dense.to_schema()
            shards[component.sid] = shard
            class_to_sid.update(dict.fromkeys(builder.classes, component.sid))
        series = {
            schema_name: tuple(versions)
            for schema_name, versions in state.series.items()
        }
        with self._writer:
            self._registry = _Registry(
                shards, class_to_sid, series, state.generation
            )
            self._next_sid = max(state.next_sid, self._next_sid)

    def _apply_record(self, seq: int, record: LogRecord) -> None:
        """Replay one log record; reject a log that no longer determines
        the state it recorded (Hellerstein-style: same log, same state)."""
        try:
            if record.kind == "register":
                # The recorded sids are forced onto fresh groups so the
                # recovered registry hands out the component ids the
                # original did (rollbacks burn ids that committed history
                # never sees).
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
        generation = self._registry.generation
        if generation != record.generation:
            raise CorruptLogError(
                f"replaying log record {seq} produced generation "
                f"{generation}, but the record committed "
                f"generation {record.generation} — the log and the "
                f"registry have diverged"
            )

    def save(self) -> int:
        """Cut a snapshot now and wait until it is durable.

        Returns the log position the durable cut covers: every record
        committed before the call, and perhaps a few committed while it
        waited.  The capture is taken under the writer lock, so the cut
        is consistent; the cut itself runs on the cutter thread (see
        :meth:`_cut_if_due`) while writers and readers carry on.  Raises the
        backend's error if no durable cut covers the capture.
        """
        with self._writer:
            self._check_open()
            cutter, ticket = self._hand_off()
            seq = self._log_seq
        return cutter.wait(ticket, seq)

    def _hand_off(self) -> Tuple[_Cutter, int]:  # requires-lock: _writer
        """Hand the cutter a capture of the published registry.

        Writer lock held.  Starts the cutter on the first call; returns
        it with the capture's ticket.
        """
        cutter = self._cutter
        if cutter is None:
            cutter = self._cutter = _Cutter(self._storage, self._captured_seq)
            # A service dropped without close() must not strand its thread.
            weakref.finalize(self, cutter.stop)
        self._cut_ticket += 1
        self._captured_seq = self._log_seq
        cutter.submit(
            self._cut_ticket, (self._registry, self._log_seq, self._next_sid)
        )
        return cutter, self._cut_ticket

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
        builders first; only if every schema folds in cleanly is the new
        layout swapped in (one generation bump for the batch).  On
        :class:`~repro.exceptions.IncompatibleSchemasError` (or a
        version conflict on a named entry, or a failed log append)
        nothing is committed: shard layout, lifecycle table, generation
        and every memoized answer are exactly as before the call — and
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
        entries = [e for e in incoming if e.member.classes]
        members = [e.member for e in entries]
        tel = self._telemetry
        with span("service.register", schemas=len(incoming)) as root:
            self._check_open()
            tel.calls.inc()
            if not members:
                registry = self._registry
                return RegisterReceipt(
                    accepted=len(incoming),
                    components=len(registry.shards),
                    generation=registry.generation,
                )
            timing = _obs_state.enabled
            start = perf_counter() if timing else 0.0
            with self._writer:
                self._check_open()
                with span("service.plan", batch=len(members)):
                    plans = plan_groups(members, self._registry.class_to_sid)
                    groups = self._groups(
                        [(old, [members[i] for i in idx]) for old, idx in plans],
                        sids,
                    )
                with self._rollback(root):
                    self._rebuild(groups, members)
                    with span("service.snapshot"):
                        update, logged = self._stage_series(entries)
                        record = LogRecord(
                            "register",
                            self._registry.generation + 1,
                            logged,
                            tuple(group.sid for group in groups),
                        )
                        generation, components = self._commit(groups, update, record)
                self._cut_if_due()
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
        if entry.name is not None and not entry.member.classes:
            raise InvalidRequestError(
                f"named registration {entry.name!r} must assert at least "
                "one class (empty schemas have no component to retire)"
            )
        return entry

    def _stage_series(  # requires-lock: _writer
        self, entries: List[RegistrationEntry]
    ) -> Tuple[
        Dict[str, Tuple[VersionState, ...]], Tuple[RegistrationEntry, ...]
    ]:
        """Validate named entries and compute the lifecycle-table delta.

        Writer lock held by the caller (versions must be checked
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
                current = self._registry.series.get(entry.name, ())
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
                VersionState(version, lifecycle, False, entry.member)
            )
            versions.sort(key=lambda v: v.version)
            update[entry.name] = tuple(versions)
            logged.append(
                RegistrationEntry(
                    name=entry.name,
                    version=version,
                    lifecycle=lifecycle,
                    member=entry.member,
                )
            )
        return update, tuple(logged)

    @contextmanager
    def _rollback(self, root: Any) -> Iterator[None]:
        """Count a write's failed stage or commit, then let it raise.

        A failure here publishes nothing (see :meth:`_commit`); it is
        counted in ``service.register.rollbacks`` and marked on the
        write's *root* span.  A refused plan is not a rollback.
        """
        try:
            yield
        except BaseException:
            self._telemetry.rollbacks.inc()
            root.set(rolled_back=True)
            raise

    def _cut_if_due(self) -> None:  # requires-lock: _writer
        """Hand the cutter a capture once the log has grown
        *snapshot_every* records past the last one.  Writer lock held.

        The hand-off is O(1), one queue put: the cut is written off the
        write path, and its outcome never fails a write that has
        committed.  Replay cuts nothing.
        """
        every = self._snapshot_every
        if (
            every is not None
            and not self._replaying
            and self._log_seq - self._captured_seq >= every
        ):
            self._hand_off()

    def _groups(  # requires-lock: _writer
        self,
        plans: List[Tuple[Set[int], List[_Member]]],
        forced: Optional[Tuple[int, ...]],
    ) -> List[_Group]:
        """Give each planned group — the shard ids it replaces and the
        members it adds — the sid it commits as.  Writer lock held.

        A group that absorbs committed shards keeps the smallest of
        their sids; a fresh group gets a new sid or, during replay, the
        *forced* sid the log recorded.
        """
        groups: List[_Group] = []
        registry = self._registry
        if forced is not None and len(forced) != len(plans):
            raise CorruptLogError(
                f"log record committed {len(forced)} component groups, "
                f"but the batch plans {len(plans)} — the log and the "
                f"registry have diverged"
            )
        for group_index, (existing_sids, added) in enumerate(plans):
            replaced_sids = sorted(existing_sids)
            if replaced_sids:
                sid = replaced_sids[0]
                if forced is not None and forced[group_index] != sid:
                    raise CorruptLogError(
                        f"log record committed into component "
                        f"{forced[group_index]}, but replay resolves the "
                        f"group to component {sid}"
                    )
            elif forced is not None:
                sid = forced[group_index]
                if sid in registry.shards or any(g.sid == sid for g in groups):
                    raise CorruptLogError(
                        f"log record allocates component {sid}, "
                        f"which already exists at replay time"
                    )
                self._next_sid = max(self._next_sid, sid + 1)
            else:
                sid = self._next_sid
                self._next_sid += 1
            groups.append(
                _Group(sid, [registry.shards[old] for old in replaced_sids], added)
            )
        return groups

    @staticmethod
    def _rebuild(groups: List[_Group], batch: List[_Member]) -> None:
        """Register's stage: fold each group on clones.

        Raises :class:`IncompatibleSchemasError` with nothing published.
        The fold is the only closure a registered document gets, so it
        also meets a document whose own spec edges form a cycle.  Once
        the fold fails, each *batch* member is closed on its own, in
        batch order, and the first that cannot be raises with its own
        cycle as the witness.
        """
        try:
            for group in groups:
                with span(
                    "service.rebuild", component=group.sid, schemas=len(group.added)
                ):
                    members: Tuple[_Member, ...] = ()
                    if group.replaced:
                        # Grow the largest member in place (on a clone)
                        # and fold the others' schemas in.  The primary's
                        # members are concatenated, not read: a restored
                        # component's stay undecoded.
                        primary = max(
                            group.replaced, key=lambda shard: len(shard.members)
                        )
                        builder = primary.builder.clone()
                        members = primary.members
                        for shard in group.replaced:
                            if shard is primary:
                                continue
                            for member in shard.members:
                                builder.add_schema(member)
                            members += shard.members
                    else:
                        builder = ClosureBuilder()
                    for member in group.added:
                        builder.add_schema(member)
                group.builder = builder
                group.members = members + tuple(group.added)
        except IncompatibleSchemasError:
            for member in batch:
                ClosureBuilder.close(member)
            raise

    def _commit(  # requires-lock: _writer
        self,
        groups: List[_Group],
        series: Dict[str, Tuple[VersionState, ...]],
        record: LogRecord,
    ) -> Tuple[int, int]:
        """Log a staged write, then publish it.  Writer lock held.

        *record* describes the write at the next generation and *series*
        is its lifecycle-table change.  The record is appended (and
        fsync'd) *before* anything is published, so no reader can ever
        observe a state the log does not describe.  If the append
        raises, nothing has been published and the write rolls back.
        Appending under the writer lock makes log order commit order
        (deterministic replay); readers never take that lock, so only
        other *writers* wait behind the flush.

        The next shard table and class map are built on copies (an
        O(classes) dict copy per write) and published as one new
        :class:`_Registry` with a single reference store.  Only classes
        whose owner changed are mapped: a register group (one with
        *added* members) never drops a class, so it maps its added
        members' classes and those of the shards it absorbs to its sid;
        only a retire group computes the classes it drops.  Returns the new
        generation and the component count.
        """
        current = self._registry
        generation = record.generation
        if not self._replaying:
            self._log_seq = self._storage.append(record)
        # The record is durable: nothing below may raise.
        shards = current.shards.copy()
        class_to_sid = current.class_to_sid.copy()
        for group in groups:
            sid, builder = group.sid, group.builder
            for shard in group.replaced:
                if shard.sid != sid or builder is None:
                    shards.pop(shard.sid, None)
                if not group.added:  # a retire: unmap what it dropped
                    kept = builder.classes if builder is not None else ()
                    for cls in shard.builder.classes.difference(kept):
                        class_to_sid.pop(cls, None)
                elif shard.sid != sid:  # absorbed by the group
                    class_to_sid.update(dict.fromkeys(shard.builder.classes, sid))
            for member in group.added:
                class_to_sid.update(dict.fromkeys(member.classes, sid))
            if builder is not None:
                shards[sid] = Shard(sid, builder, group.members, generation)
        self._registry = _Registry(
            shards, class_to_sid, {**current.series, **series}, generation
        )
        self._telemetry.schemas.inc(len(record.entries))
        return generation, len(shards)

    # ------------------------------------------------------------------
    # Schema lifecycle (named versions, retire)
    # ------------------------------------------------------------------

    @staticmethod
    def _live_versions(
        series: Dict[str, Tuple[VersionState, ...]], schema_name: str
    ) -> List[VersionState]:
        """The not-yet-retired versions of a name; typed errors otherwise."""
        versions = series.get(schema_name)
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
        live = self._live_versions(self._registry.series, schema_name)
        return self._preferred(live).schema

    def schema_info(self, schema_name: str) -> Dict[str, Any]:
        """One named schema's lifecycle card: versions, states, component."""
        self._check_open()
        registry = self._registry
        preferred = self._preferred(
            self._live_versions(registry.series, schema_name)
        )
        sid: Optional[int] = None
        for cls in preferred.member.classes:
            sid = registry.class_to_sid.get(cls)
            if sid is not None:
                break
        return {
            "name": schema_name,
            "recommended": preferred.version,
            "component": sid,
            "versions": [
                {
                    "version": v.version,
                    "lifecycle": v.lifecycle,
                    "retired": v.retired,
                    "classes": len(v.member.classes),
                }
                for v in registry.series[schema_name]
            ],
        }

    def retire(self, schema_name: str) -> RetireReceipt:
        """Withdraw every live version of a named schema — atomically.

        The first removal path: each owning component is *rebuilt* from
        its remaining member schemas (one occurrence of each retired
        version's schema is dropped; an equal anonymous registration
        survives), classes asserted only by the retired versions leave
        the registry, and only the touched components' shards are
        replaced (taking their memoized answers with them) — untouched
        shards stay the same objects and stay warm.  A component with no
        remaining members is dropped outright.  The retirement is logged like any
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
            with self._writer:
                self._check_open()
                with span("service.plan", batch=0):
                    # One group per component owning a withdrawn version.
                    registry = self._registry
                    live = self._live_versions(registry.series, schema_name)
                    if versions is not None:
                        live = [v for v in live if v.version in versions]
                    class_to_sid = registry.class_to_sid
                    owners = {
                        class_to_sid[cls]
                        for v in live
                        for cls in v.member.classes
                        if cls in class_to_sid
                    }
                    groups = self._groups(
                        [({sid}, []) for sid in sorted(owners)], None
                    )
                retired = tuple(v.version for v in live)
                with self._rollback(root):
                    self._rebuild_without(groups, live)
                    with span("service.snapshot"):
                        series = tuple(
                            _dc_replace(v, lifecycle="obsolete", retired=True)
                            if v.version in retired
                            else v
                            for v in registry.series[schema_name]
                        )
                        record = LogRecord(
                            "retire",
                            registry.generation + 1,
                            name=schema_name,
                            versions=retired,
                        )
                        generation, components = self._commit(
                            groups, {schema_name: series}, record
                        )
                self._cut_if_due()
            root.set(generation=generation)
            return RetireReceipt(
                name=schema_name,
                versions=retired,
                components=components,
                generation=generation,
            )

    @staticmethod
    def _rebuild_without(groups: List[_Group], live: List[VersionState]) -> None:
        """Retire's stage: rebuild each owning component from the members
        left once each retired version's member is dropped.

        The member dropped is the first one holding the version's
        document: a restored component shares one member per document
        digest, so dropping by identity would leave its members in a
        different order after a restart than before it.
        """
        for group in groups:
            (shard,) = group.replaced
            remaining = list(shard.members)
            for v in live:
                own = v.member
                for k, member in enumerate(remaining):
                    if member is own or (
                        member.classes == own.classes and member.digest == own.digest
                    ):
                        del remaining[k]
                        break
            with span("service.rebuild", component=group.sid, schemas=len(remaining)):
                group.builder = ClosureBuilder(remaining) if remaining else None
            group.members = tuple(remaining)

    # ------------------------------------------------------------------
    # Queries (lock-free readers)
    # ------------------------------------------------------------------

    def _resolve(self, component: ComponentRef) -> Shard:
        """The live shard for a component ref (a sid or a class name)."""
        registry = self._registry
        if isinstance(component, int):
            shard = registry.shards.get(component)
            if shard is None:
                raise UnknownClassError(
                    f"unknown component id {component!r}"
                )
            return shard
        cls = name(component)
        shard = registry.shards.get(registry.class_to_sid.get(cls))
        if shard is None:
            raise UnknownClassError(
                f"no registered schema mentions class {cls}"
            )
        return shard

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
        tel = self._telemetry
        view = shard.view
        if view is not None:
            tel.component_hits.inc()
            return view, tel.view_hits
        tel.component_misses.inc()
        shard.view = view = shard.builder.build()
        return view, tel.view_misses

    def _global_view(self) -> Tuple[Schema, Counter]:
        """The merged view of everything — disjoint union over shards.

        Outcome accounting: a view memoized on the current registry is
        a *hit*; a view reassembled purely from memoized component parts
        is a *partial hit*; rebuilding any part makes the request a
        *miss*.  The shards of one registry value are class-disjoint, so
        their views chain without re-closing.
        """
        tel = self._telemetry
        registry = self._registry
        view = registry.view
        if view is not None:
            tel.answer_hits.inc()
            return view, tel.view_hits
        tel.answer_misses.inc()
        if not registry.shards:
            registry.view = view = Schema.empty()
            return view, tel.view_misses
        outcome = tel.view_partial
        parts = []
        for shard in registry.shards.values():
            part, part_outcome = self._component_schema(shard)
            if part_outcome is tel.view_misses:
                outcome = tel.view_misses
            parts.append(part)
        registry.view = view = _disjoint_union(parts)
        return view, outcome

    def _read(
        self, answer: Callable[[_Key], _Answer], key: _Key, duration: Histogram
    ) -> _Answer:
        """Count one read request and answer it; time 1 request in every
        ``telemetry_sample_every`` into *duration* (enabled mode only)."""
        self._check_open()
        self._requests = requests = next(self._ticker)
        # Only the 1-in-N request the mask selects reads the switch.
        if requests & self._sample_mask or not _obs_state.enabled:
            return answer(key)
        # Read paths record durations only: a span per read would cost
        # more than the read itself (spans live on the write path).
        start = perf_counter()
        out = answer(key)
        duration.observe(perf_counter() - start)
        return out

    def merged_view(self, component: Optional[ComponentRef] = None) -> Schema:
        """The merged schema of one component, or of the whole registry.

        *component* may be a class name (the component containing it), a
        shard id from :meth:`components`, or ``None`` for the disjoint
        union of every component's merge — which equals the cold-path
        ``join_all`` over all registered schemas.  Never blocks behind a
        writer: answers come from the latest published snapshot.
        """
        return self._read(
            self._merged_view, component, self._telemetry.view_duration
        )

    def _merged_view(self, component: Optional[ComponentRef]) -> Schema:
        if component is None:
            view, outcome = self._global_view()
        else:
            view, outcome = self._component_schema(self._resolve(component))
        outcome.inc()
        return view

    def view_body(self, component: ComponentRef) -> bytes:
        """One component's view as the encoded ``repro.api/1`` document.

        The body ``GET /v1/components/{id}/view`` sends: ``{"format",
        "component", "view"}`` with the view in ``repro.schema/1`` form.
        It is encoded once and memoized on the shard beside its view, so
        a warm call runs neither ``schema_to_dict`` nor ``json.dumps``.
        Counts and samples exactly like ``merged_view(component)``.
        """
        return self._read(
            self._view_body, component, self._telemetry.view_duration
        )

    def _view_body(self, component: ComponentRef) -> bytes:
        shard = self._resolve(component)
        body = shard.bodies.get(None)
        if body is None:
            view, outcome = self._component_schema(shard)
            shard.bodies[None] = body = _encode({
                "format": API_FORMAT,
                "component": shard.sid,
                "view": schema_to_dict(view),
            })
        else:
            self._telemetry.component_hits.inc()
            outcome = self._telemetry.view_hits
        outcome.inc()
        return body

    def query(self, cls: ClassName | str) -> QueryResult:
        """Everything the merged view asserts about one class name.

        The :class:`~repro.service.api_types.QueryResult` is memoized on
        the shard that owns the name, so registrations in *other*
        components leave it warm.  Lock-free, like :meth:`merged_view`.
        """
        return self._read(self._query, cls, self._telemetry.query_duration)

    def _query(self, cls: ClassName | str) -> QueryResult:
        key_name = name(cls)
        return self._answer(self._resolve(key_name), key_name)

    def _answer(self, shard: Shard, key_name: ClassName) -> QueryResult:
        answer = shard.answers.get(key_name)
        if answer is not None:
            self._telemetry.answer_hits.inc()
            return answer
        self._telemetry.answer_misses.inc()
        merged, _outcome = self._component_schema(shard)
        shard.answers[key_name] = answer = QueryResult.from_component(
            merged, key_name, shard.sid, len(shard.members)
        )
        return answer

    def query_body(self, cls: ClassName | str) -> bytes:
        """``query(cls)`` as the encoded ``repro.api/1`` document.

        The body ``GET /v1/query/{class}`` sends, memoized on the shard
        that owns the name like the answer itself: a warm call runs
        neither ``QueryResult.to_dict`` nor ``json.dumps``.  Counts and
        samples exactly like ``query(cls)``.
        """
        return self._read(
            self._query_body, cls, self._telemetry.query_duration
        )

    def _query_body(self, cls: ClassName | str) -> bytes:
        key_name = name(cls)
        shard = self._resolve(key_name)
        body = shard.bodies.get(key_name)
        if body is not None:
            self._telemetry.answer_hits.inc()
            return body
        payload: Dict[str, Any] = {"format": API_FORMAT}
        payload.update(self._answer(shard, key_name).to_dict())
        shard.bodies[key_name] = body = _encode(payload)
        return body

    def component_snapshot(self, component: ComponentRef) -> ComponentSnapshot:
        """One component's merged view as a serialization-ready value.

        The :class:`~repro.service.snapshots.ComponentSnapshot` carries
        the shard's dense closure *with its id table*, so exporting a
        component (``snapshot.to_dict()`` →
        :func:`repro.io.json_io.snapshot_to_dict`) writes each name once
        and never re-walks the merged schema's object graph.  Memoized
        on the shard exactly like :meth:`query`.
        """
        self._check_open()
        shard = self._resolve(component)
        snapshot = shard.snapshot
        if snapshot is not None:
            self._telemetry.answer_hits.inc()
            return snapshot
        self._telemetry.answer_misses.inc()
        merged, _outcome = self._component_schema(shard)
        shard.snapshot = snapshot = ComponentSnapshot(
            sid=shard.sid,
            generation=shard.generation,
            schemas=len(shard.members),
            dense=merged._dense,
        )
        return snapshot

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def component_of(self, cls: ClassName | str) -> Optional[int]:
        """The shard id owning *cls*, or ``None`` if the name is unknown."""
        return self._registry.class_to_sid.get(name(cls))

    def components(self) -> Dict[int, Dict[str, int]]:
        """Per-shard summary: class count, member schemas, last mutation."""
        return {
            shard.sid: {
                "classes": len(shard.builder.classes),
                "schemas": len(shard.members),
                "generation": shard.generation,
            }
            for shard in sorted(
                self._registry.shards.values(), key=lambda s: s.sid
            )
        }

    def component_schemas(self, component: ComponentRef) -> Tuple[Schema, ...]:
        """The registered schemas that make up one component."""
        return tuple(m.schema for m in self._resolve(component).members)

    def service_stats(self) -> Dict[str, Any]:
        """Operational counters: components, generation, memo hit rates.

        The historical dict shape, now read from the registered
        instruments (one source of truth with ``repro.obs``): the
        top-level fields ``components``, ``registered_schemas``,
        ``generation`` and ``requests_served`` keep their pre-telemetry
        keys, the ``component_cache`` / ``snapshot_cache`` blocks give
        the memo ``hits`` and ``misses``, and a ``telemetry`` block adds
        the merged-view outcome counters plus whatever latency
        distributions sampling has collected.
        """
        tel = self._telemetry
        registry = self._registry
        cutter = self._cutter
        return {
            "components": len(registry.shards),
            "registered_schemas": tel.schemas.value,
            "generation": registry.generation,
            "requests_served": self._requests,
            "storage": {
                "log_seq": self._log_seq,
                # The newest *durable* cut; before any hand-off, the
                # recovered one.
                "last_cut_seq": (
                    cutter.durable_seq if cutter is not None
                    else self._captured_seq
                ),
                "cut_pending": (
                    cutter is not None and cutter.pending(self._cut_ticket)
                ),
                "named_schemas": len(registry.series),
                "retired_versions": sum(
                    1
                    for versions in registry.series.values()
                    for v in versions
                    if v.retired
                ),
            },
            "component_cache": {
                "hits": tel.component_hits.value,
                "misses": tel.component_misses.value,
            },
            "snapshot_cache": {
                "hits": tel.answer_hits.value,
                "misses": tel.answer_misses.value,
            },
            "telemetry": {
                "merged_view": {
                    "hits": tel.view_hits.value,
                    "partial_hits": tel.view_partial.value,
                    "misses": tel.view_misses.value,
                },
                "register": {
                    "calls": tel.calls.value,
                    "rollbacks": tel.rollbacks.value,
                },
                "latency": {
                    "merged_view": tel.view_duration.percentiles(),
                    "query": tel.query_duration.percentiles(),
                    "register": tel.register_duration.percentiles(),
                },
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        registry = self._registry
        return (
            f"MergeService(schemas={self._telemetry.schemas.value}, "
            f"components={len(registry.shards)}, "
            f"generation={registry.generation})"
        )
