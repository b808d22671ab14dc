"""Durable registry storage: append-only log + per-component snapshots.

The merge service is transactional in memory — every ``register()``
batch commits atomically or rolls back without a trace — and this
module makes the committed history *durable*.  Two artifacts, behind
one :class:`StorageBackend` protocol:

* **the registration log** — one checksummed JSONL record
  (``repro.log/1``) per committed mutation, appended and fsync'd in
  commit order.  Replaying the log from empty reproduces the service
  state record by record (same shards, same generations), which is the
  whole recovery story: the log *is* the registry, everything else is
  an optimization.
* **service snapshots** — a periodic cut of every component's dense
  closure (the ``repro.snapshot/1`` codec of ``repro.io.json_io``,
  written per component as ``snap-<sid>.json``) plus a ``manifest.json``
  naming the cut's log position, generation and schema-lifecycle table.
  Recovery restores components from the newest complete cut and replays
  only the log *suffix* — snapshot files are written tmp-file +
  atomic-rename, and the manifest is written last, so a crash mid-cut
  leaves the previous cut intact.

**Corruption semantics** (exercised by ``tests/test_storage_recovery``):
a torn *final* log line — no terminating newline, the footprint of a
crash mid-append — is silently truncated to the last durable record;
any well-formed line whose checksum or sequence number is wrong raises
:class:`~repro.exceptions.CorruptLogError`.  A snapshot or manifest
that fails its checksum, decoding, or the dense-closure invariant
re-validation raises
:class:`~repro.exceptions.CorruptSnapshotError`; a *missing* snapshot
file (or one from a half-finished cut) is not corruption — recovery
falls back to full log replay, slower but exact.

:class:`MemoryBackend` (the default) keeps records as live objects —
no encoding, no I/O — so an un-persisted service pays near nothing for
the logging hooks.  :class:`FileBackend` is the first real backend; the
protocol is the seam where a replicated or object-store backend slots
in later (ROADMAP item 3).

Work counters report into :data:`repro.obs.metrics.REGISTRY`:
``storage.appends``, ``storage.replays``, ``storage.snapshot_writes``,
``storage.recoveries``.

>>> from repro.core.schema import Schema
>>> entry = RegistrationEntry(
...     Schema.build(arrows=[("Dog", "owner", "Person")]),
...     name="pets", version=1, lifecycle="recommended",
... )
>>> backend = MemoryBackend()
>>> backend.append(LogRecord(kind="register", generation=1, entries=(entry,)))
1
>>> [(seq, record.kind) for seq, record in backend.records()]
[(1, 'register')]

The file backend round-trips the same records through the checksummed
JSONL encoding::

    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     first = FileBackend(tmp)
    ...     _ = first.append(
    ...         LogRecord(kind="register", generation=1, entries=(entry,))
    ...     )
    ...     first.close()
    ...     reopened = FileBackend(tmp)
    ...     replayed = [record.kind for _seq, record in reopened.records()]
    ...     reopened.close()
    >>> replayed
    ['register']
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    IO,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

from repro.core.schema import DenseClosure, Schema
from repro.exceptions import (
    CorruptLogError,
    CorruptSnapshotError,
    InvalidRequestError,
    SerializationError,
    StorageError,
)
from repro.io.json_io import (
    canonical_dumps,
    schema_from_dict,
    schema_to_dict,
    snapshot_from_dict,
    snapshot_to_dict,
)
from repro.obs.metrics import REGISTRY

__all__ = [
    "LIFECYCLES",
    "RegistrationEntry",
    "LogRecord",
    "VersionState",
    "ComponentState",
    "ServiceState",
    "StorageBackend",
    "MemoryBackend",
    "FileBackend",
]

FORMAT_LOG = "repro.log/1"
FORMAT_SERVICE_SNAPSHOT = "repro.service.snapshot/1"
FORMAT_MANIFEST = "repro.service.manifest/1"

#: The schema-lifecycle vocabulary, in descending preference order:
#: name resolution picks the highest ``recommended`` version, falls
#: back to ``supported``, and never resolves to ``obsolete`` unless
#: nothing else is live.
LIFECYCLES = ("recommended", "supported", "obsolete")

APPENDS = REGISTRY.counter("storage.appends")
REPLAYS = REGISTRY.counter("storage.replays")
SNAPSHOT_WRITES = REGISTRY.counter("storage.snapshot_writes")
RECOVERIES = REGISTRY.counter("storage.recoveries")


@dataclass(frozen=True)
class RegistrationEntry:
    """One schema as submitted to ``register()`` — optionally named.

    A bare :class:`~repro.core.schema.Schema` registration is anonymous:
    it merges into its component and cannot be retired individually.
    Naming it enrolls it in the lifecycle table: *version* defaults to
    one past the name's highest existing version, *lifecycle* to
    ``"recommended"`` (demoting the previous recommended version to
    ``"supported"`` — the supersede chain).
    """

    schema: Schema
    name: Optional[str] = None
    version: Optional[int] = None
    lifecycle: Optional[str] = None

    def __post_init__(self) -> None:
        if self.name is not None and not isinstance(self.name, str):
            raise InvalidRequestError(
                f"schema names must be strings, got {self.name!r}"
            )
        if self.name is None and (
            self.version is not None or self.lifecycle is not None
        ):
            raise InvalidRequestError(
                "anonymous registrations cannot carry a version or lifecycle"
            )
        if self.version is not None and (
            not isinstance(self.version, int)
            or isinstance(self.version, bool)
            or self.version < 1
        ):
            raise InvalidRequestError(
                f"schema versions are integers starting at 1, "
                f"got {self.version!r}"
            )
        if self.lifecycle is not None and self.lifecycle not in LIFECYCLES:
            raise InvalidRequestError(
                f"unknown lifecycle {self.lifecycle!r}; "
                f"expected one of {LIFECYCLES}"
            )


@dataclass(frozen=True)
class LogRecord:
    """One committed mutation, exactly as it entered the log.

    ``kind`` is ``"register"`` (with *entries* and the committed
    per-group component *sids*) or ``"retire"`` (with *name* and the
    retired *versions*); *generation* is the registry generation the
    commit produced, re-checked during replay so a log that no longer
    determines the same state is rejected instead of trusted.

    *sids* exist because component-id allocation is the one part of a
    commit that the batch alone does not determine: rolled-back batches
    and plan retries consume ids that replay (which sees committed
    history only) would never burn.  Recording the assignment makes the
    recovered registry answer ``query``/``component_snapshot`` with the
    same component ids the original handed out.
    """

    kind: str
    generation: int
    entries: Tuple[RegistrationEntry, ...] = ()
    sids: Tuple[int, ...] = ()
    name: Optional[str] = None
    versions: Tuple[int, ...] = ()


@dataclass(frozen=True)
class VersionState:
    """One version of a named schema in the lifecycle table."""

    version: int
    lifecycle: str
    retired: bool
    schema: Schema


@dataclass(frozen=True)
class ComponentState:
    """One component's durable state at a snapshot cut."""

    sid: int
    generation: int
    dense: DenseClosure
    members: Sequence[Schema]


class _LazyMembers(Sequence[Schema]):
    """Member schemas of a restored component, decoded on first use.

    A snapshot-led recovery serves views and queries from the dense
    closure alone; the member list matters only to *later* mutations
    (a merge absorbing the shard, a retire refolding it) and to
    introspection.  Decoding every member doc up front is the dominant
    restart cost, so it is deferred: ``len`` reads the doc count, any
    content access hydrates the whole tuple exactly once.  The docs
    sit inside a checksummed snapshot, so byte corruption is caught at
    load time; a doc that is CRC-clean yet undecodable still surfaces
    as :class:`~repro.exceptions.CorruptSnapshotError`, merely later.
    """

    __slots__ = ("_docs", "_origin", "_decoded", "_lock")

    def __init__(self, docs: Sequence[Mapping[str, Any]], origin: str) -> None:
        self._docs = tuple(docs)
        self._origin = origin
        # Written once under the lock, read lock-free (double-checked:
        # a stale None just takes the locked slow path).
        self._decoded: Optional[Tuple[Schema, ...]] = None  # guarded-by(writes): _lock
        self._lock = threading.Lock()

    def raw_docs(self) -> Optional[Tuple[Mapping[str, Any], ...]]:
        """The undecoded docs, if no hydration happened yet.

        Lets a snapshot cut taken right after recovery re-write the
        member block without a decode/encode round trip.
        """
        return None if self._decoded is not None else self._docs

    def _hydrate(self) -> Tuple[Schema, ...]:
        decoded = self._decoded
        if decoded is None:
            with self._lock:
                decoded = self._decoded
                if decoded is None:
                    try:
                        decoded = tuple(
                            schema_from_dict(dict(doc)) for doc in self._docs
                        )
                    except (
                        SerializationError,
                        AttributeError,
                        TypeError,
                        ValueError,
                    ) as exc:
                        raise CorruptSnapshotError(
                            f"{self._origin} member schemas do not "
                            f"decode: {exc}"
                        ) from exc
                    self._decoded = decoded
        return decoded

    def __len__(self) -> int:
        return len(self._docs)

    def __getitem__(self, index):  # type: ignore[override]
        return self._hydrate()[index]

    def __iter__(self) -> Iterator[Schema]:
        return iter(self._hydrate())

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        state = "decoded" if self._decoded is not None else "raw"
        return f"_LazyMembers({len(self._docs)} schemas, {state})"


@dataclass(frozen=True)
class ServiceState:
    """A full service snapshot: everything up to log position *seq*."""

    seq: int
    generation: int
    next_sid: int
    components: Tuple[ComponentState, ...]
    series: Mapping[str, Tuple[VersionState, ...]]


class StorageBackend(Protocol):
    """The pluggable persistence seam of :class:`MergeService`.

    ``append`` must be durable before it returns (a crash immediately
    after a successful append never loses the record); ``records``
    yields every durable record in sequence order; ``save_state`` /
    ``load_state`` store and retrieve the latest complete snapshot cut
    (``load_state`` returns ``None`` when recovery should fall back to
    full log replay).
    """

    def append(self, record: LogRecord) -> int:
        """Durably append *record*; return its sequence number."""
        ...  # pragma: no cover - protocol

    def records(self, after: int = 0) -> Iterator[Tuple[int, LogRecord]]:
        """Durable records with sequence number > *after*, ascending.

        Integrity of the *whole* log is still verified (a corrupt
        record below the cut must surface), but records at or below
        *after* are covered by a snapshot and may skip semantic
        decoding — which is what keeps a snapshot-led recovery from
        paying full-log decode cost.
        """
        ...  # pragma: no cover - protocol

    def load_state(self) -> Optional[ServiceState]:
        """The newest complete snapshot cut, or ``None`` for full replay."""
        ...  # pragma: no cover - protocol

    def save_state(self, state: ServiceState) -> None:
        """Persist a snapshot cut (atomically replacing the previous one)."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Release backend resources (idempotent)."""
        ...  # pragma: no cover - protocol


# ----------------------------------------------------------------------
# Wire encoding (shared by FileBackend and the recovery tests)
# ----------------------------------------------------------------------


def _checksum(doc: Mapping[str, Any]) -> str:
    """CRC-32 of the canonical JSON text of *doc*, as 8 hex digits."""
    return format(zlib.crc32(canonical_dumps(doc).encode("ascii")), "08x")


def _seal(doc: Dict[str, Any]) -> str:
    """The canonical one-line text of *doc* with its ``crc`` stamped in."""
    sealed = dict(doc)
    sealed["crc"] = _checksum(doc)
    return canonical_dumps(sealed)


def _unseal(text: str, error: "type[StorageError]") -> Dict[str, Any]:
    """Parse and verify a sealed line; raise *error* on any mismatch."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"undecodable JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error("sealed document is not a JSON object")
    crc = doc.pop("crc", None)
    if crc != _checksum(doc):
        raise error(
            f"checksum mismatch: recorded {crc!r}, computed {_checksum(doc)!r}"
        )
    return doc


def entry_to_dict(entry: RegistrationEntry) -> Dict[str, Any]:
    """Encode one registration entry (schema via ``repro.schema/1``)."""
    return {
        "name": entry.name,
        "version": entry.version,
        "lifecycle": entry.lifecycle,
        "schema": schema_to_dict(entry.schema),
    }


def entry_from_dict(doc: Mapping[str, Any]) -> RegistrationEntry:
    """Decode one registration entry (validates like a fresh submission)."""
    return RegistrationEntry(
        schema=schema_from_dict(dict(doc["schema"])),
        name=doc.get("name"),
        version=doc.get("version"),
        lifecycle=doc.get("lifecycle"),
    )


def record_to_dict(seq: int, record: LogRecord) -> Dict[str, Any]:
    """Encode one log record as an (unsealed) ``repro.log/1`` document."""
    doc: Dict[str, Any] = {
        "format": FORMAT_LOG,
        "seq": seq,
        "kind": record.kind,
        "generation": record.generation,
    }
    if record.kind == "register":
        doc["entries"] = [entry_to_dict(entry) for entry in record.entries]
        doc["sids"] = list(record.sids)
    else:
        doc["name"] = record.name
        doc["versions"] = list(record.versions)
    return doc


def record_from_dict(doc: Mapping[str, Any]) -> Tuple[int, LogRecord]:
    """Decode one verified log document back into ``(seq, LogRecord)``."""
    kind = doc.get("kind")
    if kind == "register":
        entries = tuple(entry_from_dict(e) for e in doc.get("entries", ()))
        record = LogRecord(
            kind="register",
            generation=int(doc["generation"]),
            entries=entries,
            sids=tuple(int(s) for s in doc.get("sids", ())),
        )
    elif kind == "retire":
        record = LogRecord(
            kind="retire",
            generation=int(doc["generation"]),
            name=doc.get("name"),
            versions=tuple(int(v) for v in doc.get("versions", ())),
        )
    else:
        raise CorruptLogError(f"unknown log record kind {kind!r}")
    return int(doc["seq"]), record


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------


class MemoryBackend:
    """The default backend: records held as live objects, never encoded.

    Gives an un-persisted service the exact same code path as a durable
    one (every commit appends a record) at in-memory cost, and doubles
    as the reference backend in the restart-equivalence tests — a
    service rebuilt from a ``MemoryBackend``'s records must match one
    rebuilt from a ``FileBackend``'s.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[Tuple[int, LogRecord]] = []  # guarded-by: _lock
        self._state: Optional[ServiceState] = None  # guarded-by: _lock

    def append(self, record: LogRecord) -> int:
        with self._lock:
            seq = len(self._records) + 1
            self._records.append((seq, record))
        APPENDS.inc()
        return seq

    def records(self, after: int = 0) -> Iterator[Tuple[int, LogRecord]]:
        with self._lock:
            snapshot = [entry for entry in self._records if entry[0] > after]
        return iter(snapshot)

    def load_state(self) -> Optional[ServiceState]:
        with self._lock:
            return self._state

    def save_state(self, state: ServiceState) -> None:
        with self._lock:
            self._state = state
        SNAPSHOT_WRITES.inc(len(state.components))

    def close(self) -> None:
        """Nothing to release; present for protocol symmetry."""


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry table (best effort; not all OSes allow it)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


class FileBackend:
    """One directory holding the log, the snapshot files and the manifest.

    Layout::

        <dir>/registry.log     append-only JSONL, one sealed record/line
        <dir>/snap-<sid>.json  newest snapshot of component <sid>
        <dir>/manifest.json    the cut: log seq, generation, lifecycle table

    Construction scans the log once: it verifies checksums and sequence
    contiguity (raising :class:`~repro.exceptions.CorruptLogError`
    eagerly, before the service trusts anything) and truncates a torn
    final line left by a crash mid-append.  Appends write one line,
    flush, and — unless *fsync* is disabled for throughput experiments —
    fsync before returning; a failed append is cut back out of the file
    before its error propagates.  Snapshot and manifest writes go
    through a temp file and an atomic rename, manifest last, so readers
    never see a half-written cut.
    """

    LOG_NAME = "registry.log"
    MANIFEST_NAME = "manifest.json"

    def __init__(self, path: Union[str, Path], *, fsync: bool = True) -> None:
        self._dir = Path(path)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync  # frozen-after-init
        self._lock = threading.Lock()
        self._fh: Optional[IO[str]] = None  # guarded-by: _lock
        self._seq = 0  # guarded-by: _lock
        log = self._dir / self.LOG_NAME
        if log.exists():
            last_seq, durable = self._scan(log.read_bytes())
            self._seq = last_seq
            if durable < log.stat().st_size:
                # A torn tail is a crash footprint, not corruption:
                # drop it so the next append starts on a record boundary.
                with open(log, "r+b") as fh:
                    fh.truncate(durable)
                    fh.flush()
                    os.fsync(fh.fileno())

    @staticmethod
    def _scan(data: bytes) -> Tuple[int, int]:
        """Verify the log bytes; return ``(last_seq, durable_length)``.

        Walks terminated lines in order, checking JSON shape, checksum,
        format tag and sequence contiguity — any failure on a
        *terminated* line is :class:`CorruptLogError`.  An unterminated
        final fragment is a torn append and simply ends the durable
        prefix.
        """
        offset = 0
        last_seq = 0
        durable = 0
        while True:
            newline = data.find(b"\n", offset)
            if newline < 0:
                break
            line = data[offset:newline]
            offset = newline + 1
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorruptLogError(
                    f"log record {last_seq + 1} is not valid UTF-8"
                ) from exc
            doc = _unseal(text, CorruptLogError)
            if doc.get("format") != FORMAT_LOG:
                raise CorruptLogError(
                    f"log record has format {doc.get('format')!r}, "
                    f"expected {FORMAT_LOG!r}"
                )
            seq = doc.get("seq")
            if seq != last_seq + 1:
                raise CorruptLogError(
                    f"log sequence jumps from {last_seq} to {seq!r}"
                )
            last_seq = seq
            durable = offset
        return last_seq, durable

    def append(self, record: LogRecord) -> int:
        with self._lock:
            seq = self._seq + 1
            line = _seal(record_to_dict(seq, record)) + "\n"
            fh = self._fh
            if fh is None:
                fh = self._fh = open(
                    self._dir / self.LOG_NAME, "a", encoding="utf-8"
                )
            size = os.fstat(fh.fileno()).st_size
            try:
                fh.write(line)
                fh.flush()
                if self._fsync:
                    os.fsync(fh.fileno())
            except BaseException:
                # The record never committed, so its bytes must go:
                # left in place, the next append would reuse its seq.
                self._fh = None
                try:
                    fh.close()
                except OSError:
                    pass
                os.truncate(self._dir / self.LOG_NAME, size)
                raise
            self._seq = seq
        APPENDS.inc()
        return seq

    def records(self, after: int = 0) -> Iterator[Tuple[int, LogRecord]]:
        log = self._dir / self.LOG_NAME
        if not log.exists():
            return
        data = log.read_bytes()
        last_seq, durable = self._scan(data)
        offset = 0
        while offset < durable:
            newline = data.index(b"\n", offset)
            doc = _unseal(data[offset:newline].decode("utf-8"), CorruptLogError)
            offset = newline + 1
            # ``_scan`` already checked seal and sequence for every
            # line; records under the snapshot cut skip the (much more
            # expensive) semantic decode of their schema payloads.
            if doc["seq"] <= after:
                continue
            try:
                yield record_from_dict(doc)
            except (SerializationError, KeyError, ValueError) as exc:
                raise CorruptLogError(
                    f"log record {doc.get('seq')!r} does not decode: {exc}"
                ) from exc

    def load_state(self) -> Optional[ServiceState]:
        manifest_path = self._dir / self.MANIFEST_NAME
        if not manifest_path.exists():
            return None
        manifest = _unseal(
            manifest_path.read_text(encoding="utf-8"), CorruptSnapshotError
        )
        if manifest.get("format") != FORMAT_MANIFEST:
            raise CorruptSnapshotError(
                f"manifest has format {manifest.get('format')!r}, "
                f"expected {FORMAT_MANIFEST!r}"
            )
        try:
            seq = int(manifest["seq"])
            generation = int(manifest["generation"])
            next_sid = int(manifest["next_sid"])
            sids = [int(sid) for sid in manifest["components"]]
            series_doc = manifest["series"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptSnapshotError(
                f"manifest is missing or mistypes a field: {exc}"
            ) from exc
        components: List[ComponentState] = []
        for sid in sids:
            snap_path = self._dir / f"snap-{sid}.json"
            if not snap_path.exists():
                # A missing file is a deleted/never-finished cut, not
                # corruption: fall back to full log replay.
                return None
            doc = _unseal(
                snap_path.read_text(encoding="utf-8"), CorruptSnapshotError
            )
            if doc.get("format") != FORMAT_SERVICE_SNAPSHOT:
                raise CorruptSnapshotError(
                    f"snapshot {snap_path.name} has format "
                    f"{doc.get('format')!r}"
                )
            if doc.get("seq") != seq:
                # The cut never completed (crash between snapshot and
                # manifest writes); the log still has everything.
                return None
            try:
                # snapshot_from_dict re-validates the closure invariants
                # — the decoder never trusts persisted relations.  The
                # member docs (only needed by later mutations) decode
                # lazily; _LazyMembers reports their faults with the
                # same CorruptSnapshotError type.
                dense = snapshot_from_dict(dict(doc["snapshot"]))
                member_docs = doc["members"]
                if not isinstance(member_docs, list):
                    raise ValueError("members must be a list")
                members: Sequence[Schema] = _LazyMembers(
                    member_docs, f"snapshot {snap_path.name}"
                )
            except (SerializationError, ValueError, KeyError, TypeError) as exc:
                raise CorruptSnapshotError(
                    f"snapshot {snap_path.name} does not decode: {exc}"
                ) from exc
            components.append(
                ComponentState(
                    sid=sid,
                    generation=int(doc.get("generation", generation)),
                    dense=dense,
                    members=members,
                )
            )
        series: Dict[str, Tuple[VersionState, ...]] = {}
        try:
            for schema_name, versions in series_doc.items():
                series[schema_name] = tuple(
                    VersionState(
                        version=int(v["version"]),
                        lifecycle=str(v["lifecycle"]),
                        retired=bool(v["retired"]),
                        schema=schema_from_dict(dict(v["schema"])),
                    )
                    for v in versions
                )
        except (SerializationError, AttributeError, KeyError, TypeError,
                ValueError) as exc:
            raise CorruptSnapshotError(
                f"manifest lifecycle table does not decode: {exc}"
            ) from exc
        return ServiceState(
            seq=seq,
            generation=generation,
            next_sid=next_sid,
            components=tuple(components),
            series=series,
        )

    def save_state(self, state: ServiceState) -> None:
        for component in state.components:
            raw = (
                component.members.raw_docs()
                if isinstance(component.members, _LazyMembers)
                else None
            )
            doc = {
                "format": FORMAT_SERVICE_SNAPSHOT,
                "seq": state.seq,
                "sid": component.sid,
                "generation": component.generation,
                "snapshot": snapshot_to_dict(component.dense),
                "members": (
                    list(raw)
                    if raw is not None
                    else [schema_to_dict(g) for g in component.members]
                ),
            }
            self._write_atomic(self._dir / f"snap-{component.sid}.json", doc)
            SNAPSHOT_WRITES.inc()
        manifest = {
            "format": FORMAT_MANIFEST,
            "seq": state.seq,
            "generation": state.generation,
            "next_sid": state.next_sid,
            "components": [c.sid for c in state.components],
            "series": {
                schema_name: [
                    {
                        "version": v.version,
                        "lifecycle": v.lifecycle,
                        "retired": v.retired,
                        "schema": schema_to_dict(v.schema),
                    }
                    for v in versions
                ]
                for schema_name, versions in state.series.items()
            },
        }
        self._write_atomic(self._dir / self.MANIFEST_NAME, manifest)
        # Retired/absorbed components' snapshot files are now unreferenced;
        # drop them so the directory mirrors the manifest.
        keep = {f"snap-{c.sid}.json" for c in state.components}
        for stale in self._dir.glob("snap-*.json"):
            if stale.name not in keep:
                try:
                    stale.unlink()
                except OSError:  # pragma: no cover - race with a cleaner
                    pass

    def _write_atomic(self, path: Path, doc: Dict[str, Any]) -> None:
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(_seal(doc) + "\n")
            fh.flush()
            if self._fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
        if self._fsync:
            _fsync_dir(self._dir)

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
