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
  closure (the ``repro.snapshot/1`` codec of ``repro.io.json_io``)
  plus a ``manifest.json`` naming the cut's log position, generation,
  component files and schema-lifecycle table.  A component file is
  named by its ``(sid, generation)`` pair, ``snap-<sid>-<generation>.json``,
  so a cut is *incremental*: it writes only the pairs the previous
  manifest does not already reference, and keeps the rest by reference.
  Schema documents are stored once per file under a content digest and
  shared by reference, so the lifecycle table repeats nothing its
  component files already carry.  Each member holds its document —
  for a schema registered as a document, its canonical generator form
  (:func:`~repro.io.json_io.generators_from_dict`), never closed —
  made once for the log, and every cut writes that document.
  Recovery restores components from the newest durable cut, with
  members and lifecycle versions left as documents until something
  reads them, and replays only the log *suffix*.  The manifest
  is renamed into place only after every new file is durable, and the
  files it stops referencing are deleted only after it is durable, so a
  crash at any point of a cut leaves the previous cut intact.

**Corruption semantics** (exercised by ``tests/test_storage_recovery``):
a torn *final* log line — no terminating newline, the footprint of a
crash mid-append — is silently truncated to the last durable record;
any well-formed line whose checksum or sequence number is wrong raises
:class:`~repro.exceptions.CorruptLogError`.  A snapshot or manifest
that fails its checksum, decoding, or the dense-closure invariant
re-validation raises
:class:`~repro.exceptions.CorruptSnapshotError`; a *missing* snapshot
file, or a manifest of the older per-seq layout
(``repro.service.manifest/1``), is not corruption — recovery falls back
to full log replay, slower but exact.

:class:`MemoryBackend` (the default) keeps records as live objects —
no encoding, no I/O — so an un-persisted service pays near nothing for
the logging hooks.  :class:`FileBackend` is the first real backend; the
protocol is the seam where a replicated or object-store backend slots
in later (ROADMAP item 3).

Work counters report into :data:`repro.obs.metrics.REGISTRY`:
``storage.appends``, ``storage.replays``, ``storage.snapshot_writes``,
``storage.recoveries``, ``storage.cut_files_written``,
``storage.cut_files_reused`` and ``storage.cut_failures``, plus the
``storage.cut.duration`` histogram (capture to durable manifest).

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

import fcntl
import json
import os
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    IO,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    TypeVar,
    Union,
)

from repro.core.names import ClassName
from repro.core.relations import find_cycle
from repro.core.schema import DenseClosure, Foldable, FoldLayout, Schema
from repro.exceptions import (
    CorruptLogError,
    CorruptSnapshotError,
    InvalidRequestError,
    SerializationError,
    StorageError,
    StorageLockedError,
)
from repro.io.json_io import (
    SchemaGenerators,
    canonical_dumps,
    generators_from_dict,
    generators_to_dict,
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
FORMAT_SERVICE_SNAPSHOT = "repro.service.snapshot/2"
FORMAT_MANIFEST = "repro.service.manifest/2"
#: The per-seq file layout: its cut is not read, recovery replays the log.
FORMAT_MANIFEST_V1 = "repro.service.manifest/1"

_T = TypeVar("_T")

#: The schema-lifecycle vocabulary, in descending preference order:
#: name resolution picks the highest ``recommended`` version, falls
#: back to ``supported``, and never resolves to ``obsolete`` unless
#: nothing else is live.
LIFECYCLES = ("recommended", "supported", "obsolete")

APPENDS = REGISTRY.counter("storage.appends")
REPLAYS = REGISTRY.counter("storage.replays")
SNAPSHOT_WRITES = REGISTRY.counter("storage.snapshot_writes")
RECOVERIES = REGISTRY.counter("storage.recoveries")
CUT_FILES_WRITTEN = REGISTRY.counter("storage.cut_files_written")
CUT_FILES_REUSED = REGISTRY.counter("storage.cut_files_reused")
CUT_FAILURES = REGISTRY.counter("storage.cut_failures")
CUT_DURATION = REGISTRY.histogram("storage.cut.duration")


@dataclass(frozen=True, init=False, eq=False)
class RegistrationEntry:
    """One schema as submitted to ``register()`` — optionally named.

    A bare :class:`~repro.core.schema.Schema` registration is anonymous:
    it merges into its component and cannot be retired individually.
    Naming it enrolls it in the lifecycle table: *version* defaults to
    one past the name's highest existing version, *lifecycle* to
    ``"recommended"`` (demoting the previous recommended version to
    ``"supported"`` — the supersede chain).

    *member* is the entry's held form: the log record, the component's
    members and the lifecycle table share it.  It is made from *schema*,
    or given, as :meth:`from_doc` gives it for a ``repro.schema/1``
    document that no one closes; :attr:`schema` reads it.
    """

    member: "_Member" = field(repr=False)
    name: Optional[str] = None
    version: Optional[int] = None
    lifecycle: Optional[str] = None

    def __init__(
        self,
        schema: Optional[Schema] = None,
        name: Optional[str] = None,
        version: Optional[int] = None,
        lifecycle: Optional[str] = None,
        *,
        member: Optional["_Member"] = None,
    ) -> None:
        if name is not None and not isinstance(name, str):
            raise InvalidRequestError(
                f"schema names must be strings, got {name!r}"
            )
        if name is None and (version is not None or lifecycle is not None):
            raise InvalidRequestError(
                "anonymous registrations cannot carry a version or lifecycle"
            )
        if version is not None and (
            not isinstance(version, int)
            or isinstance(version, bool)
            or version < 1
        ):
            raise InvalidRequestError(
                f"schema versions are integers starting at 1, "
                f"got {version!r}"
            )
        if lifecycle is not None and lifecycle not in LIFECYCLES:
            raise InvalidRequestError(
                f"unknown lifecycle {lifecycle!r}; "
                f"expected one of {LIFECYCLES}"
            )
        if member is None:
            if schema is None:
                raise TypeError("a registration entry needs a schema")
            member = _Member(schema)
        object.__setattr__(self, "member", member)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "version", version)
        object.__setattr__(self, "lifecycle", lifecycle)

    @classmethod
    def from_doc(
        cls,
        doc: Dict[str, Any],
        name: Optional[str] = None,
        version: Optional[int] = None,
        lifecycle: Optional[str] = None,
    ) -> "RegistrationEntry":
        """An entry for a ``repro.schema/1`` document, decoded to its
        generator form and never closed (see
        :func:`~repro.io.json_io.generators_from_dict`)."""
        member = _Member(gens=generators_from_dict(doc))
        return cls(name=name, version=version, lifecycle=lifecycle, member=member)

    @property
    def schema(self) -> Schema:
        return self.member.schema

    def _key(self) -> Tuple[Schema, Optional[str], Optional[int], Optional[str]]:
        return (self.schema, self.name, self.version, self.lifecycle)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegistrationEntry):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


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
    consume ids that replay (which sees committed history only) would
    never burn.  Recording the assignment makes the
    recovered registry answer ``query``/``component_snapshot`` with the
    same component ids the original handed out.
    """

    kind: str
    generation: int
    entries: Tuple[RegistrationEntry, ...] = ()
    sids: Tuple[int, ...] = ()
    name: Optional[str] = None
    versions: Tuple[int, ...] = ()


class _Member:
    """One member schema as it is held: a schema, a document, or both.

    A component's members and the lifecycle table's versions are
    members.  A schema registered as a
    :class:`~repro.core.schema.Schema` starts from it; one registered as
    a document starts from its generator form
    (:class:`~repro.io.json_io.SchemaGenerators`); a replayed one from
    that form and the log's ``repro.schema/1`` document; a restored one
    from its cut's document alone.

    The service reads :attr:`classes` and folds :meth:`_fold_layout`;
    both come off the schema when the member holds one, and off the
    generator form otherwise, decoded from the document once and never
    closed: the component fold is the one closure.  :attr:`doc` is the
    canonical generator document (or, for a held schema, its closed
    document), made once for the log append and reused by every cut.
    :attr:`schema` is for introspection only: it decodes the document
    on first use.  Every half, and the document's content
    :attr:`digest`, is memoized here; racing first uses compute equal
    values, and one of them is kept.

    A restored document sits inside a checksummed file, so byte
    corruption is caught at load time; a document that is CRC-clean yet
    undecodable raises :class:`~repro.exceptions.CorruptSnapshotError`
    on its first read, naming the file it came from.
    """

    __slots__ = ("_schema", "_gens", "_doc", "_digest", "_origin")

    def __init__(
        self,
        schema: Optional[Schema] = None,
        doc: Optional[Mapping[str, Any]] = None,
        digest: Optional[str] = None,
        origin: str = "",
        gens: Optional[SchemaGenerators] = None,
    ) -> None:
        self._schema = schema
        self._gens = gens
        self._doc = doc
        self._digest = digest
        self._origin = origin  # frozen-after-init

    def _decode(self, decode: Callable[[Dict[str, Any]], _T]) -> _T:
        try:
            return decode(dict(self.doc))
        except (
            SerializationError,
            AttributeError,
            KeyError,
            TypeError,
            ValueError,
        ) as exc:
            raise CorruptSnapshotError(
                f"{self._origin} schema {self._digest!r} does not decode: {exc}"
            ) from exc

    def _source(self) -> Foldable:
        """What the fold reads: the held schema, else the generator form."""
        source: Optional[Foldable] = self._schema
        if source is None:
            source = self._gens
            if source is None:
                source = self._gens = self._decode(generators_from_dict)
        return source

    @property
    def classes(self) -> FrozenSet[ClassName]:
        return self._source().classes

    def _fold_layout(self) -> FoldLayout:
        return self._source()._fold_layout()

    def own_cycle(self) -> Optional[Tuple[ClassName, ...]]:
        """A cycle of the document's own spec edges (a held schema has none)."""
        source = self._source()
        return find_cycle(source.spec) if isinstance(source, SchemaGenerators) else None

    @property
    def schema(self) -> Schema:
        schema = self._schema
        if schema is None:
            schema = self._schema = self._decode(schema_from_dict)
        return schema

    @property
    def doc(self) -> Mapping[str, Any]:
        doc = self._doc
        if doc is None:
            gens = self._gens
            doc = self._doc = (
                generators_to_dict(gens) if gens is not None
                else schema_to_dict(self.schema)
            )
        return doc

    @property
    def digest(self) -> str:
        digest = self._digest
        if digest is None:
            digest = self._digest = _digest(self.doc)
        return digest


@dataclass(frozen=True)
class VersionState:
    """One version of a named schema in the lifecycle table.

    *member* is the version's held schema, shared with the component
    that holds it; ``dataclasses.replace`` copies it as it is, so
    demoting or retiring a restored version decodes nothing.
    """

    version: int
    lifecycle: str
    retired: bool
    member: _Member

    @property
    def schema(self) -> Schema:
        return self.member.schema


@dataclass(frozen=True)
class ComponentState:
    """One component's durable state at a snapshot cut."""

    sid: int
    generation: int
    dense: DenseClosure
    members: Tuple[_Member, ...]


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
        """Persist a snapshot cut (atomically replacing the previous one).

        Runs on the service's one cutter thread, concurrently with
        ``append``; calls never overlap each other.
        """
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Release backend resources (idempotent)."""
        ...  # pragma: no cover - protocol


# ----------------------------------------------------------------------
# Wire encoding (shared by FileBackend and the recovery tests)
# ----------------------------------------------------------------------


def _crc(text: str) -> str:
    """CRC-32 of a text's UTF-8 bytes (canonical text is ASCII), as 8 hex digits."""
    return format(zlib.crc32(text.encode("utf-8")), "08x")


def _checksum(doc: Mapping[str, Any]) -> str:
    """CRC-32 of the canonical JSON text of *doc*, as 8 hex digits."""
    return _crc(canonical_dumps(doc))


#: ``len('{"crc":"00000000",')``: a sealed text's body starts here.
_SEAL_PREFIX = 18


def _seal(doc: Mapping[str, Any]) -> str:
    """The canonical one-line text of *doc* with its ``crc`` stamped in.

    Every sealed format's keys sort after ``"crc"``, so the sealed text
    is ``{"crc":"<8 hex>",`` followed by the canonical text of *doc*
    past its opening brace: *doc* is encoded once, and the CRC is taken
    over that encoding.  Raises :class:`ValueError` for a document with
    no keys or with a key that does not sort after ``"crc"``.
    """
    if not doc or min(doc) <= "crc":
        raise ValueError("a sealed document's keys must all sort after 'crc'")
    text = canonical_dumps(doc)
    return f'{{"crc":"{_crc(text)}",{text[1:]}'


def _unseal(text: str, error: "type[StorageError]") -> Dict[str, Any]:
    """Parse and verify a sealed line; raise *error* on any mismatch.

    The CRC is checked on the line's own text (less the newline that
    ends a file): ``"{"`` plus the text past the ``crc`` prefix must be
    the text the CRC was taken over, so a line that parses to the right
    document but is not byte for byte what :func:`_seal` writes
    (re-spaced, re-ordered) fails too.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"undecodable JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error("sealed document is not a JSON object")
    crc = doc.pop("crc", None)
    computed = _crc("{" + text[_SEAL_PREFIX:].removesuffix("\n"))
    if crc != computed or text[:_SEAL_PREFIX] != f'{{"crc":"{computed}",':
        raise error(
            f"checksum mismatch: recorded {crc!r}, computed {computed!r}"
        )
    return doc


def entry_to_dict(entry: RegistrationEntry) -> Dict[str, Any]:
    """Encode one registration entry (its member's ``repro.schema/1`` document)."""
    return {
        "name": entry.name,
        "version": entry.version,
        "lifecycle": entry.lifecycle,
        "schema": entry.member.doc,
    }


def entry_from_dict(doc: Mapping[str, Any]) -> RegistrationEntry:
    """Decode one registration entry (validates like a fresh submission).

    Its member is the document's generator form, not closed, and keeps
    the log's document, so no later cut re-encodes it.
    """
    schema_doc = doc["schema"]
    member = _Member(doc=schema_doc, gens=generators_from_dict(dict(schema_doc)))
    return RegistrationEntry(
        name=doc.get("name"),
        version=doc.get("version"),
        lifecycle=doc.get("lifecycle"),
        member=member,
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


def _digest(doc: Mapping[str, Any]) -> str:
    """The content address of one schema document (BLAKE2b of its canonical text)."""
    # Imported here: only cuts need it, and it costs ~3 ms of start-up.
    from hashlib import blake2b

    return blake2b(canonical_dumps(doc).encode("ascii"), digest_size=12).hexdigest()


class FileBackend:
    """One directory holding the log, the snapshot files and the manifest.

    Layout::

        <dir>/registry.log                 append-only JSONL, one sealed record/line
        <dir>/snap-<sid>-<generation>.json component <sid> as of its last
                                           mutation, generation <generation>
        <dir>/manifest.json                the cut: log seq, generation, the
                                           [sid, generation] files, lifecycle table
        <dir>/LOCK                         empty; its POSIX lock marks the owning process

    Construction first locks ``LOCK`` (``lockf``, exclusive, non-blocking)
    and raises :class:`~repro.exceptions.StorageLockedError` if another
    process holds it; :meth:`close`, a failed construction or the
    holder's death releases it.  The lock is per process, so opening one
    directory twice in one process is not refused, and is unsupported.
    Construction then scans the log once: it verifies checksums and
    sequence contiguity (raising :class:`~repro.exceptions.CorruptLogError`
    eagerly, before the service trusts anything), truncates a torn
    final line left by a crash mid-append, and keeps each verified
    line's offset, so :meth:`records` reads and decodes only the suffix
    it is asked for.  Appends write one line, flush, and — unless
    *fsync* is disabled for throughput experiments — fsync before
    returning; a failed append is cut back out of the file before its
    error propagates.

    :meth:`save_state` is incremental.  A component file is named by its
    ``(sid, generation)`` pair, which no later commit reuses for other
    content, so a cut writes only the pairs the previous manifest does
    not reference.  Every file is written to a temp name, fsync'd and
    renamed into place.  The fsync order is: each new file, then the
    directory (the new names are durable), then the manifest, and the
    directory again.  Only then are the files the new manifest no longer
    references deleted.  A crash at any point leaves the previous
    manifest and every file it references whole.  A cut encodes no
    schema itself: it writes each member's memoized document and digest
    (:class:`_Member`), which the member's log append already encoded.

    :meth:`load_state` decodes no schema document.  It verifies every
    file's seal and re-validates every component's closure, and hands
    members and lifecycle versions back as one :class:`_Member` per
    distinct document, decoded on first read.  A cut writes a restored
    member's document as it was loaded, so a restored schema that no
    one reads is never decoded or re-encoded.
    """

    LOG_NAME = "registry.log"
    MANIFEST_NAME = "manifest.json"
    LOCK_NAME = "LOCK"

    def __init__(self, path: Union[str, Path], *, fsync: bool = True) -> None:
        self._dir = Path(path)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync  # frozen-after-init
        self._lock = threading.Lock()
        self._fh: Optional[IO[str]] = None  # guarded-by: _lock
        #: Byte offset of each durable record's line: seq n starts at
        #: ``_offsets[n - 1]``; ``_end`` is the durable length.
        self._offsets: List[int] = []  # guarded-by: _lock
        self._end = 0  # guarded-by: _lock
        self._lock_fd: Optional[int] = os.open(  # guarded-by: _lock
            self._dir / self.LOCK_NAME, os.O_RDWR | os.O_CREAT, 0o644
        )
        #: Serializes cuts and recovery's load, never taken by appends.
        self._cut_lock = threading.Lock()
        #: The previous manifest's component files, each with the
        #: digests of the schema documents it carries.
        self._files: Dict[Tuple[int, int], FrozenSet[str]] = {}  # guarded-by: _cut_lock
        log = self._dir / self.LOG_NAME
        try:
            try:
                fcntl.lockf(self._lock_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError as exc:
                raise StorageLockedError(
                    f"data directory {self._dir} is in use by another process"
                ) from exc
            if log.exists():
                self._offsets, self._end = self._scan(log.read_bytes())
                if self._end < log.stat().st_size:
                    # A torn tail is a crash footprint, not corruption:
                    # drop it so the next append starts on a record boundary.
                    with open(log, "r+b") as fh:
                        fh.truncate(self._end)
                        fh.flush()
                        os.fsync(fh.fileno())
        except BaseException:
            self.close()
            raise

    @staticmethod
    def _scan(data: bytes) -> Tuple[List[int], int]:
        """Verify the log bytes; return ``(line_offsets, durable_length)``.

        Walks terminated lines in order, checking JSON shape, checksum,
        format tag and sequence contiguity — any failure on a
        *terminated* line is :class:`CorruptLogError`.  An unterminated
        final fragment is a torn append and simply ends the durable
        prefix.
        """
        offsets: List[int] = []
        offset = 0
        while True:
            newline = data.find(b"\n", offset)
            if newline < 0:
                break
            line = data[offset:newline]
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorruptLogError(
                    f"log record {len(offsets) + 1} is not valid UTF-8"
                ) from exc
            doc = _unseal(text, CorruptLogError)
            if doc.get("format") != FORMAT_LOG:
                raise CorruptLogError(
                    f"log record has format {doc.get('format')!r}, "
                    f"expected {FORMAT_LOG!r}"
                )
            seq = doc.get("seq")
            if seq != len(offsets) + 1:
                raise CorruptLogError(
                    f"log sequence jumps from {len(offsets)} to {seq!r}"
                )
            offsets.append(offset)
            offset = newline + 1
        return offsets, offset

    def append(self, record: LogRecord) -> int:
        with self._lock:
            seq = len(self._offsets) + 1
            line = _seal(record_to_dict(seq, record)) + "\n"
            fh = self._fh
            if fh is None:
                fh = self._fh = open(
                    self._dir / self.LOG_NAME, "a", encoding="utf-8"
                )
            size = self._end
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
            self._offsets.append(size)
            self._end = size + len(line)  # canonical text is ASCII
        APPENDS.inc()
        return seq

    def records(self, after: int = 0) -> Iterator[Tuple[int, LogRecord]]:
        # Construction verified seal and sequence of every line; only
        # the lines above *after* are read again and decoded.
        with self._lock:
            after = max(after, 0)
            start = self._offsets[after] if after < len(self._offsets) else self._end
            end = self._end
        if start >= end:
            return
        with open(self._dir / self.LOG_NAME, "rb") as fh:
            fh.seek(start)
            data = fh.read(end - start)
        for line in data.split(b"\n")[:-1]:
            doc = _unseal(line.decode("utf-8"), CorruptLogError)
            try:
                yield record_from_dict(doc)
            except (SerializationError, KeyError, ValueError) as exc:
                raise CorruptLogError(
                    f"log record {doc.get('seq')!r} does not decode: {exc}"
                ) from exc

    @staticmethod
    def _snap_name(sid: int, generation: int) -> str:
        return f"snap-{sid}-{generation}.json"

    def load_state(self) -> Optional[ServiceState]:
        manifest_path = self._dir / self.MANIFEST_NAME
        if not manifest_path.exists():
            return None
        manifest = _unseal(
            manifest_path.read_text(encoding="utf-8"), CorruptSnapshotError
        )
        if manifest.get("format") == FORMAT_MANIFEST_V1:
            # The per-seq layout's cut is not read: replay the log.
            return None
        if manifest.get("format") != FORMAT_MANIFEST:
            raise CorruptSnapshotError(
                f"manifest has format {manifest.get('format')!r}, "
                f"expected {FORMAT_MANIFEST!r}"
            )
        try:
            seq = int(manifest["seq"])
            generation = int(manifest["generation"])
            next_sid = int(manifest["next_sid"])
            pairs = [(int(sid), int(gen)) for sid, gen in manifest["files"]]
            series_doc = manifest["series"]
            origin = "manifest lifecycle table"
            held = {
                digest: _Member(doc=doc, digest=digest, origin=origin)
                for digest, doc in dict(manifest["schemas"]).items()
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptSnapshotError(
                f"manifest is missing or mistypes a field: {exc}"
            ) from exc
        loaded: List[Tuple[int, int, DenseClosure, List[str]]] = []
        files: Dict[Tuple[int, int], FrozenSet[str]] = {}
        for sid, gen in pairs:
            name = self._snap_name(sid, gen)
            snap_path = self._dir / name
            if not snap_path.exists():
                # A missing file is a deleted cut, not corruption: fall
                # back to full log replay.
                return None
            doc = _unseal(
                snap_path.read_text(encoding="utf-8"), CorruptSnapshotError
            )
            if doc.get("format") != FORMAT_SERVICE_SNAPSHOT:
                raise CorruptSnapshotError(
                    f"snapshot {name} has format {doc.get('format')!r}"
                )
            if doc.get("sid") != sid or doc.get("generation") != gen:
                raise CorruptSnapshotError(
                    f"snapshot {name} holds component {doc.get('sid')!r} "
                    f"at generation {doc.get('generation')!r}"
                )
            try:
                # snapshot_from_dict re-validates the closure invariants
                # — the decoder never trusts persisted relations.  The
                # member docs (only needed by later mutations) decode
                # lazily, each once, through one member per digest.
                dense = snapshot_from_dict(dict(doc["snapshot"]))
                carried = doc["schemas"]
                members = doc["members"]
                if not isinstance(carried, dict) or not isinstance(members, list):
                    raise ValueError("schemas must be an object, members a list")
                missing = set(members) - carried.keys()
                if missing:
                    raise ValueError(f"members {sorted(missing)} have no document")
            except (SerializationError, ValueError, KeyError, TypeError) as exc:
                raise CorruptSnapshotError(
                    f"snapshot {name} does not decode: {exc}"
                ) from exc
            for digest, carried_doc in carried.items():
                if digest not in held:
                    held[digest] = _Member(
                        doc=carried_doc, digest=digest, origin=f"snapshot {name}"
                    )
            files[(sid, gen)] = frozenset(carried)
            loaded.append((sid, gen, dense, members))
        components = tuple(
            ComponentState(sid, gen, dense, tuple(held[d] for d in members))
            for sid, gen, dense, members in loaded
        )
        series: Dict[str, Tuple[VersionState, ...]] = {}
        try:
            for schema_name, versions in series_doc.items():
                states: List[VersionState] = []
                for v in versions:
                    digest = v["schema"]
                    if digest not in held:
                        raise KeyError(f"version schema {digest!r} has no document")
                    states.append(
                        VersionState(
                            version=int(v["version"]),
                            lifecycle=str(v["lifecycle"]),
                            retired=bool(v["retired"]),
                            member=held[digest],
                        )
                    )
                series[schema_name] = tuple(states)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CorruptSnapshotError(
                f"{origin} does not decode: {exc}"
            ) from exc
        with self._cut_lock:
            # The next cut keeps these files by reference.
            self._files = files
        return ServiceState(
            seq=seq,
            generation=generation,
            next_sid=next_sid,
            components=components,
            series=series,
        )

    def save_state(self, state: ServiceState) -> None:
        with self._cut_lock:
            self._save_state(state)

    def _save_state(self, state: ServiceState) -> None:  # requires-lock: _cut_lock
        files: Dict[Tuple[int, int], FrozenSet[str]] = {}
        written = 0
        for component in state.components:
            pair = (component.sid, component.generation)
            kept = self._files.get(pair)
            if kept is not None:
                files[pair] = kept
                continue
            carried = {m.digest: m.doc for m in component.members}
            self._write_file(
                self._dir / self._snap_name(*pair),
                _seal({
                    "format": FORMAT_SERVICE_SNAPSHOT,
                    "sid": component.sid,
                    "generation": component.generation,
                    "snapshot": snapshot_to_dict(component.dense),
                    "members": [m.digest for m in component.members],
                    "schemas": carried,
                }),
            )
            files[pair] = frozenset(carried)
            written += 1
        in_files: FrozenSet[str] = frozenset().union(*files.values())
        series: Dict[str, List[Dict[str, Any]]] = {}
        extra: Dict[str, Mapping[str, Any]] = {}
        for schema_name, versions in state.series.items():
            rows: List[Dict[str, Any]] = []
            series[schema_name] = rows
            for v in versions:
                digest = v.member.digest
                if digest not in in_files:
                    extra[digest] = v.member.doc  # e.g. a retired version's schema
                rows.append({
                    "version": v.version,
                    "lifecycle": v.lifecycle,
                    "retired": v.retired,
                    "schema": digest,
                })
        manifest = {
            "format": FORMAT_MANIFEST,
            "seq": state.seq,
            "generation": state.generation,
            "next_sid": state.next_sid,
            "files": [list(pair) for pair in files],
            "series": series,
            "schemas": extra,
        }
        if written and self._fsync:
            _fsync_dir(self._dir)  # the new files' names are durable
        self._write_file(self._dir / self.MANIFEST_NAME, _seal(manifest))
        if self._fsync:
            _fsync_dir(self._dir)
        self._files = files
        SNAPSHOT_WRITES.inc(written)
        CUT_FILES_WRITTEN.inc(written + 1)
        CUT_FILES_REUSED.inc(len(files) - written)
        # The manifest is durable: the files it no longer references
        # (older generations, a crashed cut's leftovers) can go.
        keep = {self._snap_name(*pair) for pair in files}
        for stale in self._dir.glob("snap-*"):
            if stale.name not in keep:
                try:
                    stale.unlink()
                except OSError:  # pragma: no cover - race with a cleaner
                    pass

    def _write_file(self, path: Path, text: str) -> None:
        """Write *path* through a temp file and a rename.

        A file of that name may already be referenced by the durable
        manifest (a cut after a failed load rewrites it), so a crash
        mid-write must leave it whole.  The caller fsyncs the directory.
        """
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
            fh.flush()
            if self._fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            if self._lock_fd is not None:
                os.close(self._lock_fd)  # releases the directory lock
                self._lock_fd = None
