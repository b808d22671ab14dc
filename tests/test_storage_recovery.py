"""Crash-recovery battery for the durable registry (repro.service.storage).

Three layers of assurance, from the wire up:

* **encoding faults** — sealed log records and snapshot documents detect
  every byte we flip (checksums), reject impossible sequences, and
  treat a torn final line as the crash footprint it is;
* **fault injection** — a service directory is damaged in targeted ways
  (truncated log tail, flipped bytes in a record / a snapshot / the
  manifest, a deleted snapshot file, a rewritten generation) and reopened:
  every case must end in either a clean replay or a typed
  ``CorruptLogError`` / ``CorruptSnapshotError`` — never a silently
  wrong merged view;
* **crashes mid-cut** — the background cutter is stopped or failed at
  each step of an incremental cut (new files written, manifest not;
  a manifest keeping an older cut's file; a cut in flight at the kill;
  ``close()`` during a cut; a manifest of the older per-seq layout), and
  recovery must equal a full replay while replaying only the suffix
  past the last durable cut;
* **single ownership** — a data directory held by one process refuses
  every other process with a typed ``StorageLockedError``, and a failed
  open never keeps the directory locked;
* **restart equivalence** — random and pathological workloads (named
  registrations, supersede chains, mid-stream retires, rolled-back
  incompatible batches, snapshot cuts at arbitrary points) are run to
  completion, the service is killed and reopened, and the recovered
  instance must answer ``merged_view`` / ``query`` /
  ``component_snapshot`` identically — with the pre-engine
  ``reference_join_all`` as the independent oracle for the view itself.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.schema import Schema
from repro.exceptions import (
    CorruptLogError,
    CorruptSnapshotError,
    IncompatibleSchemasError,
    RetiredSchemaError,
    StorageLockedError,
    UnknownSchemaError,
)
from repro.perf.closure import ClosureBuilder
from repro.perf.reference import reference_join_all
from repro.service import storage as storage_module
from repro.service import (
    FileBackend,
    MemoryBackend,
    MergeService,
    RegistrationEntry,
)
from repro.service.service import _Cutter
from repro.io.json_io import canonical_dumps, schema_to_dict
from repro.service.storage import (
    LogRecord,
    _checksum,
    _seal,
    _unseal,
    record_from_dict,
    record_to_dict,
)
from tests.conftest import schemas


def pets() -> Schema:
    return Schema.build(
        arrows=[("Dog", "owner", "Person")], spec=[("Puppy", "Dog")]
    )


def court() -> Schema:
    return Schema.build(arrows=[("Case", "judge", "Court")])


def bridge() -> Schema:
    return Schema.build(arrows=[("Person", "sued-in", "Case")])


def incompatible_pair() -> Tuple[Schema, Schema]:
    return (
        Schema.build(spec=[("X1", "X2")]),
        Schema.build(spec=[("X2", "X1")]),
    )


def log_path(data_dir: Path) -> Path:
    return data_dir / FileBackend.LOG_NAME


def rewrite_record(data_dir: Path, index: int, **fields) -> None:
    """Re-seal log record *index* with *fields* patched in (crc stays valid)."""
    path = log_path(data_dir)
    lines = path.read_text(encoding="utf-8").splitlines()
    doc = json.loads(lines[index])
    doc.pop("crc")
    doc.update(fields)
    lines[index] = _seal(doc)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def flip_crc(path: Path, line_index: int = 0) -> None:
    """Damage the payload of one sealed line without touching its crc."""
    lines = path.read_text(encoding="utf-8").splitlines()
    doc = json.loads(lines[line_index])
    target = "generation" if "generation" in doc else "seq"
    damaged = dict(doc)
    damaged[target] = doc[target] + 1  # payload changes, crc does not
    lines[line_index] = json.dumps(damaged, sort_keys=True, separators=(",", ":"))
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestWireEncoding:
    def test_sealed_record_round_trips(self):
        record = LogRecord(
            kind="register",
            generation=3,
            entries=(RegistrationEntry(pets(), name="pets", version=1,
                                       lifecycle="recommended"),),
        )
        text = _seal(record_to_dict(7, record))
        seq, decoded = record_from_dict(_unseal(text, CorruptLogError))
        assert seq == 7
        assert decoded == record

    def test_retire_record_round_trips(self):
        record = LogRecord(kind="retire", generation=5, name="pets",
                           versions=(1, 2))
        text = _seal(record_to_dict(2, record))
        seq, decoded = record_from_dict(_unseal(text, CorruptLogError))
        assert (seq, decoded) == (2, record)

    def test_any_payload_change_fails_the_checksum(self):
        text = _seal(record_to_dict(1, LogRecord(kind="retire", generation=1,
                                                 name="pets", versions=(1,))))
        tampered = text.replace('"generation":1', '"generation":2')
        assert tampered != text
        with pytest.raises(CorruptLogError, match="checksum"):
            _unseal(tampered, CorruptLogError)

    def test_unknown_kind_is_corruption(self):
        doc = record_to_dict(1, LogRecord(kind="retire", generation=1,
                                          name="pets", versions=(1,)))
        doc["kind"] = "compact"
        with pytest.raises(CorruptLogError, match="kind"):
            record_from_dict(_unseal(_seal(doc), CorruptLogError))


class TestLogFaults:
    def make_dir(self, tmp_path: Path) -> Path:
        data = tmp_path / "registry"
        service = MergeService.open(data)
        service.register([RegistrationEntry(pets(), name="pets")])
        service.register([court()])
        service.register([bridge()])
        service.close()
        return data

    def test_clean_reopen_replays_every_record(self, tmp_path):
        data = self.make_dir(tmp_path)
        service = MergeService.open(data)
        try:
            assert service.service_stats()["storage"]["log_seq"] == 3
            assert service.merged_view() == reference_join_all(
                [pets(), court(), bridge()]
            )
        finally:
            service.close()

    def test_torn_final_record_is_truncated_not_fatal(self, tmp_path):
        data = self.make_dir(tmp_path)
        with open(log_path(data), "ab") as fh:
            fh.write(b'{"format":"repro.log/1","seq":4,"kind":"regi')
        service = MergeService.open(data)
        try:
            # The torn append never happened; the durable prefix did.
            assert service.service_stats()["storage"]["log_seq"] == 3
            assert service.merged_view() == reference_join_all(
                [pets(), court(), bridge()]
            )
            # The next commit reuses the reclaimed sequence number.
            service.register([Schema.build(classes=["Z"])])
            assert service.service_stats()["storage"]["log_seq"] == 4
        finally:
            service.close()

    def test_truncation_mid_record_drops_only_the_tail(self, tmp_path):
        data = self.make_dir(tmp_path)
        raw = log_path(data).read_bytes()
        second_line_end = raw.index(b"\n", raw.index(b"\n") + 1)
        cut = second_line_end + 1 + (len(raw) - second_line_end) // 2
        log_path(data).write_bytes(raw[:cut])
        service = MergeService.open(data)
        try:
            assert service.service_stats()["storage"]["log_seq"] == 2
            assert service.merged_view() == reference_join_all(
                [pets(), court()]
            )
        finally:
            service.close()

    def test_flipped_byte_in_a_middle_record_is_typed_corruption(
        self, tmp_path
    ):
        data = self.make_dir(tmp_path)
        flip_crc(log_path(data), line_index=1)
        with pytest.raises(CorruptLogError, match="checksum"):
            MergeService.open(data)

    def test_sequence_gap_is_typed_corruption(self, tmp_path):
        data = self.make_dir(tmp_path)
        rewrite_record(data, 1, seq=5)
        with pytest.raises(CorruptLogError, match="sequence"):
            MergeService.open(data)

    def test_wrong_format_tag_is_typed_corruption(self, tmp_path):
        data = self.make_dir(tmp_path)
        rewrite_record(data, 0, format="repro.log/0")
        with pytest.raises(CorruptLogError, match="format"):
            MergeService.open(data)

    def test_diverged_generation_is_typed_corruption(self, tmp_path):
        # A record whose checksum is fine but whose replay does not
        # reproduce the recorded generation: the log and the registry
        # algebra disagree, and recovery must refuse to guess.
        data = self.make_dir(tmp_path)
        rewrite_record(data, 2, generation=99)
        with pytest.raises(CorruptLogError, match="generation"):
            MergeService.open(data)

    def test_non_utf8_line_is_typed_corruption(self, tmp_path):
        data = self.make_dir(tmp_path)
        raw = log_path(data).read_bytes()
        first_end = raw.index(b"\n")
        log_path(data).write_bytes(b"\xff\xfe garbage\n" + raw[first_end + 1:])
        with pytest.raises(CorruptLogError):
            MergeService.open(data)


class TestSnapshotFaults:
    def make_dir(self, tmp_path: Path) -> Path:
        data = tmp_path / "registry"
        service = MergeService.open(data)
        service.register([RegistrationEntry(pets(), name="pets")])
        service.register([court()])
        service.save()
        service.register([bridge()])  # a log suffix past the cut
        service.close()
        return data

    def expected_view(self) -> Schema:
        return reference_join_all([pets(), court(), bridge()])

    def test_snapshot_plus_suffix_replay_is_exact(self, tmp_path):
        data = self.make_dir(tmp_path)
        service = MergeService.open(data)
        try:
            stats = service.service_stats()["storage"]
            assert stats == {**stats, "log_seq": 3, "last_cut_seq": 2}
            assert service.merged_view() == self.expected_view()
        finally:
            service.close()

    def test_deleted_snapshot_file_falls_back_to_clean_replay(
        self, tmp_path
    ):
        data = self.make_dir(tmp_path)
        snaps = sorted(data.glob("snap-*.json"))
        assert snaps
        snaps[-1].unlink()
        service = MergeService.open(data)
        try:
            assert service.merged_view() == self.expected_view()
            assert service.service_stats()["storage"]["log_seq"] == 3
        finally:
            service.close()

    def test_deleted_manifest_falls_back_to_clean_replay(self, tmp_path):
        data = self.make_dir(tmp_path)
        (data / FileBackend.MANIFEST_NAME).unlink()
        service = MergeService.open(data)
        try:
            assert service.merged_view() == self.expected_view()
        finally:
            service.close()

    def test_flipped_byte_in_snapshot_is_typed_corruption(self, tmp_path):
        data = self.make_dir(tmp_path)
        snap = sorted(data.glob("snap-*.json"))[0]
        flip_crc(snap)
        with pytest.raises(CorruptSnapshotError, match="checksum"):
            MergeService.open(data)

    def test_flipped_byte_in_manifest_is_typed_corruption(self, tmp_path):
        data = self.make_dir(tmp_path)
        flip_crc(data / FileBackend.MANIFEST_NAME)
        with pytest.raises(CorruptSnapshotError, match="checksum"):
            MergeService.open(data)

    def test_crash_between_snapshots_and_manifest_replays_the_log(
        self, tmp_path
    ):
        # Simulate dying after the new snap-*.json files landed but
        # before the manifest rename: the stale manifest names a cut
        # whose snapshot files now carry a newer seq.
        data = self.make_dir(tmp_path)
        stale_manifest = (data / FileBackend.MANIFEST_NAME).read_bytes()
        service = MergeService.open(data)
        service.register([Schema.build(classes=["Z"])])
        service.save()
        service.close()
        (data / FileBackend.MANIFEST_NAME).write_bytes(stale_manifest)
        recovered = MergeService.open(data)
        try:
            assert recovered.merged_view() == reference_join_all(
                [pets(), court(), bridge(), Schema.build(classes=["Z"])]
            )
            assert recovered.service_stats()["storage"]["log_seq"] == 4
        finally:
            recovered.close()

    def test_open_on_an_empty_directory_is_a_fresh_service(self, tmp_path):
        service = MergeService.open(tmp_path / "fresh")
        try:
            assert service.service_stats()["generation"] == 0
            assert service.merged_view() == Schema.empty()
        finally:
            service.close()


# ----------------------------------------------------------------------
# Restart equivalence
# ----------------------------------------------------------------------


def assert_equivalent(before: MergeService, after: MergeService) -> None:
    """The recovered service answers every read exactly like the original."""
    assert after.service_stats()["generation"] == (
        before.service_stats()["generation"]
    )
    view = before.merged_view()
    assert after.merged_view() == view
    assert after.components() == before.components()
    for cls in sorted(str(c) for c in view.classes):
        assert after.query(cls) == before.query(cls)
        assert after.component_of(cls) == before.component_of(cls)
    for sid in before.components():
        assert after.component_snapshot(sid).to_dict() == (
            before.component_snapshot(sid).to_dict()
        )


def run_workload(
    service: MergeService, operations: List[Tuple], save_every: Optional[int]
) -> List[Schema]:
    """Apply *operations*; return the live (non-retired) member schemas."""
    live: List[Schema] = []
    generations = [service.service_stats()["generation"]]
    for index, op in enumerate(operations):
        if op[0] == "register":
            entries = op[1]
            service.register(entries)
            live.extend(
                e.schema for e in entries if not e.schema.is_empty()
            )
        elif op[0] == "retire":
            _kind, name, schemas_retired, error = op
            if error is not None:
                with pytest.raises(error):
                    service.retire(name)
            else:
                receipt = service.retire(name)
                assert len(receipt.versions) == len(schemas_retired)
                for schema in schemas_retired:
                    live.remove(schema)
        elif op[0] == "rollback":
            first, second = incompatible_pair()
            with pytest.raises(IncompatibleSchemasError):
                service.register([first, second])
        generation = service.service_stats()["generation"]
        assert generation >= generations[-1]
        generations.append(generation)
        if save_every and (index + 1) % save_every == 0:
            service.save()
    return live


@st.composite
def workloads(draw):
    """Operations over the shared universe + a retire-eligible name pool.

    A retire carries the typed error it must raise: ``None`` for a name
    with live versions, :class:`RetiredSchemaError` once every version
    of the name is retired, :class:`UnknownSchemaError` for a name never
    registered.
    """
    operations: List[Tuple] = []
    named: dict = {}
    retired: set = set()
    count = draw(st.integers(min_value=1, max_value=6))
    for _ in range(count):
        kind = draw(
            st.sampled_from(
                ["register", "register", "named", "retire", "rollback"]
            )
        )
        if kind == "register":
            batch = draw(
                st.lists(schemas(), min_size=1, max_size=3)
            )
            operations.append(
                ("register", [RegistrationEntry(g) for g in batch])
            )
        elif kind == "named":
            schema = draw(schemas().filter(lambda g: not g.is_empty()))
            name = draw(st.sampled_from(["alpha", "beta", "gamma"]))
            operations.append(
                ("register", [RegistrationEntry(schema, name=name)])
            )
            named.setdefault(name, []).append(schema)
            retired.discard(name)
        elif kind == "retire":
            name = draw(st.sampled_from(["alpha", "beta", "gamma", "ghost"]))
            if name in named:
                error = None
                retired.add(name)
            elif name in retired:
                error = RetiredSchemaError
            else:
                error = UnknownSchemaError
            operations.append(("retire", name, named.pop(name, []), error))
        else:
            operations.append(("rollback",))
    return operations


class TestRestartEquivalence:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(operations=workloads(), save_every=st.sampled_from([None, 1, 2]))
    @example(
        # Saved falsifying example: retiring a fully retired name again
        # raises RetiredSchemaError, not UnknownSchemaError.
        operations=[
            ("register", [RegistrationEntry(pets(), name="beta")]),
            ("retire", "beta", [pets()], None),
            ("register", [RegistrationEntry(Schema.empty())]),
            ("retire", "beta", [], RetiredSchemaError),
        ],
        save_every=None,
    )
    def test_random_workloads_survive_a_restart(self, operations, save_every):
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp) / "registry"
            before = MergeService.open(data, fsync=False)
            try:
                live = run_workload(before, operations, save_every)
                assert before.merged_view() == reference_join_all(live)
                after = MergeService.open(data, fsync=False)
                try:
                    assert_equivalent(before, after)
                    assert after.merged_view() == reference_join_all(live)
                finally:
                    after.close()
            finally:
                before.close()

    def test_memory_and_file_backends_agree(self, tmp_path):
        operations = [
            ("register", [RegistrationEntry(pets(), name="pets")]),
            ("register", [RegistrationEntry(court())]),
            ("rollback",),
            ("register", [RegistrationEntry(pets(), name="pets")]),
            ("retire", "pets", [pets(), pets()], None),
            ("register", [RegistrationEntry(bridge(), name="bridge")]),
        ]
        durable = MergeService.open(tmp_path / "registry")
        transient = MergeService(storage=MemoryBackend())
        try:
            live_a = run_workload(durable, operations, save_every=2)
            live_b = run_workload(transient, operations, save_every=None)
            assert live_a == live_b
            assert_equivalent(durable, transient)
        finally:
            durable.close()
            transient.close()

    def test_mid_stream_retire_and_reregistration_survive_restart(
        self, tmp_path
    ):
        data = tmp_path / "registry"
        before = MergeService.open(data)
        before.register([RegistrationEntry(pets(), name="pets")])
        before.register([RegistrationEntry(pets(), name="pets")])
        before.retire("pets")
        # Re-registration after retirement: version numbers continue,
        # they are never reused.
        before.register([RegistrationEntry(pets(), name="pets")])
        info = before.schema_info("pets")
        assert [v["version"] for v in info["versions"]] == [1, 2, 3]
        assert info["recommended"] == 3
        before.close()
        after = MergeService.open(data)
        try:
            assert after.schema_info("pets") == info
            assert after.resolve_schema("pets") == pets()
        finally:
            after.close()

    def test_retiring_one_of_two_equal_members_survives_a_cut(self, tmp_path):
        # A cut stores one document per digest, so the restored component
        # holds one member object for both twins; the retire must drop the
        # same position live and after the restart.
        data = tmp_path / "registry"
        twin = Schema.build(spec=[("K0", "K1")])
        before = MergeService.open(data, fsync=False)
        before.register([
            twin, Schema.build(spec=[("K0", "K2")]), RegistrationEntry(twin, name="beta"),
        ])
        before.save()
        before.retire("beta")
        members = before.component_schemas(before.component_of("K0"))
        before.close()
        after = MergeService.open(data, fsync=False)
        try:
            assert after.component_schemas(after.component_of("K0")) == members
        finally:
            after.close()

    def test_retire_replays_only_the_logged_versions(self):
        # A retire that validated v1 can commit after a racing register
        # added v2 in another component; replay must retire v1 only.
        backend = MemoryBackend()
        service = MergeService(storage=backend)
        service.register([RegistrationEntry(pets(), name="pets")])
        service.close()
        v2 = RegistrationEntry(court(), name="pets", version=2,
                               lifecycle="recommended")
        backend.append(LogRecord("register", 2, (v2,), sids=(1,)))
        backend.append(LogRecord("retire", 3, name="pets", versions=(1,)))
        recovered = MergeService(storage=backend)
        info = recovered.schema_info("pets")
        assert [(v["version"], v["retired"]) for v in info["versions"]] == [
            (1, True),
            (2, False),
        ]
        assert recovered.resolve_schema("pets") == court()
        assert recovered.component_of("Dog") is None
        assert recovered.merged_view() == court()

    def test_rolled_back_batches_are_never_logged(self, tmp_path):
        data = tmp_path / "registry"
        service = MergeService.open(data)
        service.register([pets()])
        first, second = incompatible_pair()
        with pytest.raises(IncompatibleSchemasError):
            service.register([court(), first, second])
        assert service.service_stats()["storage"]["log_seq"] == 1
        service.close()
        backend = FileBackend(data)
        try:
            kinds = [record.kind for _seq, record in backend.records()]
            assert kinds == ["register"]
        finally:
            backend.close()

    def test_warm_restart_equals_cold_restart(self, tmp_path):
        """Snapshot-based recovery and pure log replay reach the same state."""
        data = tmp_path / "registry"
        service = MergeService.open(data)
        service.register([RegistrationEntry(pets(), name="pets")])
        service.register([court()])
        service.save()
        service.register([bridge()])
        service.retire("pets")
        service.close()

        warm = MergeService.open(data)
        (data / FileBackend.MANIFEST_NAME).unlink()
        cold = MergeService.open(data)
        try:
            assert_equivalent(warm, cold)
        finally:
            warm.close()
            cold.close()


# ----------------------------------------------------------------------
# Failed appends: the log record is durable before anything is published
# ----------------------------------------------------------------------


class FlakyBackend(MemoryBackend):
    """A memory backend whose next *failures* appends raise ``OSError``."""

    def __init__(self) -> None:
        super().__init__()
        self.failures = 0

    def append(self, record: LogRecord) -> int:
        if self.failures:
            self.failures -= 1
            raise OSError(errno.EIO, "injected append failure")
        return super().append(record)


def observable_state(service: MergeService) -> dict:
    """Everything a failed write must leave exactly as it was."""
    view = service.merged_view()
    names = ["Dog", "Person", "Puppy", "Case", "Court", "Fresh"]
    return {
        "generation": service.service_stats()["generation"],
        "view": view,
        "component_of": {cls: service.component_of(cls) for cls in names},
        "series": dict(service._registry.series),
    }


class TestFailedAppend:
    def make_service(self) -> Tuple[FlakyBackend, MergeService]:
        backend = FlakyBackend()
        service = MergeService(storage=backend)
        service.register([RegistrationEntry(pets(), name="pets")])
        service.register([court()])
        return backend, service

    def assert_replays_equal(self, backend: FlakyBackend, live: MergeService):
        reopened = MergeService(storage=backend)
        try:
            assert_equivalent(live, reopened)
            assert reopened._registry.series == live._registry.series
        finally:
            reopened.close()

    def test_failed_register_append_publishes_nothing(self):
        backend, service = self.make_service()
        before = observable_state(service)
        backend.failures = 1
        bridging = [
            RegistrationEntry(bridge(), name="bridge"),
            RegistrationEntry(Schema.build(arrows=[("Fresh", "near", "Dog")])),
        ]
        with pytest.raises(OSError):
            service.register(bridging)
        assert observable_state(service) == before
        assert service.telemetry.rollbacks.value == 1

        receipt = service.register(bridging)
        assert receipt.generation == before["generation"] + 1
        assert service.component_of("Fresh") == service.component_of("Court")
        self.assert_replays_equal(backend, service)

    def test_failed_retire_append_publishes_nothing(self):
        backend, service = self.make_service()
        before = observable_state(service)
        backend.failures = 1
        with pytest.raises(OSError):
            service.retire("pets")
        assert observable_state(service) == before
        assert service.resolve_schema("pets") == pets()
        assert service.telemetry.rollbacks.value == 1
        # A refused plan is not a rollback: nothing was staged.
        with pytest.raises(UnknownSchemaError):
            service.retire("no-such-schema")
        assert service.telemetry.rollbacks.value == 1

        receipt = service.retire("pets")
        assert receipt.versions == (1,)
        assert receipt.components == 1
        assert service.component_of("Dog") is None
        self.assert_replays_equal(backend, service)

    def test_file_backend_cuts_a_failed_fsync_back_out(self, tmp_path, monkeypatch):
        data = tmp_path / "registry"
        service = MergeService.open(data)
        service.register([pets()])
        before = observable_state(service)
        size = log_path(data).stat().st_size
        real_fsync = storage_module.os.fsync
        calls = {"n": 0}

        def failing_once(fd):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError(errno.EIO, "injected fsync failure")
            return real_fsync(fd)

        def no_fstat(fd):
            raise AssertionError("an append reads no file size")

        monkeypatch.setattr(storage_module.os, "fsync", failing_once)
        with pytest.raises(OSError):
            service.register([court()])
        assert log_path(data).stat().st_size == size
        assert observable_state(service) == before
        monkeypatch.setattr(storage_module.os, "fstat", no_fstat)
        service.register([court()])
        service.register([bridge()])
        monkeypatch.undo()
        records = list(service._storage.records())
        assert [seq for seq, _record in records] == [1, 2, 3]
        assert [r.entries[0].schema for _s, r in records] == [pets(), court(), bridge()]
        service.close()

        reopened = MergeService.open(data)
        try:
            assert reopened.service_stats()["storage"]["log_seq"] == 3
            assert reopened.merged_view() == reference_join_all(
                [pets(), court(), bridge()]
            )
        finally:
            reopened.close()


# ----------------------------------------------------------------------
# Snapshot cuts off the write path: the cutter, failures, crashes mid-cut
# ----------------------------------------------------------------------


CUT_TIMEOUT = 30.0


def settle(service: MergeService) -> dict:
    """Wait until the cutter has no capture pending; the storage stats."""
    deadline = time.monotonic() + CUT_TIMEOUT
    while True:
        stats = service.service_stats()["storage"]
        if not stats["cut_pending"]:
            return stats
        assert time.monotonic() < deadline, "the cutter never settled"
        time.sleep(0.002)


def counter(name: str) -> int:
    return storage_module.REGISTRY.value(name) or 0


def fresh(index: int) -> RegistrationEntry:
    """A named one-class schema in a component of its own."""
    return RegistrationEntry(Schema.build(classes=[f"C{index}"]), name=f"n{index}")


class FailingCutBackend(MemoryBackend):
    """A memory backend whose cuts fail with ENOSPC while *failing* is set."""

    def __init__(self) -> None:
        super().__init__()
        self.failing = True

    def save_state(self, state) -> None:
        if self.failing:
            raise OSError(errno.ENOSPC, "injected full disk")
        super().save_state(state)


class TestFailedCut:
    def test_a_failed_cut_never_fails_a_committed_write(self):
        backend = FailingCutBackend()
        service = MergeService(storage=backend, snapshot_every=64)
        failures = counter("storage.cut_failures")
        try:
            receipts = [service.register([fresh(i)]) for i in range(70)]
            assert [r.generation for r in receipts] == list(range(1, 71))
            stats = settle(service)
            assert stats["log_seq"] == 70
            assert stats["last_cut_seq"] == 0  # nothing durable yet
            assert counter("storage.cut_failures") == failures + 1
            assert len(list(backend.records())) == 70
        finally:
            service.close()

    def test_save_raises_the_failure(self):
        backend = FailingCutBackend()
        service = MergeService(storage=backend)
        try:
            service.register([fresh(0)])
            with pytest.raises(OSError) as excinfo:
                service.save()
            assert excinfo.value.errno == errno.ENOSPC
            backend.failing = False
            assert service.save() == 1
        finally:
            service.close()

    def test_the_next_due_cut_retries(self):
        backend = FailingCutBackend()
        service = MergeService(storage=backend, snapshot_every=4)
        try:
            for i in range(4):
                service.register([fresh(i)])
            assert settle(service)["last_cut_seq"] == 0
            backend.failing = False
            for i in range(4, 8):
                service.register([fresh(i)])
            assert settle(service)["last_cut_seq"] == 8
            assert backend.load_state().seq == 8
        finally:
            service.close()

    def test_a_later_failed_cut_does_not_fail_a_covered_wait(self):
        backend = FailingCutBackend()
        backend.failing = False
        service = MergeService(storage=backend)
        service.register([fresh(0)])
        cutter = _Cutter(backend, 0)
        try:
            cutter.submit(1, (service._registry, 1, service._next_sid))
            assert cutter.wait(1, 1) == 1
            backend.failing = True
            service.register([fresh(1)])
            cutter.submit(2, (service._registry, 2, service._next_sid))
            with pytest.raises(OSError):
                cutter.wait(2, 2)
            # The first capture is durable: its waiter succeeds although
            # the newest cut failed.
            assert cutter.wait(1, 1) == 1
        finally:
            cutter.close()
            service.close()


class HookedBackend(FileBackend):
    """A file backend whose cut stops after its first new component file.

    While *armed*, the cut sets *reached* once that file is durable and
    then blocks until *release* is set, or raises when *fail* is set.
    """

    def __init__(self, path, **kwargs) -> None:
        super().__init__(path, **kwargs)
        self.armed = False
        self.fail = False
        self.reached = threading.Event()
        self.release = threading.Event()

    def _write_file(self, path, text) -> None:
        if self.armed and path.name == FileBackend.MANIFEST_NAME:
            if self.fail:
                raise OSError(errno.EIO, "injected crash before the manifest")
        super()._write_file(path, text)
        if self.armed and path.name.startswith("snap-") and not self.fail:
            self.reached.set()
            assert self.release.wait(CUT_TIMEOUT)


def two_component_history(service: MergeService) -> List[Schema]:
    """Register a named pets and an anonymous court: two components."""
    service.register([RegistrationEntry(pets(), name="pets")])
    service.register([court()])
    return [pets(), court()]


def replays_on_open(data: Path) -> Tuple[MergeService, int]:
    """Open *data*; the service and the number of records it replayed."""
    before = counter("storage.replays")
    service = MergeService.open(data)
    return service, counter("storage.replays") - before


def full_replay_of(data: Path, into: Path) -> MergeService:
    """A copy of *data* without its manifest, opened: a full log replay."""
    shutil.copytree(data, into)
    (into / FileBackend.MANIFEST_NAME).unlink(missing_ok=True)
    return MergeService.open(into)


class TestCrashMidCut:
    def test_new_files_without_their_manifest_replay_only_the_suffix(
        self, tmp_path
    ):
        # (a) The cut wrote its new component files, then died before
        # the manifest: recovery reads the old cut and replays the suffix.
        data = tmp_path / "registry"
        backend = HookedBackend(data)
        service = MergeService(storage=backend)
        live = two_component_history(service)
        assert service.save() == 2
        service.register([bridge()])
        service.register([Schema.build(arrows=[("Court", "in", "City")])])
        live += [bridge(), Schema.build(arrows=[("Court", "in", "City")])]
        backend.armed = backend.fail = True
        with pytest.raises(OSError, match="before the manifest"):
            service.save()
        service.close()
        assert (data / "snap-0-4.json").exists()  # written, never referenced

        recovered, replayed = replays_on_open(data)
        cold = full_replay_of(data, tmp_path / "cold")
        try:
            assert replayed == 2
            assert recovered.service_stats()["storage"]["last_cut_seq"] == 2
            assert recovered.merged_view() == reference_join_all(live)
            assert_equivalent(cold, recovered)
        finally:
            recovered.close()
            cold.close()

    def test_manifest_keeps_an_unchanged_component_file_from_an_older_cut(
        self, tmp_path
    ):
        # (b) Only the court component changes between two cuts, so the
        # second manifest references the first cut's pets file.
        data = tmp_path / "registry"
        service = MergeService.open(data)
        live = two_component_history(service)
        service.save()
        assert sorted(p.name for p in data.glob("snap-*.json")) == [
            "snap-0-1.json", "snap-1-2.json",
        ]
        written = counter("storage.cut_files_written")
        reused = counter("storage.cut_files_reused")
        city = Schema.build(arrows=[("Court", "in", "City")])
        service.register([city])
        live.append(city)
        assert service.save() == 3
        service.close()
        # One component file plus the manifest written; one file kept.
        assert counter("storage.cut_files_written") == written + 2
        assert counter("storage.cut_files_reused") == reused + 1
        assert sorted(p.name for p in data.glob("snap-*.json")) == [
            "snap-0-1.json", "snap-1-3.json",
        ]
        manifest = _unseal(
            (data / FileBackend.MANIFEST_NAME).read_text(), CorruptSnapshotError
        )
        assert manifest["files"] == [[0, 1], [1, 3]]

        recovered, replayed = replays_on_open(data)
        cold = full_replay_of(data, tmp_path / "cold")
        try:
            assert replayed == 0
            assert recovered.merged_view() == reference_join_all(live)
            assert_equivalent(cold, recovered)
        finally:
            recovered.close()
            cold.close()

    def test_a_kill_with_a_cut_in_flight_replays_only_the_suffix(
        self, tmp_path
    ):
        # (c) The directory is copied while the cutter is parked between
        # two component files — the disk as a SIGKILL would leave it.
        data = tmp_path / "registry"
        backend = HookedBackend(data)
        service = MergeService(storage=backend, snapshot_every=4)
        try:
            live = []
            for i in range(4):
                service.register([fresh(i)])
                live.append(fresh(i).schema)
            assert settle(service)["last_cut_seq"] == 4
            backend.armed = True
            for i in range(4, 9):
                service.register([RegistrationEntry(
                    Schema.build(arrows=[(f"C{i % 4}", "next", f"D{i}")])
                )])
                live.append(Schema.build(arrows=[(f"C{i % 4}", "next", f"D{i}")]))
            assert backend.reached.wait(CUT_TIMEOUT)
            shutil.copytree(data, tmp_path / "killed")
        finally:
            backend.release.set()
            service.close()

        recovered, replayed = replays_on_open(tmp_path / "killed")
        cold = full_replay_of(tmp_path / "killed", tmp_path / "cold")
        try:
            assert replayed == 5  # the suffix past the durable cut at 4
            assert recovered.merged_view() == reference_join_all(live)
            assert_equivalent(cold, recovered)
        finally:
            recovered.close()
            cold.close()

    def test_close_during_a_cut_waits_for_it_then_releases_the_lock(
        self, tmp_path
    ):
        # (d) close() drains the cutter before it gives up LOCK.
        data = tmp_path / "registry"
        backend = HookedBackend(data)
        service = MergeService(storage=backend, snapshot_every=2)
        backend.armed = True
        two_component_history(service)
        assert backend.reached.wait(CUT_TIMEOUT)
        closer = threading.Thread(target=service.close, daemon=True)
        closer.start()
        try:
            closer.join(0.2)
            assert closer.is_alive()  # waiting for the cut
            assert open_in_child(data) == "StorageLockedError"
        finally:
            backend.release.set()
        closer.join(CUT_TIMEOUT)
        assert not closer.is_alive()
        assert open_in_child(data) == "opened"
        reopened, replayed = replays_on_open(data)
        try:
            assert replayed == 0  # the drained cut covers the whole log
            assert reopened.merged_view() == reference_join_all([pets(), court()])
        finally:
            reopened.close()

    def test_a_torn_rewrite_of_a_referenced_file_leaves_it_whole(
        self, tmp_path, monkeypatch
    ):
        # A referenced file is missing, so open replays the whole log and
        # the first cut rewrites pairs the durable manifest still names.
        # A crash mid-write tears only the temp file.
        data = tmp_path / "registry"
        service = MergeService.open(data)
        live = two_component_history(service)
        service.save()
        service.close()
        (data / "snap-1-2.json").unlink()
        service, replayed = replays_on_open(data)
        assert replayed == 2
        real_fsync = os.fsync

        def torn_fsync(fd: int) -> None:
            os.ftruncate(fd, os.fstat(fd).st_size // 2)
            raise OSError(errno.EIO, "injected crash mid-write")

        monkeypatch.setattr(os, "fsync", torn_fsync)
        try:
            with pytest.raises(OSError, match="mid-write"):
                service.save()
        finally:
            monkeypatch.setattr(os, "fsync", real_fsync)
            service.close()

        assert (data / "snap-0-1.json").exists()
        recovered, replayed = replays_on_open(data)
        try:
            assert replayed == 2  # still a full replay, not corruption
            assert recovered.merged_view() == reference_join_all(live)
        finally:
            recovered.close()

    def test_a_v1_manifest_is_a_full_replay(self, tmp_path):
        # (e) A manifest of the per-seq layout is no cut at all.
        data = TestSnapshotFaults().make_dir(tmp_path)
        path = data / FileBackend.MANIFEST_NAME
        manifest = _unseal(path.read_text(), CorruptSnapshotError)
        manifest["format"] = "repro.service.manifest/1"
        path.write_text(_seal(manifest) + "\n")
        recovered, replayed = replays_on_open(data)
        try:
            assert replayed == 3
            assert recovered.service_stats()["storage"]["last_cut_seq"] == 0
            assert recovered.merged_view() == TestSnapshotFaults().expected_view()
        finally:
            recovered.close()

    def test_snapshot_file_of_another_component_is_typed_corruption(
        self, tmp_path
    ):
        data = TestSnapshotFaults().make_dir(tmp_path)
        first, second = sorted(data.glob("snap-*.json"))
        first.write_bytes(second.read_bytes())
        with pytest.raises(CorruptSnapshotError, match="holds component"):
            MergeService.open(data)


class TestCutCost:
    def test_load_state_decodes_each_schema_document_once(
        self, tmp_path, monkeypatch
    ):
        data = tmp_path / "registry"
        service = MergeService.open(data)
        service.register([RegistrationEntry(pets(), name="pets")])
        service.register([RegistrationEntry(pets(), name="pets")])  # twin
        service.register([RegistrationEntry(court(), name="court")])
        service.register([pets(), RegistrationEntry(bridge(), name="bridge")])
        service.retire("court")  # a version whose schema left every file
        city = Schema.build(arrows=[("City", "has", "Court")])
        service.register([RegistrationEntry(city, name="city")])
        service.save()
        members = [g for sid in service.components() for g in service.component_schemas(sid)]
        series = {
            name: [v.schema for v in vs]
            for name, vs in service._registry.series.items()
        }
        versions = [g for schemas in series.values() for g in schemas]
        distinct = len(set(members) | set(versions))
        service.close()

        calls = []
        decode = storage_module.generators_from_dict
        monkeypatch.setattr(
            storage_module, "generators_from_dict",
            lambda doc: calls.append(doc) or decode(doc),
        )
        backend = FileBackend(data)
        try:
            state = backend.load_state()
            assert calls == []  # loading decodes nothing
            hydrated = [m.schema for c in state.components for m in c.members]
            restored = {
                name: [v.schema for v in vs] for name, vs in state.series.items()
            }
            again = [m.schema for c in state.components for m in c.members]
            again += [v.schema for vs in state.series.values() for v in vs]
        finally:
            backend.close()
        # Reading everything decodes each distinct document exactly once.
        assert len(calls) == distinct
        assert len({json.dumps(doc, sort_keys=True) for doc in calls}) == distinct
        assert len(hydrated) == len(members)
        assert set(hydrated) == set(members)
        assert restored == series
        assert again == hydrated + [g for gs in restored.values() for g in gs]

    def test_a_cut_encodes_only_schemas_it_has_not_encoded(
        self, tmp_path, monkeypatch
    ):
        data = tmp_path / "registry"
        service = MergeService.open(data, fsync=False)
        for i in range(6):
            service.register([fresh(i)])
        service.save()
        linked = Schema.build(arrows=[("C0", "to", "C1")])
        service.register([linked])  # merges two components
        calls = []
        encode = storage_module.schema_to_dict
        monkeypatch.setattr(
            storage_module, "schema_to_dict",
            lambda schema: calls.append(schema) or encode(schema),
        )
        service.save()
        service.close()
        assert calls == []  # the append already encoded ``linked``

    def test_each_registered_schema_is_encoded_once(self, tmp_path, monkeypatch):
        data = tmp_path / "registry"
        calls = []
        encode = storage_module.schema_to_dict
        monkeypatch.setattr(
            storage_module, "schema_to_dict",
            lambda schema: calls.append(schema) or encode(schema),
        )
        service = MergeService.open(data, fsync=False)
        first = [RegistrationEntry(pets(), name="pets"), court()]
        second = [bridge(), fresh(0), pets()]  # an anonymous twin of "pets"
        service.register(first)
        service.save()
        service.register(second)
        service.retire("pets")
        service.save()
        service.close()
        assert len(calls) == len(first) + len(second)

        calls.clear()
        (data / FileBackend.MANIFEST_NAME).unlink()
        replayed = MergeService.open(data, fsync=False)  # log replay only
        try:
            assert replayed.save() == 3
        finally:
            replayed.close()
        assert calls == []

    def test_a_posted_document_is_never_closed_or_encoded(
        self, tmp_path, monkeypatch
    ):
        from repro.io import json_io
        from repro.service import service as service_module
        from repro.service.http import HttpFrontend

        docs = [
            schema_to_dict(pets()),
            {"name": "court", "schema": schema_to_dict(court())},
            {"format": "repro.schema/1", "arrows": [["Person", "sued-in", "Case"]]},
        ]
        data = tmp_path / "registry"
        calls = []
        # Every single-schema closure, Schema.build included, is one close.
        close = ClosureBuilder.close.__func__
        monkeypatch.setattr(
            ClosureBuilder, "close",
            classmethod(lambda cls, *a, **k: calls.append("close") or close(cls, *a, **k)),
        )
        for module in (json_io, storage_module, service_module):
            encode = module.schema_to_dict
            monkeypatch.setattr(
                module, "schema_to_dict",
                lambda schema, encode=encode: calls.append("encode") or encode(schema),
            )
        service = MergeService.open(data, fsync=False)
        service.register([HttpFrontend._decode_entry(doc) for doc in docs[:2]])
        service.register([HttpFrontend._decode_entry(docs[2])])  # a bridge
        service.retire("court")
        service.save()
        service.close()
        reopened = MergeService.open(data, fsync=False)  # cut, then a fold
        reopened.register([HttpFrontend._decode_entry(docs[1])])
        reopened.close()
        (data / FileBackend.MANIFEST_NAME).unlink()
        replayed = MergeService.open(data, fsync=False)  # log replay only
        assert calls == []
        monkeypatch.undo()
        try:
            assert replayed.merged_view() == reference_join_all(
                [pets(), bridge(), court()]
            )
        finally:
            replayed.close()

    def test_records_unseal_only_the_suffix(self, tmp_path, monkeypatch):
        data = TestLogFaults().make_dir(tmp_path)
        unsealed = []
        unseal = storage_module._unseal
        backend = FileBackend(data)
        monkeypatch.setattr(
            storage_module, "_unseal",
            lambda text, error: unsealed.append(text) or unseal(text, error),
        )
        try:
            assert [seq for seq, _r in backend.records(after=2)] == [3]
            assert len(unsealed) == 1
            assert [seq for seq, _r in backend.records()] == [1, 2, 3]
        finally:
            backend.close()

    def test_cut_telemetry(self, tmp_path):
        histogram = storage_module.CUT_DURATION
        observed = histogram.count
        data = tmp_path / "registry"
        service = MergeService.open(data, fsync=False, snapshot_every=1)
        try:
            assert "cut_pending" in service.service_stats()["storage"]
            service.register([pets()])
            stats = settle(service)
            assert stats == {**stats, "last_cut_seq": 1, "cut_pending": False}
            assert histogram.count == observed + 1
        finally:
            service.close()


def count_decodes(monkeypatch) -> list:
    """Record every storage-side ``generators_from_dict`` call from now on."""
    calls: list = []
    decode = storage_module.generators_from_dict
    monkeypatch.setattr(
        storage_module, "generators_from_dict",
        lambda doc: calls.append(doc) or decode(doc),
    )
    return calls


def reseal_schema_doc(data: Path, digest: str, doc: dict) -> int:
    """Replace schema document *digest* in every cut file that carries it,
    re-sealing each file (so every CRC stays clean); the files changed."""
    changed = 0
    for path in [data / FileBackend.MANIFEST_NAME, *data.glob("snap-*.json")]:
        sealed = _unseal(path.read_text(encoding="utf-8"), CorruptSnapshotError)
        if digest in sealed["schemas"]:
            sealed["schemas"][digest] = doc
            path.write_text(_seal(sealed) + "\n", encoding="utf-8")
            changed += 1
    return changed


class TestRestoredReferences:
    """Recovery hands out document references; reads decode, cuts copy."""

    def make_dir(self, tmp_path: Path) -> Tuple[Path, List[Schema]]:
        data = tmp_path / "registry"
        service = MergeService.open(data, fsync=False)
        live = two_component_history(service)
        service.save()
        service.close()
        return data, live

    def test_a_register_into_a_restored_component_decodes_nothing(
        self, tmp_path, monkeypatch
    ):
        data, live = self.make_dir(tmp_path)
        calls = count_decodes(monkeypatch)
        service = MergeService.open(data, fsync=False)
        sid = service.component_of("Dog")
        breed = Schema.build(arrows=[("Puppy", "breed", "Breed")])
        # A new recommended version demotes the restored one (a replace
        # of its lifecycle record) and grows the restored component.
        service.register([RegistrationEntry(breed, name="pets")])
        assert service.component_of("Breed") == sid
        assert service.save() == 3
        service.close()
        assert calls == []

        recovered, replayed = replays_on_open(data)
        cold = full_replay_of(data, tmp_path / "cold")
        try:
            assert replayed == 0
            assert recovered.merged_view() == reference_join_all(live + [breed])
            assert_equivalent(cold, recovered)
            assert recovered.schema_info("pets") == cold.schema_info("pets")
            assert recovered.resolve_schema("pets") == breed
            assert recovered.component_schemas(sid) == (pets(), breed)
        finally:
            recovered.close()
            cold.close()

    def test_folding_and_retiring_restored_components_survive_a_reopen(
        self, tmp_path
    ):
        data, live = self.make_dir(tmp_path)
        service = MergeService.open(data, fsync=False)
        service.register([bridge()])  # folds court into pets' component
        service.retire("pets")  # rebuilds it from the decoded members
        service.save()
        service.close()
        recovered, replayed = replays_on_open(data)
        cold = full_replay_of(data, tmp_path / "cold")
        try:
            assert replayed == 0
            assert recovered.merged_view() == reference_join_all([court(), bridge()])
            assert_equivalent(cold, recovered)
        finally:
            recovered.close()
            cold.close()

    def test_an_undecodable_version_document_raises_on_first_read(
        self, tmp_path
    ):
        import http.client

        from repro.service import HttpFrontend

        data, live = self.make_dir(tmp_path)
        service = MergeService.open(data)
        digest = storage_module._digest(
            storage_module.schema_to_dict(service.resolve_schema("pets"))
        )
        service.close()
        bad = {"format": "repro.schema/1", "classes": 7}
        assert reseal_schema_doc(data, digest, bad) >= 1

        service = MergeService.open(data)  # every CRC is clean
        try:
            assert service.merged_view() == reference_join_all(live)
            with pytest.raises(CorruptSnapshotError, match="does not decode"):
                service.resolve_schema("pets")
            with HttpFrontend(service, port=0) as frontend:
                conn = http.client.HTTPConnection(*frontend.address, timeout=10)
                try:
                    conn.request("GET", "/v1/schemas/pets")
                    response = conn.getresponse()
                    body = json.loads(response.read())
                finally:
                    conn.close()
            assert response.status == 500
            assert "error" in body
        finally:
            service.close()

    def test_a_respaced_log_line_with_its_crc_fails_the_checksum(
        self, tmp_path
    ):
        data = TestLogFaults().make_dir(tmp_path)
        lines = log_path(data).read_text(encoding="utf-8").splitlines()
        respaced = json.dumps(json.loads(lines[1]), sort_keys=True)
        assert respaced != lines[1]
        assert json.loads(respaced) == json.loads(lines[1])  # same crc too
        lines[1] = respaced
        log_path(data).write_text(
            "".join(line + "\n" for line in lines), encoding="utf-8"
        )
        with pytest.raises(CorruptLogError, match="checksum"):
            MergeService.open(data)

    def test_seal_is_the_canonical_text_with_the_crc_in(self, tmp_path):
        data = TestSnapshotFaults().make_dir(tmp_path)
        texts = log_path(data).read_text(encoding="utf-8").splitlines()
        texts += [
            path.read_text(encoding="utf-8").removesuffix("\n")
            for path in [data / FileBackend.MANIFEST_NAME, *data.glob("snap-*.json")]
        ]
        assert len(texts) == 3 + 1 + 2
        for text in texts:
            doc = _unseal(text, CorruptSnapshotError)
            sealed = _seal(doc)
            assert sealed == canonical_dumps({**doc, "crc": _checksum(doc)})
            assert sealed == text

    def test_seal_refuses_keys_that_sort_before_crc(self):
        with pytest.raises(ValueError):
            _seal({"apple": 1, "format": "x"})
        with pytest.raises(ValueError):
            _seal({"crc": "00000000", "format": "x"})
        with pytest.raises(ValueError):
            _seal({})


SRC = Path(__file__).resolve().parent.parent / "src"

#: Holds a data directory open until its stdin closes.
HOLD_SCRIPT = """
import sys
from repro.service import MergeService
service = MergeService.open(sys.argv[1])
print("holding", flush=True)
sys.stdin.read()
service.close()
"""

#: Opens a data directory and reports how that went.
OPEN_SCRIPT = """
import sys
from repro.service import MergeService
try:
    MergeService.open(sys.argv[1]).close()
    print("opened")
except Exception as exc:
    print(type(exc).__name__)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return env


def open_in_child(data: Path) -> str:
    """What a second process gets when it opens *data*."""
    result = subprocess.run(
        [sys.executable, "-c", OPEN_SCRIPT, str(data)],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


class TestDirectoryLock:
    @contextmanager
    def held_by_child(self, data: Path):
        child = subprocess.Popen(
            [sys.executable, "-c", HOLD_SCRIPT, str(data)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
        )
        try:
            assert child.stdout.readline().strip() == "holding"
            yield
        finally:
            child.stdin.close()
            child.wait(timeout=60)
            child.stdout.close()

    def test_second_process_is_refused_until_the_holder_exits(self, tmp_path):
        data = tmp_path / "registry"
        with self.held_by_child(data):
            with pytest.raises(StorageLockedError, match="another process"):
                MergeService.open(data)
        service = MergeService.open(data)
        try:
            service.register([pets()])
        finally:
            service.close()
        reopened = MergeService.open(data)
        try:
            assert reopened.service_stats()["storage"]["log_seq"] == 1
        finally:
            reopened.close()

    def test_holder_refuses_other_processes_until_closed(self, tmp_path):
        data = tmp_path / "registry"
        service = MergeService.open(data)
        try:
            assert open_in_child(data) == "StorageLockedError"
        finally:
            service.close()
        assert open_in_child(data) == "opened"

    def test_serve_reports_a_held_directory_without_a_traceback(
        self, tmp_path
    ):
        data = tmp_path / "registry"
        with self.held_by_child(data):
            result = subprocess.run(
                [sys.executable, "-m", "repro.tools.cli", "serve",
                 "--data-dir", str(data)],
                stdin=subprocess.DEVNULL,
                capture_output=True,
                text=True,
                env=child_env(),
                timeout=60,
            )
        assert result.returncode == 1
        assert "in use by another process" in result.stderr
        assert "Traceback" not in result.stderr

    def test_failed_log_scan_releases_the_lock(self, tmp_path):
        data = TestLogFaults().make_dir(tmp_path)
        flip_crc(log_path(data), line_index=1)
        with pytest.raises(CorruptLogError):
            MergeService.open(data)
        # A lock leaked by the failed open would refuse the child first.
        assert open_in_child(data) == "CorruptLogError"

    def test_failed_recovery_releases_the_lock(self, tmp_path):
        data = TestSnapshotFaults().make_dir(tmp_path)
        flip_crc(sorted(data.glob("snap-*.json"))[0])
        with pytest.raises(CorruptSnapshotError):
            MergeService.open(data)
        assert open_in_child(data) == "CorruptSnapshotError"

    def test_failed_initial_registration_releases_the_lock(self, tmp_path):
        data = tmp_path / "registry"
        backend = FileBackend(data)
        with pytest.raises(IncompatibleSchemasError):
            MergeService(list(incompatible_pair()), storage=backend)
        assert backend._lock_fd is None
        assert open_in_child(data) == "opened"


# ----------------------------------------------------------------------
# Data written before members were held in generator form
# ----------------------------------------------------------------------

FIXTURES = Path(__file__).parent / "fixtures"


def opened_state(service: MergeService) -> dict:
    """Merged view, components, lifecycle cards and member schemas, as JSON."""
    cards = {}
    for schema_name in sorted(service._registry.series):
        try:
            cards[schema_name] = service.schema_info(schema_name)
        except RetiredSchemaError as exc:
            cards[schema_name] = type(exc).__name__
    return json.loads(json.dumps({
        "view": schema_to_dict(service.merged_view()),
        "components": {str(k): v for k, v in service.components().items()},
        "cards": cards,
        "members": {
            str(sid): sorted(
                json.dumps(schema_to_dict(g), sort_keys=True)
                for g in service.component_schemas(sid)
            )
            for sid in service.components()
        },
        "generation": service.service_stats()["generation"],
    }, sort_keys=True))


class TestClosedDocumentData:
    """A directory whose log and cut hold closed schema documents.

    ``fixtures/closed-docs-data-dir`` was written by the code before
    this layout, which logged every schema as its closed document, and
    left as a kill leaves it: a cut after four registers, then five
    more records (registers that fold restored components, a retire
    that rebuilds from restored members).  The expected state is what
    that code opened it to.
    """

    def test_it_opens_to_the_same_state(self, tmp_path):
        data = tmp_path / "registry"
        shutil.copytree(FIXTURES / "closed-docs-data-dir", data)
        expected = json.loads(
            (FIXTURES / "closed-docs-data-dir.expected.json").read_text()
        )
        service, replayed = replays_on_open(data)
        try:
            assert replayed == 5
            assert opened_state(service) == expected
        finally:
            service.close()
        cold = full_replay_of(data, tmp_path / "cold")
        try:
            assert opened_state(cold) == expected
        finally:
            cold.close()
