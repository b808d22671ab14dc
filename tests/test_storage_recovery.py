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
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.schema import Schema
from repro.exceptions import (
    CorruptLogError,
    CorruptSnapshotError,
    IncompatibleSchemasError,
    UnknownSchemaError,
)
from repro.perf.reference import reference_join_all
from repro.service import storage as storage_module
from repro.service import (
    FileBackend,
    MemoryBackend,
    MergeService,
    RegistrationEntry,
)
from repro.service.storage import (
    LogRecord,
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
            name = op[1]
            try:
                receipt = service.retire(name)
            except UnknownSchemaError:
                continue
            for schema in op[2][: len(receipt.versions)]:
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
    """Operations over the shared universe + a retire-eligible name pool."""
    operations: List[Tuple] = []
    named: dict = {}
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
        elif kind == "retire":
            name = draw(st.sampled_from(["alpha", "beta", "gamma", "ghost"]))
            operations.append(("retire", name, list(named.get(name, []))))
            named.pop(name, None)
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
            ("retire", "pets", [pets(), pets()]),
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
        "series": dict(service._series),
        "reserved": dict(service._reserved),
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
            assert reopened._series == live._series
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

        monkeypatch.setattr(storage_module.os, "fsync", failing_once)
        with pytest.raises(OSError):
            service.register([court()])
        assert log_path(data).stat().st_size == size
        assert observable_state(service) == before
        service.register([court()])
        service.register([bridge()])
        monkeypatch.undo()
        service.close()

        reopened = MergeService.open(data)
        try:
            assert reopened.service_stats()["storage"]["log_seq"] == 3
            assert reopened.merged_view() == reference_join_all(
                [pets(), court(), bridge()]
            )
        finally:
            reopened.close()
