"""Concurrency tests for the merge service's one-writer-lock design.

The claims the design makes, each exercised directly:

* concurrent writers **lose nothing** — N threads hammering N separate
  pods, or racing on one fresh class name, end in the state some serial
  order of their writes produces;
* **bridging** registrations merge components exactly once under
  contention: writers serialize on the one writer lock from plan to
  publish;
* **readers never block** — a warm ``merged_view`` completes while a
  writer holds the writer lock, and the answers readers memoize on
  shards mid-write are never stale;
* :meth:`MergeService.close` waits for the write in flight, and no
  write commits after it.

Retires run through the same write path as registrations, so the
storms also mix ``retire`` lanes into racing ``register`` lanes.  The
heavier storm variants carry ``@pytest.mark.slow`` (select or skip
them with ``-m``); the CI matrix runs them on every interpreter.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.names import name
from repro.core.ordering import join_all
from repro.core.schema import Schema
from repro.perf.reference import reference_join_all
from repro.exceptions import (
    IncompatibleSchemasError,
    RetiredSchemaError,
    ServiceShutdownError,
    UnknownClassError,
)
from repro.check.witness import (
    LockOrderViolation,
    disable_witness,
    enable_witness,
    reset_witness_stats,
    witness_stats,
)
from repro.generators.workloads import get_concurrent_stream
from repro.service import MemoryBackend, MergeService, QueryResult, RegistrationEntry
from repro.service import storage as storage_module

#: Generous watchdog: a deadlock hangs forever, a healthy run takes
#: well under a second.
JOIN_TIMEOUT = 30.0


def settled_stats(service):
    """``service_stats()`` once the snapshot cutter has no capture pending."""
    deadline = time.monotonic() + JOIN_TIMEOUT
    while True:
        stats = service.service_stats()
        if not stats["storage"]["cut_pending"]:
            return stats
        assert time.monotonic() < deadline, "the snapshot cutter never settled"
        time.sleep(0.002)


def run_writers(service, lanes, barrier_timeout=JOIN_TIMEOUT):
    """Run one thread per lane; returns per-lane exception lists.

    A lane is a list of ``("register", schema)`` and ``("retire", name)``
    steps.
    """
    barrier = threading.Barrier(len(lanes))
    errors = [[] for _ in lanes]

    def writer(index, lane):
        barrier.wait(timeout=barrier_timeout)
        for kind, item in lane:
            assert kind in ("register", "retire")
            try:
                if kind == "register":
                    service.register([item])
                else:
                    service.retire(item)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors[index].append(exc)

    threads = [
        threading.Thread(target=writer, args=(i, lane), daemon=True)
        for i, lane in enumerate(lanes)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT)
    assert not any(thread.is_alive() for thread in threads), (
        "writer threads did not finish — deadlock?"
    )
    return errors


class TestDisjointWriters:
    def test_no_lost_registrations_across_16_disjoint_writers(self):
        initial, lanes = get_concurrent_stream("concurrent-disjoint-16").make()
        service = MergeService(initial)
        assert len(service.components()) == len(lanes)

        errors = run_writers(service, lanes)
        assert not any(errors), errors

        total = len(initial) + sum(len(lane) for lane in lanes)
        stats = service.service_stats()
        assert stats["registered_schemas"] == total
        # One generation bump per register call, none coalesced or lost.
        assert stats["generation"] == 1 + sum(len(lane) for lane in lanes)
        # Disjoint pods never merge: still one component per lane, and
        # each equals the cold-path join of exactly its own schemas.
        assert len(service.components()) == len(lanes)
        for sid in service.components():
            members = list(service.component_schemas(sid))
            assert service.merged_view(sid) == join_all(members)

    def test_writers_racing_on_the_same_fresh_class_serialize(self):
        # Every schema mentions a brand-new shared class, so the writers,
        # served in the writer lock's arrival order, must all land in
        # one component.
        service = MergeService()
        schemas = [
            Schema.build(arrows=[("Hub", f"spoke{i}", f"Rim{i}")])
            for i in range(12)
        ]

        def write(schema):
            service.register([schema])
            return True

        with ThreadPoolExecutor(max_workers=6) as pool:
            assert all(pool.map(write, schemas))

        assert len(service.components()) == 1
        stats = service.service_stats()
        assert stats["registered_schemas"] == 12
        merged = service.merged_view("Hub")
        for i in range(12):
            assert merged.has_arrow("Hub", f"spoke{i}", f"Rim{i}")


class TestBridgingUnderContention:
    def _pod(self, pod: int) -> Schema:
        return Schema.build(
            arrows=[(f"Pod{pod}_A", "link", f"Pod{pod}_B")]
        )

    def _bridge(self, left: int, right: int, tag: int) -> Schema:
        return Schema.build(
            arrows=[(f"Pod{left}_A", f"bridge{tag}", f"Pod{right}_A")]
        )

    def test_two_components_merge_exactly_once_under_contention(self):
        service = MergeService([self._pod(0), self._pod(1)])
        assert len(service.components()) == 2
        # Eight threads all try to bridge the same two components at
        # once; every one must succeed (each plans under the writer lock,
        # after the merge before it) and the result is a single component.
        lanes = [
            [("register", self._bridge(0, 1, tag))] for tag in range(8)
        ]
        errors = run_writers(service, lanes)
        assert not any(errors), errors
        assert len(service.components()) == 1
        assert service.component_of("Pod0_A") == service.component_of(
            "Pod1_B"
        )
        merged = service.merged_view("Pod0_A")
        for tag in range(8):
            assert merged.has_arrow("Pod0_A", f"bridge{tag}", "Pod1_A")

    def test_bridge_chain_storm(self):
        # 8 pods; concurrent writers bridge neighbours in both orders
        # (0-1, 1-2, ... and 6-7, 5-6, ...) while pod-local writers keep
        # touching single components.  Every writer plans under the
        # writer lock, so every plan sees the writes before it.
        pods = 8
        service = MergeService([self._pod(p) for p in range(pods)])
        forward = [
            ("register", self._bridge(p, p + 1, 100 + p))
            for p in range(pods - 1)
        ]
        backward = [
            ("register", self._bridge(p, p + 1, 200 + p))
            for p in reversed(range(pods - 1))
        ]
        local = [
            ("register", Schema.build(
                arrows=[(f"Pod{p}_B", "extra", f"Pod{p}_C")]
            ))
            for p in range(pods)
        ]
        errors = run_writers(service, [forward, backward, local])
        assert not any(errors), errors
        assert len(service.components()) == 1
        members = list(
            service.component_schemas(service.component_of("Pod0_A"))
        )
        assert service.merged_view("Pod0_A") == join_all(members)

    @pytest.mark.slow
    def test_bridge_storm_many_rounds(self):
        for round_seed in range(5):
            service = MergeService([self._pod(p) for p in range(6)])
            lanes = [
                [
                    ("register", self._bridge(p, (p + 1) % 6, round_seed))
                ]
                for p in range(5)
            ]
            errors = run_writers(service, lanes)
            assert not any(errors), errors
            assert len(service.components()) == 1


class TestReadersNeverBlock:
    def test_warm_view_completes_while_writer_lock_is_held(self):
        initial, _lanes = get_concurrent_stream("concurrent-disjoint-4").make()
        service = MergeService(initial)
        sid = sorted(service.components())[0]
        service.merged_view(sid)  # warm the component cache
        anchor = str(service.component_schemas(sid)[0].sorted_classes()[0])

        # Simulate an in-flight writer: hold the writer lock.
        lock = service._writer
        assert lock.acquire(timeout=5)
        try:
            done = threading.Event()
            answers = {}

            def read():
                answers["view"] = service.merged_view(sid)
                answers["query"] = service.query(anchor)
                answers["global"] = service.merged_view()
                done.set()

            thread = threading.Thread(target=read, daemon=True)
            start = time.perf_counter()
            thread.start()
            assert done.wait(timeout=5), (
                "reads blocked behind the held writer lock"
            )
            elapsed = time.perf_counter() - start
        finally:
            lock.release()
        assert answers["view"].has_arrow is not None
        assert answers["query"].component == sid
        # Not a performance bar — just "nowhere near the lock timeout".
        assert elapsed < 2.0


class _ReadingBackend(MemoryBackend):
    """A backend whose ``append`` — the last step of a commit before it
    publishes — first runs *reader* and keeps what it returns."""

    def __init__(self):
        super().__init__()
        self.reader = None
        self.reads = []

    def append(self, record):
        if self.reader is not None:
            self.reads.append(self.reader())
        return super().append(record)


class _OrderedBackend(MemoryBackend):
    """A backend that records the order of its appends and its close."""

    def __init__(self):
        super().__init__()
        self.events = []

    def append(self, record):
        self.events.append("append")
        return super().append(record)

    def close(self):
        self.events.append("close")
        super().close()


class _AnnouncedLock:
    """Wraps a lock; sets *event* when the thread named *thread_name*
    starts to acquire it, before it blocks."""

    def __init__(self, lock, thread_name, event):
        self._lock = lock
        self._thread_name = thread_name
        self._event = event

    def __enter__(self):
        if threading.current_thread().name == self._thread_name:
            self._event.set()
        return self._lock.__enter__()

    def __exit__(self, *exc_info):
        return self._lock.__exit__(*exc_info)


class TestGlobalViewMidCommit:
    def test_view_read_while_a_bridge_commits_equals_join_all(self):
        """Reads inside a bridging commit see exactly the state before it;
        once ``register`` returns they see exactly ``join_all`` of all."""
        pods = [
            Schema.build(
                arrows=[(f"Pod{pod}_A", "link", f"Pod{pod}_B")],
                spec=[(f"Pod{pod}_C", f"Pod{pod}_A")],
            )
            for pod in range(3)
        ]
        bridge = Schema.build(arrows=[("Pod0_A", "bridge", "Pod1_A")])
        names = ["pod0", "pod1", "pod2"]
        classes = sorted(str(c) for pod in pods for c in pod.classes)
        backend = _ReadingBackend()
        service = MergeService(
            [RegistrationEntry(pod, name=n) for pod, n in zip(pods, names)],
            storage=backend,
        )
        assert len(service.components()) == 3

        def observe():
            return (
                service.merged_view(),
                {cls: service.query(cls) for cls in classes},
                {cls: service.component_of(cls) for cls in classes},
                {n: service.schema_info(n) for n in names},
            )

        before = observe()
        assert before[0] == join_all(pods)
        backend.reader = observe
        service.register([RegistrationEntry(bridge, name="bridge")])
        backend.reader = None
        assert backend.reads == [before]

        expected = join_all(pods + [bridge])
        view, answers, owners, infos = observe()
        assert view == expected
        assert len(view.sorted_classes()) == len(expected.classes)
        for cls in classes:
            sid = owners[cls]
            assert answers[cls] == QueryResult.from_component(
                expected, name(cls), sid, len(service.component_schemas(sid))
            )
        assert owners["Pod0_A"] == owners["Pod1_A"] != owners["Pod2_A"]
        assert [infos[n]["component"] for n in names] == [
            owners["Pod0_A"], owners["Pod1_A"], owners["Pod2_A"]
        ]
        assert service.schema_info("bridge")["component"] == owners["Pod0_A"]


class TestFailureModes:
    def test_rollback_under_contention_leaves_no_reservations(self):
        service = MergeService([Schema.build(spec=[("X", "Y")])])
        good_lane = [
            ("register", Schema.build(classes=[f"Fresh{i}"]))
            for i in range(6)
        ]
        bad_lane = [
            ("register", Schema.build(spec=[("Y", "X")])) for _ in range(6)
        ]
        errors = run_writers(service, [good_lane, bad_lane])
        assert not errors[0], errors[0]
        assert len(errors[1]) == 6
        assert all(
            isinstance(exc, IncompatibleSchemasError) for exc in errors[1]
        )
        # Failed writes left nothing behind; the registry still works.
        assert service.service_stats()["generation"] == 1 + len(good_lane)
        assert service.telemetry.rollbacks.value == len(bad_lane)
        service.register([Schema.build(classes=["AfterTheStorm"])])
        assert service.component_of("AfterTheStorm") is not None

    def test_closed_service_refuses_requests(self):
        service = MergeService([Schema.build(classes=["A"])])
        service.close()
        assert service.closed
        with pytest.raises(ServiceShutdownError):
            service.register([Schema.build(classes=["B"])])
        with pytest.raises(ServiceShutdownError):
            service.merged_view()
        with pytest.raises(ServiceShutdownError):
            service.query("A")
        service.close()  # idempotent

    def test_close_waits_for_the_write_in_flight(self):
        backend = _OrderedBackend()
        service = MergeService([Schema.build(classes=["A"])], storage=backend)
        staged, release, closing = (threading.Event() for _ in range(3))
        rebuild = service._rebuild

        def paused_rebuild(groups, batch):
            staged.set()
            assert release.wait(JOIN_TIMEOUT)
            rebuild(groups, batch)

        service._rebuild = paused_rebuild
        service._writer = _AnnouncedLock(service._writer, "closer", closing)
        receipts = []
        writer = threading.Thread(
            target=lambda: receipts.append(
                service.register([Schema.build(classes=["B"])])
            ),
            daemon=True,
        )
        writer.start()
        assert staged.wait(JOIN_TIMEOUT)
        # The closer announces itself when it reaches the writer lock
        # (or, if close() does not wait for writers, when it returns).
        closer = threading.Thread(
            target=lambda: (service.close(), closing.set()),
            name="closer",
            daemon=True,
        )
        closer.start()
        assert closing.wait(JOIN_TIMEOUT)
        release.set()
        writer.join(JOIN_TIMEOUT)
        closer.join(JOIN_TIMEOUT)
        assert not writer.is_alive() and not closer.is_alive()
        # The in-flight write committed, and before the backend closed.
        assert [receipt.generation for receipt in receipts] == [2]
        assert backend.events == ["append", "append", "close"]
        with pytest.raises(ServiceShutdownError):
            service.register([Schema.build(classes=["C"])])
        assert backend.events == ["append", "append", "close"]

    def test_unknown_class_is_service_error_and_key_error(self):
        service = MergeService([Schema.build(classes=["A"])])
        with pytest.raises(UnknownClassError) as excinfo:
            service.query("Unicorn")
        assert isinstance(excinfo.value, KeyError)
        assert "Unicorn" in str(excinfo.value)
        assert "'" not in str(excinfo.value)  # no KeyError repr-quoting


class TestDurableWriters:
    def test_disjoint_writers_with_cuts_reopen_to_the_live_state(self, tmp_path):
        # fsync on and a cut every 8 log records, so writers hand
        # captures to the cutter mid-storm.
        data = tmp_path / "registry"
        initial, lanes = get_concurrent_stream("concurrent-disjoint-4").make()
        service = MergeService.open(data, snapshot_every=8)
        service.register(initial)
        errors = run_writers(service, lanes)
        assert not any(errors), errors
        stats = settled_stats(service)
        assert stats["storage"]["last_cut_seq"] >= 8
        view = service.merged_view()
        components = service.components()
        owners = {cls: service.component_of(cls) for cls in view.classes}
        service.close()

        reopened = MergeService.open(data)
        try:
            assert reopened.service_stats()["generation"] == stats["generation"]
            assert reopened.merged_view() == view
            assert reopened.components() == components
            assert {cls: reopened.component_of(cls) for cls in view.classes} == owners
        finally:
            reopened.close()


@pytest.fixture()
def lock_witness():
    """Run a test with the lock witness armed (and stats reset).

    The witness only wraps locks created while it is active, so every
    service a witnessed test exercises must be constructed *inside* the
    test body.
    """
    enable_witness()
    reset_witness_stats()
    try:
        yield
    finally:
        disable_witness()


class TestLockOrderWitness:
    """The dynamic cross-check: storms re-run under a witnessed writer lock.

    The writer lock is a planner lock, so any interleaving that blocks on
    another lock while holding it, or re-enters it (say, a snapshot cut
    calling back into :meth:`MergeService.save`), raises
    :class:`repro.check.witness.LockOrderViolation` inside the writer
    thread — which ``run_writers`` collects and the asserts then fail
    on.  A clean pass is therefore positive evidence the discipline
    held on every explored interleaving, not merely the absence of a
    deadlock within the watchdog timeout.
    """

    def _pod(self, pod: int) -> Schema:
        return Schema.build(arrows=[(f"Pod{pod}_A", "link", f"Pod{pod}_B")])

    def _bridge(self, left: int, right: int, tag: int) -> Schema:
        return Schema.build(
            arrows=[(f"Pod{left}_A", f"bridge{tag}", f"Pod{right}_A")]
        )

    def test_witnessed_bridge_chain_storm(self, lock_witness):
        pods = 8
        service = MergeService([self._pod(p) for p in range(pods)])
        forward = [
            ("register", self._bridge(p, p + 1, 100 + p))
            for p in range(pods - 1)
        ]
        backward = [
            ("register", self._bridge(p, p + 1, 200 + p))
            for p in reversed(range(pods - 1))
        ]
        errors = run_writers(service, [forward, backward])
        assert not any(errors), errors
        assert len(service.components()) == 1
        # The witness really was on the hot path: every write checks
        # its acquire of the writer lock.
        assert witness_stats()["acquires"] > 0

    def test_witnessed_fresh_class_race(self, lock_witness):
        service = MergeService()
        schemas = [
            Schema.build(arrows=[("Hub", f"spoke{i}", f"Rim{i}")])
            for i in range(12)
        ]

        def write(schema):
            service.register([schema])
            return True

        with ThreadPoolExecutor(max_workers=6) as pool:
            assert all(pool.map(write, schemas))
        assert len(service.components()) == 1
        assert witness_stats()["acquires"] > 0

    def test_witnessed_storm_with_background_cuts(self, lock_witness, tmp_path):
        # A cut falls due every two writes, so the cutter thread works
        # through captures while the witnessed writers keep committing.
        data = tmp_path / "registry"
        cuts = storage_module.CUT_DURATION.count
        service = MergeService.open(data, snapshot_every=2, fsync=False)
        service.register([self._pod(p) for p in range(8)])
        lanes = [
            [("register", self._bridge(p, p + 1, 300 + p + 10 * lane))
             for p in range(lane, 7, 2)]
            for lane in range(2)
        ]
        errors = run_writers(service, lanes)
        assert not any(errors), errors
        stats = settled_stats(service)
        view = service.merged_view()
        service.close()
        assert storage_module.CUT_DURATION.count > cuts
        assert stats["storage"]["last_cut_seq"] >= stats["storage"]["log_seq"] - 1
        assert witness_stats()["acquires"] > 0
        reopened = MergeService.open(data)
        try:
            assert reopened.merged_view() == view
        finally:
            reopened.close()

    def test_save_under_the_writer_lock_is_caught(self, lock_witness):
        # A re-entry through a call (a hand-off that calls back into
        # save(), say) is invisible to the lexical lock-nesting rule,
        # and under a plain lock it deadlocks.
        service = MergeService([self._pod(0)])
        with service._writer:
            with pytest.raises(LockOrderViolation, match="re-entrant"):
                service.save()
        assert not service._writer.locked()

    @pytest.mark.slow
    def test_witnessed_storm_many_rounds(self, lock_witness):
        for round_seed in range(5):
            service = MergeService([self._pod(p) for p in range(6)])
            lanes = [
                [("register", self._bridge(p, (p + 1) % 6, round_seed))]
                for p in range(5)
            ]
            errors = run_writers(service, lanes)
            assert not any(errors), errors
            assert len(service.components()) == 1
        assert witness_stats()["acquires"] > 0


class TestRetireRacesRegister:
    """``retire`` lanes racing ``register`` lanes through one write path.

    Every case checks the same end state: no deadlock, a merged view
    equal to the reference join of exactly the surviving members, and a
    log that replays to the live registry.
    """

    @pytest.fixture(autouse=True)
    def _fine_interleaving(self):
        """Switch threads every microsecond so the lanes interleave finely."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    def _hub(self, i: int) -> Schema:
        return Schema.build(arrows=[("Hub", f"spoke{i}", f"Rim{i}")])

    def _pod(self, pod: int) -> Schema:
        return Schema.build(arrows=[(f"Pod{pod}_A", "link", f"Pod{pod}_B")])

    def _bridge(self, left: int, right: int, tag: int) -> Schema:
        return Schema.build(
            arrows=[(f"Pod{left}_A", f"bridge{tag}", f"Pod{right}_A")]
        )

    def _check(self, service, data, survivors):
        view = service.merged_view()
        assert view == reference_join_all(survivors)
        reopened = MergeService.open(data, fsync=False)
        try:
            assert reopened.service_stats()["generation"] == (
                service.service_stats()["generation"]
            )
            assert reopened.merged_view() == view
            assert reopened.components() == service.components()
            for cls in view.classes:
                assert reopened.component_of(cls) == service.component_of(cls)
        finally:
            reopened.close()

    def _same_component(self, data):
        named = [self._hub(i) for i in range(8)]
        extra = [
            Schema.build(arrows=[("Hub", f"extra{j}", f"Leaf{j}")])
            for j in range(8)
        ]
        service = MergeService.open(data, fsync=False)
        service.register(
            [RegistrationEntry(g, name=f"hub{i}") for i, g in enumerate(named)]
        )
        lanes = [
            [("retire", f"hub{i}") for i in (0, 2, 4, 6)],
            [("retire", f"hub{i}") for i in (1, 3, 5)],
            # Races lane 0 for hub0: exactly one of them must lose.
            [("retire", "hub0")],
            [("register", g) for g in extra[:4]],
            [("register", g) for g in extra[4:]],
        ]
        errors = run_writers(service, lanes)
        lost = [exc for lane in errors for exc in lane]
        assert len(lost) == 1 and isinstance(lost[0], RetiredSchemaError), errors
        assert len(service.components()) == 1
        self._check(service, data, [named[7]] + extra)
        service.close()

    def _bridging(self, data):
        pods = 6
        service = MergeService.open(data, fsync=False)
        service.register(
            [RegistrationEntry(self._pod(p), name=f"pod{p}") for p in range(pods)]
        )
        forward = [
            ("register", self._bridge(p, p + 1, 100 + p)) for p in range(pods - 1)
        ]
        backward = [
            ("register", self._bridge(p, p + 1, 200 + p))
            for p in reversed(range(pods - 1))
        ]
        retires = [("retire", f"pod{p}") for p in range(0, pods, 2)]
        errors = run_writers(service, [forward, backward, retires])
        assert not any(errors), errors
        survivors = [self._pod(p) for p in range(1, pods, 2)] + [
            schema for _kind, schema in forward + backward
        ]
        self._check(service, data, survivors)
        service.close()

    def test_same_component_retire_and_register(self, tmp_path):
        self._same_component(tmp_path / "registry")

    def test_bridging_retire_and_register(self, tmp_path):
        self._bridging(tmp_path / "registry")

    def test_witnessed_same_component_retire_and_register(
        self, tmp_path, lock_witness
    ):
        self._same_component(tmp_path / "registry")
        assert witness_stats()["acquires"] > 0

    def test_witnessed_bridging_retire_and_register(self, tmp_path, lock_witness):
        self._bridging(tmp_path / "registry")
        assert witness_stats()["acquires"] > 0


class TestMemosUnderWrites:
    """Readers fill shard memos lock-free while writers replace shards."""

    def test_memos_filled_during_a_storm_match_a_cold_merge(self):
        pods = 4
        service = MergeService(
            [
                RegistrationEntry(
                    Schema.build(
                        arrows=[
                            (f"Pod{p}_A", "link", f"Pod{p}_B"),
                            # Only the named schema asserts this class,
                            # so retiring it withdraws the name mid-read.
                            (f"Pod{p}_B", "only", f"Pod{p}_Only"),
                        ]
                    ),
                    name=f"pod{p}",
                )
                for p in range(pods)
            ]
        )
        names = [f"Pod{p}_{suffix}" for p in range(pods) for suffix in ("A", "B", "Only")]
        stop = threading.Event()
        reader_errors = []

        def reader(offset):
            index = offset
            while not stop.is_set():
                cls = names[index % len(names)]
                try:
                    service.query(cls)
                    service.merged_view(cls)
                except UnknownClassError:
                    pass  # a retire withdrew the class
                except Exception as exc:  # noqa: BLE001 - collected for assert
                    reader_errors.append(exc)
                    return
                index += 1

        lanes = [
            [
                ("register", Schema.build(arrows=[(f"Pod{p}_A", f"w{k}", f"Pod{p}_B")]))
                for k in range(10)
            ]
            for p in range(pods)
        ] + [[("retire", f"pod{p}") for p in range(pods)]]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        readers = [
            threading.Thread(target=reader, args=(i,), daemon=True)
            for i in range(6)
        ]
        try:
            for thread in readers:
                thread.start()
            errors = run_writers(service, lanes)
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=JOIN_TIMEOUT)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert not any(errors), errors
        assert reader_errors == []
        for sid, shard in service._registry.shards.items():
            classes = shard.builder.classes
            assert set(shard.answers) <= classes
            expected = join_all(service.component_schemas(sid))
            assert service.merged_view(sid) == expected
            for cls in classes:
                assert service.query(cls) == QueryResult.from_component(
                    expected, cls, sid, len(shard.members)
                )
        for p in range(pods):
            assert service.component_of(f"Pod{p}_Only") is None
