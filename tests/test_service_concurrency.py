"""Concurrency tests for the per-shard-locking merge service.

The three claims the locking redesign makes, each exercised directly:

* writers on **disjoint components** are independent — N threads
  hammering N separate pods lose nothing and corrupt nothing;
* **bridging** registrations (which must take several shard locks)
  are deadlock-free under contention, because every writer acquires
  in ascending shard-id order;
* **readers never block** — a warm ``merged_view`` completes while a
  writer holds the very shard lock the view reads through.

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
    disable_witness,
    enable_witness,
    reset_witness_stats,
    witness_stats,
)
from repro.generators.workloads import get_concurrent_stream
from repro.service import MergeService, RegistrationEntry

#: Generous watchdog: a deadlock hangs forever, a healthy run takes
#: well under a second.
JOIN_TIMEOUT = 30.0


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
        # Every schema mentions a brand-new shared class, so the
        # reservation path must funnel all writers into one component.
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
        assert service.service_stats()["registered_schemas"] == 12
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
        # once; every one must succeed (ordered acquisition, replanning
        # after the first merge) and the result is a single component.
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
        # the shard locks warm.  Lock ordering by ascending sid makes
        # the opposite acquisition orders safe.
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
    def test_warm_view_completes_while_shard_lock_is_held(self):
        initial, _lanes = get_concurrent_stream("concurrent-disjoint-4").make()
        service = MergeService(initial)
        sid = sorted(service.components())[0]
        service.merged_view(sid)  # warm the component cache
        anchor = str(service.component_schemas(sid)[0].sorted_classes()[0])

        # Simulate an in-flight writer: hold the component's own lock.
        lock = service._shard_locks[sid]
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
                "reads blocked behind a held shard lock"
            )
            elapsed = time.perf_counter() - start
        finally:
            lock.release()
        assert answers["view"].has_arrow is not None
        assert answers["query"].component == sid
        # Not a performance bar — just "nowhere near the lock timeout".
        assert elapsed < 2.0

    def test_writer_on_other_component_proceeds_while_lock_held(self):
        initial, _lanes = get_concurrent_stream("concurrent-disjoint-4").make()
        service = MergeService(initial)
        sids = sorted(service.components())
        lock = service._shard_locks[sids[0]]
        other_anchor = str(
            service.component_schemas(sids[1])[0].sorted_classes()[0]
        )
        assert lock.acquire(timeout=5)
        try:
            done = threading.Event()

            def write():
                service.register(
                    [
                        Schema.build(
                            arrows=[(other_anchor, "probe", "OtherProbe")]
                        )
                    ]
                )
                done.set()

            thread = threading.Thread(target=write, daemon=True)
            thread.start()
            assert done.wait(timeout=5), (
                "a disjoint-component write blocked behind an unrelated "
                "shard lock"
            )
        finally:
            lock.release()
        assert service.merged_view(other_anchor).has_arrow(
            other_anchor, "probe", "OtherProbe"
        )


class _MidCommitReader(dict):
    """A shard table that reads the global view at the first ``pop``.

    ``_commit`` installs the merged shard before it drops the shards it
    absorbed, so the first ``pop`` is the moment a lock-free reader can
    copy a table that holds both.
    """

    def __init__(self, table, service):
        super().__init__(table)
        self.service = service
        self.views = []

    def pop(self, *args):
        if not self.views:
            self.views.append(self.service.merged_view())
        return super().pop(*args)


class TestGlobalViewMidCommit:
    def test_view_read_while_a_bridge_commits_equals_join_all(self):
        pods = [
            Schema.build(
                arrows=[(f"Pod{pod}_A", "link", f"Pod{pod}_B")],
                spec=[(f"Pod{pod}_C", f"Pod{pod}_A")],
            )
            for pod in range(3)
        ]
        bridge = Schema.build(arrows=[("Pod0_A", "bridge", "Pod1_A")])
        service = MergeService(pods)
        assert len(service.components()) == 3
        table = _MidCommitReader(service._shards, service)
        service._shards = table
        service.register([bridge])
        assert len(table.views) == 1
        expected = join_all(pods + [bridge])
        assert table.views[0] == expected
        assert len(table.views[0].sorted_classes()) == len(expected.classes)
        assert service.merged_view() == expected


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
        # Failed writes left no claims behind; the registry still works.
        assert service._reserved == {}
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

    def test_unknown_class_is_service_error_and_key_error(self):
        service = MergeService([Schema.build(classes=["A"])])
        with pytest.raises(UnknownClassError) as excinfo:
            service.query("Unicorn")
        assert isinstance(excinfo.value, KeyError)
        assert "Unicorn" in str(excinfo.value)
        assert "'" not in str(excinfo.value)  # no KeyError repr-quoting


@pytest.fixture()
def lock_witness():
    """Run a test with the lock-order witness armed (and stats reset).

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
    """The dynamic cross-check: storms re-run under witnessed locks.

    Any interleaving that acquires out of ascending-sid order, blocks
    inside the planner section, or re-enters a held lock raises
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
        stats = witness_stats()
        # The witness really was on the hot path: every single-shard
        # write checks at least one ordered acquire.
        assert stats["checked"] > 0
        assert stats["acquires"] >= stats["checked"]

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
        assert witness_stats()["checked"] > 0

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
        assert witness_stats()["checked"] > 0


class TestRetireRacesRegister:
    """``retire`` lanes racing ``register`` lanes through one write path.

    Every case checks the same end state: no deadlock, no leftover
    reservation, a merged view equal to the reference join of exactly
    the surviving members, and a log that replays to the live registry.
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
        assert service._reserved == {}
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
        assert witness_stats()["checked"] > 0

    def test_witnessed_bridging_retire_and_register(self, tmp_path, lock_witness):
        self._bridging(tmp_path / "registry")
        assert witness_stats()["checked"] > 0
