"""Runtime lock-order witness: dynamic cross-check of the static rules.

The static analyzers prove lock discipline over the code they can see;
this module checks the same invariants over the locks a *running*
service actually takes.  When the witness is enabled (it is off by
default and costs nothing until then), :class:`repro.service.service.
MergeService` builds its writer lock as a planner
:class:`WitnessedLock`.  Every acquire is then checked against a
thread-local stack of locks the thread already holds:

* **re-entrancy** — acquiring a lock already held by this thread would
  self-deadlock (these are plain locks, not RLocks);
* **planner nesting** — blocking on *any* lock while the planner lock
  is held turns its critical section into an unbounded one; the single
  sanctioned exception is acquiring a **fresh** lock
  (``acquire(fresh=True)``): a just-created, unpublished lock can never
  be contended;
* **ascending-sid order** — shard locks must be acquired in strictly
  ascending sid order; any descending or equal step is a potential
  ABBA deadlock with a writer walking the other way.

A violation raises :class:`LockOrderViolation` (an ``AssertionError``
subclass: witnesses are debug instrumentation, and test suites already
treat assertion failures as hard evidence).  The ``slow`` concurrency
storm tests run with the witness enabled, so every interleaving the
storm explores is also an interleaving the discipline is checked on.

>>> enable_witness()
>>> lock_a, lock_b = WitnessedLock(sid=1), WitnessedLock(sid=2)
>>> with lock_a:
...     with lock_b:      # ascending: fine
...         pass
>>> try:
...     with lock_b:
...         with lock_a:  # descending: flagged
...             pass
... except LockOrderViolation:
...     print("caught")
caught
>>> disable_witness()
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Protocol, runtime_checkable

__all__ = [
    "LockLike",
    "LockOrderViolation",
    "WitnessedLock",
    "disable_witness",
    "enable_witness",
    "witness_active",
    "witness_stats",
]


@runtime_checkable
class LockLike(Protocol):
    """The lock surface the service relies on (Lock or WitnessedLock)."""

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool: ...

    def release(self) -> None: ...

    def locked(self) -> bool: ...

    def __enter__(self) -> bool: ...

    def __exit__(self, *exc_info: object) -> Optional[bool]: ...


class LockOrderViolation(AssertionError):
    """A thread acquired locks in an order the discipline forbids."""


_active = False
_stats_lock = threading.Lock()
_stats: Dict[str, int] = {"acquires": 0, "checked": 0}
_tls = threading.local()


def enable_witness() -> None:
    """Turn the witness on (affects locks created *after* this call)."""
    global _active
    _active = True


def disable_witness() -> None:
    global _active
    _active = False


def witness_active() -> bool:
    return _active


def witness_stats() -> Dict[str, int]:
    """Counters: total acquires seen, acquires order-checked."""
    with _stats_lock:
        return dict(_stats)


def reset_witness_stats() -> None:
    with _stats_lock:
        _stats["acquires"] = 0
        _stats["checked"] = 0


def _held() -> List["WitnessedLock"]:
    stack = getattr(_tls, "held", None)
    if stack is None:
        stack = []
        _tls.held = stack
    return stack


#: Rank of the planner lock; shard locks rank below it.
PLANNER_RANK = 1
SHARD_RANK = 0


class WitnessedLock:
    """A ``threading.Lock`` that checks the service lock discipline.

    *sid* marks a shard lock (ordered by sid); ``planner=True`` marks
    a planner lock, such as the service's writer lock.  The wrapper is
    a drop-in for the subset of the ``Lock`` API the service uses.
    """

    __slots__ = ("_lock", "sid", "planner", "name")

    def __init__(
        self,
        sid: Optional[int] = None,
        planner: bool = False,
        name: Optional[str] = None,
    ) -> None:
        self._lock = threading.Lock()
        self.sid = sid
        self.planner = planner
        self.name = name or (
            "planner" if planner else f"shard[{sid}]" if sid is not None else "lock"
        )

    @property
    def rank(self) -> int:
        return PLANNER_RANK if self.planner else SHARD_RANK

    def _check(self, held: List["WitnessedLock"]) -> None:
        for prior in held:
            if prior is self:
                raise LockOrderViolation(
                    f"re-entrant acquire of {self.name}: these are plain "
                    "locks, a second acquire self-deadlocks"
                )
        planner_held = any(prior.planner for prior in held)
        if planner_held:
            raise LockOrderViolation(
                f"blocking acquire of {self.name} while the planner "
                "lock is held — the short critical section "
                "must never wait on another lock (only fresh, unpublished "
                "locks may be taken there, via acquire(fresh=True))"
            )
        if not self.planner and self.sid is not None:
            for prior in held:
                if prior.planner or prior.sid is None:
                    continue
                if prior.sid >= self.sid:
                    raise LockOrderViolation(
                        f"shard lock order violated: {self.name} acquired "
                        f"while holding {prior.name}; shard locks must be "
                        "taken in strictly ascending sid order"
                    )

    def acquire(
        self,
        blocking: bool = True,
        timeout: float = -1,
        *,
        fresh: bool = False,
    ) -> bool:
        held = _held()
        with _stats_lock:
            _stats["acquires"] += 1
        if not fresh:
            with _stats_lock:
                _stats["checked"] += 1
            self._check(held)
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            held.append(self)
        return acquired

    def release(self) -> None:
        self._lock.release()
        held = _held()
        if self in held:
            held.remove(self)

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "locked" if self._lock.locked() else "unlocked"
        return f"<WitnessedLock {self.name} {state}>"
