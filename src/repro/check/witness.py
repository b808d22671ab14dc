"""Runtime lock witness: dynamic cross-check of the static rules.

The static analyzers see one function's lexical ``with`` nesting; this
module checks the service's lock discipline over the locks a *running*
service actually takes, across calls.  When the witness is enabled (it
is off by default and costs nothing until then),
:class:`repro.service.service.MergeService` builds its writer lock as a
planner :class:`WitnessedLock`.  Every acquire is then checked against
a thread-local stack of witnessed locks the thread already holds:

* **re-entrancy** — acquiring a lock already held by this thread would
  self-deadlock (these are plain locks, not RLocks), say a snapshot
  hand-off that calls back into :meth:`MergeService.save`;
* **planner nesting** — blocking on another witnessed lock while a
  planner (writer) lock is held stalls every writer behind it.

A violation raises :class:`LockOrderViolation` (an ``AssertionError``
subclass: witnesses are debug instrumentation, and test suites already
treat assertion failures as hard evidence).  The witnessed concurrency
storm tests run with the witness enabled, so every interleaving the
storm explores is also an interleaving the discipline is checked on.

>>> enable_witness()
>>> writer = WitnessedLock(planner=True)
>>> with writer:
...     pass
>>> try:
...     with writer:
...         with writer:  # re-entrant: flagged instead of deadlocking
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
_stats: Dict[str, int] = {"acquires": 0}
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
    """Counters: witnessed acquires seen (each one checked)."""
    with _stats_lock:
        return dict(_stats)


def reset_witness_stats() -> None:
    with _stats_lock:
        _stats["acquires"] = 0


def _held() -> List["WitnessedLock"]:
    stack = getattr(_tls, "held", None)
    if stack is None:
        stack = []
        _tls.held = stack
    return stack


class WitnessedLock:
    """A ``threading.Lock`` that checks the service lock discipline.

    ``planner=True`` marks a planner lock, such as the service's writer
    lock.  The wrapper is a drop-in for the subset of the ``Lock`` API
    the service uses.
    """

    __slots__ = ("_lock", "planner")

    def __init__(self, planner: bool = False) -> None:
        self._lock = threading.Lock()
        self.planner = planner

    def _check(self, held: List["WitnessedLock"]) -> None:
        if self in held:
            raise LockOrderViolation(
                f"re-entrant acquire of {self!r}: these are plain "
                "locks, a second acquire self-deadlocks"
            )
        if any(prior.planner for prior in held):
            raise LockOrderViolation(
                f"blocking acquire of {self!r} while a planner lock is "
                "held — the writer section must never wait on another "
                "witnessed lock"
            )

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        held = _held()
        with _stats_lock:
            _stats["acquires"] += 1
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
        kind = "planner" if self.planner else "lock"
        state = "locked" if self._lock.locked() else "unlocked"
        return f"<WitnessedLock {kind} {state}>"
