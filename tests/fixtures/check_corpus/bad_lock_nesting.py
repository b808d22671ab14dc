"""Corpus: blocking acquisition while the planner (writer) lock is held."""

import threading


class Writer:
    def __init__(self):
        self._writer = threading.Lock()  # lock: planner
        self._locks = {}

    def bad_blocking_acquire(self, key):
        with self._writer:
            self._locks[key].acquire()  # BAD[lock-nesting]

    def bad_reentrant(self):
        with self._writer:
            with self._writer:  # BAD[lock-nesting]
                pass

    def good_other_lock_then_writer(self, key):
        lock = self._locks[key]
        lock.acquire()
        with self._writer:
            pass
        lock.release()
