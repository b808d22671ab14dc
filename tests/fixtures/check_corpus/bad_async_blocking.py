"""Corpus: blocking calls reachable from coroutines on the event loop."""

import time


class Frontend:
    def __init__(self, service, lock):
        self._service = service
        self._lock = lock

    async def handle(self, request):
        self._lock.acquire()  # BAD[async-blocking]
        time.sleep(0.1)  # BAD[async-blocking]
        return self._helper(request)

    def _helper(self, request):
        with self._lock:  # BAD[async-blocking]
            return self._service.register([request])  # BAD[async-blocking]

    async def withdraw(self, name):
        self._service.retire(name)  # BAD[async-blocking]
        self._service.save()  # BAD[async-blocking]

    def _not_reachable_from_a_coroutine(self):
        time.sleep(1.0)
