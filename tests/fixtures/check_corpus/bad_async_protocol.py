"""Corpus: blocking calls in the synchronous code an event loop calls back."""

import asyncio
import time


class Connection(asyncio.Protocol):
    def __init__(self, loop, pool, service):
        self._loop = loop
        self._pool = pool
        self._service = service

    def data_received(self, data):
        time.sleep(0.1)  # BAD[async-blocking]
        self._answer(data)

    def _answer(self, data):
        future = self._pool.submit(self._service.register, [data])
        future.add_done_callback(
            lambda done: self._loop.call_soon_threadsafe(self._written, done)
        )

    def _written(self, future):
        if future.exception() is None:
            self._reply(future.result())  # BAD[async-blocking]

    def _reply(self, receipt):
        self._service.save()  # BAD[async-blocking]

    def _not_called_back(self, future):
        return future.result()
