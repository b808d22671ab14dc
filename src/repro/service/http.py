"""Asyncio HTTP front end for the merge service — stdlib only.

One event loop serves every connection, each one an
:class:`asyncio.Protocol` over a byte buffer.  A read (``GET``) is
answered inside ``data_received``: views, queries, schema info and
stats each load the service's published registry value without a lock,
so a read is just a memo lookup and never waits on a writer, not even
on its log append.  For views and queries the memo holds the encoded
response body itself (:meth:`MergeService.view_body`,
:meth:`MergeService.query_body`): a warm ``GET`` is one dictionary
lookup plus one ``transport.write``, with no ``json.dumps``.
Writes (``POST``, ``DELETE``) are dispatched to a small thread pool,
body and all: the pool thread parses the JSON, decodes each schema
document to its generator form and registers the batch, so the loop
keeps streaming read responses while a big batch decodes and a
register folds closures under the service's writer lock.  The
connection stops reading until its write is answered, so a pipelined
connection is answered in request order.

**Routes** (wire format ``repro.api/1``; schemas travel as
``repro.schema/1`` documents from :mod:`repro.io.json_io`):

========  ===========================  =======================================
method    path                         answer
========  ===========================  =======================================
POST      ``/v1/schemas``              register a batch → receipt; an entry is
                                       either a bare schema document or a
                                       named wrapper ``{"name", "version",
                                       "lifecycle", "schema": {...}}``
GET       ``/v1/schemas/{name}``       lifecycle info for one named schema
DELETE    ``/v1/schemas/{name}``       retire every live version → receipt
GET       ``/v1/components/{id}/view`` one component's merged schema
GET       ``/v1/query/{class}``        everything asserted about one class
GET       ``/v1/stats``                Prometheus text (``?format=json`` for
                                       the ``service_stats()`` document)
========  ===========================  =======================================

**Status codes** follow the :mod:`repro.exceptions` taxonomy:
:class:`~repro.exceptions.InvalidRequestError` and
:class:`~repro.exceptions.SerializationError` → 400,
:class:`~repro.exceptions.UnknownClassError` and
:class:`~repro.exceptions.UnknownSchemaError` → 404,
:class:`~repro.exceptions.IncompatibleSchemasError` → 409 (the batch
rolled back; the registry is unchanged),
:class:`~repro.exceptions.RetiredSchemaError` → 410 (deliberately
withdrawn, as opposed to never registered),
:class:`~repro.exceptions.StorageError` → 500 (persistence trouble is
the server's problem, never the client's request),
:class:`~repro.exceptions.ServiceShutdownError` → 503.  A request
head that cannot be parsed or is over 64 KiB is answered 400, one
declaring a body over :data:`MAX_BODY_BYTES` is answered 413
(:class:`~repro.exceptions.BodyTooLargeError`), and a head or body that
does not arrive within :data:`HEAD_TIMEOUT_S` or :data:`BODY_TIMEOUT_S`
is answered 408 (:class:`~repro.exceptions.BodyTimeoutError`); all of
these close the connection, as does :data:`IDLE_TIMEOUT_S` of silence
between requests.  One sweep per front end checks these deadlines, so a
request arms no timer.

>>> import http.client, json
>>> from repro.service import MergeService
>>> with HttpFrontend(MergeService()) as frontend:
...     conn = http.client.HTTPConnection(*frontend.address)
...     body = json.dumps({"format": "repro.api/1", "schemas": [
...         {"format": "repro.schema/1",
...          "arrows": [["Dog", "owner", "Person"]]}]})
...     conn.request("POST", "/v1/schemas", body)
...     registered = json.loads(conn.getresponse().read())
...     conn.request("GET", "/v1/query/Dog")
...     answer = json.loads(conn.getresponse().read())
...     conn.close()
>>> registered["generation"], answer["arrows_out"]
(1, [['owner', 'Person']])
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import suppress
from functools import partial
from typing import Any, Callable, Dict, Optional, Set, Tuple, Union
from urllib.parse import unquote

from repro.exceptions import (
    BodyTimeoutError,
    BodyTooLargeError,
    IncompatibleSchemasError,
    InvalidRequestError,
    RetiredSchemaError,
    SchemaError,
    SerializationError,
    ServiceShutdownError,
    StorageError,
    UnknownClassError,
    UnknownSchemaError,
)
# ``schema_from_dict`` and ``schema_to_dict`` stay importable here because
# perfbench traces the codec under the names this module imports; the
# service encodes views, and POSTs decode through
# ``RegistrationEntry.from_doc``.
from repro.io.json_io import schema_from_dict, schema_to_dict  # noqa: F401
from repro.obs import prometheus_text
from repro.service.api_types import API_FORMAT, RegisterReceipt
from repro.service.service import MergeService
from repro.service.storage import RegistrationEntry

__all__ = ["HttpFrontend", "serve_http", "status_for"]

#: The largest request body the server reads.  A longer declared
#: ``Content-Length`` is answered 413 before any body byte is buffered.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: The write pool's threads: the most registers and retires in flight
#: at once.  Reads are not pooled (they run on the event loop).
MAX_WRITE_WORKERS = 4

#: Seconds a client has to deliver the body its ``Content-Length``
#: declared, from the end of its head; then it is answered 408.
BODY_TIMEOUT_S = 10.0

#: Seconds a client has to deliver a request head (from its first
#: byte), and that a keep-alive connection may idle before it closes.
HEAD_TIMEOUT_S = 10.0
IDLE_TIMEOUT_S = 60.0

#: The longest request head, and the seconds between deadline sweeps.
_MAX_HEAD_BYTES = 64 * 1024
_SWEEP_S = 0.5

#: An answer: status, payload, content type.
_Answer = Tuple[int, Union[Dict[str, Any], str, bytes], str]

#: Exception → HTTP status, checked in order (most specific first).
#: The terminal ``SchemaError`` entry is the taxonomy-wide fallback:
#: every library error is a client-input problem (400) unless a more
#: specific mapping above says otherwise; only *non*-taxonomy
#: exceptions — genuine bugs — fall through to 500.
_STATUS_MAP: Tuple[Tuple[type, int], ...] = (
    (UnknownClassError, 404),
    (UnknownSchemaError, 404),
    (RetiredSchemaError, 410),
    (ServiceShutdownError, 503),
    (IncompatibleSchemasError, 409),
    (BodyTooLargeError, 413),
    (BodyTimeoutError, 408),
    (InvalidRequestError, 400),
    (SerializationError, 400),
    (StorageError, 500),
    (SchemaError, 400),
)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    410: "Gone",
    413: "Content Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def status_for(exc: BaseException) -> int:
    """The HTTP status the taxonomy assigns to *exc* (500 if unmapped).

    >>> status_for(UnknownClassError("no such class"))
    404
    >>> status_for(RuntimeError("surprise"))
    500
    """
    for exc_type, status in _STATUS_MAP:
        if isinstance(exc, exc_type):
            return status
    return 500


class HttpFrontend:
    """The HTTP server: owns a loop, a write pool, and open connections.

    Two ways to run it.  :func:`serve_http` (or :meth:`serve_forever`)
    blocks the calling thread — the CLI's mode.  The context-manager
    form runs the loop on a daemon thread and yields once the socket is
    bound, which is what tests and benchmarks want::

        with HttpFrontend(service, port=0) as frontend:
            host, port = frontend.address   # port=0 picked a free one

    At most :data:`MAX_WRITE_WORKERS` writes are in flight at once;
    reads are not pooled (they run on the event loop and never block).
    """

    def __init__(
        self,
        service: MergeService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._service = service
        self._host = host
        self._port = port
        self._address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._connections: Set[_Connection] = set()
        self._serving = False  # new connections are served, not closed
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — available once serving."""
        if self._address is None:
            raise RuntimeError("the front end is not serving yet")
        return self._address

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def _run(
        self,
        ready: Optional[threading.Event] = None,
        announce: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        self._loop = loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._pool = pool = ThreadPoolExecutor(
            max_workers=MAX_WRITE_WORKERS,
            thread_name_prefix="repro-http-write",
        )
        self._serving = True
        server = await loop.create_server(
            lambda: _Connection(self, loop, pool), self._host, self._port
        )
        try:
            host, port = server.sockets[0].getsockname()[:2]
            self._address = (host, port)
            if announce is not None:
                announce(host, port)
            if ready is not None:
                ready.set()
            async with server:
                sweeper = loop.create_task(self._sweep(loop))
                await self._stop.wait()
                self._serving = False
                server.close()
                # Idle connections close now; one with a write in flight
                # answers it first.  None is left for asyncio.run.
                for connection in list(self._connections):
                    connection.shut()
                for _ in range(1000):  # 10 s at most
                    if not self._connections:
                        break
                    await asyncio.sleep(0.01)
                sweeper.cancel()
        finally:
            for connection in list(self._connections):
                connection.abort()  # cancelled, or still writing after 10 s
            self._pool.shutdown(wait=False)
            if ready is not None:
                ready.set()  # never leave a starter waiting on a crash

    async def _sweep(self, loop: asyncio.AbstractEventLoop) -> None:
        """Hold every connection to its deadline, every ``_SWEEP_S``."""
        while True:
            await asyncio.sleep(_SWEEP_S)
            now = loop.time()
            for connection in list(self._connections):
                connection.expire(now)

    def serve_forever(
        self, announce: Optional[Callable[[str, int], None]] = None
    ) -> None:
        """Serve on the calling thread until KeyboardInterrupt."""
        try:
            asyncio.run(self._run(announce=announce))
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            pass

    def start(self) -> "HttpFrontend":
        """Serve on a daemon thread; returns once the socket is bound."""
        ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._run(ready=ready)),
            name="repro-http-loop",
            daemon=True,
        )
        self._thread.start()
        if not ready.wait(timeout=10) or self._address is None:
            raise RuntimeError("HTTP front end failed to start")
        return self

    def stop(self) -> None:
        """Stop a :meth:`start`-ed front end and join its thread."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def __enter__(self) -> "HttpFrontend":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> Union[_Answer, Callable[[], RegisterReceipt]]:
        """A read's answer, or the write for the pool to run."""
        path, _, query = target.partition("?")
        try:
            if path == "/v1/schemas":
                if method != "POST":
                    return 405, {"error": "POST required"}, "application/json"
                return partial(self._register_body, body)
            if path.startswith("/v1/schemas/"):
                name = unquote(path[len("/v1/schemas/"):])
                if not name:
                    raise InvalidRequestError("empty schema name")
                if method == "GET":
                    return self._get_schema(name)
                if method == "DELETE":
                    return partial(self._service.retire, name)
                return 405, {"error": "GET or DELETE required"}, "application/json"
            if method != "GET":
                return 405, {"error": "GET required"}, "application/json"
            if path.startswith("/v1/components/") and path.endswith("/view"):
                return self._get_view(path[len("/v1/components/"):-len("/view")])
            if path.startswith("/v1/query/"):
                return self._get_query(path[len("/v1/query/"):])
            if path == "/v1/stats":
                return self._get_stats(query)
            return 404, {"error": f"no route for {method} {path}"}, "application/json"
        except Exception as exc:  # taxonomy-mapped error document
            return _error(exc)

    @staticmethod
    def _write(write: Callable[[], RegisterReceipt]) -> _Answer:
        """Run one write on the pool, and encode its answer there too."""
        try:
            payload: Dict[str, Any] = {"format": API_FORMAT}
            payload.update(write().to_dict())
            status = 200
        except Exception as exc:  # taxonomy-mapped error document
            status, payload, _ = _error(exc)
        return status, json.dumps(payload).encode("utf-8"), "application/json"

    def _register_body(self, body: bytes) -> RegisterReceipt:
        """Parse, decode and register one POST body (on the write pool)."""
        try:
            doc = json.loads(body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise InvalidRequestError(f"request body is not JSON: {exc}")
        if not isinstance(doc, dict) or doc.get("format") != API_FORMAT:
            raise InvalidRequestError(
                f"expected a {API_FORMAT!r} document with a 'schemas' list"
            )
        docs = doc.get("schemas")
        if not isinstance(docs, list):
            raise InvalidRequestError("'schemas' must be a list")
        return self._service.register([self._decode_entry(d) for d in docs])

    @staticmethod
    def _decode_entry(doc: Any) -> RegistrationEntry:
        """A batch element: bare schema document or named-entry wrapper."""
        if isinstance(doc, dict) and "schema" in doc:
            if not isinstance(doc.get("name"), str) or not doc["name"]:
                raise InvalidRequestError(
                    "a named entry needs a non-empty string 'name'"
                )
            return RegistrationEntry.from_doc(
                doc["schema"],
                name=doc["name"],
                version=doc.get("version"),
                lifecycle=doc.get("lifecycle"),
            )
        return RegistrationEntry.from_doc(doc)

    def _get_schema(self, name: str) -> Tuple[int, Dict[str, Any], str]:
        payload: Dict[str, Any] = {"format": API_FORMAT}
        payload.update(self._service.schema_info(name))
        return 200, payload, "application/json"

    def _get_view(self, raw_sid: str) -> Tuple[int, bytes, str]:
        try:
            sid = int(raw_sid)
        except ValueError:
            raise InvalidRequestError(f"component id must be an integer, got {raw_sid!r}")
        return 200, self._service.view_body(sid), "application/json"

    def _get_query(self, raw_cls: str) -> Tuple[int, bytes, str]:
        cls = unquote(raw_cls)
        if not cls:
            raise InvalidRequestError("empty class name")
        return 200, self._service.query_body(cls), "application/json"

    def _get_stats(
        self, query: str
    ) -> Tuple[int, Union[Dict[str, Any], str], str]:
        if "format=json" in query:
            return (
                200,
                {"format": API_FORMAT, "stats": self._service.service_stats()},
                "application/json",
            )
        return 200, prometheus_text(), "text/plain; version=0.0.4; charset=utf-8"


def _error(exc: BaseException) -> Tuple[int, Dict[str, Any], str]:
    doc = {"format": API_FORMAT, "error": str(exc), "type": type(exc).__name__}
    return status_for(exc), doc, "application/json"


def _encode(
    status: int,
    payload: Union[Dict[str, Any], str, bytes],
    content_type: str,
    keep_alive: bool,
) -> bytes:
    if isinstance(payload, bytes):
        body = payload
    elif isinstance(payload, str):
        body = payload.encode("utf-8")
    else:
        body = json.dumps(payload).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


def _parse_head(head: bytes) -> Tuple[str, str, bool, int]:
    """Method, target, keep-alive and body length; ``ValueError`` if bad."""
    request_line, *lines = head.decode("latin-1").split("\r\n")
    method, target, version = request_line.split(" ", 2)
    keep_alive, length = version == "HTTP/1.1", 0
    for line in lines:
        key, _, value = line.partition(":")
        key = key.strip().lower()
        if key == "content-length":
            length = int(value.strip() or 0)
            if length < 0:
                raise ValueError(f"negative Content-Length {length}")
        elif key == "connection" and value.strip().lower() == "close":
            keep_alive = False
    return method, target, keep_alive, length


class _Connection(asyncio.Protocol):
    """One client connection, answered from its byte buffer in order.

    While ``_busy`` a write runs on the pool, reading is paused and any
    buffered requests wait for its answer.  ``_stamp`` is the loop time
    the current wait began — for a head, a body (``_head`` is parsed)
    or, with an empty buffer, the next request — and the front end's
    sweep holds it to that wait's deadline.
    """

    def __init__(
        self,
        frontend: HttpFrontend,
        loop: asyncio.AbstractEventLoop,
        pool: ThreadPoolExecutor,
    ) -> None:
        self._frontend = frontend
        self._loop = loop
        self._pool = pool
        self._transport: Any = None
        self._buffer = bytearray()
        self._head: Optional[Tuple[str, str, bool, int]] = None
        self._busy = False
        self._backlogged = False  # the client is not reading its answers
        self._closing = False  # close once the write in flight is answered
        self._stamp = loop.time()

    def connection_made(self, transport: Any) -> None:
        self._transport = transport
        # asyncio reads through a 256 KiB recv() buffer.  glibc serves a
        # block that size with mmap until its threshold happens to adapt,
        # which costs every request a page fault and an mmap/munmap pair;
        # a 64 KiB buffer always comes from the heap.
        transport.max_size = 64 * 1024
        if self._frontend._serving:
            self._frontend._connections.add(self)
        else:  # accepted as the front end stopped
            transport.close()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._frontend._connections.discard(self)

    def data_received(self, data: bytes) -> None:
        now = self._loop.time()
        if not self._buffer and self._head is None:
            self._stamp = now  # a new request begins
        self._buffer += data
        if not self._busy:
            self._serve(now)

    def pause_writing(self) -> None:
        self._backlogged = True
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._backlogged = False
        if not self._busy:
            self._transport.resume_reading()

    def _serve(self, now: float) -> None:
        """Answer complete buffered requests until one goes to the pool."""
        buffer = self._buffer
        while True:
            head = self._head
            if head is None:
                end = buffer.find(b"\r\n\r\n")
                if end < 0 and len(buffer) <= _MAX_HEAD_BYTES:
                    return
                try:
                    if not 0 <= end <= _MAX_HEAD_BYTES:
                        raise ValueError(f"over {_MAX_HEAD_BYTES} bytes")
                    head = _parse_head(bytes(buffer[:end]))
                except ValueError as exc:
                    return self._refuse(
                        InvalidRequestError(f"malformed request head: {exc}")
                    )
                del buffer[:end + 4]
                if head[3] > MAX_BODY_BYTES:
                    return self._refuse(BodyTooLargeError(
                        f"request body of {head[3]} bytes exceeds the "
                        f"{MAX_BODY_BYTES}-byte limit"
                    ))
                self._head, self._stamp = head, now  # the body's wait begins
            method, target, keep_alive, length = head
            if len(buffer) < length:
                return
            body = bytes(buffer[:length])
            del buffer[:length]
            self._head, self._stamp = None, now
            answer = self._frontend._dispatch(method, target, body)
            if callable(answer):
                return self._submit(answer, keep_alive)
            self._send(answer, keep_alive)
            if not keep_alive:
                return

    def _send(self, answer: _Answer, keep_alive: bool) -> None:
        self._transport.write(_encode(*answer, keep_alive))
        if not keep_alive:
            self._transport.close()

    def _refuse(self, exc: InvalidRequestError) -> None:
        """Answer a request whose body will not be read, and close."""
        self._send(_error(exc), False)

    def _submit(
        self, write: Callable[[], RegisterReceipt], keep_alive: bool
    ) -> None:
        self._busy = True
        self._transport.pause_reading()
        future = self._pool.submit(self._frontend._write, write)
        future.add_done_callback(partial(self._hand_back, keep_alive))

    def _hand_back(self, keep_alive: bool, future: "Future[_Answer]") -> None:
        """The pool's done-callback: take the answer over to the loop."""
        with suppress(RuntimeError):  # a closed loop has nobody to answer
            self._loop.call_soon_threadsafe(self._written, future.result(), keep_alive)

    def _written(self, answer: _Answer, keep_alive: bool) -> None:
        """Answer the write in flight, then serve what is buffered."""
        self._busy = False
        if self._transport.is_closing():
            return  # the client left, or stop() gave up on it
        keep_alive = keep_alive and not self._closing
        self._send(answer, keep_alive)
        if keep_alive:
            now = self._loop.time()
            self._stamp = now
            self._serve(now)
            if not self._busy and not self._backlogged:
                self._transport.resume_reading()

    def expire(self, now: float) -> None:
        """Close the connection if its current wait is past its deadline."""
        if self._busy or self._transport.is_closing():
            return
        if self._head is not None:
            what, limit = f"request body of {self._head[3]} bytes", BODY_TIMEOUT_S
        elif self._buffer:
            what, limit = "request head", HEAD_TIMEOUT_S
        elif now - self._stamp > IDLE_TIMEOUT_S:
            return self._transport.close()
        else:
            return
        if now - self._stamp > limit:
            self._refuse(BodyTimeoutError(f"{what} did not arrive within {limit:g} s"))

    def shut(self) -> None:
        """Close now if idle, else once the write in flight is answered."""
        self._closing = True
        if not self._busy:
            self._transport.close()

    def abort(self) -> None:
        self._transport.abort()


def serve_http(
    service: MergeService,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    announce: Optional[Callable[[str, int], None]] = None,
) -> None:
    """Serve *service* over HTTP on the calling thread (Ctrl-C to stop).

    The blocking entry point behind ``repro serve --http PORT``; writes
    run on :data:`MAX_WRITE_WORKERS` pool threads.  For a background
    server (tests, benchmarks) use :class:`HttpFrontend` as a context
    manager instead.
    """
    HttpFrontend(service, host=host, port=port).serve_forever(announce=announce)
