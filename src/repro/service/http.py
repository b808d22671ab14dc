"""Asyncio HTTP front end for the merge service — stdlib only.

One event loop serves every connection.  Reads (``GET``) are answered
inline on the loop: views, queries, schema info and stats each load the
service's published registry value without a lock, so a read is just a
memo lookup and never waits on a writer, not even on its log append.
For views and queries the memo holds the encoded response body itself
(:meth:`MergeService.view_body`, :meth:`MergeService.query_body`): a
warm ``GET`` is one dictionary lookup plus one socket write, with no
``schema_to_dict`` and no ``json.dumps``.
Writes (``POST /v1/schemas``) are dispatched to a small thread pool,
body and all: the pool thread parses the JSON, decodes each schema
document to its generator form and registers the batch, so the loop
keeps streaming read responses while a big batch decodes and a
register folds closures under the service's writer lock — the
service's "reads never block behind writers" guarantee carries through
to the wire.

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
head that cannot be parsed is answered 400, one declaring a body over
:data:`MAX_BODY_BYTES` is answered 413
(:class:`~repro.exceptions.BodyTooLargeError`), and a body that does
not arrive within :data:`BODY_TIMEOUT_S` is answered 408
(:class:`~repro.exceptions.BodyTimeoutError`); all three close the
connection.

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
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional, Tuple, Union

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

#: Seconds a client has to deliver the body its ``Content-Length``
#: declared.  A short body is answered 408 and the connection closed,
#: so it cannot hold the connection forever.  Request heads carry no
#: deadline: a per-read timer would cost every ``GET``.
BODY_TIMEOUT_S = 10.0

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

    *max_workers* bounds concurrent in-flight registers; reads are not
    pooled (they run on the event loop and never block).
    """

    def __init__(
        self,
        service: MergeService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_workers: int = 4,
    ) -> None:
        self._service = service
        self._host = host
        self._port = port
        self._max_workers = max_workers
        self._address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        #: Open connections: handler task → its writer.
        self._connections: Dict[Any, asyncio.StreamWriter] = {}
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
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self._max_workers,
            thread_name_prefix="repro-http-write",
        )
        server = await asyncio.start_server(self._handle, self._host, self._port)
        try:
            host, port = server.sockets[0].getsockname()[:2]
            self._address = (host, port)
            if announce is not None:
                announce(host, port)
            if ready is not None:
                ready.set()
            async with server:
                await self._stop.wait()
                # Unpark keep-alive handlers (their readline sees EOF) and
                # let them finish, so none is left for asyncio.run to cancel.
                for writer in list(self._connections.values()):
                    writer.close()
                if self._connections:
                    await asyncio.wait(list(self._connections), timeout=10)
        finally:
            self._pool.shutdown(wait=False)
            if ready is not None:
                ready.set()  # never leave a starter waiting on a crash

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
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        loop = asyncio.get_running_loop()
        self._connections[task] = writer
        # asyncio reads through a 256 KiB recv() buffer.  glibc serves a
        # block that size with mmap until its threshold happens to adapt,
        # which costs every request a page fault and an mmap/munmap pair;
        # a 64 KiB buffer always comes from the heap.
        writer.transport.max_size = 64 * 1024
        try:
            while True:
                # readline raises ValueError past the reader's line limit.
                try:
                    request_line = await reader.readline()
                    if not request_line:
                        break
                    method, target, version = (
                        request_line.decode("latin-1").rstrip("\r\n").split(" ", 2)
                    )
                    headers: Dict[str, str] = {}
                    while True:
                        line = await reader.readline()
                        if line in (b"\r\n", b"\n", b""):
                            break
                        key, _, value = line.decode("latin-1").partition(":")
                        headers[key.strip().lower()] = value.strip()
                    length = int(headers.get("content-length") or 0)
                    if length < 0:
                        raise ValueError(f"negative Content-Length {length}")
                except ValueError as exc:
                    await self._refuse(
                        writer, InvalidRequestError(f"malformed request head: {exc}")
                    )
                    break
                if length > MAX_BODY_BYTES:
                    await self._refuse(
                        writer,
                        BodyTooLargeError(
                            f"request body of {length} bytes exceeds the "
                            f"{MAX_BODY_BYTES}-byte limit"
                        ),
                    )
                    break
                body = b""
                if length:
                    # A timer that ends the stream, not ``wait_for``: no
                    # extra task, so a body already buffered costs nothing.
                    deadline = loop.call_later(BODY_TIMEOUT_S, reader.feed_eof)
                    try:
                        body = await reader.readexactly(length)
                    except asyncio.IncompleteReadError:
                        await self._refuse(
                            writer,
                            BodyTimeoutError(
                                f"request body of {length} bytes did not "
                                f"arrive within {BODY_TIMEOUT_S:g} s"
                            ),
                        )
                        break
                    finally:
                        deadline.cancel()
                keep_alive = (
                    version == "HTTP/1.1"
                    and headers.get("connection", "").lower() != "close"
                )
                status, payload, content_type = await self._dispatch(
                    method, target, body
                )
                writer.write(
                    self._encode(status, payload, content_type, keep_alive)
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            self._connections.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _refuse(
        self, writer: asyncio.StreamWriter, exc: InvalidRequestError
    ) -> None:
        """Answer a request whose body will not be read (the caller closes).

        The status and the document's ``type`` both come from *exc*.
        """
        error = {"error": str(exc), "type": type(exc).__name__}
        writer.write(self._encode(status_for(exc), error, "application/json", False))
        await writer.drain()

    @staticmethod
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

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, Union[Dict[str, Any], str, bytes], str]:
        path, _, query = target.partition("?")
        try:
            if path == "/v1/schemas":
                if method != "POST":
                    return 405, {"error": "POST required"}, "application/json"
                return await self._post_schemas(body)
            if path.startswith("/v1/schemas/"):
                from urllib.parse import unquote

                name = unquote(path[len("/v1/schemas/"):])
                if not name:
                    raise InvalidRequestError("empty schema name")
                if method == "GET":
                    return self._get_schema(name)
                if method == "DELETE":
                    return await self._delete_schema(name)
                return (
                    405,
                    {"error": "GET or DELETE required"},
                    "application/json",
                )
            if method != "GET":
                return 405, {"error": "GET required"}, "application/json"
            if path.startswith("/v1/components/") and path.endswith("/view"):
                return self._get_view(path[len("/v1/components/"):-len("/view")])
            if path.startswith("/v1/query/"):
                return self._get_query(path[len("/v1/query/"):])
            if path == "/v1/stats":
                return self._get_stats(query)
            return (
                404,
                {"error": f"no route for {method} {path}"},
                "application/json",
            )
        except Exception as exc:  # taxonomy-mapped error document
            return (
                status_for(exc),
                {
                    "format": API_FORMAT,
                    "error": str(exc),
                    "type": type(exc).__name__,
                },
                "application/json",
            )

    async def _post_schemas(
        self, body: bytes
    ) -> Tuple[int, Dict[str, Any], str]:
        loop = asyncio.get_running_loop()
        receipt = await loop.run_in_executor(
            self._pool, self._register_body, body
        )
        payload = {"format": API_FORMAT}
        payload.update(receipt.to_dict())
        return 200, payload, "application/json"

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

    async def _delete_schema(
        self, name: str
    ) -> Tuple[int, Dict[str, Any], str]:
        loop = asyncio.get_running_loop()
        receipt = await loop.run_in_executor(
            self._pool, self._service.retire, name
        )
        payload = {"format": API_FORMAT}
        payload.update(receipt.to_dict())
        return 200, payload, "application/json"

    def _get_view(self, raw_sid: str) -> Tuple[int, bytes, str]:
        try:
            sid = int(raw_sid)
        except ValueError:
            raise InvalidRequestError(f"component id must be an integer, got {raw_sid!r}")
        return 200, self._service.view_body(sid), "application/json"

    def _get_query(self, raw_cls: str) -> Tuple[int, bytes, str]:
        from urllib.parse import unquote

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


def serve_http(
    service: MergeService,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    max_workers: int = 4,
    announce: Optional[Callable[[str, int], None]] = None,
) -> None:
    """Serve *service* over HTTP on the calling thread (Ctrl-C to stop).

    The blocking entry point behind ``repro serve --http PORT``.  For a
    background server (tests, benchmarks) use :class:`HttpFrontend` as a
    context manager instead.
    """
    HttpFrontend(
        service, host=host, port=port, max_workers=max_workers
    ).serve_forever(announce=announce)
