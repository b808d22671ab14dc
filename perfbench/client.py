"""A minimal keep-alive HTTP/1.1 client with per-request timestamps.

``http.client`` would do, but it costs more CPU per request than the
server's fast paths; with client and server sharing two cores that cost
shows up as latency.  The server always answers with ``Content-Length``,
which is all this client supports.
"""

from __future__ import annotations

import socket
import time
from typing import Tuple


class Connection:
    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._host = f"{host}:{port}".encode()
        self._buf = b""

    def request(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, bytes, int, int]:
        """Send one request; return ``(status, body, sent_ns, done_ns)``.

        Both timestamps read ``time.perf_counter_ns``, which on Linux is
        CLOCK_MONOTONIC and so comparable with the server's own spans.
        """
        head = (
            f"{method} {path} HTTP/1.1\r\n".encode()
            + b"Host: " + self._host + b"\r\n"
            + b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
        )
        sent = time.perf_counter_ns()
        self._sock.sendall(head + body)
        buf = self._buf
        while True:
            end = buf.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buf += chunk
        lines = buf[:end].split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length = 0
        for line in lines[1:]:
            key, _, value = line.partition(b":")
            if key.strip().lower() == b"content-length":
                length = int(value)
        start = end + 4
        while len(buf) < start + length:
            chunk = self._sock.recv(max(65536, start + length - len(buf)))
            if not chunk:
                raise ConnectionError("server closed the connection")
            buf += chunk
        done = time.perf_counter_ns()
        payload = buf[start:start + length]
        self._buf = buf[start + length:]
        return status, payload, sent, done

    def close(self) -> None:
        self._sock.close()
