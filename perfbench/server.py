"""Start, probe and stop one ``serve --http`` server process."""

from __future__ import annotations

import os
import re
import select
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional

import client

HOST = "127.0.0.1"
READY_TIMEOUT_S = 60.0
_PROM_LINE = re.compile(r"^([A-Za-z_][\w]*(?:\{[^}]*\})?) (\S+)$")


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


#: The program under test and the load generator share one CPU, the last.
#: Left to the scheduler they share a CPU in some runs and not in others,
#: and round trips differ by a third between the two placements.  On two
#: CPUs every round trip also waits for the idle one to wake, and on a
#: shared host that wake-up takes as long as the host is busy.
CPU = max(os.sched_getaffinity(0))


def pin() -> None:
    """Run the calling process, and whatever it starts, on :data:`CPU`."""
    os.sched_setaffinity(0, {CPU})


def vmhwm_kb(pid: int) -> int:
    """Peak resident set size of *pid* (``VmHWM``), in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Server:
    """One server process; ``start()`` returns launch-to-listening seconds.

    Untraced, it is ``python3 -m repro.tools.cli serve --http PORT ...``.
    Traced, the same CLI runs under ``launcher.py``, which records spans
    and writes them to ``spans_path`` on SIGUSR1.
    """

    def __init__(
        self,
        root: str,
        log_path: str,
        serve_args: List[str],
        spans_path: Optional[str] = None,
    ) -> None:
        self._root = root
        self._log_path = log_path
        self._serve_args = serve_args
        self.spans_path = spans_path
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        for _attempt in range(3):
            self.port = _free_port()
            args = ["serve", "--http", str(self.port), *self._serve_args]
            if self.spans_path is None:
                cmd = [sys.executable, "-m", "repro.tools.cli", *args]
            else:
                launcher = os.path.join(self._root, "perfbench", "launcher.py")
                cmd = [sys.executable, launcher, self.spans_path, "--", *args]
            env = dict(os.environ, PYTHONPATH=os.path.join(self._root, "src"))
            started = time.perf_counter()
            with open(self._log_path, "ab") as log:
                self.proc = subprocess.Popen(
                    cmd, cwd=self._root, env=env, stdout=subprocess.PIPE,
                    stderr=log, preexec_fn=pin,
                )
            if self._wait_ready(started):
                return time.perf_counter() - started
            self.kill()
        raise RuntimeError(f"server did not start; see {self._log_path}")

    def _wait_ready(self, started: float) -> bool:
        assert self.proc is not None and self.proc.stdout is not None
        out = self.proc.stdout
        buf = b""
        while time.perf_counter() - started < READY_TIMEOUT_S:
            ready, _, _ = select.select([out], [], [], 0.5)
            if not ready:
                continue
            chunk = os.read(out.fileno(), 4096)
            if not chunk:
                return False
            buf += chunk
            if b"serving HTTP on" in buf:
                return True
        return False

    def connect(self) -> client.Connection:
        return client.Connection(HOST, self.port)

    def counters(self) -> Dict[str, float]:
        """Every counter and gauge from ``GET /v1/stats`` (Prometheus text)."""
        conn = self.connect()
        try:
            status, body, _, _ = conn.request("GET", "/v1/stats")
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"GET /v1/stats answered {status}")
        values: Dict[str, float] = {}
        for line in body.decode().splitlines():
            match = _PROM_LINE.match(line)
            if match:
                values[match.group(1)] = float(match.group(2))
        return values

    def dump_spans(self) -> None:
        """Ask the traced server for its spans and wait for the file."""
        assert self.proc is not None and self.spans_path is not None
        if os.path.exists(self.spans_path):
            os.remove(self.spans_path)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + 30
        while not os.path.exists(self.spans_path):
            if time.perf_counter() > deadline:
                raise RuntimeError("traced server wrote no spans")
            self.counters()  # wakes the event loop so the handler runs
            time.sleep(0.05)

    def vmhwm_kb(self) -> int:
        assert self.proc is not None
        return vmhwm_kb(self.proc.pid)

    def stop(self) -> None:
        """Interrupt (the CLI's clean exit) and wait; kill if it hangs."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.kill()
        self._close_pipe()

    def kill(self) -> None:
        """SIGKILL: no clean shutdown, as in a crash."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        self._close_pipe()

    def _close_pipe(self) -> None:
        if self.proc is not None and self.proc.stdout is not None:
            self.proc.stdout.close()
