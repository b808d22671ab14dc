"""Spans recorded around calls into the program's public functions.

A :class:`Recorder` replaces chosen attributes with timing wrappers and
keeps ``(name, start_ns, end_ns)`` tuples in memory; the owner writes
them out when the run ends.  Times come from ``time.perf_counter_ns``
(CLOCK_MONOTONIC on Linux), so spans recorded in a server process line
up with the client's request timestamps in the benchmark process, and
the benchmark joins each span to the request whose interval holds it.

The program itself is never edited: the wrappers are installed only by
the benchmark's own entry points (``launcher.py``, ``recover.py``,
``merge_worker.py``).
"""

from __future__ import annotations

import functools
import json
import os
import time
from bisect import bisect_left, bisect_right
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

Span = Tuple[str, int, int]

#: Server-side targets: (module, owner attribute path, span name).
SERVER_TARGETS = (
    ("repro.service.service", "MergeService.query", "service.query"),
    ("repro.service.service", "MergeService.merged_view", "service.view"),
    ("repro.service.service", "MergeService.register", "service.register"),
    ("repro.service.service", "MergeService.retire", "service.retire"),
    ("repro.service.service", "MergeService.schema_info", "service.schema_info"),
    ("repro.service.service", "MergeService.open", "service.open"),
    # The names the HTTP layer imported the codec functions under.
    ("repro.service.http", "schema_from_dict", "json_io.decode"),
    ("repro.service.http", "schema_to_dict", "json_io.encode"),
    ("repro.service.storage", "FileBackend.append", "storage.append"),
    ("repro.service.storage", "FileBackend.save_state", "storage.save_state"),
    ("repro.service.storage", "FileBackend.load_state", "storage.load_state"),
    ("repro.perf.closure", "ClosureBuilder.add_schema", "closure.fold"),
    ("repro.perf.closure", "ClosureBuilder.clone", "closure.fold"),
    ("repro.perf.closure", "ClosureBuilder.build", "closure.build"),
    ("repro.perf.closure", "ClosureBuilder.dense_state", "closure.build"),
    ("repro.perf.closure", "ClosureBuilder.from_dense", "closure.build"),
)

#: The paper's two merge stages, wrapped where ``upper_merge`` finds
#: them (``repro.core.merge``) and where ``properize`` finds ``Imp``.
MERGE_TARGETS = (
    ("repro.core.merge", "weak_merge", "ordering.weak_merge"),
    ("repro.core.merge", "implicit_sets", "implicit.imp"),
    ("repro.core.implicit", "implicit_sets", "implicit.imp"),
    ("repro.core.merge", "properize", "implicit.properize"),
)


class Recorder:
    """Installs timing wrappers and collects their spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def _wrap(self, fn: Callable[..., Any], span_name: str) -> Callable[..., Any]:
        record = self.spans.append
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record((span_name, start, clock()))

        return timed

    def install(self, targets: Iterable[Tuple[str, str, str]]) -> None:
        import importlib

        for module_name, path, span_name in targets:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self._wrap(raw.__func__, span_name))
            else:
                wrapped = self._wrap(raw, span_name)
            setattr(owner, attr, wrapped)

    def dump(self, path: str) -> None:
        """Write the spans atomically (the reader polls for the file)."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
        os.replace(tmp, path)


def load(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(s) for s in json.load(fh)]  # type: ignore[misc]


def mean_us(spans: Sequence[Span], name: str) -> float:
    """Mean duration of the spans called *name*, in microseconds."""
    durations = [end - start for n, start, end in spans if n == name]
    return sum(durations) / len(durations) / 1e3 if durations else 0.0


def total_us(spans: Sequence[Span], name: str) -> float:
    return sum(end - start for n, start, end in spans if n == name) / 1e3


class Joiner:
    """Joins server spans to client request intervals on the shared clock.

    ``covered_ns(sent, done, names)`` is the length of the part of
    ``[sent, done]`` that spans of the given names cover (their union,
    so nested spans count once).  A client round trip minus that is the
    request's self time in the HTTP layer: parse, route, write and the
    loopback transfer.
    """

    def __init__(self, spans: Sequence[Span]) -> None:
        self._by_name: Dict[str, Tuple[List[int], List[int]]] = {}
        for name, start, end in sorted(spans, key=lambda s: s[1]):
            starts, ends = self._by_name.setdefault(name, ([], []))
            starts.append(start)
            ends.append(end)

    def covered_ns(self, sent: int, done: int, names: Iterable[str]) -> int:
        intervals = []
        for name in names:
            starts, ends = self._by_name.get(name, ([], []))
            for i in range(bisect_left(starts, sent), bisect_right(starts, done)):
                if ends[i] <= done:
                    intervals.append((starts[i], ends[i]))
        intervals.sort()
        covered = 0
        cursor = sent
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        return covered
