"""Counters, gauges and streaming histograms behind one process registry.

Three instrument kinds, all cheap enough to leave permanently enabled:

* :class:`Counter` — a monotone integer (``inc``).  An increment is one
  attribute add; callers that need exact counts under free threading
  must serialize externally (the merge service increments under its own
  lock).
* :class:`Gauge` — a point-in-time value, either set directly (``set``)
  or computed on read from a callback (``fn=...``).  Callback gauges
  are how existing structures (the service registry, for one)
  publish their live state without a write on *their* hot path.
* :class:`Histogram` — a streaming latency distribution over fixed
  log-spaced buckets.  Observations cost a bisect plus two adds and
  **no samples are stored**, yet p50/p95/p99 come out within one bucket
  width (a factor of ``10^(1/buckets_per_decade)``, ~26% relative by
  default) — the classic HDR-histogram trade.

:class:`MetricsRegistry` maps ``(name, labels)`` to instruments.  The
process-global :data:`REGISTRY` is what exporters dump and the CLI
prints; ``register()`` is last-wins so per-instance owners (a fresh
``MergeService``'s telemetry) replace their predecessor's instruments —
the registry always describes the newest owner of each name.

>>> registry = MetricsRegistry()
>>> registry.counter("demo.requests", shard="a").inc(3)
>>> registry.counter("demo.requests", shard="a").value
3
>>> h = registry.histogram("demo.latency")
>>> for ms in [1, 2, 2, 3, 50]:
...     h.observe(ms / 1000.0)
>>> h.count
5
>>> 0.001 <= h.quantile(0.5) <= 0.004
True
>>> [entry["name"] for entry in registry.snapshot()]
['demo.latency', 'demo.requests']
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
]

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing integer instrument."""

    kind = "counter"

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, **labels: Any) -> None:
        self.name = name
        self.labels = _label_items(labels)
        self._value = 0

    def inc(self, n: int = 1) -> None:
        self._value += n

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "counter",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self._value,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Counter({self.name}{dict(self.labels) or ''}={self._value})"


class Gauge:
    """A point-in-time value; callback gauges compute it on read."""

    kind = "gauge"

    __slots__ = ("name", "labels", "_value", "_fn")

    def __init__(
        self,
        name: str,
        fn: Optional[Callable[[], Any]] = None,
        **labels: Any,
    ) -> None:
        self.name = name
        self.labels = _label_items(labels)
        self._value: Any = 0
        self._fn = fn

    def set(self, value: Any) -> None:
        self._value = value

    @property
    def value(self) -> Any:
        if self._fn is not None:
            return self._fn()
        return self._value

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "gauge",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Gauge({self.name}{dict(self.labels) or ''}={self.value})"


class Histogram:
    """A streaming distribution over fixed log-spaced buckets.

    Bucket upper bounds run geometrically from *lo* to *hi* with
    *buckets_per_decade* per factor of ten; one overflow bucket catches
    everything above *hi* and values at or below *lo* land in the first
    bucket.  ``sum``/``count``/``min``/``max`` are exact; quantiles are
    interpolated within the containing bucket and clamped to the
    observed range, so the relative error is bounded by one bucket
    ratio (``10 ** (1 / buckets_per_decade)``).

    The defaults (100 ns .. 100 s, 10 buckets per decade, 91 buckets)
    cover every duration this codebase measures.

    >>> h = Histogram("doc.example")
    >>> for value in range(1, 101):
    ...     h.observe(value / 1000.0)
    >>> h.count, round(h.sum, 3), h.min, h.max
    (100, 5.05, 0.001, 0.1)
    >>> 0.04 <= h.quantile(0.5) <= 0.06
    True
    >>> h.quantile(0.0) == 0.001 and h.quantile(1.0) == 0.1
    True
    >>> Histogram("doc.empty").quantile(0.5) is None
    True
    """

    kind = "histogram"

    __slots__ = (
        "name",
        "labels",
        "_edges",
        "_counts",
        "count",
        "sum",
        "min",
        "max",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        lo: float = 1e-7,
        hi: float = 100.0,
        buckets_per_decade: int = 10,
        **labels: Any,
    ) -> None:
        if not (0 < lo < hi):
            raise ValueError(f"need 0 < lo < hi, got lo={lo!r} hi={hi!r}")
        if buckets_per_decade < 1:
            raise ValueError("buckets_per_decade must be >= 1")
        self.name = name
        self.labels = _label_items(labels)
        decades = math.log10(hi / lo)
        n_edges = int(math.ceil(decades * buckets_per_decade)) + 1
        ratio = 10.0 ** (1.0 / buckets_per_decade)
        self._edges = [lo * ratio**i for i in range(n_edges)]  # frozen-after-init
        self._counts = [0] * (n_edges + 1)  # guarded-by: _lock (+1: overflow)
        self.count = 0  # guarded-by: _lock
        self.sum = 0.0  # guarded-by: _lock
        self.min = math.inf  # guarded-by: _lock
        self.max = -math.inf  # guarded-by: _lock
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Fold one observation in (thread-safe; nothing is stored)."""
        with self._lock:
            self._counts[bisect_left(self._edges, value)] += 1
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def quantile(self, q: float) -> Optional[float]:
        """The estimated *q*-quantile (``0 <= q <= 1``), or ``None`` if empty.

        Linear interpolation inside the containing bucket, clamped to
        the exact observed ``[min, max]``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile fraction must be in [0, 1], got {q!r}")
        with self._lock:
            if self.count == 0:
                return None
            if q == 0.0:
                return self.min
            if q == 1.0:
                return self.max
            rank = q * (self.count - 1)
            cumulative = 0
            edges = self._edges
            for index, bucket_count in enumerate(self._counts):
                if bucket_count and cumulative + bucket_count > rank:
                    low = edges[index - 1] if index > 0 else self.min
                    high = edges[index] if index < len(edges) else self.max
                    position = (rank - cumulative + 0.5) / bucket_count
                    estimate = low + position * (high - low)
                    return min(max(estimate, self.min), self.max)
                cumulative += bucket_count
            return self.max  # pragma: no cover - defensive

    def percentiles(self) -> Dict[str, Optional[float]]:
        """The standard latency trio as a JSON-able dict."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def buckets(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, Prometheus-style.

        The final pair uses ``math.inf`` as its bound and equals
        ``count``.  Empty buckets are skipped except the terminal one.
        """
        with self._lock:
            out: List[Tuple[float, int]] = []
            cumulative = 0
            for index, bucket_count in enumerate(self._counts):
                cumulative += bucket_count
                if bucket_count and index < len(self._edges):
                    out.append((self._edges[index], cumulative))
            out.append((math.inf, cumulative))
            return out

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            count, total = self.count, self.sum
            observed_min = self.min if count else None
            observed_max = self.max if count else None
        out = {
            "type": "histogram",
            "name": self.name,
            "labels": dict(self.labels),
            "count": count,
            "sum": total,
            "min": observed_min,
            "max": observed_max,
        }
        out.update(self.percentiles())
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        with self._lock:
            return f"Histogram({self.name}, count={self.count})"


class MetricsRegistry:
    """``(name, labels)`` → instrument, with get-or-create and last-wins.

    ``counter``/``gauge``/``histogram`` get-or-create shared process
    instruments; ``register`` attaches an externally constructed one,
    *replacing* any previous instrument under the same key — the
    contract per-instance owners (a service's telemetry) rely on so the
    registry always reflects the newest instance.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, LabelItems], Any] = {}  # guarded-by: _lock

    def _get_or_create(
        self, key: Tuple[str, LabelItems], factory: Callable[[], Any]
    ) -> Any:
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = self._instruments[key] = factory()
            return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_items(labels))
        return self._get_or_create(key, lambda: Counter(name, **labels))

    def gauge(
        self,
        name: str,
        fn: Optional[Callable[[], Any]] = None,
        **labels: Any,
    ) -> Gauge:
        key = (name, _label_items(labels))
        return self._get_or_create(key, lambda: Gauge(name, fn=fn, **labels))

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = (name, _label_items(labels))
        return self._get_or_create(key, lambda: Histogram(name, **labels))

    def register(self, instrument: Any) -> Any:
        """Attach *instrument* (last-wins on key collision); returns it."""
        with self._lock:
            self._instruments[(instrument.name, instrument.labels)] = instrument
        return instrument

    def get(self, name: str, **labels: Any) -> Optional[Any]:
        """The registered instrument under this key, or ``None``."""
        with self._lock:
            return self._instruments.get((name, _label_items(labels)))

    def value(self, name: str, **labels: Any) -> Any:
        """Shorthand: the current value of a counter/gauge (or ``None``)."""
        instrument = self.get(name, **labels)
        return None if instrument is None else instrument.value

    def instruments(self) -> List[Any]:
        """Every registered instrument, sorted by (name, labels)."""
        with self._lock:
            return [
                self._instruments[key] for key in sorted(self._instruments)
            ]

    def snapshot(self) -> List[Dict[str, Any]]:
        """One JSON-able record per instrument (callback gauges read live)."""
        return [instrument.snapshot() for instrument in self.instruments()]

    def clear(self) -> None:
        """Drop every instrument (tests; owners keep their references)."""
        with self._lock:
            self._instruments.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)


#: The process-global registry: what exporters dump, the CLI prints and
#: the instrumented layers (service, storage, closure engine) report to.
REGISTRY = MetricsRegistry()


def counter(name: str, **labels: Any) -> Counter:
    """Get-or-create a counter in the global :data:`REGISTRY`."""
    return REGISTRY.counter(name, **labels)


def gauge(
    name: str, fn: Optional[Callable[[], Any]] = None, **labels: Any
) -> Gauge:
    """Get-or-create a gauge in the global :data:`REGISTRY`."""
    return REGISTRY.gauge(name, fn=fn, **labels)


def histogram(name: str, **labels: Any) -> Histogram:
    """Get-or-create a histogram in the global :data:`REGISTRY`."""
    return REGISTRY.histogram(name, **labels)
