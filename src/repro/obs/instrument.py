"""Instrumentation glue: decorators that thread telemetry through code.

The pieces that thread telemetry through existing code without that
code growing registry boilerplate:

* :func:`traced` — wrap a function in a :func:`~repro.obs.tracing.span`
  (no-op while the global switch is off);
* :func:`timed` — record a function's duration into a histogram, only
  while telemetry is enabled (the call itself always proceeds).

>>> from repro.obs import _state
>>> from repro.obs.metrics import MetricsRegistry
>>> registry = MetricsRegistry()
>>> @timed("doc.work.duration", registry=registry)
... def work(n):
...     return sum(range(n))
>>> _state.set_enabled(True)
>>> work(100)
4950
>>> registry.get("doc.work.duration").count
1
>>> _state.set_enabled(False)
>>> work(100)   # still runs; just not timed
4950
>>> registry.get("doc.work.duration").count
1
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Optional

from repro.obs import _state
from repro.obs.metrics import REGISTRY, Histogram, MetricsRegistry
from repro.obs.tracing import span

__all__ = ["timed", "traced"]


def traced(name: Optional[str] = None, **attrs: Any) -> Callable:
    """Decorator: run the function inside a span named *name*.

    Defaults to the function's qualified name; static attributes ride
    along on every span.  Costs one no-op context manager while
    telemetry is disabled.
    """

    def decorate(fn: Callable) -> Callable:
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with span(label, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def timed(
    histogram: Any,
    registry: Optional[MetricsRegistry] = None,
) -> Callable:
    """Decorator: observe the call's duration into *histogram*.

    *histogram* is a :class:`~repro.obs.metrics.Histogram` or a name to
    get-or-create in *registry* (default: the global one).  Durations
    are recorded only while the global switch is on; the wrapped call
    itself is never gated.
    """
    if not isinstance(histogram, Histogram):
        registry = REGISTRY if registry is None else registry
        histogram = registry.histogram(histogram)

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _state.enabled:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                histogram.observe(time.perf_counter() - start)

        return wrapper

    return decorate

