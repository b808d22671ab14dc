"""Generation-stamped snapshot caches for the merge service.

The answer to ``merged_view("Dog")`` depends on which schemas have been
registered so far, so every entry is stamped with the generation it was
computed at and checked against the current generation on lookup.

Three outcomes per lookup:

* **hit** — the entry's generation equals the current one: nothing has
  been registered since, the answer is trivially current;
* **partial hit** — the generation moved on, but the caller's
  ``still_valid(stamp)`` predicate proves the entry's inputs did not
  (only *other* shards changed).  The entry is re-stamped to the
  current generation and reused — this is what makes a mostly-read
  service cheap even under a trickle of writes to unrelated components;
* **miss** — no entry, or the entry's inputs really changed.

Every outcome is counted on registered instruments in the global
:data:`repro.obs.metrics.REGISTRY` — ``snapshot.hits``,
``snapshot.misses``, ``snapshot.revalidations`` (partial hits) and
``snapshot.evictions``, all labelled ``cache=<name>`` — and
:meth:`SnapshotCache.stats` is a thin compatibility view over those
same instruments.  Registration is last-wins per cache name, so the
registry always describes the newest cache instance (one merge service
per process in production).

>>> cache = SnapshotCache("example", maxsize=8)
>>> cache.lookup("answer", generation=1) is SnapshotCache.MISS
True
>>> cache.store("answer", 42, generation=1, stamp=("shard", 1))
42
>>> cache.lookup("answer", generation=1)
42
>>> cache.lookup("answer", generation=2, still_valid=lambda s: True)
42
>>> cache.stats()["partial_hits"]
1
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, NamedTuple, Optional

from repro.core.schema import DenseClosure, Schema
from repro.obs.metrics import REGISTRY, Counter

__all__ = ["ComponentSnapshot", "SnapshotCache"]


class Sentinel:
    """A unique marker object with a readable repr.

    Distinct from every cacheable value (``None`` and ``False`` are
    legitimate cache entries).  Equality is identity (inherited from
    ``object``), so callers compare with ``is`` against the specific
    instance; two sentinels with the same name are still distinct.
    """

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return f"<{self._name}>"


class ComponentSnapshot(NamedTuple):
    """One component's merged view, frozen in dense id-table form.

    The payload is the component shard's :class:`DenseClosure` — its
    :class:`~repro.perf.namespace.NameSpace` id table plus the bitmask
    closure arrays — so a snapshot serializes without re-walking any
    schema object graph: each class name is written exactly once (at
    its id position) and every relation row is integers.  ``sid`` /
    ``generation`` identify which shard state the snapshot captured;
    ``schemas`` counts the registered schemas folded into it.
    """

    sid: int
    generation: int
    schemas: int
    dense: DenseClosure

    def to_dict(self) -> Dict[str, Any]:
        """The ``repro.snapshot/1`` JSON document for this component."""
        from repro.io.json_io import snapshot_to_dict

        return snapshot_to_dict(
            self.dense,
            component={
                "sid": self.sid,
                "generation": self.generation,
                "schemas": self.schemas,
            },
        )

    def schema(self) -> "Schema":
        """Decode back to an interned :class:`~repro.core.schema.Schema`."""
        return self.dense.to_schema()


class SnapshotCache:
    """A bounded LRU of generation-stamped answers.

    Entries are ``(value, generation, stamp)``; *stamp* is an opaque
    caller-supplied fingerprint of the entry's inputs (e.g. the shard id
    and shard generation an answer was derived from), consulted by the
    partial-hit predicate.  ``lookup`` returns :data:`SnapshotCache.MISS`
    on a miss so ``None``/``False`` values are cacheable.

    Counter updates are plain instrument increments.  The cache itself
    is GIL-tolerant: the merge service consults it from lock-free read
    paths, so concurrent ``store``/``lookup``/eviction races are
    handled defensively (see ``_evict``) and cost at worst a recompute,
    never a wrong answer.
    """

    MISS = Sentinel("SnapshotCache.MISS")

    __slots__ = ("name", "maxsize", "_hits", "_misses", "_partial", "_evictions", "_table")

    def __init__(self, name: str, maxsize: int = 256) -> None:
        self.name = name  # frozen-after-init
        self.maxsize = maxsize  # frozen-after-init
        self._hits = REGISTRY.register(Counter("snapshot.hits", cache=name))
        self._misses = REGISTRY.register(Counter("snapshot.misses", cache=name))
        self._partial = REGISTRY.register(
            Counter("snapshot.revalidations", cache=name)
        )
        self._evictions = REGISTRY.register(
            Counter("snapshot.evictions", cache=name)
        )
        self._table: Dict[Hashable, Any] = {}

    # Compatibility views over the registered instruments.
    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def partial_hits(self) -> int:
        return self._partial.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    def lookup(
        self,
        key: Hashable,
        generation: int,
        still_valid: Optional[Callable[[Any], bool]] = None,
    ) -> Any:
        """The cached answer for *key* at *generation*, or ``MISS``.

        *still_valid* receives the entry's stamp when the generation has
        moved on; returning ``True`` means the entry's inputs are
        untouched, so the answer is reused (and re-stamped) as a partial
        hit.  Stale entries are dropped on sight.
        """
        table = self._table
        entry = table.pop(key, None)
        if entry is None:
            self._misses.inc()
            return SnapshotCache.MISS
        value, stamped_generation, stamp = entry
        if stamped_generation == generation:
            self._hits.inc()
            table[key] = entry
            return value
        if still_valid is not None and still_valid(stamp):
            self._partial.inc()
            table[key] = (value, generation, stamp)
            return value
        self._misses.inc()
        return SnapshotCache.MISS

    def store(
        self,
        key: Hashable,
        value: Any,
        generation: int,
        stamp: Any = None,
    ) -> Any:
        """Record *value* for *key* at *generation* (evicting LRU-first)."""
        table = self._table
        while len(table) >= self.maxsize:
            try:
                table.pop(next(iter(table)), None)
                self._evictions.inc()
            except (StopIteration, RuntimeError):
                # Concurrent clear/resize mid-scan; eviction is
                # best-effort, correctness never depends on it.
                break
        table[key] = (value, generation, stamp)
        return value

    def __len__(self) -> int:
        return len(self._table)

    def clear(self) -> None:
        """Drop every entry (counters are kept — they are telemetry)."""
        self._table.clear()

    def stats(self) -> Dict[str, int]:
        """The pre-telemetry dict shape, read from the instruments."""
        return {
            "size": len(self._table),
            "maxsize": self.maxsize,
            "hits": self._hits.value,
            "misses": self._misses.value,
            "partial_hits": self._partial.value,
            "evictions": self._evictions.value,
        }
