"""repro.service — the long-lived merge service.

The core algebra answers "what is the merge of these schemas?" once;
a system serving merged views to many users has to answer it millions
of times while schemas keep arriving.  This layer keeps the expensive
part — closure over all registered schemas — *incrementally maintained
across requests* instead of recomputed per call:

* **registry** (:class:`MergeService.register`) — batches of schemas
  fold into per-component :class:`repro.perf.ClosureBuilder`\\ s and
  commit atomically, rolling back without a trace when a batch member
  is incompatible;
* **component sharding** (:mod:`repro.service.shards`) — a union-find
  over class-name overlap splits the registry into components that
  merge independently, so an incoming schema only touches (and only
  invalidates) its own component — and, since the shards lock
  independently too, writers on disjoint components run concurrently
  while readers never lock at all (see :mod:`repro.service.service`);
* **memoized answers** — a commit publishes *new* immutable
  :class:`Shard` objects, so component views, ``query`` answers and
  :class:`ComponentSnapshot` exports are memoized on the shard they
  came from: a write drops exactly the memos of the shards it
  replaces, and shards in *other* components stay warm;
* **typed results** (:mod:`repro.service.api_types`) — ``register``
  returns a :class:`RegisterReceipt`, ``query`` a :class:`QueryResult`,
  ``retire`` a :class:`RetireReceipt`; all are frozen dataclasses,
  thread-safe to share, and convert with ``to_dict()``;
* **durable storage** (:mod:`repro.service.storage`) — every committed
  batch appends one checksummed record to an append-only log behind a
  pluggable :class:`StorageBackend` (:class:`MemoryBackend` by default,
  :class:`FileBackend` on disk); ``MergeService.open(path)`` restarts
  warm from the latest snapshot plus a log-suffix replay, and named
  :class:`RegistrationEntry` registrations gain versions and a
  retirement lifecycle (see ``docs/PERSISTENCE.md``);
* **HTTP front end** (:mod:`repro.service.http`) — an asyncio server
  exposing the registry as ``POST /v1/schemas`` / ``GET /v1/query/...``
  with a versioned JSON wire format.

``schema-merge serve [--http PORT]`` exposes the service on the
command line; ``docs/SERVICE.md`` documents the architecture, and
``benchmarks/runner.py --suite service`` measures it.

>>> from repro.core.schema import Schema
>>> from repro.service import MergeService
>>> service = MergeService()
>>> service.register([
...     Schema.build(arrows=[("Dog", "owner", "Person")],
...                  spec=[("Puppy", "Dog")]),
...     Schema.build(arrows=[("Case", "judge", "Court")]),
... ])
RegisterReceipt(accepted=2, components=2, generation=1)
>>> service.merged_view("Puppy").has_arrow("Puppy", "owner", "Person")
True
>>> service.query("Person").arrows_in
(('Dog', 'owner'), ('Puppy', 'owner'))
>>> service.service_stats()["components"]
2
"""

from __future__ import annotations

from repro.service.api_types import (
    API_FORMAT,
    QueryResult,
    RegisterReceipt,
    RetireReceipt,
)
from repro.service.http import HttpFrontend, serve_http
from repro.service.service import MergeService
from repro.service.shards import Shard, UnionFind, plan_groups
from repro.service.snapshots import ComponentSnapshot
from repro.service.storage import (
    FileBackend,
    MemoryBackend,
    RegistrationEntry,
    StorageBackend,
)

__all__ = [
    "API_FORMAT",
    "ComponentSnapshot",
    "FileBackend",
    "HttpFrontend",
    "MemoryBackend",
    "MergeService",
    "QueryResult",
    "RegisterReceipt",
    "RegistrationEntry",
    "RetireReceipt",
    "Shard",
    "StorageBackend",
    "UnionFind",
    "plan_groups",
    "serve_http",
]
