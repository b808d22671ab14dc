"""Named benchmark workloads.

Benchmarks should not invent their parameters inline — the experiment
index in DESIGN.md refers to workloads by name, and EXPERIMENTS.md
records results against those names.  Each workload is a frozen recipe
(generator + parameters + seed) that always produces the same inputs.

Two kinds of workload live here:

* :class:`Workload` — a family of schemas to merge in one shot (the
  original benchmark inputs);
* :class:`RequestStream` — a family of *initial* schemas plus a seeded
  sequence of service requests (``view`` / ``query`` / ``register``)
  replayed against a long-lived :class:`repro.service.MergeService`
  by :func:`replay`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.schema import Schema
from repro.exceptions import InvalidRequestError, UnknownWorkloadError
from repro.generators.pathological import (
    diamond_chain_schemas,
    nfa_blowup_pair,
)
from repro.generators.random_schemas import random_schema_family

if TYPE_CHECKING:
    from repro.service.service import MergeService

__all__ = [
    "Workload",
    "WORKLOADS",
    "get_workload",
    "Request",
    "RequestStream",
    "REQUEST_STREAMS",
    "get_request_stream",
    "replay",
    "ConcurrentStream",
    "CONCURRENT_STREAMS",
    "get_concurrent_stream",
]


@dataclass(frozen=True)
class Workload:
    """A named, reproducible family of schemas to merge."""

    name: str
    description: str
    make: Callable[[], List[Schema]]

    def schemas(self) -> List[Schema]:
        """Produce the workload's schemas (always identical output)."""
        return self.make()


def _family(n_schemas, pool, classes, labels, arrow_d, spec_d, seed):
    def make() -> List[Schema]:
        return random_schema_family(
            n_schemas=n_schemas,
            pool_size=pool,
            n_classes=classes,
            n_labels=labels,
            arrow_density=arrow_d,
            spec_density=spec_d,
            seed=seed,
        )

    return make


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in [
        Workload(
            "views-small",
            "3 overlapping views, 12 classes each from a 20-class pool",
            _family(3, 20, 12, 4, 0.15, 0.12, seed=11),
        ),
        Workload(
            "views-medium",
            "4 overlapping views, 30 classes each from a 60-class pool",
            _family(4, 60, 30, 6, 0.12, 0.08, seed=23),
        ),
        Workload(
            "views-large",
            "5 overlapping views, 60 classes each from a 120-class pool",
            _family(5, 120, 60, 8, 0.08, 0.05, seed=37),
        ),
        Workload(
            "federation-wide",
            "8 thin sources, 10 classes each from a 40-class pool",
            _family(8, 40, 10, 3, 0.2, 0.1, seed=41),
        ),
        Workload(
            "diamonds-16",
            "16 stacked Figure-3 diamonds (linear implicit growth)",
            lambda: list(diamond_chain_schemas(16)),
        ),
        Workload(
            "nfa-8",
            "subset-construction adversary, k=8 (exponential Imp)",
            lambda: list(nfa_blowup_pair(8)),
        ),
        Workload(
            "nfa-12",
            "subset-construction adversary, k=12 (exponential Imp)",
            lambda: list(nfa_blowup_pair(12)),
        ),
    ]
}


def get_workload(name: str) -> Workload:
    """Look up a workload by name, with a helpful error."""
    try:
        return WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise UnknownWorkloadError(
            f"unknown workload {name!r}; known: {known}"
        ) from None


# A service request: ("view", class-name-or-None), ("query", class-name)
# or ("register", Schema).  Plain tuples so streams serialize trivially
# into benchmark records.
Request = Tuple[str, Optional[object]]


@dataclass(frozen=True)
class RequestStream:
    """A named, reproducible service workload.

    ``make()`` returns ``(initial_schemas, requests)``: the schemas the
    service starts with and the request sequence to replay against it.
    ``register`` requests carry schemas drawn from the same generated
    family (held out of the initial set), so they genuinely overlap
    existing components the way late-arriving views do.
    """

    name: str
    description: str
    make: Callable[[], Tuple[List[Schema], List[Request]]]


def _mixed_requests(
    initial: List[Schema],
    held_out: List[Schema],
    n_requests: int,
    seed: int,
) -> List[Request]:
    """A seeded view/query mix with registrations interleaved evenly."""
    rng = random.Random(seed * 31 + 7)
    known = sorted({str(c) for g in initial for c in g.classes})
    requests: List[Request] = []
    for _ in range(n_requests):
        roll = rng.random()
        if roll < 0.45:
            requests.append(("view", rng.choice(known)))
        elif roll < 0.55:
            requests.append(("view", None))
        else:
            requests.append(("query", rng.choice(known)))
    # Interleave every held-out schema at evenly spaced positions so
    # each replay exercises registration (and the invalidation it
    # causes) mid-stream, deterministically.
    for i, schema in enumerate(held_out):
        at = (i + 1) * len(requests) // (len(held_out) + 1)
        requests.insert(at, ("register", schema))
    return requests


def _request_stream(
    n_initial: int,
    n_register: int,
    n_requests: int,
    pool: int,
    classes: int,
    labels: int,
    arrow_d: float,
    spec_d: float,
    seed: int,
) -> Callable[[], Tuple[List[Schema], List[Request]]]:
    def make() -> Tuple[List[Schema], List[Request]]:
        family = random_schema_family(
            n_schemas=n_initial + n_register,
            pool_size=pool,
            n_classes=classes,
            n_labels=labels,
            arrow_density=arrow_d,
            spec_density=spec_d,
            seed=seed,
        )
        initial, held_out = family[:n_initial], family[n_initial:]
        return initial, _mixed_requests(initial, held_out, n_requests, seed)

    return make


def _sharded_stream(
    n_pods: int,
    per_pod: int,
    n_register: int,
    n_requests: int,
    pool: int,
    classes: int,
    labels: int,
    arrow_d: float,
    spec_d: float,
    seed: int,
) -> Callable[[], Tuple[List[Schema], List[Request]]]:
    """*n_pods* disjoint class pools → *n_pods* independent components.

    Each pod draws from its own prefixed pool, so the service shards the
    registry into exactly ``n_pods`` components.  The first *n_register*
    pods generate one extra schema each (same pool, same shared ranks,
    so it is guaranteed compatible); those are held out and replayed as
    mid-stream registrations that each touch exactly one component.
    """

    def make() -> Tuple[List[Schema], List[Request]]:
        initial: List[Schema] = []
        held_out: List[Schema] = []
        for pod in range(n_pods):
            extra = 1 if pod < n_register else 0
            family = random_schema_family(
                n_schemas=per_pod + extra,
                pool_size=pool,
                n_classes=classes,
                n_labels=labels,
                arrow_density=arrow_d,
                spec_density=spec_d,
                seed=seed + 1009 * pod,
                prefix=f"P{pod:02d}_",
            )
            initial.extend(family[:per_pod])
            held_out.extend(family[per_pod:])
        return initial, _mixed_requests(initial, held_out, n_requests, seed)

    return make


REQUEST_STREAMS: Dict[str, RequestStream] = {
    stream.name: stream
    for stream in [
        RequestStream(
            "service-tiny",
            "12 initial schemas, 2 late registrations, 40 requests "
            "(fast enough for unit tests and CLI smoke)",
            _request_stream(
                n_initial=12,
                n_register=2,
                n_requests=40,
                pool=24,
                classes=8,
                labels=4,
                arrow_d=0.2,
                spec_d=0.1,
                seed=11,
            ),
        ),
        RequestStream(
            "service-small",
            "40 initial schemas, 4 late registrations, 120 requests",
            _request_stream(
                n_initial=40,
                n_register=4,
                n_requests=120,
                pool=60,
                classes=14,
                labels=6,
                arrow_d=0.2,
                spec_d=0.08,
                seed=7,
            ),
        ),
        RequestStream(
            "service-mixed-200",
            "200 initial schemas (the merge-engine acceptance family), "
            "8 late registrations, 400 requests",
            _request_stream(
                n_initial=200,
                n_register=8,
                n_requests=400,
                pool=60,
                classes=14,
                labels=6,
                arrow_d=0.2,
                spec_d=0.08,
                seed=7,
            ),
        ),
        RequestStream(
            "service-sharded-small",
            "6 pods x 5 schemas over disjoint pools (6 components), "
            "3 late registrations, 120 requests",
            _sharded_stream(
                n_pods=6,
                per_pod=5,
                n_register=3,
                n_requests=120,
                pool=20,
                classes=10,
                labels=5,
                arrow_d=0.2,
                spec_d=0.1,
                seed=13,
            ),
        ),
        RequestStream(
            "service-sharded-200",
            "20 pods x 10 schemas over disjoint pools (20 components), "
            "6 late registrations, 400 requests — the service acceptance "
            "workload",
            _sharded_stream(
                n_pods=20,
                per_pod=10,
                n_register=6,
                n_requests=400,
                pool=24,
                classes=12,
                labels=6,
                arrow_d=0.2,
                spec_d=0.08,
                seed=13,
            ),
        ),
    ]
}


def get_request_stream(name: str) -> RequestStream:
    """Look up a request stream by name, with a helpful error."""
    try:
        return REQUEST_STREAMS[name]
    except KeyError:
        known = ", ".join(sorted(REQUEST_STREAMS))
        raise UnknownWorkloadError(
            f"unknown request stream {name!r}; known: {known}"
        ) from None


def replay(service: "MergeService", requests: Iterable[Request]) -> Dict[str, int]:
    """Run a request stream against *service*; returns per-kind counts."""
    counts = {"view": 0, "query": 0, "register": 0}
    for kind, payload in requests:
        if kind == "view":
            service.merged_view(payload)
        elif kind == "query":
            service.query(payload)
        elif kind == "register":
            service.register([payload])
        else:  # pragma: no cover - malformed streams are a caller bug
            raise InvalidRequestError(f"unknown request kind {kind!r}")
        counts[kind] += 1
    return counts


@dataclass(frozen=True)
class ConcurrentStream:
    """A named, reproducible *concurrent* service workload.

    ``make()`` returns ``(initial_schemas, lanes)``: one seed schema per
    writer lane (so every lane's component exists up front and readers
    have classes to query), and one request list per concurrent writer.
    Lanes draw from disjoint prefixed class pools, so ``n_writers``
    writers touch ``n_writers`` distinct components — the workload the
    per-shard locking design is supposed to run in parallel, and the one
    ``benchmarks/bench_http.py`` drives at 1/4/16 writers.
    """

    name: str
    description: str
    n_writers: int
    make: Callable[[], Tuple[List[Schema], List[List[Request]]]]


def _concurrent_lanes(
    n_writers: int,
    per_writer: int,
    pool: int,
    classes: int,
    labels: int,
    arrow_d: float,
    spec_d: float,
    seed: int,
) -> Callable[[], Tuple[List[Schema], List[List[Request]]]]:
    def make() -> Tuple[List[Schema], List[List[Request]]]:
        initial: List[Schema] = []
        lanes: List[List[Request]] = []
        for writer in range(n_writers):
            family = random_schema_family(
                n_schemas=per_writer + 1,
                pool_size=pool,
                n_classes=classes,
                n_labels=labels,
                arrow_density=arrow_d,
                spec_density=spec_d,
                seed=seed + 7919 * writer,
                prefix=f"W{writer:02d}_",
            )
            initial.append(family[0])
            lanes.append([("register", schema) for schema in family[1:]])
        return initial, lanes

    return make


def _concurrent(n_writers: int, per_writer: int = 8) -> ConcurrentStream:
    return ConcurrentStream(
        f"concurrent-disjoint-{n_writers}",
        f"{n_writers} writer lanes x {per_writer} registrations, each "
        "lane on its own disjoint class pool (one component per lane)",
        n_writers,
        _concurrent_lanes(
            n_writers=n_writers,
            per_writer=per_writer,
            pool=20,
            classes=10,
            labels=5,
            arrow_d=0.2,
            spec_d=0.1,
            seed=29,
        ),
    )


CONCURRENT_STREAMS: Dict[str, ConcurrentStream] = {
    stream.name: stream
    for stream in [_concurrent(1), _concurrent(4), _concurrent(16)]
}


def get_concurrent_stream(name: str) -> ConcurrentStream:
    """Look up a concurrent stream by name, with a helpful error."""
    try:
        return CONCURRENT_STREAMS[name]
    except KeyError:
        known = ", ".join(sorted(CONCURRENT_STREAMS))
        raise UnknownWorkloadError(
            f"unknown concurrent stream {name!r}; known: {known}"
        ) from None
