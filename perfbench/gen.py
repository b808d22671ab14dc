"""Seed-driven inputs for the three workloads.

Everything here is plain data built from ``random.Random(seed)``: schema
documents in the ``repro.schema/1`` wire shape, request bodies as bytes,
and job lists.  Nothing imports the program, so the inputs do not move
when the program changes, and the same seed always yields byte-identical
request streams and job lists (:func:`digest` fingerprints them).
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Dict, List, Sequence, Tuple

SCHEMA_FORMAT = "repro.schema/1"
API_FORMAT = "repro.api/1"
LABELS = ("a", "b", "c", "d")


def encode(doc: Any) -> bytes:
    """The one canonical byte form of every generated document."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def digest(parts: Sequence[bytes]) -> str:
    """A short fingerprint of a whole input stream."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()[:16]


class Pool:
    """The class names of one component, with ranks that keep spec acyclic.

    Specialization edges only go from a lower to a higher rank, and every
    view of the pool shares the ranks, so any set of views drawn from one
    pool is compatible.  Every view contains the hub class, so the views
    of one pool always form one service component.  Ranks are balanced
    and views have exact sizes, so the closed size of a component varies
    little from seed to seed.
    """

    def __init__(self, prefix: str, size: int, rng: random.Random) -> None:
        self.names = [f"{prefix}{i:02d}" for i in range(size)]
        ranks = [i % 4 for i in range(size)]
        rng.shuffle(ranks)
        self.ranks = dict(zip(self.names, ranks))

    def view(
        self, rng: random.Random, n_classes: int, n_arrows: int, n_spec: int
    ) -> Dict[str, Any]:
        classes = [self.names[0]] + rng.sample(self.names[1:], n_classes - 1)
        ranks = self.ranks
        pairs = [
            (sub, sup) for sub in classes for sup in classes if ranks[sub] < ranks[sup]
        ]
        slots = [(source, label) for source in classes for label in LABELS]
        return {
            "format": SCHEMA_FORMAT,
            "classes": sorted(classes),
            "arrows": [
                [source, label, rng.choice(classes)]
                for source, label in rng.sample(slots, n_arrows)
            ],
            "spec": [list(p) for p in rng.sample(pairs, min(n_spec, len(pairs)))],
        }


def _zipf_cum_weights(n: int, s: float) -> List[float]:
    total = 0.0
    cum = []
    for rank in range(n):
        total += 1.0 / (rank + 1) ** s
        cum.append(total)
    return cum


# ----------------------------------------------------------------------
# read-mostly
# ----------------------------------------------------------------------

READ_COMPONENTS = 40
READ_SCHEMAS_PER_COMPONENT = 8
READ_POOL = 24
READ_VIEW_SHARE = 0.15
READ_ZIPF_S = 1.1


def read_mostly(seed: int, n_reads: int, n_writes: int) -> Dict[str, Any]:
    """Seed batches, a skewed read path list, and one-schema write bodies.

    Each seed batch registers one component, so component ids are
    0..READ_COMPONENTS-1 in batch order.  Writes add a compatible view
    to a random existing component.
    """
    rng = random.Random(seed)
    pools = [
        Pool(f"r{c:02d}_", READ_POOL, rng) for c in range(READ_COMPONENTS)
    ]

    def schema(pool: Pool) -> Dict[str, Any]:
        return pool.view(rng, n_classes=8, n_arrows=4, n_spec=2)

    seed_docs = [
        [schema(p) for _ in range(READ_SCHEMAS_PER_COMPONENT)] for p in pools
    ]
    seed_batches = [
        encode({"format": API_FORMAT, "schemas": docs}) for docs in seed_docs
    ]
    # Only classes the seed registers: every read must find its class.
    classes = sorted({c for docs in seed_docs for d in docs for c in d["classes"]})
    hot = list(classes)
    rng.shuffle(hot)
    cum = _zipf_cum_weights(len(hot), READ_ZIPF_S)
    reads: List[str] = []
    for _ in range(n_reads):
        if rng.random() < READ_VIEW_SHARE:
            reads.append(f"/v1/components/{rng.randrange(READ_COMPONENTS)}/view")
        else:
            reads.append(f"/v1/query/{rng.choices(hot, cum_weights=cum)[0]}")
    writes = [
        encode({"format": API_FORMAT, "schemas": [schema(rng.choice(pools))]})
        for _ in range(n_writes)
    ]
    return {
        "seed_batches": seed_batches,
        "classes": classes,
        "reads": reads,
        "writes": writes,
    }


# ----------------------------------------------------------------------
# durable-ingest
# ----------------------------------------------------------------------

INGEST_COMPONENTS = 16
INGEST_POOL = 30
INGEST_DELETE_SHARE = 0.05
INGEST_GET_SHARE = 0.10
INGEST_BATCH_SHARE = 0.2
INGEST_SUPERSEDE_SHARE = 0.3


def durable_ingest(seed: int, n_ops: int) -> List[Tuple[str, str, bytes]]:
    """A closed-loop op stream ``(method, path, body)`` valid at every prefix.

    Names are never reused once retired, and a batch never names one
    schema twice, so every op in the stream expects 200.
    """
    rng = random.Random(seed)
    pools = [
        Pool(f"d{c:02d}_", INGEST_POOL, rng) for c in range(INGEST_COMPONENTS)
    ]
    pool_of: Dict[str, Pool] = {}
    live: List[str] = []
    ops: List[Tuple[str, str, bytes]] = []
    counter = 0
    for _ in range(n_ops):
        roll = rng.random()
        if live and roll < INGEST_DELETE_SHARE:
            name = live.pop(rng.randrange(len(live)))
            ops.append(("DELETE", f"/v1/schemas/{name}", b""))
            continue
        if live and roll < INGEST_DELETE_SHARE + INGEST_GET_SHARE:
            ops.append(("GET", f"/v1/schemas/{rng.choice(live)}", b""))
            continue
        size = rng.randrange(2, 5) if rng.random() < INGEST_BATCH_SHARE else 1
        entries = []
        named = set()
        for _ in range(size):
            if live and rng.random() < INGEST_SUPERSEDE_SHARE:
                name = rng.choice(live)
                if name in named:
                    continue
            else:
                counter += 1
                name = f"n{counter:05d}"
                pool_of[name] = rng.choice(pools)
                live.append(name)
            named.add(name)
            entries.append({
                "name": name,
                "schema": pool_of[name].view(rng, n_classes=7, n_arrows=4, n_spec=2),
            })
        ops.append((
            "POST",
            "/v1/schemas",
            encode({"format": API_FORMAT, "schemas": entries}),
        ))
    return ops


# ----------------------------------------------------------------------
# proper-merge
# ----------------------------------------------------------------------

#: Jobs come in cycles of this many, each with a fixed mix, so every
#: stretch of a run sees the same proportion of each kind.
MERGE_CYCLE = 20
MERGE_CYCLE_DIAMONDS = 2
MERGE_CYCLE_NFAS = 1
#: nfa_blowup_pair(k) for k = 3..7 in turn.  k = 8 takes ~0.6 s, as long
#: as ~50 random jobs, and would dominate whichever run it fell in.
MERGE_NFA_KS = (3, 4, 5, 6, 7)
#: Diamond chains of k stacked Figure-3 diamonds, k taken in turn.  The
#: adversaries are fixed families; only their order depends on the seed.
MERGE_DIAMOND_KS = (2, 4, 6, 8, 10, 12)


def renamed(view: Dict[str, Any], prefix: str) -> Dict[str, Any]:
    """*view* with every class name prefixed: the same structure, but
    sharing no name (and so no interned or cached value) with the original."""
    return {
        "format": view["format"],
        "classes": [prefix + c for c in view["classes"]],
        "arrows": [[prefix + s, label, prefix + t] for s, label, t in view["arrows"]],
        "spec": [[prefix + a, prefix + b] for a, b in view["spec"]],
    }


def _diamond_chain(k: int) -> List[Dict[str, Any]]:
    """Figure 3 stacked k times: one implicit class per diamond."""
    spec = []
    arrows = []
    for i in range(k):
        spec += [[f"C{i}", f"A{i}"], [f"C{i}", f"B{i}"]]
        arrows += [[f"A{i}", "a", f"P{i}"], [f"B{i}", "a", f"Q{i}"]]
    return [
        {"format": SCHEMA_FORMAT, "classes": [], "arrows": [], "spec": spec},
        {"format": SCHEMA_FORMAT, "classes": [], "arrows": arrows, "spec": []},
    ]


def _nfa_pair(k: int) -> List[Dict[str, Any]]:
    """Two proper schemas whose merge is the k-th-from-last NFA (2^k subsets)."""
    chain = [["q0", "a", "q0"], ["q0", "b", "q0"]]
    for i in range(1, k):
        chain += [[f"q{i}", "a", f"q{i + 1}"], [f"q{i}", "b", f"q{i + 1}"]]
    return [
        {
            "format": SCHEMA_FORMAT,
            "classes": [f"q{i}" for i in range(k + 1)],
            "arrows": chain,
            "spec": [],
        },
        {
            "format": SCHEMA_FORMAT,
            "classes": [],
            "arrows": [["q0", "a", "q1"]],
            "spec": [],
        },
    ]


def adversary_suite() -> List[Dict[str, Any]]:
    """One job of each adversary size: the same set for every seed."""
    return [
        {"kind": "diamond", "views": _diamond_chain(k)} for k in MERGE_DIAMOND_KS
    ] + [{"kind": "nfa", "views": _nfa_pair(k)} for k in MERGE_NFA_KS]


def proper_merge(seed: int, n_jobs: int) -> List[Dict[str, Any]]:
    """``{"kind", "views"}`` jobs: random view families plus adversaries.

    Random families are 3-8 overlapping views (every count equally often)
    of 10 classes drawn from one 24-class pool, so tens of classes once
    merged.  The list opens with :func:`adversary_suite`, and each cycle
    of :data:`MERGE_CYCLE` jobs after it also holds two diamond chains
    and one ``nfa_blowup_pair(k)``, in a seeded order.
    """
    rng = random.Random(seed)
    jobs = adversary_suite()
    rng.shuffle(jobs)
    cycle = 0
    while len(jobs) < n_jobs:
        block: List[Dict[str, Any]] = [
            {
                "kind": "diamond",
                "views": _diamond_chain(
                    MERGE_DIAMOND_KS[(cycle * MERGE_CYCLE_DIAMONDS + i) % len(MERGE_DIAMOND_KS)]
                ),
            }
            for i in range(MERGE_CYCLE_DIAMONDS)
        ]
        block += [
            {
                "kind": "nfa",
                "views": _nfa_pair(MERGE_NFA_KS[(cycle + i) % len(MERGE_NFA_KS)]),
            }
            for i in range(MERGE_CYCLE_NFAS)
        ]
        while len(block) < MERGE_CYCLE:
            pool = Pool(f"m{len(jobs) + len(block):04d}_", 24, rng)
            n_views = 3 + len(block) % 6
            block.append({
                "kind": "random",
                "views": [
                    pool.view(rng, n_classes=10, n_arrows=5, n_spec=4)
                    for _ in range(n_views)
                ],
            })
        rng.shuffle(block)
        jobs += block
        cycle += 1
    return jobs[:n_jobs]
