"""Component sharding: which schemas can possibly interact under merge.

Two weak schemas influence each other's join only through shared class
names — every specialization edge and arrow mentions only the schema's
own classes, so the least upper bound of a family factors into
independent joins of its *name-overlap components*.  The service
exploits exactly that: each component is a shard with its own
:class:`repro.perf.closure.ClosureBuilder`, a registration touches only
the shards its class names reach, and closure work never crosses a
component boundary.

:func:`plan_groups` is the pure planning half: given the current
class → shard assignment and a batch of new schemas, it unions shards
and batch members into groups without mutating anything, so the caller
can apply (or roll back) the whole batch atomically.

>>> from repro.core.schema import Schema
>>> pets = Schema.build(arrows=[("Dog", "owner", "Person")])
>>> court = Schema.build(arrows=[("Case", "judge", "Court")])
>>> plan_groups([pets, court], {})
[(set(), [0]), (set(), [1])]
>>> bridge = Schema.build(arrows=[("Person", "argues", "Case")])
>>> existing = {c: 0 for c in pets.classes} | {c: 1 for c in court.classes}
>>> plan_groups([bridge], existing)
[({0, 1}, [0])]
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.names import ClassName
from repro.core.schema import Foldable, Schema
from repro.perf.closure import ClosureBuilder
from repro.service.api_types import QueryResult
from repro.service.snapshots import ComponentSnapshot
from repro.service.storage import _Member

__all__ = ["Shard", "UnionFind", "plan_groups"]


class UnionFind:
    """Disjoint sets over arbitrary hashable nodes (path-halving find)."""

    __slots__ = ("_parent",)

    def __init__(self) -> None:
        self._parent: Dict[Hashable, Hashable] = {}

    def find(self, node: Hashable) -> Hashable:
        parent = self._parent
        if node not in parent:
            parent[node] = node
            return node
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    def union(self, left: Hashable, right: Hashable) -> Hashable:
        """Merge the two sets; returns the surviving root."""
        root_left, root_right = self.find(left), self.find(right)
        if root_left != root_right:
            self._parent[root_right] = root_left
        return root_left

    def groups(self) -> Dict[Hashable, List[Hashable]]:
        """Every node, grouped by root (roots included in their group)."""
        out: Dict[Hashable, List[Hashable]] = {}
        for node in self._parent:
            out.setdefault(self.find(node), []).append(node)
        return out


class Shard:
    """One name-overlap component: its builder, members and derived answers.

    *generation* is the service generation of the last mutation.  A
    commit never changes a published shard's content; it publishes a
    *new* shard.  So the answers derived from a shard are memoized on
    it: *view* (the merged schema), *answers* (``ClassName →
    QueryResult``), *snapshot* (the :class:`ComponentSnapshot`) and
    *bodies*, the encoded HTTP response bodies (``None`` → the view's,
    ``ClassName`` → that name's query answer).  Lock-free readers fill
    them lazily; a race costs one duplicate build, never a wrong answer.
    A commit drops exactly the memos of the shards it replaces, and
    *answers* and *bodies* only hold names the shard contains, so memo
    memory is bounded by the registry.

    *members* is a tuple of the component's held schemas
    (:class:`~repro.service.storage._Member`), each shared with the log
    record that registered it and with the lifecycle table.  A member
    restored from a snapshot cut decodes, to its generator form and
    never closed, only when a retire, a fold into another component or
    a lifecycle card reads it; a register into the component
    concatenates tuples and reads none.
    """

    __slots__ = (
        "sid", "builder", "members", "generation",
        "view", "answers", "snapshot", "bodies",
    )

    def __init__(
        self,
        sid: int,
        builder: ClosureBuilder,
        members: Tuple[_Member, ...],
        generation: int,
    ) -> None:
        self.sid = sid  # frozen-after-init
        self.builder = builder  # frozen-after-init
        self.members = members  # frozen-after-init
        self.generation = generation  # frozen-after-init
        self.view: Optional[Schema] = None
        self.answers: Dict[ClassName, QueryResult] = {}
        self.snapshot: Optional[ComponentSnapshot] = None
        self.bodies: Dict[Optional[ClassName], bytes] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"Shard(sid={self.sid}, schemas={len(self.members)}, "
            f"generation={self.generation})"
        )


def plan_groups(
    batch: Sequence[Foldable],
    class_to_sid: Dict[ClassName, int],
) -> List[Tuple[Set[int], List[int]]]:
    """Plan how a batch folds into the existing shard layout (pure).

    *batch* holds schemas or members; only their classes are read.
    Returns one ``(existing_sids, batch_indices)`` tuple per group that
    contains at least one batch schema, in first-touch order: the shards
    the group absorbs (possibly none) and the batch members that land in
    it.  Batch schemas sharing a class — directly or through a chain of
    existing shards — end up in the same group.  Shards untouched by the
    batch are not reported.
    """
    uf = UnionFind()
    first_claim: Dict[ClassName, Tuple[str, int]] = {}
    for index, schema in enumerate(batch):
        node = ("new", index)
        uf.find(node)
        for cls in schema.classes:
            sid = class_to_sid.get(cls)
            if sid is not None:
                uf.union(node, ("shard", sid))
            else:
                claimant = first_claim.setdefault(cls, node)
                if claimant != node:
                    uf.union(node, claimant)
    plans: List[Tuple[Set[int], List[int]]] = []
    by_root: Dict[Hashable, Tuple[Set[int], List[int]]] = {}
    for index in range(len(batch)):
        root = uf.find(("new", index))
        plan = by_root.get(root)
        if plan is None:
            plan = by_root[root] = (set(), [])
            plans.append(plan)
        plan[1].append(index)
    for kind, value in uf._parent:
        if kind == "shard":
            root = uf.find((kind, value))
            plan = by_root.get(root)
            if plan is not None:
                plan[0].add(value)
    return plans
