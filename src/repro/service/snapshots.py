"""The export form of one component's merged view.

:class:`ComponentSnapshot` is what ``MergeService.component_snapshot``
returns.  Like every derived answer, it is memoized on the immutable
shard it came from (:class:`repro.service.shards.Shard`).
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple

from repro.core.schema import DenseClosure, Schema

__all__ = ["ComponentSnapshot"]


class ComponentSnapshot(NamedTuple):
    """One component's merged view, frozen in dense id-table form.

    The payload is the component shard's :class:`DenseClosure` — its
    id table (names in dense-id order) plus the bitmask closure
    arrays — so a snapshot serializes without re-walking any
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
