"""Typed results for the public :class:`~repro.service.MergeService` API.

``register()``, ``retire()`` and ``query()`` return frozen dataclasses —
:class:`RegisterReceipt`, :class:`RetireReceipt` and
:class:`QueryResult` — that are immutable (safe to cache and to share
across threads without copying) and compare by value.  Fields are read
as attributes; ``to_dict()`` is the conversion for JSON serialization.

>>> receipt = RegisterReceipt(accepted=2, components=2, generation=1)
>>> receipt.generation
1
>>> receipt.to_dict()
{'accepted': 2, 'components': 2, 'generation': 1}
>>> receipt == RegisterReceipt(accepted=2, components=2, generation=1)
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.core.names import ClassName
from repro.core.schema import Schema

__all__ = ["API_FORMAT", "RegisterReceipt", "QueryResult", "RetireReceipt"]

#: Version tag stamped on every document the HTTP front end emits.
API_FORMAT = "repro.api/1"


@dataclass(frozen=True)
class RegisterReceipt:
    """The outcome of one atomic ``register()`` batch.

    *accepted* counts every schema in the batch (empty schemas are
    accepted but assert nothing), *components* is the number of live
    shards after the commit, *generation* the registry generation the
    batch committed at (unchanged when nothing non-empty was given).
    """

    accepted: int
    components: int
    generation: int

    def to_dict(self) -> Dict[str, int]:
        """The pre-typed-API dict shape (JSON-ready)."""
        return {
            "accepted": self.accepted,
            "components": self.components,
            "generation": self.generation,
        }


@dataclass(frozen=True)
class RetireReceipt:
    """The outcome of one ``retire()`` call.

    *versions* lists the version numbers withdrawn by this call (already
    retired versions never re-appear), *components* the live shard count
    after the owning components were rebuilt, *generation* the registry
    generation the retirement committed at.
    """

    name: str
    versions: Tuple[int, ...]
    components: int
    generation: int

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready shape (versions as a list)."""
        return {
            "name": self.name,
            "versions": list(self.versions),
            "components": self.components,
            "generation": self.generation,
        }


@dataclass(frozen=True)
class QueryResult:
    """Everything the merged view asserts about one class name.

    All sequence fields are sorted tuples, so two results over the same
    registry state compare equal regardless of construction order, and
    the value is safe to cache without copying.
    """

    class_name: str
    component: int
    component_schemas: int
    generalizations: Tuple[str, ...]
    specializations: Tuple[str, ...]
    arrows_out: Tuple[Tuple[str, str], ...]
    arrows_in: Tuple[Tuple[str, str], ...]

    @classmethod
    def from_component(
        cls,
        merged: Schema,
        key_name: ClassName,
        component: int,
        component_schemas: int,
    ) -> "QueryResult":
        """Derive the answer for *key_name* from its component's merge."""
        return cls(
            class_name=str(key_name),
            component=component,
            component_schemas=component_schemas,
            generalizations=tuple(
                sorted(
                    str(c)
                    for c in merged.generalizations_of(key_name)
                    if c != key_name
                )
            ),
            specializations=tuple(
                sorted(
                    str(c)
                    for c in merged.specializations_of(key_name)
                    if c != key_name
                )
            ),
            arrows_out=tuple(
                sorted(
                    (label, str(target))
                    for _s, label, target in merged.arrows_from(key_name)
                )
            ),
            arrows_in=tuple(
                sorted(
                    (str(source), label)
                    for source, label, _t in merged.arrows_into(key_name)
                )
            ),
        )

    def to_dict(self) -> Dict[str, Any]:
        """The pre-typed-API dict shape (``class`` key included)."""
        return {
            "class": self.class_name,
            "component": self.component,
            "component_schemas": self.component_schemas,
            "generalizations": self.generalizations,
            "specializations": self.specializations,
            "arrows_out": self.arrows_out,
            "arrows_in": self.arrows_in,
        }
