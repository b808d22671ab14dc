"""Lifting instances into properized schemas.

Properization (upper or lower) only *adds* classes, so an instance of
the un-properized schema is almost an instance of the properized one —
except the new classes need extents.  Both directions have canonical
choices, and both are theorems checked by the test suite:

* **upper** (:func:`lift_to_properized`): the implicit class ``X̄``
  sits *below* its members, and an object belongs to it exactly when it
  belongs to every member — ``ext(X̄) = ⋂ ext(m)``.  With that choice
  every canonical arrow introduced by properization is satisfied,
  because properization only points ``p --a--> X̄`` when ``X ⊆ R(p,a)``,
  i.e. when values were already required to be in every member.
* **lower** (:func:`lift_to_lower_properized`): the generalization
  class ``Gen(M)`` sits *above* its members, and an object belongs to
  it when it belongs to some member — ``ext(Gen(M)) = ⋃ ext(m)`` —
  matching the alternative-typings reading argued in
  :mod:`repro.core.lower`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from repro.core.lower import AnnotatedSchema
from repro.core.names import ClassName, GenName, ImplicitName
from repro.core.schema import Schema
from repro.instances.instance import Instance, Oid

__all__ = ["lift_to_properized", "lift_to_lower_properized"]


def lift_to_properized(instance: Instance, properized: Schema) -> Instance:
    """Extend an instance with intersection extents for implicit classes.

    Classes of *properized* that are :class:`ImplicitName`\\ s and have
    no extent yet receive ``⋂ ext(member)``; everything else is kept
    verbatim.  If the instance already populates an implicit class the
    declared extent is kept (it may legitimately be smaller than the
    intersection only if the instance was built against a different
    schema — we keep the caller's data and let satisfaction checking
    judge it).
    """
    extents: Dict[ClassName, FrozenSet[Oid]] = instance.extents()
    for cls in properized.classes:
        if not isinstance(cls, ImplicitName) or cls in extents:
            continue
        member_extents = [instance.extent(m) for m in cls.members]
        if member_extents:
            extents[cls] = frozenset.intersection(*member_extents)
        else:
            extents[cls] = frozenset()
    return Instance(instance.oids, extents, instance.values())


def lift_to_lower_properized(
    instance: Instance, properized: AnnotatedSchema
) -> Instance:
    """Extend an instance with union extents for generalization classes."""
    extents: Dict[ClassName, FrozenSet[Oid]] = instance.extents()
    for cls in properized.classes:
        if not isinstance(cls, GenName) or cls in extents:
            continue
        combined: FrozenSet[Oid] = frozenset()
        for member in cls.members:
            combined |= instance.extent(member)
        extents[cls] = combined
    return Instance(instance.oids, extents, instance.values())
