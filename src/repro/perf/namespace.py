"""Dense integer ids for class names — the substrate of the bit kernels.

Hash-consed interning (:mod:`repro.perf.interning`) makes structurally
equal names pointer-equal; a :class:`NameSpace` goes one step further
and maps each name a component has seen onto a *dense* id — ``0, 1, 2,
...`` in first-appearance order.  Dense ids buy two things the interned
objects alone cannot:

* any **set of classes** becomes one Python ``int`` used as a bitset
  (bit *i* set ⇔ class *i* is a member), so the closure kernels in
  :mod:`repro.core.relations` replace per-element ``set`` operations
  with bulk ``|``/``&``/``~`` that run word-parallel at C speed;
* the id table is the **serialization dictionary** for dense component
  snapshots (:mod:`repro.service.snapshots`): each name is encoded
  once, at its id's position, and every relation row is just integers.

A ``NameSpace`` is append-only in normal operation — an id, once
assigned, always denotes the same name, which is what makes masks
stored anywhere (closure rows, snapshots) stable.  The one
sanctioned exception is :meth:`truncate`, which rolls back a *freshly
interned tail* during the atomic-``add_schema`` failure path of
:class:`repro.perf.closure.ClosureBuilder`.

>>> from repro.core.names import name
>>> space = NameSpace()
>>> space.intern(name("Dog")), space.intern(name("Animal"))
(0, 1)
>>> space.intern(name("Dog"))  # idempotent: same name, same id
0
>>> space.encode([name("Dog"), name("Animal")])  # a 2-class bitset
3
>>> [str(cls) for cls in space.decode(0b10)]
['Animal']
>>> twin = space.clone()
>>> twin.intern(name("Cat"))
2
>>> len(space), len(twin)  # clones share no state
(2, 3)
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.names import ClassName

__all__ = ["NameSpace"]


class NameSpace:
    """A bidirectional ``ClassName ↔ dense id`` table for one component.

    Ids are assigned contiguously from 0 in interning order, so a
    ``NameSpace`` of *n* names pairs with length-*n* lists of masks
    (``succ``/``pred`` in the builder) and ``n``-bit bitsets.  Lookup
    in both directions is O(1): a dict for ``name → id``, a list for
    ``id → name``.
    """

    __slots__ = ("_ids", "_names")

    def __init__(self, names: Iterable[ClassName] = ()) -> None:
        """A table of *names*, which must be distinct, with ids in order."""
        self._names: List[ClassName] = list(names)
        self._ids: Dict[ClassName, int] = dict(
            zip(self._names, range(len(self._names)))
        )

    def intern(self, cls: ClassName) -> int:
        """The dense id of *cls*, assigning the next free id if new."""
        idx = self._ids.get(cls)
        if idx is None:
            idx = len(self._names)
            self._ids[cls] = idx
            self._names.append(cls)
        return idx

    def id_of(self, cls: ClassName) -> Optional[int]:
        """The id of *cls*, or ``None`` if it was never interned."""
        return self._ids.get(cls)

    def name_of(self, ident: int) -> ClassName:
        """The name with dense id *ident* (raises IndexError if unused)."""
        return self._names[ident]

    def names(self) -> Tuple[ClassName, ...]:
        """Every interned name, position = dense id (a snapshot)."""
        return tuple(self._names)

    def encode(self, classes: Iterable[ClassName]) -> int:
        """The bitset of an (already interned) collection of names.

        Raises :class:`KeyError` on a name this space has never seen —
        encoding must not allocate ids as a side effect.
        """
        mask = 0
        ids = self._ids
        for cls in classes:
            mask |= 1 << ids[cls]
        return mask

    def decode(self, mask: int) -> Iterator[ClassName]:
        """The names whose bits are set in *mask*, ascending by id."""
        names = self._names
        while mask:
            low = mask & -mask
            yield names[low.bit_length() - 1]
            mask ^= low

    def clone(self) -> "NameSpace":
        """An independent copy — same ids, no shared mutable state."""
        twin = NameSpace()
        twin._ids = dict(self._ids)
        twin._names = list(self._names)
        return twin

    def truncate(self, size: int) -> None:
        """Forget every id ``>= size`` (rollback of a fresh tail only).

        The caller must guarantee that no retained structure still
        references the dropped ids; :class:`ClosureBuilder.add_schema
        <repro.perf.closure.ClosureBuilder>` does, because the ids it
        rolls back were interned by the very call that failed.
        """
        for cls in self._names[size:]:
            del self._ids[cls]
        del self._names[size:]

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, cls: object) -> bool:
        return cls in self._ids

    def __repr__(self) -> str:
        return f"NameSpace(size={len(self._names)})"
