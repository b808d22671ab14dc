"""The information ordering on weak schemas and its lattice operations.

Section 4.1 orders weak schemas component-wise:

    ``G1 ⊑ G2``  iff  ``C1 ⊆ C2``, ``E1 ⊆ E2`` and ``S1 ⊆ S2``.

Reading: everything ``G1`` asserts (class existence, arrow obligations,
specializations) is also asserted by ``G2``.  The order is *bounded
complete* (Proposition 4.1): whenever two weak schemas have any common
upper bound they have a least one, computed by unioning the components
and closing — :func:`join`.  Dually, intersections of weak schemas are
always weak schemas, giving unconditional meets — :func:`meet`.

Because :func:`join` is a least upper bound in a partial order, the
induced merge is automatically associative, commutative and idempotent;
those laws are machine-checked in the property-test suite rather than
trusted.

When no upper bound exists, the witness is a cycle of specializations
the inputs assert:

>>> from repro.core.schema import Schema
>>> family = [Schema.build(spec=[("A", "B")]),
...           Schema.build(spec=[("B", "C")]),
...           Schema.build(spec=[("C", "A")])]
>>> compatible(*family[:2])
True
>>> tuple(str(c) for c in compatibility_cycle(family))
('A', 'B', 'C', 'A')
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.core import relations
from repro.core.names import ClassName, sort_key
from repro.core.schema import DenseClosure, Schema
from repro.exceptions import IncompatibleSchemasError
from repro.perf.closure import ClosureBuilder

__all__ = [
    "is_sub",
    "is_strict_sub",
    "comparable",
    "compatible",
    "compatibility_cycle",
    "join",
    "join_all",
    "meet",
    "meet_all",
    "is_upper_bound",
    "is_lower_bound",
]


def is_sub(left: Schema, right: Schema) -> bool:
    """Does ``left ⊑ right`` hold in the information ordering?"""
    if left is right:
        return True
    if not left.classes <= right.classes:
        return False
    # S1 ⊆ S2 and E1 ⊆ E2 row-wise on the masks: each of left's masks
    # moves into right's id table, and a row is contained when no moved
    # bit falls outside right's row.
    ids = right._id_map()
    mine, theirs = left._dense, right._dense
    perm = [ids[cls] for cls in mine.names]
    bits = [1 << k for k in perm]
    succ = theirs.succ
    for i, mask in enumerate(mine.succ):
        moved = 0
        while mask:
            low = mask & -mask
            moved |= bits[low.bit_length() - 1]
            mask ^= low
        if moved & ~succ[perm[i]]:
            return False
    rows = theirs.reach
    for (src, label), mask in mine.reach.items():
        moved = 0
        while mask:
            low = mask & -mask
            moved |= bits[low.bit_length() - 1]
            mask ^= low
        if moved & ~rows.get((perm[src], label), 0):
            return False
    return True


def is_strict_sub(left: Schema, right: Schema) -> bool:
    """``left ⊑ right`` and ``left != right``."""
    return is_sub(left, right) and left != right


def comparable(left: Schema, right: Schema) -> bool:
    """Are the two schemas related (either way) by ``⊑``?"""
    return is_sub(left, right) or is_sub(right, left)


def is_upper_bound(candidate: Schema, schemas: Iterable[Schema]) -> bool:
    """Is *candidate* above every schema in *schemas*?"""
    return all(is_sub(g, candidate) for g in schemas)


def is_lower_bound(candidate: Schema, schemas: Iterable[Schema]) -> bool:
    """Is *candidate* below every schema in *schemas*?"""
    return all(is_sub(candidate, g) for g in schemas)


def _cycle_witness(schemas: Sequence[Schema]) -> Tuple[ClassName, ...]:
    """A cycle of asserted edges: one in the union of the inputs' covers.

    The covers generate each ``Si``, so they generate ``(S1 ∪ .. ∪ Sn)*``
    too, and a cycle in that closure is a cycle in their union.
    """
    edges: Set[Tuple[ClassName, ClassName]] = set()
    for g in schemas:
        edges |= g.spec_covers()
    return relations.find_cycle(edges) or ()


def compatibility_cycle(
    schemas: Sequence[Schema],
) -> Optional[Tuple[ClassName, ...]]:
    """A witness cycle in ``(S1 ∪ .. ∪ Sn)*`` if one exists, else ``None``.

    Section 4.1: the collection is *compatible* iff this closure is
    antisymmetric.  The inputs fold through one
    :class:`~repro.perf.closure.ClosureBuilder` — the cycle check
    :func:`join_all` runs, on the specialization covers alone — and only
    a failing fold computes the witness, a chain of edges the inputs
    assert.
    """
    schema_list = list(schemas)
    try:
        ClosureBuilder().add_schemas(schema_list, _spec_only=True)
    except IncompatibleSchemasError:
        return _cycle_witness(schema_list)
    return None


def compatible(*schemas: Schema) -> bool:
    """Is the collection compatible (i.e. does the upper merge exist)?"""
    return compatibility_cycle(list(schemas)) is None


def join(left: Schema, right: Schema) -> Schema:
    """The least upper bound ``G1 ⊔ G2`` of Proposition 4.1.

    Raises :class:`~repro.exceptions.IncompatibleSchemasError` when the
    schemas are incompatible (no upper bound exists).

    Lattice fast paths: if one operand is below the other, the other
    *is* the join (both operands are already closed).
    """
    if left is right or is_sub(left, right):
        return right
    if is_sub(right, left):
        return left
    return join_all([left, right])


def join_all(schemas: Iterable[Schema]) -> Schema:
    """The least upper bound of a finite collection of weak schemas.

    Construction from the proof of Proposition 4.1:

    * ``C = C1 ∪ .. ∪ Cn``,
    * ``S = (S1 ∪ .. ∪ Sn)*`` — must be antisymmetric, else incompatible,
    * ``E`` = the W1/W2 closure of ``E1 ∪ .. ∪ En`` under the new ``S``.

    ``join_all([])`` is the empty schema, the bottom of the ordering, so
    the operation is a total monoid on compatible families.

    Implementation: the whole collection is folded through one
    :class:`repro.perf.closure.ClosureBuilder`.  The specialization
    closure is delta-updated per novel edge (cycles — incompatibility —
    surface during insertion, replacing the old separate compatibility
    pass that closed the union a second time) and arrows are closed once
    at the end with the grouped W1/W2 sweep.
    """
    schema_list: List[Schema] = list(schemas)
    if not schema_list:
        return Schema.empty()
    if len(schema_list) == 1:
        # A weak schema is its own join: already closed, already interned.
        return schema_list[0]
    builder = ClosureBuilder()
    try:
        builder.add_schemas(schema_list)
    except IncompatibleSchemasError:
        # The fold names only the edge that closed the cycle; the
        # witness is a whole cycle of asserted edges.
        cycle = _cycle_witness(schema_list)
        raise IncompatibleSchemasError(
            "schemas are incompatible; their combined specializations "
            "contain the cycle " + " ==> ".join(str(c) for c in cycle),
            cycle=cycle,
        ) from None
    return builder.build()


def meet(left: Schema, right: Schema) -> Schema:
    """The greatest lower bound ``G1 ⊓ G2`` under plain ``⊑``.

    Intersections of weak schemas are weak schemas (closure conditions
    are universally-quantified Horn implications, hence intersection-
    stable), so the meet always exists.  Note section 6's caveat: this
    *plain* meet discards everything the schemas disagree on; the
    participation-aware lower merge in :mod:`repro.core.lower` is the
    remedy.
    """
    return meet_all([left, right])


def meet_all(schemas: Iterable[Schema]) -> Schema:
    """The greatest lower bound of a non-empty collection.

    Each schema's masks move onto the canonical ``sort_key`` id table
    of the shared classes (restricting it there) and are ANDed, so the
    result needs no closing: it is the intersection of closed values.

    Raises :class:`ValueError` on an empty collection — the ordering has
    no top element to serve as the empty meet.
    """
    schema_list = list(schemas)
    if not schema_list:
        raise ValueError("meet of an empty collection is undefined (no top)")
    shared = frozenset.intersection(*(g.classes for g in schema_list))
    order = tuple(sorted(shared, key=sort_key))
    first = schema_list[0]._dense.reindexed(order)
    succ, rows = first.succ, first.reach
    for g in schema_list[1:]:
        dense = g._dense.reindexed(order)
        succ = tuple(a & b for a, b in zip(succ, dense.succ))
        other = dense.reach
        rows = {
            key: both
            for key, mask in rows.items()
            if (both := mask & other.get(key, 0))
        }
    return Schema._from_dense(DenseClosure(order, succ, rows))
