"""Bitset kernels for the closed order, and the cycle witness.

Every :class:`~repro.core.schema.Schema` holds its specialization order
``S`` as one up-set bitmask per class (``DenseClosure.succ``), so every
order question — up- and down-sets, ``MinS``, least targets, covers,
compatibility — is answered on those masks by the schema itself (see
:mod:`repro.core.schema`).  This module keeps the three primitives the
masks need and the one question masks cannot answer alone:

* :func:`iter_bits` walks the set bits of a mask;
* :func:`closure_insert_bits` delta-updates a closed order by one edge,
  the kernel under :class:`repro.perf.closure.ClosureBuilder`;
* :func:`find_cycle` names a cycle in a plain set of name pairs — the
  witness an incompatibility error carries (Proposition 4.1), found
  over the edges the inputs assert, with :func:`successors_map` as its
  adjacency index.

The set-based closure and order helpers the masks replaced survive in
:mod:`repro.perf.reference`, as the property-test oracle.

>>> find_cycle({("A", "B"), ("B", "C"), ("C", "A"), ("C", "D")})
('A', 'B', 'C', 'A')
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

T = TypeVar("T", bound=Hashable)

Pair = Tuple[T, T]

__all__ = ["iter_bits", "closure_insert_bits", "find_cycle", "successors_map"]


def successors_map(relation: AbstractSet[Pair]) -> Dict[T, Set[T]]:
    """Index a relation as ``{x: {y | (x, y) in relation}}``."""
    index: Dict[T, Set[T]] = {}
    for x, y in relation:
        index.setdefault(x, set()).add(y)
    return index


def iter_bits(mask: int) -> Iterator[int]:
    """The set bit positions of *mask*, ascending.

    The dense-id counterpart of iterating a set of classes: a bitset is
    one Python int, and ``mask & -mask`` isolates the lowest set bit in
    a single C-level operation.

    >>> list(iter_bits(0b101001))
    [0, 3, 5]
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def closure_insert_bits(
    succ: List[int],
    pred: List[int],
    sub: int,
    sup: int,
) -> None:
    """Insert ``(sub, sup)`` into a closed relation held as bitmasks.

    Node *i*'s up-set is the int ``succ[i]`` (bit *j* set ⇔ ``i ==> j``)
    and its down-set is ``pred[i]``, both reflexive (own bit always set).
    The closure is delta-updated: every node in ``down(sub)`` gains all of
    ``up(sup)`` — one edge costs that rectangle instead of re-closing the
    whole relation, and each inner set union is one ``|`` on a Python int,
    so a whole row is updated word-parallel.  This is the primitive under
    :class:`repro.perf.closure.ClosureBuilder` and the reason folding n
    schemas costs one closure, not n.

    Raises :class:`ValueError` if the edge would create a non-trivial
    cycle (``sup`` already strictly reaches ``sub``), leaving the masks
    untouched; callers translate this into their domain error.
    """
    if (succ[sub] >> sup) & 1:
        return
    if (succ[sup] >> sub) & 1:
        raise ValueError(f"inserting ({sub!r}, {sup!r}) creates a cycle")
    down = pred[sub]
    up = succ[sup]
    mask = down
    while mask:
        low = mask & -mask
        lower = low.bit_length() - 1
        mask ^= low
        gained = up & ~succ[lower]
        if gained:
            succ[lower] |= gained
    mask = up
    while mask:
        low = mask & -mask
        upper = low.bit_length() - 1
        mask ^= low
        gained = down & ~pred[upper]
        if gained:
            pred[upper] |= gained


def find_cycle(relation: AbstractSet[Pair]) -> Optional[Tuple[T, ...]]:
    """Return a witness cycle ``(x0, x1, .., x0)`` of distinct edges, or None.

    Self-loops ``(x, x)`` are ignored: the specialization order is
    reflexive by definition, so only non-trivial cycles demonstrate a
    failure of antisymmetry.
    """
    succ = {
        x: sorted(
            (y for y in ys if y != x),
            key=repr,
        )
        for x, ys in successors_map(relation).items()
    }
    visiting: Set[T] = set()
    done: Set[T] = set()
    stack: List[T] = []

    def visit(node: T) -> Optional[Tuple[T, ...]]:
        visiting.add(node)
        stack.append(node)
        for nxt in succ.get(node, ()):
            if nxt in done:
                continue
            if nxt in visiting:
                start = stack.index(nxt)
                return tuple(stack[start:]) + (nxt,)
            found = visit(nxt)
            if found is not None:
                return found
        visiting.discard(node)
        done.add(node)
        stack.pop()
        return None

    for root in sorted(succ, key=repr):
        if root not in done:
            cycle = visit(root)
            if cycle is not None:
                return cycle
    return None
