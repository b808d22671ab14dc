"""A small toolkit for finite binary relations used throughout the core.

The specialization relation ``S`` of a schema is required to be a
partial order — reflexive, transitive and antisymmetric (section 2) —
and the merge constructs ``(S1 ∪ S2)*`` and checks its antisymmetry
(Proposition 4.1).  This module provides those operations on relations
represented as ``frozenset`` of ordered pairs, together with the order-
theoretic helpers the properization needs: minimal elements (``MinS``),
least elements (canonical classes) and Hasse-diagram reduction for
rendering.

All functions are pure: they take and return immutable values and never
mutate their arguments.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

T = TypeVar("T", bound=Hashable)

Pair = Tuple[T, T]
Relation = FrozenSet[Pair]

__all__ = [
    "successors_map",
    "predecessors_map",
    "reflexive_closure",
    "transitive_closure",
    "reflexive_transitive_closure",
    "iter_bits",
    "closure_insert_bits",
    "is_reflexive",
    "is_transitive",
    "is_antisymmetric",
    "find_cycle",
    "is_partial_order",
    "minimal_elements",
    "maximal_elements",
    "least_element",
    "greatest_element",
    "down_set",
    "up_set",
    "covers",
    "topological_order",
    "restrict",
]


def successors_map(relation: AbstractSet[Pair]) -> Dict[T, Set[T]]:
    """Index a relation as ``{x: {y | (x, y) in relation}}``."""
    index: Dict[T, Set[T]] = {}
    for x, y in relation:
        index.setdefault(x, set()).add(y)
    return index


def predecessors_map(relation: AbstractSet[Pair]) -> Dict[T, Set[T]]:
    """Index a relation as ``{y: {x | (x, y) in relation}}``."""
    index: Dict[T, Set[T]] = {}
    for x, y in relation:
        index.setdefault(y, set()).add(x)
    return index


def reflexive_closure(
    relation: AbstractSet[Pair], universe: Iterable[T]
) -> Relation:
    """Add ``(x, x)`` for every ``x`` in *universe*."""
    closed = set(relation)
    closed.update((x, x) for x in universe)
    return frozenset(closed)


def transitive_closure(relation: AbstractSet[Pair]) -> Relation:
    """The least transitive relation containing *relation*.

    Implemented as a breadth-first reachability sweep from each source,
    which is ``O(V · E)`` — comfortably fast for schema-sized graphs and
    free of the cubic blow-up of Floyd-Warshall on sparse inputs.
    """
    succ = successors_map(relation)
    closed: Set[Pair] = set()
    for source in succ:
        frontier = list(succ[source])
        seen: Set[T] = set()
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(succ.get(node, ()))
        closed.update((source, target) for target in seen)
    return frozenset(closed)


def reflexive_transitive_closure(
    relation: AbstractSet[Pair], universe: Iterable[T]
) -> Relation:
    """``relation* ∪ identity`` over *universe* — the paper's ``(S1 ∪ S2)*``."""
    return reflexive_closure(transitive_closure(relation), universe)


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


def is_reflexive(relation: AbstractSet[Pair], universe: Iterable[T]) -> bool:
    """Does *relation* contain ``(x, x)`` for every ``x`` in *universe*?"""
    pairs = set(relation)
    return all((x, x) in pairs for x in universe)


def is_transitive(relation: AbstractSet[Pair]) -> bool:
    """Does ``(x, y), (y, z) ∈ relation`` imply ``(x, z) ∈ relation``?"""
    pairs = set(relation)
    succ = successors_map(relation)
    for x, y in pairs:
        for z in succ.get(y, ()):
            if (x, z) not in pairs:
                return False
    return True


def is_antisymmetric(relation: AbstractSet[Pair]) -> bool:
    """Does ``(x, y), (y, x) ∈ relation`` imply ``x == y``?"""
    pairs = set(relation)
    return all(x == y or (y, x) not in pairs for x, y in pairs)


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


def is_partial_order(
    relation: AbstractSet[Pair], universe: Iterable[T]
) -> bool:
    """Is *relation* reflexive, transitive and antisymmetric over *universe*?"""
    universe = list(universe)
    return (
        is_reflexive(relation, universe)
        and is_transitive(relation)
        and is_antisymmetric(relation)
    )


def minimal_elements(
    subset: AbstractSet[T], order: AbstractSet[Pair]
) -> FrozenSet[T]:
    """The paper's ``MinS(X)``: elements of *subset* with no strict lower bound in it.

    ``MinS(X) = {p ∈ X | ∀q ∈ X . q ⇒ p implies q = p}`` (section 4.2).
    """
    pairs = set(order)
    return frozenset(
        p
        for p in subset
        if all(q == p or (q, p) not in pairs for q in subset)
    )


def maximal_elements(
    subset: AbstractSet[T], order: AbstractSet[Pair]
) -> FrozenSet[T]:
    """Dual of :func:`minimal_elements`."""
    pairs = set(order)
    return frozenset(
        p
        for p in subset
        if all(q == p or (p, q) not in pairs for q in subset)
    )


def least_element(
    subset: AbstractSet[T], order: AbstractSet[Pair]
) -> Optional[T]:
    """The unique element of *subset* below all others, or ``None``.

    Condition 1 of section 2 demands exactly this of every reach set
    ``R(p, a)``: a least target — the *canonical class* of the arrow.

    Runs in two linear passes: a tournament sweep (if a least element
    exists it wins every comparison it enters, so it ends up as the
    candidate) followed by a verification pass.
    """
    pairs = order if isinstance(order, (set, frozenset)) else set(order)
    candidate: Optional[T] = None
    for element in subset:
        if candidate is None or (element, candidate) in pairs:
            candidate = element
    if candidate is None:
        return None
    if all((candidate, q) in pairs or candidate == q for q in subset):
        return candidate
    return None


def greatest_element(
    subset: AbstractSet[T], order: AbstractSet[Pair]
) -> Optional[T]:
    """Dual of :func:`least_element`."""
    pairs = set(order)
    for p in subset:
        if all((q, p) in pairs or p == q for q in subset):
            return p
    return None


def down_set(element: T, order: AbstractSet[Pair]) -> FrozenSet[T]:
    """All ``q`` with ``q ⇒ element`` (including *element* if reflexive)."""
    return frozenset(x for x, y in order if y == element)


def up_set(element: T, order: AbstractSet[Pair]) -> FrozenSet[T]:
    """All ``q`` with ``element ⇒ q`` (including *element* if reflexive)."""
    return frozenset(y for x, y in order if x == element)


def covers(order: AbstractSet[Pair]) -> Relation:
    """The covering relation (Hasse diagram edges) of a partial order.

    ``(x, y)`` is a cover iff ``x ⇒ y``, ``x != y`` and no distinct ``z``
    has ``x ⇒ z ⇒ y``.  Renderers draw only these edges, exactly as the
    paper omits "double arrows implied by transitivity and reflexivity".
    """
    strict = {(x, y) for x, y in order if x != y}
    pairs = set(strict)
    kept = set()
    for x, y in strict:
        if not any((x, z) in pairs and (z, y) in pairs for z in {b for a, b in pairs if a == x}):
            kept.add((x, y))
    return frozenset(kept)


def topological_order(
    universe: Iterable[T], order: AbstractSet[Pair]
) -> List[T]:
    """A deterministic linearization of a partial order, smaller first.

    Elements with no strict predecessors come first; ties are broken by
    ``repr`` so the output is stable across runs.
    """
    nodes = sorted(set(universe), key=repr)
    strict_pred = predecessors_map({(x, y) for x, y in order if x != y})
    remaining = {n: {p for p in strict_pred.get(n, set()) if p in nodes} for n in nodes}
    result: List[T] = []
    ready = [n for n in nodes if not remaining[n]]
    placed: Set[T] = set()
    while ready:
        node = ready.pop(0)
        result.append(node)
        placed.add(node)
        newly_ready = []
        for other in nodes:
            if other in placed or other in ready or other in newly_ready:
                continue
            if remaining[other] <= placed:
                newly_ready.append(other)
        ready = sorted(ready + newly_ready, key=repr)
    if len(result) != len(nodes):
        leftovers = [n for n in nodes if n not in placed]
        raise ValueError(f"relation is cyclic; could not place {leftovers!r}")
    return result


def restrict(relation: AbstractSet[Pair], universe: AbstractSet[T]) -> Relation:
    """Keep only pairs whose endpoints both lie in *universe*."""
    return frozenset((x, y) for x, y in relation if x in universe and y in universe)
