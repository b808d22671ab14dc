"""Properization: turning a weak schema into a proper one (section 4.2).

The upper merge of two proper schemas is in general only *weak*: a class
may acquire ``a``-arrows to several incomparable targets (Figure 3's
``C`` inherits ``a``-arrows to both ``B1`` and ``B2``).  The paper
repairs this by introducing *implicit classes*, one for each set of
minimal classes jointly reachable along arrows:

.. code-block:: text

    I0   = { {p} | p ∈ C }
    In+1 = { R(X, a) | X ∈ In, a ∈ L }
    I∞   = ⋃ n≥1  In
    Imp  = { MinS(X) | X ∈ I∞, |MinS(X)| > 1 }

For each ``X ∈ Imp`` a fresh class ``X̄`` (here
:class:`~repro.core.names.ImplicitName`) is added below the members of
``X``, arrows are re-targeted at the new classes, and specialization
edges between implicit classes are filled in.  The result ``Ḡ`` is a
proper schema with ``G ⊑ Ḡ``.  Implicit names record their origin, so
an iterated merge strips them (:func:`strip_implicits`) and derives them
again, which keeps it associative (the Figure 4/5 example).

Everything here runs on the weak schema's
:class:`~repro.core.schema.DenseClosure`: a reach set is one int over
its id table, ``R(X, a)`` is an OR of closed rows, ``MinS`` and the
subset tests are mask ANDs, and the output is assembled as masks and
interned through ``Schema._from_dense`` — no name-level ``any``/``all``
loops and no ``Schema.build`` re-closure (:func:`properize` explains
why the assembled rows are already closed).  The set-based
construction this replaced is kept verbatim as the property-test
oracle :func:`repro.perf.reference.reference_properize`.

The module also has the helpers the rest of the library needs:
detecting/stripping implicit classes and computing ``Imp`` on its own
(used by consistency vetting and the growth benchmarks).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.core.names import ClassName, GenName, ImplicitName, Label, sort_key
from repro.core.relations import iter_bits
from repro.core.proper import check_proper
from repro.core.schema import DenseClosure, RowTable, Schema
from repro.exceptions import SchemaValidationError

__all__ = [
    "reachable_sets",
    "implicit_sets",
    "properize",
    "strip_implicits",
    "implicit_classes_of",
    "is_implicit",
]

#: Closed rows grouped by source id: ``source_id → [(label, targets)]``.
_SourceRows = Dict[int, List[Tuple[Label, int]]]


def is_implicit(cls: ClassName) -> bool:
    """Is *cls* a class invented by (upper or lower) properization?"""
    return isinstance(cls, (ImplicitName, GenName))


def implicit_classes_of(schema: Schema) -> FrozenSet[ClassName]:
    """All invented classes currently present in *schema*."""
    return frozenset(c for c in schema.classes if is_implicit(c))


def strip_implicits(schema: Schema) -> Schema:
    """The restriction of *schema* to its user-supplied classes.

    The paper notes implicit classes "have no additional information
    associated with them"; stripping and re-deriving them is therefore
    lossless, a fact the property tests verify (properize ∘ strip ∘
    properize == properize on merge results).  A schema without
    invented classes is returned as is.
    """
    invented = implicit_classes_of(schema)
    if not invented:
        return schema
    return schema.restrict(schema.classes - invented)


def _min_mask(mask: int, strict_up: List[int]) -> int:
    """``MinS`` of the id set *mask*: drop every strict generalization."""
    above = 0
    rest = mask
    while rest:
        low = rest & -rest
        above |= strict_up[low.bit_length() - 1]
        rest ^= low
    return mask & ~above


def _source_rows(dense: DenseClosure) -> _SourceRows:
    rows: _SourceRows = {}
    for (src, label), tmask in dense.reach.items():
        rows.setdefault(src, []).append((label, tmask))
    return rows


def _reach_of(members: int, rows: _SourceRows) -> Dict[Label, int]:
    """``R(X, a)`` for every label at once: the OR of the members' rows."""
    out: Dict[Label, int] = {}
    rest = members
    while rest:
        low = rest & -rest
        rest ^= low
        for label, tmask in rows.get(low.bit_length() - 1, ()):
            out[label] = out.get(label, 0) | tmask
    return out


def _fixpoint(dense: DenseClosure) -> Tuple[Set[int], Set[int]]:
    """``(I∞, Imp)`` as id masks.

    ``I∞`` starts from the distinct closed rows — these are the
    ``R({p}, a)``.  Rows are W1-closed, so ``R(Y, a) = R(MinS(Y), a)``;
    a singleton ``MinS(Y) = {p}`` reaches only rows already seeded, so
    only the multi-element ``MinS`` masks — exactly ``Imp`` — are ever
    expanded, each once.  Empty reach sets are never kept (their
    ``MinS`` is empty and can contribute no implicit class).
    """
    strict_up = [mask ^ (1 << i) for i, mask in enumerate(dense.succ)]
    rows = _source_rows(dense)
    seen: Set[int] = set(dense.reach.values())
    frontier = list(seen)
    imp: Set[int] = set()
    while frontier:
        minimal = _min_mask(frontier.pop(), strict_up)
        if not minimal & (minimal - 1) or minimal in imp:
            continue
        imp.add(minimal)
        for reached in _reach_of(minimal, rows).values():
            if reached not in seen:
                seen.add(reached)
                frontier.append(reached)
    return seen, imp


def _decode(dense: DenseClosure, masks: Set[int]) -> Set[FrozenSet[ClassName]]:
    names = dense.names
    return {frozenset(names[i] for i in iter_bits(mask)) for mask in masks}


def reachable_sets(schema: Schema) -> Set[FrozenSet[ClassName]]:
    """The paper's ``I∞``: every non-empty ``R(X, a)`` reachable from a singleton."""
    dense = schema._dense
    return _decode(dense, _fixpoint(dense)[0])


def implicit_sets(schema: Schema) -> Set[FrozenSet[ClassName]]:
    """The paper's ``Imp``: minimal-element sets of size > 1 in ``I∞``."""
    dense = schema._dense
    return _decode(dense, _fixpoint(dense)[1])


def properize(schema: Schema) -> Schema:
    """The paper's ``G ↦ Ḡ``: embed a weak schema into a proper one.

    Follows section 4.2 on the masks of *schema*:

    1. compute ``Imp`` (:func:`implicit_sets`, called once) and encode
       each member set as a mask ``X`` with its own fresh ``X̄``;
    2. ``C̄ = C ∪ {X̄ | X ∈ Imp}``, ids in canonical ``sort_key`` order
       so equal merges intern as one object, as ``Schema.build`` does;
    3. every row ``m`` — an arrow row, or an up-set in ``S`` — becomes
       ``m ∪ ext(m)`` with ``ext(m) = {X̄ | X ⊆ m}``: an old class keeps
       its rows, ``X̄`` gets ``up(X) = ⋃ succ[x]`` as its up-set and
       ``R(X, a)`` as its ``a``-row.  That is the paper's ``Ē``
       (``x --a--> X̄`` iff ``X ⊆ R(x, a)``) and ``S̄`` (``X̄ ==> p`` iff
       some member specializes ``p``, ``p ==> X̄`` iff ``p``
       specializes every member, ``X̄ ==> Ȳ`` iff ``Y ⊆ up(X)``).

    The assembled relations need no re-closing.  ``S̄`` is transitive
    because ``up(X)`` and every ``succ[p]`` are up-closed, so
    ``Y ⊆ up(X)`` gives ``up(Y) ⊆ up(X)``; it is antisymmetric because
    each ``X`` is an antichain of two or more classes.  The rows are
    W2-closed because every row ``m`` is up-closed in ``S``
    (``s ∈ m, s ==> X̄`` gives ``X ⊆ succ[s] ⊆ m``; ``Ȳ`` in the row
    gives ``up(Y) ⊆ m``), and W1-closed because ``v ==> w`` gives
    ``R(w, a) ⊆ R(v, a)`` for every kind of ``v`` and ``w`` (the input
    rows are W1-closed, and ``w ∈ up(X)`` means some member of ``X``
    specializes ``w``), and ``ext`` is monotone.

    The result is a proper schema with ``schema ⊑ properize(schema)``;
    properness is asserted here (a mask lookup per row) and both facts
    are re-checked at scale by the property tests.  A schema with no
    multi-minimal reach sets is returned unchanged (after the same
    properness check), so ``properize`` is idempotent.

    The argument needs an input with no implicit class of its own: one
    that holds an ``ImplicitName`` and has a non-empty ``Imp`` raises
    :class:`~repro.exceptions.SchemaValidationError` before any assembly
    (:func:`~repro.core.merge.upper_merge` strips its inputs first).
    """
    imp = implicit_sets(schema)
    if not imp:
        return check_proper(schema)
    dense = schema._dense
    names = dense.names
    for cls in names:
        if isinstance(cls, ImplicitName):
            raise SchemaValidationError(
                f"cannot properize a schema that already holds the implicit "
                f"class {cls}: strip_implicits it first"
            )
    succ = dense.succ
    pos = schema._id_map()

    members = {
        ImplicitName(member_set): sum(1 << pos[cls] for cls in member_set)
        for member_set in imp
    }

    order = tuple(sorted(set(names).union(members), key=sort_key))
    out_pos = {cls: k for k, cls in enumerate(order)}
    perm = [out_pos[cls] for cls in names]
    moved = [1 << k for k in perm]
    # ext(m) = {X̄ | X ⊆ m}.  The X̄ filed under m's ids (each under its
    # lowest member) are the candidates, and one mask AND per member id
    # outside m drops those not inside m, so a member every X̄ shares (an
    # NFA's start state) costs no per-class scan.
    filed: Dict[int, Tuple[int, int]] = {}  # id → (bits of its X̄, their members)
    having: Dict[int, int] = {}  # member id → bits of the X̄ holding it
    for bar, need in members.items():
        bit = 1 << out_pos[bar]
        low = (need & -need).bit_length() - 1
        bits, span = filed.get(low, (0, 0))
        filed[low] = (bits | bit, span | need)
        for j in iter_bits(need):
            having[j] = having.get(j, 0) | bit
    memo: Dict[int, int] = {}

    def out(mask: int) -> int:
        """``m ∪ ext(m)`` on the output ids, once per distinct mask."""
        hit = memo.get(mask)
        if hit is not None:
            return hit
        acc = ext = span = 0
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            acc |= moved[i]
            candidates = filed.get(i)
            if candidates is not None:
                ext |= candidates[0]
                span |= candidates[1]
        rest = span & ~mask
        while rest:
            low = rest & -rest
            rest ^= low
            ext &= ~having[low.bit_length() - 1]
        memo[mask] = acc = acc | ext
        return acc

    out_succ = [0] * len(order)
    for i, mask in enumerate(succ):
        out_succ[perm[i]] = out(mask)
    reach: RowTable = {}
    for (src, label), tmask in dense.reach.items():
        reach[(perm[src], label)] = out(tmask)
    rows = _source_rows(dense)
    for bar, need in members.items():
        k = out_pos[bar]
        up = 0
        rest = need
        while rest:
            low = rest & -rest
            up |= succ[low.bit_length() - 1]
            rest ^= low
        out_succ[k] |= out(up)
        for label, tmask in _reach_of(need, rows).items():
            reach[(k, label)] = out(tmask)

    return check_proper(
        Schema._from_dense(DenseClosure(order, tuple(out_succ), reach))
    )
