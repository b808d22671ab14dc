"""Proper schemas: canonical classes and the D1/D2 functional presentation.

Section 2 defines a (proper) schema as a weak schema whose arrow
relation additionally satisfies

* **Condition 1** — if ``p --a--> q1`` and ``p --a--> q2`` then there is
  a class ``s`` with ``s ==> q1``, ``s ==> q2`` and ``p --a--> s``.

Together with W1/W2-closedness this says every non-empty reach set
``R(p, a)`` has a **least** element: the *canonical class* of the
``a``-arrow of ``p``, written ``p -a⇀ s``.

The paper also gives an equivalent *functional* presentation in which
the canonical arrow ``⇀`` is primitive (this is how Motro [1] and
Multibase [2] axiomatise functional schemas):

* **D1** — ``p -a⇀ q1`` and ``p -a⇀ q2`` imply ``q1 = q2`` (the arrow is
  a partial function), and
* **D2** — ``q -a⇀ s`` and ``p ==> q`` imply there is ``r ==> s`` with
  ``p -a⇀ r`` (specializations refine inherited arrows).

This module implements both directions of that equivalence —
:func:`canonical_arrows` extracts ``⇀`` from a proper schema, and
:func:`from_canonical` rebuilds the full relation via
``p --a--> q  iff  ∃s . s ==> q and p -a⇀ s`` — plus the predicates and
diagnostics for properness itself.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple, Union

from repro.core.names import ClassName, Label, name, names, sort_key
from repro.core.relations import iter_bits
from repro.core.schema import DenseClosure, RowTable, Schema, SpecEdge
from repro.exceptions import (
    IncompatibleSchemasError,
    NotProperError,
    SchemaValidationError,
)

__all__ = [
    "canonical_class",
    "canonical_arrows",
    "properness_violations",
    "is_proper",
    "check_proper",
    "from_canonical",
    "check_d2",
]

CanonicalMap = Mapping[Tuple[ClassName, Label], ClassName]


def canonical_class(
    schema: Schema, cls: Union[ClassName, str], label: Label
) -> Optional[ClassName]:
    """The canonical class of the *label*-arrow of *cls*, if one exists.

    Returns the least element of ``R(cls, label)`` under the
    specialization order, or ``None`` when the reach set is empty.
    Raises :class:`~repro.exceptions.NotProperError` when the reach set
    is non-empty but has no least element (the schema is only weak at
    this arrow).  The reach row is W2-closed, so its least target is
    the ``t`` in it whose up-set ``succ[t]`` is the whole row.
    """
    dense = schema._dense
    src = schema._id_map().get(name(cls))
    row = 0 if src is None else dense.reach.get((src, label), 0)
    if not row:
        return None
    for t in iter_bits(row):
        if dense.succ[t] == row:
            return dense.names[t]
    minimal = sorted(schema.min_classes(schema.reach(cls, label)), key=sort_key)
    raise NotProperError(
        f"{name(cls)} --{label}--> has no canonical class; minimal "
        f"targets are {{{', '.join(map(str, minimal))}}}"
    )


def properness_violations(
    schema: Schema,
) -> List[Tuple[ClassName, Label, FrozenSet[ClassName]]]:
    """Every ``(p, a, MinS(R(p, a)))`` where condition 1 fails.

    The returned minimal-target sets are exactly the witnesses that the
    properization of section 4.2 turns into implicit classes.
    """
    dense = schema._dense
    return [
        (cls, label, schema.min_classes(schema.reach(cls, label)))
        for cls, label in _rows_without_least(dense, dense.reach)
    ]


def _rows_without_least(
    dense: DenseClosure, rows: RowTable
) -> List[Tuple[ClassName, Label]]:
    """The ``(p, a)`` of *rows* with no least target, in canonical order.

    *rows* are target masks on *dense*'s id table, W2-closed (upward
    closed), so a row has a least target exactly when it *is* that
    target's up-set: one set lookup per row, and nothing decodes.
    """
    up_sets = set(dense.succ)
    return sorted(
        (
            (dense.names[src], label)
            for (src, label), mask in rows.items()
            if mask not in up_sets
        ),
        key=lambda row: (sort_key(row[0]), row[1]),
    )


def is_proper(schema: Schema) -> bool:
    """Does *schema* satisfy condition 1 everywhere?

    Conditions 2 and 3 of section 2 coincide with W1 and W2, which every
    :class:`~repro.core.schema.Schema` enforces by construction, so
    properness reduces to the existence of canonical classes.
    """
    return not properness_violations(schema)


def check_proper(schema: Schema) -> Schema:
    """Return *schema* unchanged, or raise with the first violation."""
    violations = properness_violations(schema)
    if violations:
        cls, label, minimal = violations[0]
        pretty = ", ".join(str(m) for m in sorted(minimal, key=sort_key))
        raise NotProperError(
            f"schema is not proper: {cls} --{label}--> has minimal targets "
            f"{{{pretty}}} with no least element "
            f"({len(violations)} violation(s) in total)"
        )
    return schema


def canonical_arrows(schema: Schema) -> Dict[Tuple[ClassName, Label], ClassName]:
    """Extract the partial function ``⇀`` from a proper schema.

    The result maps ``(p, a)`` to the canonical class of the ``a``-arrow
    of ``p``.  D1 holds by construction (it is a dict); D2 holds because
    the schema is proper and W1-closed — both facts are exercised by the
    property tests.
    """
    check_proper(schema)
    dense = schema._dense
    least = {up: t for t, up in enumerate(dense.succ)}
    return {
        (dense.names[src], label): dense.names[least[row]]
        for (src, label), row in dense.reach.items()
    }


def check_d2(
    classes: Iterable[Union[ClassName, str]],
    spec: FrozenSet[SpecEdge],
    canon: CanonicalMap,
) -> None:
    """Verify condition D2 for a functional presentation, raising otherwise.

    D2: if ``q -a⇀ s`` and ``p ==> q`` then some ``r`` with ``r ==> s``
    has ``p -a⇀ r``.
    """
    class_set = names(classes)
    _check_d2(_order(class_set, spec), canon)
    for (p, _a), s in canon.items():
        if p not in class_set or s not in class_set:
            raise SchemaValidationError(
                f"canonical arrow {p} ⇀ {s} mentions a class outside C"
            )


def _order(
    classes: Iterable[ClassName],
    spec: Iterable[Tuple[Union[ClassName, str], Union[ClassName, str]]],
) -> Schema:
    """The specialization order on *classes* closed from *spec*, as a schema."""
    try:
        return Schema.build(classes=classes, spec=spec)
    except IncompatibleSchemasError as exc:
        raise SchemaValidationError(
            "specialization edges form a cycle: "
            + " ==> ".join(str(c) for c in exc.cycle)
        ) from None


def _check_d2(order: Schema, canon: CanonicalMap) -> None:
    """D2 against the specialization order held by *order*."""
    for (q, a), s in canon.items():
        for p in order.specializations_of(q):
            r = canon.get((p, a))
            if r is None or not order.is_spec(r, s):
                raise SchemaValidationError(
                    f"D2 fails: {p} ==> {q} and {q} -{a}⇀ {s}, but "
                    + (
                        f"{p} has no {a}-arrow"
                        if r is None
                        else f"{p} -{a}⇀ {r} and {r} =/=> {s}"
                    )
                )


def from_canonical(
    classes: Iterable[Union[ClassName, str]],
    spec: Iterable[Tuple[Union[ClassName, str], Union[ClassName, str]]],
    canon: Mapping[Tuple[Union[ClassName, str], Label], Union[ClassName, str]],
) -> Schema:
    """Build the proper schema determined by a functional presentation.

    Given classes, specialization edges (closed automatically) and a
    canonical-arrow map satisfying D1 (by construction) and D2 (checked),
    this realises the paper's translation: ``p --a--> q`` iff there is
    ``s ==> q`` with ``p -a⇀ s``.  The result is guaranteed proper.

    Each row ``(p, a)`` is the up-set of ``s`` — W2-closed, and with a
    least target.  Once D2 holds, W1 adds nothing: a ``p' ==> p`` has
    its own ``p' -a⇀ r`` with ``r ==> s``, so its row already covers
    ``p``'s.  The rows therefore go onto the order's masks unclosed.
    """
    class_set = set(names(classes))
    canon_table: Dict[Tuple[ClassName, Label], ClassName] = {}
    for (p_raw, label), s_raw in canon.items():
        p, s = name(p_raw), name(s_raw)
        class_set.add(p)
        class_set.add(s)
        canon_table[(p, label)] = s
    order = _order(class_set, spec)
    _check_d2(order, canon_table)
    dense = order._dense
    ids = order._id_map()
    rows = {
        (ids[p], label): dense.succ[ids[s]]
        for (p, label), s in canon_table.items()
    }
    return Schema._from_dense(DenseClosure(dense.names, dense.succ, rows))
