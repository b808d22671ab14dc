"""When does an instance satisfy a schema?

The readings come straight from the paper's informal glosses:

* ``p ==> q`` — "all the instances of p are also instances of q":
  ``extent(p) ⊆ extent(q)``;
* ``p --a--> q`` (plain schemas) — "any instance of the class p must
  have an a-attribute which is a member of the class q": every oid in
  ``extent(p)`` has a defined ``a``-value lying in ``extent(q)``;
* participation constraints (section 6) — constraint ``1`` as above;
  ``0/1`` only demands that a *defined* value be well-typed; ``0``
  (equivalently, an absent arrow in an annotated schema) *forbids* the
  value.  An oid may only carry labels its classes talk about;
* keys (section 5) — "if two people have the same social security
  number ... they are the same person": oids in one extent agreeing on
  every label of a key are equal.

Every check returns a list of human-readable violation strings (empty =
satisfied), with ``satisfies_*`` boolean wrappers; the coercion and
instance-merge theorems in the sibling modules are tested against these
definitions.
"""

from __future__ import annotations

from typing import List

from repro.core.keys import KeyedSchema
from repro.core.lower import AnnotatedSchema
from repro.core.names import sort_key
from repro.core.participation import Participation
from repro.core.schema import Schema
from repro.instances.instance import Instance

__all__ = [
    "violations_weak",
    "satisfies",
    "violations_keyed",
    "satisfies_keyed",
    "violations_annotated",
    "satisfies_annotated",
]


def violations_weak(instance: Instance, schema: Schema) -> List[str]:
    """All ways *instance* fails a plain (weak or proper) schema."""
    problems: List[str] = []
    for sub, sup in schema.strict_spec():
        stray = instance.extent(sub) - instance.extent(sup)
        if stray:
            problems.append(
                f"extent({sub}) ⊄ extent({sup}): {sorted(map(repr, stray))}"
            )
    for source, label, target in schema.sorted_arrows():
        target_extent = instance.extent(target)
        for oid in sorted(instance.extent(source), key=repr):
            value = instance.value(oid, label)
            if value is None:
                problems.append(
                    f"{oid!r} ∈ extent({source}) lacks required "
                    f"attribute {label!r}"
                )
            elif value not in target_extent:
                problems.append(
                    f"({oid!r}).{label} = {value!r} is not in "
                    f"extent({target})"
                )
    return problems


def satisfies(instance: Instance, schema: Schema) -> bool:
    """Does *instance* satisfy *schema*?"""
    return not violations_weak(instance, schema)


def violations_keyed(instance: Instance, keyed: KeyedSchema) -> List[str]:
    """Schema violations plus key-uniqueness violations (section 5)."""
    problems = violations_weak(instance, keyed.schema)
    for cls in sorted(keyed.declared_classes(), key=sort_key):
        family = keyed.keys_of(cls)
        members = sorted(instance.extent(cls), key=repr)
        for key in family.min_keys:
            labels = sorted(key)
            seen = {}
            for oid in members:
                values = tuple(instance.value(oid, label) for label in labels)
                if any(v is None for v in values):
                    continue
                other = seen.get(values)
                if other is not None and other != oid:
                    problems.append(
                        f"{other!r} and {oid!r} in extent({cls}) agree on "
                        f"key {labels} but are distinct objects"
                    )
                else:
                    seen[values] = oid
    return problems


def satisfies_keyed(instance: Instance, keyed: KeyedSchema) -> bool:
    """Does *instance* satisfy schema and keys?"""
    return not violations_keyed(instance, keyed)


def violations_annotated(
    instance: Instance, schema: AnnotatedSchema
) -> List[str]:
    """Violations of a participation-annotated schema (section 6).

    * required arrows behave like plain arrows;
    * a defined value for ``(oid, label)`` must be *licensed*: some
      class of the oid must have a present ``label``-arrow whose target
      extent contains the value.  In particular an oid all of whose
      classes lack the label entirely (constraint ``0`` everywhere —
      the paper's "may not" reading) may not carry it.

    The licensing rule is deliberately existential across the oid's
    classes: a stricter per-class closed-world reading would make the
    plain→annotated embedding unsound (an object typed through one
    class would violate a sibling class that never mentions the label)
    and would falsify the section 6 federation theorem.  See
    "Licensing" in :mod:`repro.core.lower` for the discussion.
    """
    problems: List[str] = []
    for sub, sup in schema.spec:
        if sub == sup:
            continue
        stray = instance.extent(sub) - instance.extent(sup)
        if stray:
            problems.append(
                f"extent({sub}) ⊄ extent({sup}): {sorted(map(repr, stray))}"
            )
    table = schema.participation_table()
    for (source, label, target), constraint in sorted(
        table.items(), key=lambda item: (sort_key(item[0][0]), item[0][1])
    ):
        if constraint != Participation.REQUIRED:
            continue
        target_extent = instance.extent(target)
        for oid in sorted(instance.extent(source), key=repr):
            value = instance.value(oid, label)
            if value is None:
                problems.append(
                    f"{oid!r} ∈ extent({source}) lacks required "
                    f"attribute {label!r}"
                )
            elif value not in target_extent:
                problems.append(
                    f"({oid!r}).{label} = {value!r} is not in "
                    f"extent({target})"
                )
    # Licensing discipline: every defined value must be covered by a
    # present arrow of one of the oid's classes.
    schema_classes = schema.classes
    for (oid, label), value in sorted(
        instance.values().items(), key=lambda kv: (repr(kv[0][0]), kv[0][1])
    ):
        oid_classes = [
            cls for cls in instance.classes_of(oid) if cls in schema_classes
        ]
        if not oid_classes:
            continue  # the oid is outside the schema's world
        licensed = False
        spoke = False
        for cls in oid_classes:
            targets = schema.reach_present(cls, label)
            if targets:
                spoke = True
            if any(value in instance.extent(t) for t in targets):
                licensed = True
                break
        if licensed:
            continue
        if not spoke:
            pretty = ", ".join(sorted(str(c) for c in oid_classes))
            problems.append(
                f"({oid!r}).{label} is defined but none of its classes "
                f"({pretty}) has a present {label!r}-arrow (constraint 0)"
            )
        else:
            problems.append(
                f"({oid!r}).{label} = {value!r} lies in no present "
                f"{label!r}-target of any of {oid!r}'s classes"
            )
    return problems


def satisfies_annotated(instance: Instance, schema: AnnotatedSchema) -> bool:
    """Does *instance* satisfy the annotated schema?"""
    return not violations_annotated(instance, schema)
