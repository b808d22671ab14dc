"""Schema restructuring — the §7 "normal form" for structural conflicts.

"An attribute in one schema may look like an entity in another schema,
or a many-one relationship may be a single arrow in one schema but
introduce a relationship node in another.  In these cases, the merge
will not resolve the differences but present both interpretations.  To
force an integration, we need some kind of normal form."

This module supplies the two rewrites that normal form needs, each a
pure schema-to-schema function:

* :func:`reify_attribute` — promote an arrow ``p --a--> d`` into an
  entity-style pattern: a fresh class ``A`` (the reified attribute)
  with ``p --a--> A`` and ``A --value--> d``.  This is how one makes an
  "attribute" schema agree with a schema that modelled the same thing
  as an entity.
* :func:`reify_relationship` — promote a direct arrow ``p --r--> q``
  into a relationship node ``R`` with role arrows ``R --src--> p`` and
  ``R --tgt--> q`` (the many-one-relationship-vs-arrow conflict).
  :func:`inline_relationship` is the inverse rewrite for binary
  relationship nodes whose key makes them functional.

All rewrites operate on the *source* class's own arrow (inherited
copies are regenerated by the W1/W2 closure) and leave every other
part of the schema untouched, so they compose and can be driven from a
conflict report.
"""

from __future__ import annotations

from typing import Union

from repro.core.names import ClassName, Label, name
from repro.core.schema import Schema
from repro.exceptions import SchemaValidationError

__all__ = [
    "reify_attribute",
    "reify_relationship",
    "inline_relationship",
]

NameLike = Union[ClassName, str]


def _own_arrow_targets(schema: Schema, cls: ClassName, label: Label):
    """Minimal targets of cls's label-arrow (the non-redundant ones)."""
    targets = schema.reach(cls, label)
    if not targets:
        raise SchemaValidationError(
            f"{cls} has no {label!r}-arrow to restructure"
        )
    return schema.min_classes(targets)


def reify_attribute(
    schema: Schema,
    cls: NameLike,
    label: Label,
    entity_name: NameLike,
    value_label: Label = "value",
) -> Schema:
    """Promote the attribute ``cls --label--> d`` into an entity.

    The arrow's canonical target(s) ``d`` become the target of a
    ``value_label`` arrow out of the new entity; ``cls`` keeps an arrow
    under the same label, now pointing at the entity.  After reifying,
    a schema that modelled ``address`` as a string attribute merges
    cleanly with one that modelled ``Address`` as an entity.
    """
    source = name(cls)
    entity = name(entity_name)
    if entity in schema.classes:
        raise SchemaValidationError(
            f"cannot reify onto existing class {entity}"
        )
    targets = _own_arrow_targets(schema, source, label)
    kept_arrows = [
        (s, a, t)
        for (s, a, t) in schema.arrows
        if not (a == label and schema.is_spec(s, source))
    ]
    new_arrows = [(source, label, entity)]
    new_arrows.extend((entity, value_label, target) for target in targets)
    return Schema.build(
        classes=set(schema.classes) | {entity},
        arrows=kept_arrows + new_arrows,
        spec=schema.spec,
    )


def reify_relationship(
    schema: Schema,
    cls: NameLike,
    label: Label,
    relationship_name: NameLike,
    source_role: Label = "src",
    target_role: Label = "tgt",
) -> Schema:
    """Promote the arrow ``cls --label--> q`` into a relationship node.

    Produces ``R --source_role--> cls`` and ``R --target_role--> q``,
    dropping the direct arrow.  This matches a schema that modelled the
    association with an explicit node (the paper's Lives example), at
    the usual cost: the functional (many-one) reading of the arrow is
    now carried by a key on ``R`` rather than by the graph shape, so
    callers integrating keyed schemas should add
    ``KeyFamily.of({source_role})`` to the new node.
    """
    source = name(cls)
    node = name(relationship_name)
    if node in schema.classes:
        raise SchemaValidationError(
            f"cannot reify onto existing class {node}"
        )
    targets = _own_arrow_targets(schema, source, label)
    kept_arrows = [
        (s, a, t)
        for (s, a, t) in schema.arrows
        if not (a == label and schema.is_spec(s, source))
    ]
    new_arrows = [(node, source_role, source)]
    new_arrows.extend((node, target_role, target) for target in targets)
    return Schema.build(
        classes=set(schema.classes) | {node},
        arrows=kept_arrows + new_arrows,
        spec=schema.spec,
    )


def inline_relationship(
    schema: Schema,
    relationship: NameLike,
    source_role: Label,
    target_role: Label,
    label: Label,
) -> Schema:
    """Collapse a binary relationship node into a direct arrow.

    The inverse of :func:`reify_relationship`: the node's
    ``source_role`` target gains a ``label``-arrow to the node's
    ``target_role`` target, and the node disappears.  Only meaningful
    when the relationship is many-one from the source side (a key on
    ``source_role``); the function performs the structural rewrite and
    leaves that judgement to the caller, as the paper leaves it to the
    designer.
    """
    node = name(relationship)
    if node not in schema.classes:
        raise SchemaValidationError(f"no class named {node}")
    source_targets = schema.min_classes(schema.reach(node, source_role))
    value_targets = schema.min_classes(schema.reach(node, target_role))
    if len(source_targets) != 1 or len(value_targets) != 1:
        raise SchemaValidationError(
            f"{node} is not an inlineable binary relationship: roles "
            f"{source_role!r}/{target_role!r} must each have one "
            "canonical target"
        )
    (source,) = source_targets
    (target,) = value_targets
    other_labels = schema.out_labels(node) - {source_role, target_role}
    if other_labels:
        raise SchemaValidationError(
            f"{node} carries extra arrows {sorted(other_labels)}; inline "
            "would lose them"
        )
    if schema.arrows_into(node):
        raise SchemaValidationError(
            f"{node} is referenced by other arrows; cannot inline"
        )
    without = schema.without_classes([node])
    return without.with_arrow(source, label, target)
