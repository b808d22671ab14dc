"""Seeded random generation of schemas, keyed schemas and instances.

The paper evaluates nothing empirically; its conclusion explicitly
leaves open "how many implicit classes can be introduced in the merge"
on realistic inputs.  These generators supply the missing workload: a
deterministic (seeded) family of weak/proper schemas whose size, label
vocabulary, arrow density, specialization density and inter-schema
overlap are all dials, so benchmarks can sweep them and property tests
can fuzz the algebra.

Design notes
------------
* Specialization edges are generated *between rank levels* of a random
  ranking, which guarantees acyclicity by construction — every random
  schema is compatible with itself and the builder never has to reject.
* Overlapping families (:func:`random_schema_family`) draw their
  classes from one shared pool so that merging them actually exercises
  class unification, the way real view integration does.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.implicit import properize
from repro.core.keys import KeyFamily, KeyedSchema
from repro.core.lower import AnnotatedSchema
from repro.core.participation import Participation
from repro.core.schema import Schema
from repro.instances.instance import Instance

__all__ = [
    "random_weak_schema",
    "random_proper_schema",
    "random_schema_family",
    "random_keyed_schema",
    "random_keyed_family",
    "random_annotated_schema",
    "random_instance",
]


def _class_pool(count: int, prefix: str) -> List[str]:
    return [f"{prefix}{i:03d}" for i in range(count)]


def _label_pool(count: int) -> List[str]:
    return [f"l{i:02d}" for i in range(count)]


def random_weak_schema(
    n_classes: int = 12,
    n_labels: int = 4,
    arrow_density: float = 0.15,
    spec_density: float = 0.15,
    seed: int = 0,
    class_pool: Optional[Sequence[str]] = None,
    rng: Optional[random.Random] = None,
) -> Schema:
    """A random weak schema with roughly the requested densities.

    ``arrow_density`` is the probability that a given (source, label)
    pair carries an arrow (to a random target); ``spec_density`` the
    probability of a specialization edge between two classes of
    adjacent rank.  All randomness comes from *seed* (or an explicit
    *rng*), so every call is reproducible.
    """
    rng = rng or random.Random(seed)
    pool = list(class_pool) if class_pool is not None else _class_pool(n_classes, "C")
    if len(pool) < n_classes:
        raise ValueError(
            f"class pool of {len(pool)} cannot supply {n_classes} classes"
        )
    classes = rng.sample(pool, n_classes)
    labels = _label_pool(n_labels)

    # Acyclic specialization: assign ranks, edges only go upward in rank.
    ranks: Dict[str, int] = {cls: rng.randrange(4) for cls in classes}
    spec: List[Tuple[str, str]] = []
    for sub in classes:
        for sup in classes:
            if ranks[sub] < ranks[sup] and rng.random() < spec_density:
                spec.append((sub, sup))

    arrows: List[Tuple[str, str, str]] = []
    for source in classes:
        for label in labels:
            if rng.random() < arrow_density:
                target = rng.choice(classes)
                arrows.append((source, label, target))
    return Schema.build(classes=classes, arrows=arrows, spec=spec)


def random_proper_schema(
    n_classes: int = 12,
    n_labels: int = 4,
    arrow_density: float = 0.15,
    spec_density: float = 0.15,
    seed: int = 0,
) -> Schema:
    """A random *proper* schema: generate weak, then properize.

    The result may contain implicit classes, as a previous merge's
    would: :func:`~repro.core.merge.upper_merge` strips them from its
    inputs, and :func:`~repro.core.implicit.properize` may refuse them.
    """
    return properize(
        random_weak_schema(
            n_classes=n_classes,
            n_labels=n_labels,
            arrow_density=arrow_density,
            spec_density=spec_density,
            seed=seed,
        )
    )


def random_schema_family(
    n_schemas: int = 3,
    pool_size: int = 30,
    n_classes: int = 12,
    n_labels: int = 4,
    arrow_density: float = 0.15,
    spec_density: float = 0.1,
    seed: int = 0,
    prefix: str = "C",
) -> List[Schema]:
    """A family of schemas over one shared class pool.

    Because the schemas draw from the same pool, they overlap — same
    classes with different arrows, partial hierarchies — which is what
    makes their merge non-trivial.  Specialization ranks are shared
    across the family so the union of their specialization relations is
    acyclic: the generated family is always *compatible* (benchmarks
    that want incompatibility construct it deliberately).

    *prefix* names the pool; two families with different prefixes share
    no class names at all, which is how the service benchmarks build
    workloads with many independent components.
    """
    rng = random.Random(seed)
    pool = _class_pool(pool_size, prefix)
    ranks = {cls: rng.randrange(4) for cls in pool}
    family: List[Schema] = []
    labels = _label_pool(n_labels)
    for _index in range(n_schemas):
        classes = rng.sample(pool, n_classes)
        spec = [
            (sub, sup)
            for sub in classes
            for sup in classes
            if ranks[sub] < ranks[sup] and rng.random() < spec_density
        ]
        arrows = [
            (source, label, rng.choice(classes))
            for source in classes
            for label in labels
            if rng.random() < arrow_density
        ]
        family.append(Schema.build(classes=classes, arrows=arrows, spec=spec))
    return family


def random_keyed_schema(
    n_classes: int = 10,
    n_labels: int = 5,
    key_probability: float = 0.5,
    seed: int = 0,
) -> KeyedSchema:
    """A random schema with random (valid) key families attached.

    Keys are random non-empty subsets of each class's out-labels, so
    the structural side conditions of section 5 hold by construction.
    The assignment is *not* forced to be specialization-monotone — it
    represents raw designer input, which the merge then completes.
    """
    rng = random.Random(seed)
    schema = random_weak_schema(
        n_classes=n_classes,
        n_labels=n_labels,
        arrow_density=0.35,
        spec_density=0.1,
        seed=rng.randrange(2**31),
    )
    keys: Dict[str, KeyFamily] = {}
    for cls in schema.sorted_classes():
        labels = sorted(schema.out_labels(cls))
        if not labels or rng.random() > key_probability:
            continue
        n_keys = rng.randrange(1, 3)
        families = []
        for _k in range(n_keys):
            size = rng.randrange(1, min(3, len(labels)) + 1)
            families.append(rng.sample(labels, size))
        keys[str(cls)] = KeyFamily(families)
    return KeyedSchema(schema, keys, check_spec_monotone=False)


def random_keyed_family(
    n_schemas: int = 2,
    pool_size: int = 16,
    n_classes: int = 8,
    n_labels: int = 5,
    key_probability: float = 0.5,
    seed: int = 0,
) -> List[KeyedSchema]:
    """A *compatible* family of keyed schemas over one shared pool.

    The schema parts come from :func:`random_schema_family` (shared
    ranks ⇒ no cross-schema specialization cycles); each then gets
    random valid keys as in :func:`random_keyed_schema`.
    """
    rng = random.Random(seed)
    family = random_schema_family(
        n_schemas=n_schemas,
        pool_size=pool_size,
        n_classes=n_classes,
        n_labels=n_labels,
        arrow_density=0.3,
        spec_density=0.1,
        seed=rng.randrange(2**31),
    )
    keyed: List[KeyedSchema] = []
    for schema in family:
        keys: Dict[str, KeyFamily] = {}
        for cls in schema.sorted_classes():
            labels = sorted(schema.out_labels(cls))
            if not labels or rng.random() > key_probability:
                continue
            families = []
            for _k in range(rng.randrange(1, 3)):
                size = rng.randrange(1, min(3, len(labels)) + 1)
                families.append(rng.sample(labels, size))
            keys[str(cls)] = KeyFamily(families)
        keyed.append(KeyedSchema(schema, keys, check_spec_monotone=False))
    return keyed


def random_annotated_schema(
    n_classes: int = 10,
    n_labels: int = 4,
    arrow_density: float = 0.2,
    optional_fraction: float = 0.4,
    seed: int = 0,
) -> AnnotatedSchema:
    """A random participation-annotated schema for lower-merge tests."""
    rng = random.Random(seed)
    base = random_weak_schema(
        n_classes=n_classes,
        n_labels=n_labels,
        arrow_density=arrow_density,
        spec_density=0.1,
        seed=rng.randrange(2**31),
    )
    annotated_arrows = []
    for source, label, target in base.sorted_arrows():
        constraint = (
            Participation.OPTIONAL
            if rng.random() < optional_fraction
            else Participation.REQUIRED
        )
        annotated_arrows.append((source, label, target, constraint))
    return AnnotatedSchema.build(
        classes=base.classes, arrows=annotated_arrows, spec=base.spec
    )


def random_instance(
    schema: Schema,
    objects_per_class: int = 3,
    seed: int = 0,
) -> Instance:
    """A random instance *satisfying* a proper schema.

    Populates leaf-ward extents first and propagates membership up the
    specialization order; every required attribute is given a value in
    the arrow's target extent (creating a fresh target object when the
    extent would otherwise be empty).  The result satisfies the schema
    by construction, which the test suite cross-checks against
    :func:`repro.instances.satisfaction.satisfies`.
    """
    rng = random.Random(seed)
    extents: Dict[object, set] = {cls: set() for cls in schema.classes}
    counter = 0

    def fresh(cls) -> str:
        nonlocal counter
        counter += 1
        return f"o{counter}@{cls}"

    # Seed each class with its own objects, closed upward along spec.
    for cls in schema.sorted_classes():
        for _i in range(rng.randrange(1, objects_per_class + 1)):
            oid = fresh(cls)
            for sup in schema.generalizations_of(cls):
                extents[sup].add(oid)

    values: Dict[Tuple[str, str], str] = {}
    # Satisfy arrows: iterate to a fixpoint because giving an object an
    # attribute may add objects to extents with their own obligations.
    for _round in range(10 * len(schema.classes) + 10):
        satisfied = True
        for source, label, target in schema.sorted_arrows():
            target_pool = sorted(extents[target])
            for oid in sorted(extents[source]):
                if (oid, label) in values:
                    # Existing value must also land in this target (and,
                    # to keep spec containment intact, in everything
                    # above it).
                    if values[(oid, label)] not in extents[target]:
                        for sup in schema.generalizations_of(target):
                            extents[sup].add(values[(oid, label)])
                        satisfied = False
                    continue
                satisfied = False
                if target_pool:
                    values[(oid, label)] = rng.choice(target_pool)
                else:
                    new_oid = fresh(target)
                    for sup in schema.generalizations_of(target):
                        extents[sup].add(new_oid)
                    target_pool = [new_oid]
                    values[(oid, label)] = new_oid
        if satisfied:
            break
    return Instance.build(
        extents={cls: frozenset(members) for cls, members in extents.items()},
        values=values,
    )
