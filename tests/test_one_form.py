"""Every ``Schema`` is one ``DenseClosure``, whichever way it was made.

One parametrized test walks every public way to obtain a schema and
checks two things about the result: it is backed by a
:class:`~repro.core.schema.DenseClosure` over exactly its classes, and
its decoded ``(classes, arrows, spec)`` equal what the set-based
closure of :mod:`repro.perf.reference` computes from the same
generators.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.implicit import properize
from repro.core.names import ImplicitName, name
from repro.core.ordering import join_all, meet
from repro.core.schema import DenseClosure, Schema
from repro.io import json_io
from repro.perf.closure import ClosureBuilder
from repro.perf.reference import reference_arrow_closure, reflexive_transitive_closure
from tests.conftest import schemas


def closed(classes, arrows, spec):
    """The reference closure of raw generators, as a name-level triple."""
    arrows = {(name(s), a, name(t)) for s, a, t in arrows}
    spec = {(name(p), name(q)) for p, q in spec}
    universe = {name(c) for c in classes}
    universe |= {c for s, _a, t in arrows for c in (s, t)}
    universe |= {c for edge in spec for c in edge}
    closed_spec = reflexive_transitive_closure(spec, universe)
    return (
        frozenset(universe),
        reference_arrow_closure(arrows, closed_spec),
        closed_spec,
    )


ARROWS = [("Dog", "owner", "Person"), ("Person", "pet", "Dog")]
SPEC = [("Puppy", "Dog"), ("Dog", "Animal")]
BASE = closed(["Cat"], ARROWS, SPEC)
OTHER_ARROWS = [("Dog", "owner", "Owner")]
OTHER_SPEC = [("Puppy", "Dog"), ("Person", "Owner")]
OTHER = closed([], OTHER_ARROWS, OTHER_SPEC)


def base() -> Schema:
    return Schema.build(classes=["Cat"], arrows=ARROWS, spec=SPEC)


def other() -> Schema:
    return Schema.build(arrows=OTHER_ARROWS, spec=OTHER_SPEC)


def restricted(triple, keep):
    classes, arrows, spec = triple
    kept = classes & {name(k) for k in keep}
    return (
        kept,
        frozenset(e for e in arrows if e[0] in kept and e[2] in kept),
        frozenset(e for e in spec if e[0] in kept and e[1] in kept),
    )


def renamed(triple, table):
    table = {name(k): name(v) for k, v in table.items()}
    sub = lambda c: table.get(c, c)  # noqa: E731
    classes, arrows, spec = triple
    return (
        frozenset(map(sub, classes)),
        frozenset((sub(s), a, sub(t)) for s, a, t in arrows),
        frozenset((sub(p), sub(q)) for p, q in spec),
    )


def snapshot_round_trip() -> Schema:
    builder = ClosureBuilder()
    for sub, sup in SPEC:
        builder.add_spec_edge(sub, sup)
    for arrow in ARROWS:
        builder.add_arrow(*arrow)
    builder.add_class("Cat")
    doc = json_io.snapshot_to_dict(builder.dense_state())
    return json_io.snapshot_from_dict(doc).to_schema()


def properized() -> Schema:
    # R(A, f) = {B, C} has no least element: properization adds the
    # implicit class {B, C} below both, as the target of A --f-->.
    return properize(Schema.build(arrows=[("A", "f", "B"), ("A", "f", "C")]))


BC = ImplicitName({name("B"), name("C")})

CASES = {
    "build": (base, BASE),
    "constructor": (lambda: Schema(*BASE), BASE),
    "restrict": (
        lambda: base().restrict(["Dog", "Person", "Puppy"]),
        restricted(BASE, ["Dog", "Person", "Puppy"]),
    ),
    "rename": (
        lambda: base().rename({"Dog": "Hound"}),
        renamed(BASE, {"Dog": "Hound"}),
    ),
    "rename_labels": (
        lambda: base().rename_labels({"owner": "keeper"}),
        closed(
            ["Cat"],
            [("Dog", "keeper", "Person"), ("Person", "pet", "Dog")],
            SPEC,
        ),
    ),
    "meet": (
        lambda: meet(base(), other()),
        tuple(a & b for a, b in zip(BASE, OTHER)),
    ),
    "with_arrows": (
        lambda: base().with_arrows([("Animal", "age", "Int")]),
        closed(["Cat"], ARROWS + [("Animal", "age", "Int")], SPEC),
    ),
    "with_spec": (
        lambda: base().with_spec("Cat", "Animal"),
        closed([], ARROWS, SPEC + [("Cat", "Animal")]),
    ),
    "with_class": (
        lambda: base().with_class("Fish"),
        closed(["Cat", "Fish"], ARROWS, SPEC),
    ),
    "join_all": (
        lambda: join_all([base(), other()]),
        closed(["Cat"], ARROWS + OTHER_ARROWS, SPEC + OTHER_SPEC),
    ),
    "properize": (
        properized,
        closed([], [("A", "f", BC)], [(BC, "B"), (BC, "C")]),
    ),
    "schema_from_dict": (
        lambda: json_io.schema_from_dict(
            {
                "format": "repro.schema/1",
                "classes": ["Cat"],
                "arrows": [list(a) for a in ARROWS],
                "spec": [list(e) for e in SPEC],
            }
        ),
        BASE,
    ),
    "snapshot_from_dict": (snapshot_round_trip, BASE),
}


@pytest.mark.parametrize("make, expected", CASES.values(), ids=CASES.keys())
def test_every_schema_is_one_dense_closure(make, expected):
    schema = make()
    assert isinstance(schema._dense, DenseClosure)
    assert set(schema._dense.names) == schema.classes
    assert (schema.classes, schema.arrows, schema.spec) == expected


def test_build_and_constructor_return_one_object():
    built = base()
    assert Schema(built.classes, built.arrows, built.spec) is built


@given(schemas())
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_random_build_and_constructor_return_one_object(schema):
    # The strategy draws its schemas through Schema.build.
    assert Schema(schema.classes, schema.arrows, schema.spec) is schema
