"""Shared fixtures and hypothesis strategies for the test suite.

The central strategy is :func:`schemas` — random small weak schemas
built through ``Schema.build`` with an acyclicity-by-construction
specialization (edges only point from lower to higher class index), so
generated schemas are always valid and any family of them is always
compatible.  ``schema_pairs``/``schema_triples`` draw from one shared
class universe so merges actually overlap.
"""

from __future__ import annotations

from typing import Tuple

import pytest
from hypothesis import strategies as st

from repro.core.lower import AnnotatedSchema
from repro.core.participation import Participation
from repro.core.schema import Schema
from repro.io.json_io import name_to_json, schema_to_dict

CLASS_UNIVERSE = [f"K{i}" for i in range(8)]
LABEL_UNIVERSE = ["a", "b", "c"]


@st.composite
def schemas(
    draw,
    max_classes: int = 6,
    universe: Tuple[str, ...] = tuple(CLASS_UNIVERSE),
    labels: Tuple[str, ...] = tuple(LABEL_UNIVERSE),
):
    """A random weak schema over the shared universe."""
    pool = list(universe)
    count = draw(st.integers(min_value=0, max_value=min(max_classes, len(pool))))
    chosen = draw(
        st.lists(
            st.sampled_from(pool), min_size=count, max_size=count, unique=True
        )
    ) if count else []
    if not chosen:
        return Schema.empty()
    index = {cls: pool.index(cls) for cls in chosen}
    spec_candidates = [
        (sub, sup)
        for sub in chosen
        for sup in chosen
        if index[sub] < index[sup]
    ]
    spec = [
        edge
        for edge in spec_candidates
        if draw(st.booleans()) and draw(st.integers(0, 2)) == 0
    ]
    arrow_candidates = [
        (source, label, target)
        for source in chosen
        for label in labels
        for target in chosen
    ]
    arrows = draw(
        st.lists(
            st.sampled_from(arrow_candidates),
            min_size=0,
            max_size=min(6, len(arrow_candidates)),
        )
    ) if arrow_candidates else []
    return Schema.build(classes=chosen, arrows=arrows, spec=spec)


@st.composite
def schema_docs(draw, max_classes: int = 6):
    """A :func:`schemas` draw and a ``repro.schema/1`` document of it.

    The document comes in one of three forms: closed
    (``schema_to_dict``); its generators (spec covers and non-inherited
    arrows) shuffled, with duplicate edges and reflexive spec pairs;
    or its closed edges shuffled with only the classes no edge names
    listed, so every other class is named by its edges alone.
    """
    schema = draw(schemas(max_classes=max_classes))
    closed = schema_to_dict(schema)
    form = draw(st.sampled_from(("closed", "generators", "edge-only")))
    if form == "closed":
        return schema, closed

    def shuffled(edges: list) -> list:
        if not edges:
            return []
        return draw(st.permutations(
            edges + draw(st.lists(st.sampled_from(edges), max_size=3))
        ))

    if form == "generators":
        arrows = [
            [name_to_json(s), label, name_to_json(t)]
            for s, label, t in schema.own_arrows()
        ]
        spec = [[name_to_json(a), name_to_json(b)] for a, b in schema.spec_covers()]
        spec += [[c, c] for c in closed["classes"][:draw(st.integers(0, 2))]]
        classes = closed["classes"]
    else:
        arrows, spec = closed["arrows"], closed["spec"]
        on_edges = {c for edge in arrows + spec for c in (edge[0], edge[-1])}
        classes = [c for c in closed["classes"] if c not in on_edges]
    return schema, {
        "format": "repro.schema/1",
        "classes": classes,
        "arrows": shuffled(arrows),
        "spec": shuffled(spec),
    }


@st.composite
def schema_pairs(draw):
    """Two overlapping schemas (shared universe ⇒ always compatible)."""
    return draw(schemas()), draw(schemas())


@st.composite
def schema_triples(draw):
    """Three overlapping schemas."""
    return draw(schemas()), draw(schemas()), draw(schemas())


@st.composite
def annotated_schemas(draw, max_classes: int = 5):
    """A random participation-annotated schema."""
    base = draw(schemas(max_classes=max_classes))
    annotated_arrows = []
    for source, label, target in base.sorted_arrows():
        constraint = draw(
            st.sampled_from([Participation.OPTIONAL, Participation.REQUIRED])
        )
        annotated_arrows.append((source, label, target, constraint))
    return AnnotatedSchema.build(
        classes=base.classes, arrows=annotated_arrows, spec=base.spec
    )


@pytest.fixture
def dog_schema() -> Schema:
    """A small realistic schema reused across unit tests."""
    return Schema.build(
        arrows=[
            ("Dog", "owner", "Person"),
            ("Dog", "breed", "Breed"),
            ("Police-dog", "badge", "Badge"),
        ],
        spec=[("Police-dog", "Dog"), ("Guide-dog", "Dog")],
    )
