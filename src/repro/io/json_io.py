"""JSON round-tripping for every library artifact.

Schemas, keyed schemas, annotated schemas, instances and ER diagrams
all serialise to plain JSON-compatible dictionaries and back.  The
encoding is versioned (``"format"`` field) and fully deterministic
(sorted lists everywhere) so that serialised schemas can be diffed,
checked into repositories and fed to the CLI.

Class names need care: implicit and generalization names are structured
values, encoded recursively as ``{"implicit": [...]}`` /
``{"gen": [...]}``; base names are plain strings.

A ``repro.schema/1`` document decodes two ways.
:func:`schema_from_dict` closes it into a :class:`~repro.core.schema.Schema`.
:func:`generators_from_dict` does not close it: it returns the
document's *canonical generator form*
(:class:`SchemaGenerators`) — every class it names, in ``sort_key``
order, and its own arrow and spec edges, deduplicated and sorted.
That form is what :class:`~repro.perf.closure.ClosureBuilder` folds,
so a reader that folds documents into a larger closure (the merge
service) closes each one once, in the fold.  Like the paper's figures,
a generator document may omit every edge the closure implies; a closed
document is a generator document too, and is its own canonical form.

Component snapshots (``repro.snapshot/1``) are the exception to the
"walk the object graph" rule: they encode a
:class:`~repro.core.schema.DenseClosure` directly — the id table
writes each name exactly once and every relation row is integers (hex
bitmask strings), so serializing a service component never re-walks
schema objects.  The decoder validates the dense invariants before
trusting a document (see :func:`snapshot_from_dict`).
"""

from __future__ import annotations

import json
from typing import Any, Dict, FrozenSet, List, Optional, Tuple, Union

from repro.core.keys import KeyFamily, KeyedSchema
from repro.core.lower import AnnotatedSchema
from repro.core.names import (
    BaseName,
    ClassName,
    GenName,
    ImplicitName,
    check_label,
    sort_key,
)
from repro.core.participation import Participation
from repro.core.relations import iter_bits
from repro.core.schema import DenseClosure, FoldLayout, Schema, SpecEdge
from repro.exceptions import SerializationError
from repro.instances.instance import Instance
from repro.models.er import ERAttribute, ERDiagram, EREntity, ERRelationship
from repro.models.oo import OOAttribute, OOClass, OODiagram

__all__ = [
    "name_to_json",
    "name_from_json",
    "schema_to_dict",
    "schema_from_dict",
    "SchemaGenerators",
    "generators_from_dict",
    "generators_to_dict",
    "snapshot_to_dict",
    "snapshot_from_dict",
    "keyed_to_dict",
    "keyed_from_dict",
    "annotated_to_dict",
    "annotated_from_dict",
    "instance_to_dict",
    "instance_from_dict",
    "er_to_dict",
    "er_from_dict",
    "oo_to_dict",
    "oo_from_dict",
    "dumps",
    "canonical_dumps",
    "loads",
]

FORMAT_SCHEMA = "repro.schema/1"
FORMAT_SNAPSHOT = "repro.snapshot/1"
FORMAT_KEYED = "repro.keyed/1"
FORMAT_ANNOTATED = "repro.annotated/1"
FORMAT_INSTANCE = "repro.instance/1"
FORMAT_ER = "repro.er/1"
FORMAT_OO = "repro.oo/1"


def name_to_json(cls: ClassName) -> Union[str, Dict[str, Any]]:
    """Encode a class name (recursively for composite names)."""
    if isinstance(cls, BaseName):
        return cls.value
    if isinstance(cls, ImplicitName):
        return {
            "implicit": [
                name_to_json(m) for m in sorted(cls.members, key=sort_key)
            ]
        }
    if isinstance(cls, GenName):
        return {
            "gen": [name_to_json(m) for m in sorted(cls.members, key=sort_key)]
        }
    raise SerializationError(f"not a class name: {cls!r}")


def name_from_json(doc: Union[str, Dict[str, Any]]) -> ClassName:
    """Decode a class name."""
    if isinstance(doc, str):
        return BaseName(doc)
    if isinstance(doc, dict) and set(doc) == {"implicit"}:
        return ImplicitName(name_from_json(m) for m in doc["implicit"])
    if isinstance(doc, dict) and set(doc) == {"gen"}:
        return GenName(name_from_json(m) for m in doc["gen"])
    raise SerializationError(f"cannot decode class name from {doc!r}")


def _sorted_names(classes: Any) -> List:
    return [name_to_json(c) for c in sorted(classes, key=sort_key)]


def schema_to_dict(schema: Schema) -> Dict[str, Any]:
    """Encode a schema (full closed relations, deterministic order).

    Read straight off the schema's masks with ids in ``sort_key`` order,
    so each class name is encoded once, the rows come out already
    sorted, and the name-level views are never decoded.
    """
    dense = schema._dense
    order = tuple(sorted(dense.names, key=sort_key))
    if order != dense.names:
        dense = dense.reindexed(order)
    encoded = [name_to_json(c) for c in order]
    return {
        "format": FORMAT_SCHEMA,
        "classes": encoded,
        "arrows": [
            [encoded[src], label, encoded[t]]
            for (src, label), tmask in sorted(dense.reach.items())
            for t in iter_bits(tmask)
        ],
        "spec": [
            [encoded[i], encoded[j]]
            for i, mask in enumerate(dense.succ)
            for j in iter_bits(mask)
            if j != i
        ],
    }


def schema_from_dict(doc: Dict[str, Any]) -> Schema:
    """Decode a schema (closures recomputed, so hand-written JSON works)."""
    if doc.get("format") != FORMAT_SCHEMA:
        raise SerializationError(
            f"expected format {FORMAT_SCHEMA!r}, got {doc.get('format')!r}"
        )
    try:
        return Schema.build(
            classes=[name_from_json(c) for c in doc.get("classes", [])],
            arrows=[
                (name_from_json(s), label, name_from_json(t))
                for s, label, t in doc.get("arrows", [])
            ],
            spec=[
                (name_from_json(a), name_from_json(b))
                for a, b in doc.get("spec", [])
            ],
        )
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"malformed schema document: {exc}") from exc


class SchemaGenerators:
    """A schema document's canonical generator form — not closed.

    *classes* is every class the document names; :meth:`_fold_layout`
    is the triple :meth:`ClosureBuilder.add_schemas
    <repro.perf.closure.ClosureBuilder.add_schemas>` folds, read off the
    document's own edges: the id table (*classes* in ``sort_key``
    order), the spec edges grouped per subclass and the arrows grouped
    per ``(source, label)`` row, all sorted by position, with
    duplicates and reflexive spec pairs dropped.  The fold closes it;
    nothing here does, so a document whose own spec edges form a
    cycle decodes, and the fold refuses it.
    """

    __slots__ = ("classes", "_layout")

    def __init__(self, layout: FoldLayout) -> None:
        self.classes = frozenset(layout[0])
        self._layout = layout

    def _fold_layout(self) -> FoldLayout:
        return self._layout

    @property
    def spec(self) -> FrozenSet[SpecEdge]:
        """The document's own strict specialization edges."""
        order, groups, _rows = self._layout
        return frozenset(
            (order[i], order[j])
            for i, first, rest in groups
            for j in (first, *(rest or ()))
        )


def generators_from_dict(doc: Dict[str, Any]) -> SchemaGenerators:
    """Decode a schema document to its canonical generator form.

    Validates exactly like :func:`schema_from_dict` — the format tag,
    each name, the edge shapes, then the labels — and raises the same
    exception for a malformed document, but closes nothing.

    >>> gens = generators_from_dict({"format": "repro.schema/1",
    ...     "spec": [["Puppy", "Dog"], ["Puppy", "Dog"], ["Dog", "Dog"]]})
    >>> sorted(str(c) for c in gens.classes), generators_to_dict(gens)["spec"]
    (['Dog', 'Puppy'], [['Puppy', 'Dog']])
    """
    if doc.get("format") != FORMAT_SCHEMA:
        raise SerializationError(
            f"expected format {FORMAT_SCHEMA!r}, got {doc.get('format')!r}"
        )
    # Names get provisional ids in first-appearance order, so the edges
    # are int tuples from the start; a JSON string is decoded once.
    by_text: Dict[str, int] = {}
    by_name: Dict[ClassName, int] = {}
    table: List[ClassName] = []

    def decode(c: Any) -> int:
        if type(c) is str:
            i = by_text.get(c)
            if i is not None:
                return i
        cls = name_from_json(c)
        i = by_name.get(cls)
        if i is None:
            i = by_name[cls] = len(table)
            table.append(cls)
        if type(c) is str:
            by_text[c] = i
        return i

    try:
        for c in doc.get("classes", []):
            decode(c)
        arrows = [
            (decode(s), label, decode(t)) for s, label, t in doc.get("arrows", [])
        ]
        spec = [(decode(a), decode(b)) for a, b in doc.get("spec", [])]
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"malformed schema document: {exc}") from exc
    for _s, label, _t in arrows:
        if type(label) is not str or not label:
            check_label(label)
    ranked = sorted(range(len(table)), key=lambda i: sort_key(table[i]))
    pos = [0] * len(table)
    for rank, i in enumerate(ranked):
        pos[i] = rank
    sups: Dict[int, List[int]] = {}
    for i, j in sorted({(pos[a], pos[b]) for a, b in spec if a != b}):
        sups.setdefault(i, []).append(j)
    targets: Dict[Tuple[int, str], List[int]] = {}
    for s, label, t in sorted({(pos[s], label, pos[t]) for s, label, t in arrows}):
        targets.setdefault((s, label), []).append(t)
    order = tuple(table[i] for i in ranked)
    return SchemaGenerators((
        order,
        tuple((i, js[0], tuple(js[1:]) or None) for i, js in sups.items()),
        tuple(
            (s, label, ts[0], tuple(ts[1:]) or None)
            for (s, label), ts in targets.items()
        ),
    ))


def generators_to_dict(gens: SchemaGenerators) -> Dict[str, Any]:
    """Encode a generator form as its canonical ``repro.schema/1`` document.

    Each name is encoded once; classes, arrows and spec come out in the
    order :func:`schema_to_dict` writes them, so a closed document
    decodes and re-encodes to itself.
    """
    order, groups, rows = gens._fold_layout()
    encoded = [name_to_json(c) for c in order]
    return {
        "format": FORMAT_SCHEMA,
        "classes": encoded,
        "arrows": [
            [encoded[s], label, encoded[t]]
            for s, label, first, rest in rows
            for t in (first, *(rest or ()))
        ],
        "spec": [
            [encoded[i], encoded[j]]
            for i, first, rest in groups
            for j in (first, *(rest or ()))
        ],
    }


def snapshot_to_dict(
    dense: DenseClosure, component: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Encode a dense component closure — each name once, rows as ints.

    The id table (``names``, position = dense id) is the serialization
    dictionary: ``succ`` holds one hex bitmask per id (the reflexive-
    transitive specialization closure) and ``reach`` one
    ``[source_id, label, hex_targets]`` triple per closed arrow row.
    Nothing here walks a :class:`~repro.core.schema.Schema` object
    graph — the encoder reads the dense arrays as-is, which is what
    makes service snapshot exports cheap.  *component* is an optional
    metadata block (shard id, generation, ...) passed through verbatim.

    >>> from repro.perf.closure import ClosureBuilder
    >>> state = (ClosureBuilder().add_spec_edge("Puppy", "Dog")
    ...          .add_arrow("Dog", "owner", "Person").dense_state())
    >>> doc = snapshot_to_dict(state)
    >>> doc["names"], doc["succ"]
    (['Puppy', 'Dog', 'Person'], ['3', '2', '4'])
    >>> snapshot_from_dict(doc) == state
    True
    """
    doc: Dict[str, Any] = {
        "format": FORMAT_SNAPSHOT,
        "names": [name_to_json(c) for c in dense.names],
        "succ": [format(mask, "x") for mask in dense.succ],
        "reach": [
            [src, label, format(tmask, "x")]
            for (src, label), tmask in sorted(dense.reach.items())
        ],
    }
    if component is not None:
        doc["component"] = dict(component)
    return doc


def snapshot_from_dict(doc: Dict[str, Any]) -> DenseClosure:
    """Decode a dense component closure, validating every invariant.

    Unlike :func:`schema_from_dict` (which re-closes, so hand-written
    documents are welcome), a snapshot claims to *be* closed — the
    decoder checks reflexivity, transitivity, antisymmetry, id ranges
    and W1/W2-closedness via :meth:`DenseClosure.validate
    <repro.core.schema.DenseClosure.validate>` and refuses documents
    that fail, mapping the domain error onto
    :class:`~repro.exceptions.SerializationError`.
    """
    if doc.get("format") != FORMAT_SNAPSHOT:
        raise SerializationError(
            f"expected format {FORMAT_SNAPSHOT!r}, got {doc.get('format')!r}"
        )
    try:
        names = tuple(name_from_json(c) for c in doc.get("names", []))
        succ = tuple(int(mask, 16) for mask in doc.get("succ", []))
        reach: Dict[Tuple[int, str], int] = {}
        for src, label, tmask in doc.get("reach", []):
            if not isinstance(src, int) or not isinstance(label, str):
                raise SerializationError(
                    f"malformed reach row [{src!r}, {label!r}, ...]"
                )
            reach[(src, label)] = int(tmask, 16)
    except (TypeError, ValueError) as exc:
        raise SerializationError(
            f"malformed snapshot document: {exc}"
        ) from exc
    if len(set(names)) != len(names):
        raise SerializationError("snapshot id table repeats a name")
    dense = DenseClosure(names, succ, reach)
    try:
        dense.validate()
    except ValueError as exc:
        raise SerializationError(f"invalid snapshot: {exc}") from exc
    return dense


def keyed_to_dict(keyed: KeyedSchema) -> Dict[str, Any]:
    """Encode a keyed schema."""
    return {
        "format": FORMAT_KEYED,
        "schema": schema_to_dict(keyed.schema),
        "keys": [
            {
                "class": name_to_json(cls),
                "families": [sorted(k) for k in keyed.keys_of(cls)],
            }
            for cls in sorted(keyed.declared_classes(), key=sort_key)
        ],
    }


def keyed_from_dict(doc: Dict[str, Any]) -> KeyedSchema:
    """Decode a keyed schema."""
    if doc.get("format") != FORMAT_KEYED:
        raise SerializationError(
            f"expected format {FORMAT_KEYED!r}, got {doc.get('format')!r}"
        )
    schema = schema_from_dict(doc["schema"])
    keys = {
        name_from_json(entry["class"]): KeyFamily(entry["families"])
        for entry in doc.get("keys", [])
    }
    return KeyedSchema(schema, keys, check_spec_monotone=False)


def annotated_to_dict(schema: AnnotatedSchema) -> Dict[str, Any]:
    """Encode an annotated schema with its participation constraints."""
    table = schema.participation_table()
    return {
        "format": FORMAT_ANNOTATED,
        "classes": _sorted_names(schema.classes),
        "arrows": [
            [
                name_to_json(s),
                label,
                name_to_json(t),
                table[(s, label, t)].value,
            ]
            for s, label, t in sorted(
                table, key=lambda e: (sort_key(e[0]), e[1], sort_key(e[2]))
            )
        ],
        "spec": [
            [name_to_json(a), name_to_json(b)]
            for a, b in sorted(
                ((a, b) for a, b in schema.spec if a != b),
                key=lambda e: (sort_key(e[0]), sort_key(e[1])),
            )
        ],
    }


def annotated_from_dict(doc: Dict[str, Any]) -> AnnotatedSchema:
    """Decode an annotated schema."""
    if doc.get("format") != FORMAT_ANNOTATED:
        raise SerializationError(
            f"expected format {FORMAT_ANNOTATED!r}, got {doc.get('format')!r}"
        )
    return AnnotatedSchema.build(
        classes=[name_from_json(c) for c in doc.get("classes", [])],
        arrows=[
            (
                name_from_json(s),
                label,
                name_from_json(t),
                Participation.parse(constraint),
            )
            for s, label, t, constraint in doc.get("arrows", [])
        ],
        spec=[
            (name_from_json(a), name_from_json(b))
            for a, b in doc.get("spec", [])
        ],
    )


def _encode_oid(oid: Any) -> Union[str, List]:
    """Encode an oid: strings pass through; tuples (the disjointified
    oids produced by federation) become JSON arrays, recursively."""
    if isinstance(oid, str):
        return oid
    if isinstance(oid, tuple):
        return [_encode_oid(part) for part in oid]
    raise SerializationError(
        f"only string and tuple oids are serialisable, got {oid!r}"
    )


def _decode_oid(doc: Any) -> Union[str, tuple]:
    if isinstance(doc, str):
        return doc
    if isinstance(doc, list):
        return tuple(_decode_oid(part) for part in doc)
    raise SerializationError(f"malformed oid document: {doc!r}")


def instance_to_dict(instance: Instance) -> Dict[str, Any]:
    """Encode an instance.  String oids pass through; tuple oids (the
    shape federation's disjointification produces) are encoded as
    arrays, so fused instances round-trip exactly too."""
    encode_oid = _encode_oid

    return {
        "format": FORMAT_INSTANCE,
        "oids": sorted((encode_oid(o) for o in instance.oids), key=repr),
        "extents": [
            {
                "class": name_to_json(cls),
                "members": sorted(
                    (encode_oid(o) for o in members), key=repr
                ),
            }
            for cls, members in sorted(
                instance.extents().items(), key=lambda kv: sort_key(kv[0])
            )
        ],
        "values": [
            [encode_oid(oid), label, encode_oid(target)]
            for (oid, label), target in sorted(
                instance.values().items(), key=lambda kv: (repr(kv[0]), )
            )
        ],
    }


def instance_from_dict(doc: Dict[str, Any]) -> Instance:
    """Decode an instance."""
    if doc.get("format") != FORMAT_INSTANCE:
        raise SerializationError(
            f"expected format {FORMAT_INSTANCE!r}, got {doc.get('format')!r}"
        )
    return Instance.build(
        oids=[_decode_oid(o) for o in doc.get("oids", [])],
        extents={
            name_from_json(entry["class"]): [
                _decode_oid(o) for o in entry["members"]
            ]
            for entry in doc.get("extents", [])
        },
        values={
            (_decode_oid(oid), label): _decode_oid(target)
            for oid, label, target in doc.get("values", [])
        },
    )


def er_to_dict(diagram: ERDiagram) -> Dict[str, Any]:
    """Encode an ER diagram."""
    return {
        "format": FORMAT_ER,
        "entities": [
            {
                "name": entity.name,
                "attributes": [
                    {"name": a.name, "domain": a.domain}
                    for a in entity.attributes
                ],
                "isa": sorted(entity.isa),
                "keys": [sorted(k) for k in entity.keys],
            }
            for entity in diagram.entities
        ],
        "relationships": [
            {
                "name": rel.name,
                "roles": {role: target for role, target in rel.roles},
                "cardinalities": {
                    role: cardinality
                    for role, cardinality in rel.cardinalities
                },
                "attributes": [
                    {"name": a.name, "domain": a.domain}
                    for a in rel.attributes
                ],
                "isa": sorted(rel.isa),
                "keys": [sorted(k) for k in rel.keys],
            }
            for rel in diagram.relationships
        ],
    }


def er_from_dict(doc: Dict[str, Any]) -> ERDiagram:
    """Decode an ER diagram."""
    if doc.get("format") != FORMAT_ER:
        raise SerializationError(
            f"expected format {FORMAT_ER!r}, got {doc.get('format')!r}"
        )
    entities = [
        EREntity(
            entry["name"],
            attributes=[
                ERAttribute(a["name"], a["domain"])
                for a in entry.get("attributes", [])
            ],
            isa=entry.get("isa", []),
            keys=entry.get("keys", []),
        )
        for entry in doc.get("entities", [])
    ]
    relationships = [
        ERRelationship(
            entry["name"],
            roles=entry["roles"],
            cardinalities=entry.get("cardinalities", {}),
            attributes=[
                ERAttribute(a["name"], a["domain"])
                for a in entry.get("attributes", [])
            ],
            isa=entry.get("isa", []),
            keys=entry.get("keys", []),
        )
        for entry in doc.get("relationships", [])
    ]
    return ERDiagram(entities=entities, relationships=relationships)


def oo_to_dict(diagram: "OODiagram") -> Dict[str, Any]:
    """Encode an object-oriented class diagram."""
    return {
        "format": FORMAT_OO,
        "classes": [
            {
                "name": cls.name,
                "attributes": [
                    {"name": a.name, "type": a.type_name}
                    for a in cls.attributes
                ],
                "bases": list(cls.bases),
            }
            for cls in sorted(diagram.classes, key=lambda c: c.name)
        ],
        "value_types": sorted(diagram.value_types),
    }


def oo_from_dict(doc: Dict[str, Any]) -> "OODiagram":
    """Decode an object-oriented class diagram."""
    if doc.get("format") != FORMAT_OO:
        raise SerializationError(
            f"expected format {FORMAT_OO!r}, got {doc.get('format')!r}"
        )
    try:
        classes = [
            OOClass(
                entry["name"],
                attributes=[
                    OOAttribute(a["name"], a["type"])
                    for a in entry.get("attributes", [])
                ],
                bases=entry.get("bases", []),
            )
            for entry in doc.get("classes", [])
        ]
    except (KeyError, TypeError) as exc:
        raise SerializationError(
            f"malformed OO diagram document: {exc}"
        ) from exc
    return OODiagram(classes=classes, value_types=doc.get("value_types", []))


_DECODERS = {
    FORMAT_SCHEMA: schema_from_dict,
    FORMAT_SNAPSHOT: snapshot_from_dict,
    FORMAT_KEYED: keyed_from_dict,
    FORMAT_ANNOTATED: annotated_from_dict,
    FORMAT_INSTANCE: instance_from_dict,
    FORMAT_ER: er_from_dict,
    FORMAT_OO: oo_from_dict,
}

_ENCODERS = [
    (Schema, schema_to_dict),
    (DenseClosure, snapshot_to_dict),
    (KeyedSchema, keyed_to_dict),
    (AnnotatedSchema, annotated_to_dict),
    (Instance, instance_to_dict),
    (ERDiagram, er_to_dict),
    (OODiagram, oo_to_dict),
]


def dumps(artifact: Any, indent: int = 2) -> str:
    """Serialise any supported artifact to a JSON string."""
    for kind, encoder in _ENCODERS:
        if isinstance(artifact, kind):
            return json.dumps(encoder(artifact), indent=indent)
    raise SerializationError(
        f"cannot serialise objects of type {type(artifact).__name__}"
    )


def canonical_dumps(doc: Any) -> str:
    """One canonical JSON text per document: sorted keys, no whitespace.

    The checksum substrate of the durable registry
    (``repro.service.storage``): log records and snapshot files store a
    CRC of this encoding, so integrity verification must re-produce the
    byte-identical text on every platform.  ``ensure_ascii`` keeps the
    output 7-bit (checksums over codepoints, not encoder moods), and
    rejecting NaN keeps the text round-trippable by any JSON parser.

    >>> canonical_dumps({"b": 1, "a": [1, 2]})
    '{"a":[1,2],"b":1}'
    """
    return json.dumps(
        doc,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


def loads(text: str) -> Any:
    """Deserialise a JSON string produced by :func:`dumps` (any format)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SerializationError("top-level JSON value must be an object")
    decoder = _DECODERS.get(doc.get("format"))
    if decoder is None:
        raise SerializationError(
            f"unknown or missing format field: {doc.get('format')!r}"
        )
    return decoder(doc)
