"""Graphviz DOT output — the library's stand-in for the paper's GUI.

Produces deterministic DOT text drawing schemas in the paper's visual
language: solid labelled edges for arrows, bold double-ish (``=>``
styled) edges for specialization covers, dashed boxes for implicit
classes and rounded boxes for generalization classes.  The text can be
piped straight into ``dot -Tpng`` where Graphviz is available; the test
suite only asserts on the text.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.lower import AnnotatedSchema
from repro.core.names import ClassName, GenName, ImplicitName, sort_key
from repro.core.participation import Participation
from repro.core.schema import Schema

__all__ = ["schema_to_dot", "annotated_to_dot"]


def _quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _node_lines(classes, node_ids: Dict[ClassName, str]) -> List[str]:
    lines = []
    for cls in sorted(classes, key=sort_key):
        node_id = f"n{len(node_ids)}"
        node_ids[cls] = node_id
        attributes = [f"label={_quote(str(cls))}"]
        if isinstance(cls, ImplicitName):
            attributes.append("style=dashed")
        elif isinstance(cls, GenName):
            attributes.append("style=rounded")
        lines.append(f"  {node_id} [{', '.join(attributes)}];")
    return lines


def schema_to_dot(schema: Schema, name: str = "schema") -> str:
    """Render a schema as a DOT digraph (arrows solid, ISA bold).

    Only non-redundant edges are drawn, mirroring the paper's figures:
    specialization covers instead of the full order, and for arrows
    only those not implied by W1/W2 from another drawn arrow (i.e.
    each class's arrows to the *minimal* targets of each label, and
    only where no generalization already carries the identical arrow).
    """
    node_ids: Dict[ClassName, str] = {}
    lines = [f"digraph {_quote(name)} {{", "  rankdir=BT;", "  node [shape=box];"]
    lines.extend(_node_lines(schema.classes, node_ids))
    for sub, sup in sorted(
        schema.spec_covers(), key=lambda e: (sort_key(e[0]), sort_key(e[1]))
    ):
        lines.append(
            f"  {node_ids[sub]} -> {node_ids[sup]} "
            "[style=bold, arrowhead=onormal];"
        )
    for source, label, target in schema.own_arrows():
        lines.append(
            f"  {node_ids[source]} -> {node_ids[target]} "
            f"[label={_quote(label)}];"
        )
    lines.append("}")
    return "\n".join(lines)


def annotated_to_dot(schema: AnnotatedSchema, name: str = "schema") -> str:
    """Render an annotated schema; optional arrows are drawn dashed."""
    node_ids: Dict[ClassName, str] = {}
    lines = [f"digraph {_quote(name)} {{", "  rankdir=BT;", "  node [shape=box];"]
    lines.extend(_node_lines(schema.classes, node_ids))
    strict = sorted(
        ((a, b) for a, b in schema.spec if a != b),
        key=lambda e: (sort_key(e[0]), sort_key(e[1])),
    )
    for sub, sup in strict:
        lines.append(
            f"  {node_ids[sub]} -> {node_ids[sup]} "
            "[style=bold, arrowhead=onormal];"
        )
    table = schema.participation_table()
    for (source, label, target) in sorted(
        table, key=lambda e: (sort_key(e[0]), e[1], sort_key(e[2]))
    ):
        style = (
            ", style=dashed"
            if table[(source, label, target)] == Participation.OPTIONAL
            else ""
        )
        lines.append(
            f"  {node_ids[source]} -> {node_ids[target]} "
            f"[label={_quote(label)}{style}];"
        )
    lines.append("}")
    return "\n".join(lines)
