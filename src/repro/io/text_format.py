"""A compact, hand-writable text format for schemas.

JSON is exact but miserable to type; integration sessions want schema
files a designer can write in an editor.  The grammar is line-oriented
and mirrors the library's rendering conventions::

    # a comment
    class Kennel                      # declare an (isolated) class
    Police-dog ==> Dog                # specialization
    Dog --owner--> Person             # arrow (required)
    Dog --age?--> Int                 # arrow with participation 0/1
    key Transaction: {loc, at}, {card, at}   # key families

Class names may be bare words (no whitespace or reserved punctuation),
or quoted with double quotes when they need spaces; composite names
round-trip via the renderer's ``<A&B>`` (implicit) and ``[A|B]``
(generalization) forms.

:func:`parse` returns a plain :class:`~repro.core.schema.Schema`, an
:class:`~repro.core.lower.AnnotatedSchema` (when any ``?`` marks
appear) or a :class:`~repro.core.keys.KeyedSchema` (when any ``key``
lines appear); mixing ``?`` and ``key`` lines is rejected since no
merge consumes both at once.  :func:`format_schema` and friends are the
inverse writers; round trips are property-tested.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Tuple, Union

from repro.core.keys import KeyFamily, KeyedSchema
from repro.core.lower import AnnotatedSchema
from repro.core.names import (
    BaseName,
    ClassName,
    GenName,
    ImplicitName,
    sort_key,
)
from repro.core.participation import Participation
from repro.core.schema import Schema
from repro.exceptions import SerializationError

__all__ = [
    "parse",
    "format_schema",
    "format_annotated",
    "format_keyed",
]

Document = Union[Schema, AnnotatedSchema, KeyedSchema]

_ARROW_RE = re.compile(
    r"^(?P<source>.+?)\s*--(?P<label>.+?)(?P<opt>\?)?-->\s*(?P<target>.+)$"
)
_SPEC_RE = re.compile(r"^(?P<sub>.+?)\s*==>\s*(?P<sup>.+)$")
_KEY_RE = re.compile(r"^key\s+(?P<cls>.+?)\s*:\s*(?P<families>.+)$")
_CLASS_RE = re.compile(r"^class\s+(?P<cls>.+)$")


def _parse_name(text: str, line_number: int) -> ClassName:
    text = text.strip()
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return BaseName(text[1:-1])
    if text.startswith("<") and text.endswith(">"):
        members = [
            _parse_name(part, line_number) for part in text[1:-1].split("&")
        ]
        return ImplicitName(members)
    if text.startswith("[") and text.endswith("]"):
        members = [
            _parse_name(part, line_number) for part in text[1:-1].split("|")
        ]
        return GenName(members)
    if not text or re.search(r"[\s{}:,\"]", text):
        raise SerializationError(
            f"line {line_number}: invalid class name {text!r}"
        )
    return BaseName(text)


def _format_name(cls: ClassName) -> str:
    text = str(cls)
    if isinstance(cls, BaseName) and re.search(r"[\s{}:,]", text):
        return f'"{text}"'
    return text


def _strip_comment(line: str) -> str:
    # A '#' starts a comment unless inside quotes.
    out = []
    in_quotes = False
    for char in line:
        if char == '"':
            in_quotes = not in_quotes
        if char == "#" and not in_quotes:
            break
        out.append(char)
    return "".join(out).strip()


def parse(text: str) -> Document:
    """Parse the text format into the most specific artifact it uses."""
    classes: List[ClassName] = []
    arrows: List[Tuple[ClassName, str, ClassName, Participation]] = []
    spec: List[Tuple[ClassName, ClassName]] = []
    keys: Dict[ClassName, List[set]] = {}
    saw_optional = False

    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        class_match = _CLASS_RE.match(line)
        if class_match:
            classes.append(_parse_name(class_match.group("cls"), line_number))
            continue
        key_match = _KEY_RE.match(line)
        if key_match:
            cls = _parse_name(key_match.group("cls"), line_number)
            families = key_match.group("families")
            parsed = []
            for chunk in re.findall(r"\{([^}]*)\}", families):
                labels = {
                    part.strip() for part in chunk.split(",") if part.strip()
                }
                if not labels:
                    raise SerializationError(
                        f"line {line_number}: empty key set"
                    )
                parsed.append(labels)
            if not parsed:
                raise SerializationError(
                    f"line {line_number}: key line declares no {{...}} sets"
                )
            keys.setdefault(cls, []).extend(parsed)
            continue
        arrow_match = _ARROW_RE.match(line)
        if arrow_match:
            label = arrow_match.group("label").strip()
            if not label:
                raise SerializationError(
                    f"line {line_number}: empty arrow label"
                )
            optional = arrow_match.group("opt") is not None
            saw_optional = saw_optional or optional
            arrows.append(
                (
                    _parse_name(arrow_match.group("source"), line_number),
                    label,
                    _parse_name(arrow_match.group("target"), line_number),
                    Participation.OPTIONAL
                    if optional
                    else Participation.REQUIRED,
                )
            )
            continue
        spec_match = _SPEC_RE.match(line)
        if spec_match:
            spec.append(
                (
                    _parse_name(spec_match.group("sub"), line_number),
                    _parse_name(spec_match.group("sup"), line_number),
                )
            )
            continue
        raise SerializationError(
            f"line {line_number}: cannot parse {raw.strip()!r}"
        )

    if saw_optional and keys:
        raise SerializationError(
            "a document cannot mix participation marks (?) with key lines"
        )
    if saw_optional:
        return AnnotatedSchema.build(
            classes=classes, arrows=arrows, spec=spec
        )
    plain = Schema.build(
        classes=classes,
        arrows=[(s, a, t) for s, a, t, _v in arrows],
        spec=spec,
    )
    if keys:
        return KeyedSchema(
            plain,
            {cls: KeyFamily(families) for cls, families in keys.items()},
            check_spec_monotone=False,
        )
    return plain


def _format_common(
    classes: "Iterable", spec_covers: "Iterable", lines: List[str]
) -> None:
    for cls in sorted(classes, key=sort_key):
        lines.append(f"class {_format_name(cls)}")
    for sub, sup in sorted(
        spec_covers, key=lambda e: (sort_key(e[0]), sort_key(e[1]))
    ):
        lines.append(f"{_format_name(sub)} ==> {_format_name(sup)}")


def format_schema(schema: Schema) -> str:
    """Write a plain schema; ``parse`` of the result reproduces it.

    Only non-inherited arrows to minimal targets are written — the
    closure is recomputed on parse, exactly as with :meth:`Schema.build`.
    """
    lines: List[str] = []
    _format_common(schema.classes, schema.spec_covers(), lines)
    for source, label, target in schema.own_arrows():
        lines.append(
            f"{_format_name(source)} --{label}--> {_format_name(target)}"
        )
    return "\n".join(lines) + "\n"


def format_annotated(schema: AnnotatedSchema) -> str:
    """Write an annotated schema with ``?`` participation marks."""
    lines: List[str] = []
    _format_common(schema.classes, schema.required_schema().spec_covers(), lines)
    table = schema.participation_table()
    for (source, label, target) in sorted(
        table, key=lambda e: (sort_key(e[0]), e[1], sort_key(e[2]))
    ):
        mark = "?" if table[(source, label, target)] == Participation.OPTIONAL else ""
        lines.append(
            f"{_format_name(source)} --{label}{mark}--> "
            f"{_format_name(target)}"
        )
    return "\n".join(lines) + "\n"


def format_keyed(keyed: KeyedSchema) -> str:
    """Write a keyed schema: the schema plus ``key`` lines."""
    lines = [format_schema(keyed.schema).rstrip("\n")]
    for cls in sorted(keyed.declared_classes(), key=sort_key):
        families = ", ".join(
            "{" + ", ".join(sorted(key)) + "}"
            for key in keyed.keys_of(cls)
        )
        lines.append(f"key {_format_name(cls)}: {families}")
    return "\n".join(lines) + "\n"
