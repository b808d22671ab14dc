"""Publication-order analyzer: the stamp field is assigned last.

A lock-free reader that loads several fields a writer publishes one at
a time is sound only if the writer stores them in the right order: the
data first and the stamp **last**, so a reader that observes the new
stamp is guaranteed to see every structure it describes.  Reorder those
stores and the lock-free reads silently return torn state.  The merge
service avoids the question altogether — its registry is one immutable
value published with a single store (``# publishes: _registry``) — and
the rule keeps any multi-field publisher honest.

A commit site declares its contract with a trailing annotation on the
``def`` line::

    def _commit(self, ...):  # publishes: _shards, _class_to_sid, _generation

The listed fields are ordered; the **last** one is the publication
stamp.  The rule (``publication-order``) then checks, per annotated
function:

* the function stores the final field at least once (otherwise the
  annotation is stale);
* no store or in-place mutation (``.pop``, ``[k] = v``, ``.update`` ...)
  of any *earlier* listed field appears after the last store to the
  final field.

Reads are never flagged — only the mutation order matters — and fields
not named in the annotation are ignored entirely.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Union

from repro.check.diagnostics import (
    Diagnostic,
    SourceFile,
    access_kind,
    build_parent_map,
    parse_publishes_comment,
)

__all__ = ["check_publication_order"]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _self_name(func: FunctionNode) -> str:
    args = func.args.posonlyargs + func.args.args
    return args[0].arg if args else "self"


def _field_accesses(
    func: FunctionNode, self_name: str, fields: List[str]
) -> Dict[str, List[ast.Attribute]]:
    """Every ``self.<field>`` attribute node per listed field."""
    wanted = set(fields)
    accesses: Dict[str, List[ast.Attribute]] = {f: [] for f in fields}
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == self_name
            and node.attr in wanted
        ):
            accesses[node.attr].append(node)
    return accesses


def check_publication_order(sf: SourceFile) -> List[Diagnostic]:
    """Run the ``publication-order`` rule over one source file."""
    diagnostics: List[Diagnostic] = []
    parents = build_parent_map(sf.tree)
    for func in ast.walk(sf.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        fields = parse_publishes_comment(sf.region_comment(func))
        if not fields:
            continue
        final = fields[-1]
        self_name = _self_name(func)
        accesses = _field_accesses(func, self_name, fields)

        final_store_lines = [
            node.lineno
            for node in accesses[final]
            if access_kind(node, parents) == "write"
        ]
        if not final_store_lines:
            if not sf.suppressed(func.lineno, "publication-order"):
                diagnostics.append(
                    Diagnostic(
                        path=sf.path,
                        line=func.lineno,
                        rule="publication-order",
                        message=(
                            f"{func.name}() declares `# publishes: "
                            f"{', '.join(fields)}` but never stores the "
                            f"final field {final!r} — stale annotation?"
                        ),
                    )
                )
            continue
        last_final_store = max(final_store_lines)

        for field in fields[:-1]:
            for node in accesses[field]:
                if access_kind(node, parents) != "write":
                    continue
                if node.lineno <= last_final_store:
                    continue
                if sf.suppressed(node.lineno, "publication-order"):
                    continue
                diagnostics.append(
                    Diagnostic(
                        path=sf.path,
                        line=node.lineno,
                        rule="publication-order",
                        message=(
                            f"{func.name}() mutates published field "
                            f"{field!r} after the final store of "
                            f"{final!r} (line {last_final_store}) — "
                            "lock-free readers that observed the new "
                            "stamp can see torn state"
                        ),
                    )
                )
    return diagnostics
