"""Shared infrastructure for the invariant analyzers.

Every analyzer in :mod:`repro.check` consumes a :class:`SourceFile` —
one parsed module plus its comment map — and produces
:class:`Diagnostic` records.  This module owns the three pieces they
all share:

* the **annotation grammar**: structured trailing comments
  (``# guarded-by: <lock>``, ``# requires-lock: <lock>``,
  ``# lock: planner``, ``# frozen-after-init``) that declare the
  concurrency invariants the analyzers enforce — the conventions are
  documented in ``docs/STATIC_ANALYSIS.md``;
* **suppressions**: ``# check: ignore[rule-id]`` on the offending line
  silences exactly that rule there; a bare ``# check: ignore``
  silences every rule on the line.  Unknown rule ids in a suppression
  are themselves reported (as warnings) so typos cannot silently
  disable a rule;
* **mutation classification**: deciding whether an attribute access is
  a read, a write, or a mutating method call (``.pop``, ``.update``,
  ``self.attr[k] = v`` ...), used by the lock-discipline analyzer.

>>> sf = SourceFile("<demo>", "x = 1  # guarded-by: _lock\\n")
>>> parse_guard_comment(sf.comment(1))
('_lock', False)
>>> sf2 = SourceFile("<demo>", "y = 2  # check: ignore[lock-guard]\\n")
>>> sf2.suppressed(1, "lock-guard"), sf2.suppressed(1, "frozen-field")
(True, False)
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

__all__ = [
    "ALL_RULES",
    "Diagnostic",
    "SourceFile",
    "access_kind",
    "parse_guard_comment",
    "parse_ignore_comment",
    "parse_requires_comment",
]

#: rule id → one-line description.  The single source of truth for what
#: a valid rule id is (suppressions referencing anything else warn).
ALL_RULES: Dict[str, str] = {
    "lock-guard": (
        "a # guarded-by: annotated attribute was accessed outside a "
        "`with <lock>:` block (or a # requires-lock: function)"
    ),
    "lock-nesting": (
        "a lock acquisition lexically inside a `with` of the planner "
        "(writer) lock, or a re-entrant `with` of a held lock"
    ),
    "frozen-field": (
        "a # frozen-after-init annotated attribute was written outside "
        "__init__ (committed objects must stay immutable once published)"
    ),
    "async-blocking": (
        "a blocking call (lock acquire, file/socket I/O, service write) "
        "is reachable from a coroutine or callback running on the event loop"
    ),
    "http-status-map": (
        "an exception class has no HTTP status mapping in _STATUS_MAP"
    ),
    "api-surface": (
        "__all__ is out of sync with the module's actual bindings, or a "
        "facade re-exports a name its source module does not declare"
    ),
    "parse-error": "the file could not be parsed as Python source",
    "bad-suppression": "a # check: ignore[...] names an unknown rule id",
}


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One analyzer finding, anchored to a file and line."""

    path: str
    line: int
    rule: str
    message: str
    severity: str = "error"

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.severity}: [{self.rule}] {self.message}"


_GUARDED = re.compile(
    r"guarded-by(?:\((?P<mode>[a-z-]+)\))?:\s*(?P<lock>[A-Za-z_][A-Za-z0-9_]*)"
)
_FROZEN = re.compile(r"frozen-after-init\b")
_REQUIRES = re.compile(r"requires-lock:\s*(?P<lock>[A-Za-z_][A-Za-z0-9_]*)")
_PLANNER = re.compile(r"(?<![a-z-])lock:\s*planner\b")
_IGNORE = re.compile(r"check:\s*ignore(?:\[(?P<rules>[a-z0-9\-,\s]*)\])?")


def parse_guard_comment(comment: str) -> Optional[Tuple[str, bool]]:
    """``(lock_name, writes_only)`` from a guarded-by comment, or ``None``.

    >>> parse_guard_comment("# guarded-by(writes): _writer")
    ('_writer', True)
    """
    match = _GUARDED.search(comment)
    if match is None:
        return None
    return match.group("lock"), match.group("mode") == "writes"


def parse_requires_comment(comment: str) -> Optional[str]:
    """The lock a ``# requires-lock:`` comment declares held, or ``None``."""
    match = _REQUIRES.search(comment)
    return match.group("lock") if match else None


def parse_ignore_comment(comment: str) -> Optional[Optional[FrozenSet[str]]]:
    """The suppression a comment carries: a rule set, or ``None`` for all.

    Returns ``None`` when the comment is not a suppression at all; the
    caller distinguishes that from an explicit blanket ``ignore`` (which
    returns an empty frozenset is wrong — so a blanket ignore returns
    the sentinel ``frozenset({"*"})``).
    """
    match = _IGNORE.search(comment)
    if match is None:
        return None
    rules = match.group("rules")
    if rules is None:
        return frozenset({"*"})
    return frozenset(r.strip() for r in rules.split(",") if r.strip())


def is_frozen_comment(comment: str) -> bool:
    return bool(_FROZEN.search(comment))


def is_planner_comment(comment: str) -> bool:
    return bool(_PLANNER.search(comment))


class SourceFile:
    """One module's text, AST, comments and suppressions.

    *path* may be a real file (text read from disk) or any label when
    *text* is supplied directly (tests, in-memory snippets).  Parsing
    happens eagerly; a :class:`SyntaxError` propagates to the caller
    (the runner turns it into a ``parse-error`` diagnostic).
    """

    def __init__(
        self, path: Union[str, Path], text: Optional[str] = None
    ) -> None:
        self.path = str(path)
        if text is None:
            text = Path(path).read_text(encoding="utf-8")
        self.text = text
        self.tree = ast.parse(text, filename=self.path)
        self.comments: Dict[int, str] = {}
        #: line → suppressed rule ids ("*" = all) from # check: ignore.
        self.ignores: Dict[int, FrozenSet[str]] = {}
        try:
            tokens = tokenize.generate_tokens(io.StringIO(text).readline)
            for token in tokens:
                if token.type == tokenize.COMMENT:
                    line = token.start[0]
                    existing = self.comments.get(line, "")
                    self.comments[line] = (existing + " " + token.string).strip()
        except tokenize.TokenError:  # pragma: no cover - ast parsed, so rare
            pass
        for line, comment in self.comments.items():
            rules = parse_ignore_comment(comment)
            if rules is not None:
                self.ignores[line] = rules

    def comment(self, line: int) -> str:
        """The comment text on *line* (empty string when there is none)."""
        return self.comments.get(line, "")

    def region_comment(self, node: ast.AST) -> str:
        """Comments attached to a ``def``'s signature region.

        Multi-line signatures may carry the annotation on any line from
        the ``def`` up to (but not including) the first body statement.
        """
        body = getattr(node, "body", None)
        start = getattr(node, "lineno", 0)
        end = body[0].lineno if body else start + 1
        parts = [self.comments[n] for n in range(start, end) if n in self.comments]
        return " ".join(parts)

    def suppressed(self, line: int, rule: str) -> bool:
        """Whether *rule* is silenced on *line* by a ``# check: ignore``."""
        rules = self.ignores.get(line)
        if rules is None:
            return False
        return "*" in rules or rule in rules

    def suppression_diagnostics(self) -> List[Diagnostic]:
        """Warnings for suppressions that name unknown rule ids."""
        out: List[Diagnostic] = []
        for line, rules in sorted(self.ignores.items()):
            for rule in sorted(rules - {"*"}):
                if rule not in ALL_RULES:
                    out.append(
                        Diagnostic(
                            path=self.path,
                            line=line,
                            rule="bad-suppression",
                            message=(
                                f"suppression names unknown rule {rule!r} "
                                f"(known: {', '.join(sorted(ALL_RULES))})"
                            ),
                            severity="warning",
                        )
                    )
        return out


#: Method names whose call mutates the receiver in place.
MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
        "__setitem__",
    }
)


def build_parent_map(root: ast.AST) -> Dict[int, ast.AST]:
    """``id(child) → parent`` for every node under *root*."""
    parents: Dict[int, ast.AST] = {}
    for parent in ast.walk(root):
        for child in ast.iter_child_nodes(parent):
            parents[id(child)] = parent
    return parents


def access_kind(node: ast.expr, parents: Dict[int, ast.AST]) -> str:
    """Classify an attribute/name reference as ``"read"`` or ``"write"``.

    A write is a direct store (``self.attr = v``, ``self.attr += v``,
    ``del self.attr``), a store through subscription
    (``self.attr[k] = v``, ``del self.attr[k]``), or a call of a
    mutating method (``self.attr.pop(...)``).
    """
    ctx = getattr(node, "ctx", None)
    if isinstance(ctx, (ast.Store, ast.Del)):
        return "write"
    parent = parents.get(id(node))
    if isinstance(parent, ast.Subscript) and parent.value is node:
        if isinstance(parent.ctx, (ast.Store, ast.Del)):
            return "write"
    if isinstance(parent, ast.Attribute) and parent.value is node:
        if parent.attr in MUTATING_METHODS:
            grand = parents.get(id(parent))
            if isinstance(grand, ast.Call) and grand.func is parent:
                return "write"
    return "read"


def local_bindings(func: ast.AST) -> Tuple[Set[str], Set[str]]:
    """``(locals, globals)`` name sets for a function body.

    *locals* are parameter names plus every name stored without a
    ``global`` declaration; *globals* are the explicitly declared ones.
    Used by the module-scope lock checker to tell a shadowing local
    apart from a read of the guarded module variable.
    """
    local: Set[str] = set()
    declared_global: Set[str] = set()
    args = getattr(func, "args", None)
    if args is not None:
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            local.add(arg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            local.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node is not func:
                local.add(node.name)
    local -= declared_global
    return local, declared_global
