"""The lock-discipline linter (rules ``lock-guard``, ``lock-nesting``,
``frozen-field``).

Reads the annotation conventions of ``docs/STATIC_ANALYSIS.md`` out of
a module's comments and enforces them over the AST:

* ``# guarded-by: <lock>`` on an attribute (or module variable)
  assignment — every read **and** write of that attribute must happen
  lexically inside a ``with self.<lock>:`` block (or inside a function
  annotated ``# requires-lock: <lock>``, which declares the caller
  holds it).  The ``guarded-by(writes)`` form guards writes only: the
  merge service's published registry is *written* under the writer
  lock but deliberately read lock-free.
* ``# frozen-after-init`` — the attribute is never written outside
  ``__init__``; committed shards and their memo identities rely on it.
* ``# lock: planner`` on a lock attribute, such as the service's
  writer lock — within one function, no ``with`` of another annotated
  lock and no ``.acquire()`` call may sit lexically inside a ``with``
  of the planner lock, and a ``with`` of an already-held lock
  (re-entry) is reported under the same rule.  The rule is lexical:
  it does not follow calls, so the storage backend's own lock, taken
  inside the backend's ``append`` (and ``close``) while the writer
  lock is held, is the sanctioned lock wait inside the writer section.
  A re-entry that crosses a call is the runtime witness's job
  (:mod:`repro.check.witness`).

``__init__`` is exempt from the guard and frozen rules (the object is
not shared during construction); every other rule applies everywhere.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.check.diagnostics import (
    Diagnostic,
    SourceFile,
    access_kind,
    build_parent_map,
    is_frozen_comment,
    is_planner_comment,
    local_bindings,
    parse_guard_comment,
    parse_requires_comment,
)

__all__ = ["check_lock_discipline"]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass(frozen=True)
class _Guard:
    lock: Optional[str]  # None for frozen-after-init
    writes_only: bool
    frozen: bool


class _Scope:
    """One annotated class (or the module itself) and its declared fields."""

    def __init__(self, name: str, self_name: Optional[str]) -> None:
        self.name = name
        self.self_name = self_name  # None → module scope, match bare names
        self.guards: Dict[str, _Guard] = {}
        self.planner_locks: Set[str] = set()

    @property
    def lock_names(self) -> Set[str]:
        names = set(self.planner_locks)
        for guard in self.guards.values():
            if guard.lock:
                names.add(guard.lock)
        return names

    def interesting(self) -> bool:
        return bool(self.guards or self.planner_locks)


def _assignment_targets(stmt: ast.stmt, self_name: Optional[str]) -> List[str]:
    """Attribute/variable names a statement assigns, in scope terms."""
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    names: List[str] = []
    for target in targets:
        if self_name is None:
            if isinstance(target, ast.Name):
                names.append(target.id)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == self_name
        ):
            names.append(target.attr)
    return names


def _collect_scope_annotations(
    sf: SourceFile, scope: _Scope, stmts: List[ast.stmt], self_name: Optional[str]
) -> None:
    for stmt in stmts:
        for name in _assignment_targets(stmt, self_name):
            comment = sf.comment(stmt.lineno)
            if not comment:
                continue
            guard = parse_guard_comment(comment)
            if guard is not None:
                lock, writes_only = guard
                scope.guards[name] = _Guard(lock, writes_only, frozen=False)
            elif is_frozen_comment(comment):
                scope.guards[name] = _Guard(None, writes_only=False, frozen=True)
            if is_planner_comment(comment):
                scope.planner_locks.add(name)


def _build_scopes(sf: SourceFile) -> List[Tuple[_Scope, List[ast.stmt]]]:
    """Every annotated scope in the file, paired with its function list."""
    scopes: List[Tuple[_Scope, List[ast.stmt]]] = []

    module_scope = _Scope("<module>", self_name=None)
    _collect_scope_annotations(sf, module_scope, list(sf.tree.body), None)
    if module_scope.interesting():
        functions = [
            stmt
            for stmt in sf.tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        scopes.append((module_scope, functions))

    for stmt in ast.walk(sf.tree):
        if not isinstance(stmt, ast.ClassDef):
            continue
        methods = [
            node
            for node in stmt.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        self_name = "self"
        for method in methods:
            if method.args.args:
                self_name = method.args.args[0].arg
                break
        scope = _Scope(stmt.name, self_name=self_name)
        _collect_scope_annotations(sf, scope, list(stmt.body), None)
        for method in methods:
            for node in ast.walk(method):
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    _collect_scope_annotations(sf, scope, [node], self_name)
        if scope.interesting():
            scopes.append((scope, list(methods)))
    return scopes


def _with_locks(node: Union[ast.With, ast.AsyncWith], scope: _Scope) -> Set[str]:
    """The scope lock names a ``with`` statement acquires."""
    locks: Set[str] = set()
    for item in node.items:
        expr = item.context_expr
        if scope.self_name is None:
            if isinstance(expr, ast.Name) and expr.id in scope.lock_names:
                locks.add(expr.id)
        elif (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == scope.self_name
            and expr.attr in scope.lock_names
        ):
            locks.add(expr.attr)
    return locks


class _FunctionChecker:
    """Walks one function tracking the lexically-held lock set."""

    def __init__(
        self,
        sf: SourceFile,
        scope: _Scope,
        func: FunctionNode,
        check_guards: bool,
    ) -> None:
        self.sf = sf
        self.scope = scope
        self.func = func
        self.check_guards = check_guards
        self.diagnostics: List[Diagnostic] = []
        self.parents = build_parent_map(func)
        if scope.self_name is None:
            self.locals, self.globals = local_bindings(func)
        else:
            self.locals, self.globals = set(), set()

    def run(self) -> List[Diagnostic]:
        held: FrozenSet[str] = frozenset()
        required = parse_requires_comment(self.sf.region_comment(self.func))
        if required is not None:
            held = frozenset({required})
        for stmt in self.func.body:
            self._visit(stmt, held)
        return self.diagnostics

    # -- traversal ----------------------------------------------------

    def _visit(self, node: ast.AST, held: FrozenSet[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A nested function runs later, when nothing can be assumed
            # held — analyze its body against the empty lock set.
            body = node.body if not isinstance(node, ast.Lambda) else [node.body]
            for child in body:
                self._visit(child, frozenset())
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self._visit(item.context_expr, held)
                if item.optional_vars is not None:
                    self._visit(item.optional_vars, held)
            acquired = _with_locks(node, self.scope)
            self._note_with(node, acquired, held)
            inner = held | acquired
            for child in node.body:
                self._visit(child, inner)
            return
        self._inspect(node, held)
        for child in ast.iter_child_nodes(node):
            self._visit(child, held)

    # -- checks -------------------------------------------------------

    def _report(self, rule: str, line: int, message: str) -> None:
        if not self.sf.suppressed(line, rule):
            self.diagnostics.append(
                Diagnostic(path=self.sf.path, line=line, rule=rule, message=message)
            )

    def _note_with(
        self,
        node: Union[ast.With, ast.AsyncWith],
        acquired: Set[str],
        held: FrozenSet[str],
    ) -> None:
        for lock in sorted(acquired):
            if lock in held:
                self._report(
                    "lock-nesting",
                    node.lineno,
                    f"re-entrant `with {lock}` — the lock is already held here",
                )
            elif held & self.scope.planner_locks:
                planner = sorted(held & self.scope.planner_locks)[0]
                self._report(
                    "lock-nesting",
                    node.lineno,
                    f"acquiring {lock!r} while the planner lock {planner!r} "
                    f"is held can block every writer behind the planner "
                    f"critical section",
                )

    def _inspect(self, node: ast.AST, held: FrozenSet[str]) -> None:
        # Blocking .acquire() while the planner lock is held.
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
            and held & self.scope.planner_locks
        ):
            planner = sorted(held & self.scope.planner_locks)[0]
            self._report(
                "lock-nesting",
                node.lineno,
                f"blocking .acquire() while the planner lock {planner!r} is "
                f"held; take other locks before entering the planner "
                f"critical section (see docs/STATIC_ANALYSIS.md)",
            )
        if not self.check_guards:
            return
        name = self._guarded_name(node)
        if name is None:
            return
        guard = self.scope.guards[name]
        kind = access_kind(node, self.parents)  # type: ignore[arg-type]
        line = getattr(node, "lineno", self.func.lineno)
        if guard.frozen:
            if kind == "write":
                self._report(
                    "frozen-field",
                    line,
                    f"{self.scope.name}.{name} is frozen-after-init but is "
                    f"written in {self.func.name}()",
                )
            return
        if guard.writes_only and kind == "read":
            return
        if guard.lock is not None and guard.lock not in held:
            self._report(
                "lock-guard",
                line,
                f"{kind} of {self.scope.name}.{name} outside `with "
                f"{guard.lock}:` (declared # guarded-by"
                f"{'(writes)' if guard.writes_only else ''}: {guard.lock})",
            )

    def _guarded_name(self, node: ast.AST) -> Optional[str]:
        """The guarded field *node* references, if any."""
        if self.scope.self_name is None:
            if isinstance(node, ast.Name) and node.id in self.scope.guards:
                if node.id in self.locals:
                    return None
                return node.id
            return None
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == self.scope.self_name
            and node.attr in self.scope.guards
        ):
            return node.attr
        return None


def check_lock_discipline(sf: SourceFile) -> List[Diagnostic]:
    """Run the lock-discipline rules over one source file."""
    diagnostics: List[Diagnostic] = []
    for scope, functions in _build_scopes(sf):
        for func in functions:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # pragma: no cover - scopes only collect defs
            check_guards = func.name != "__init__"
            checker = _FunctionChecker(sf, scope, func, check_guards)
            diagnostics.extend(checker.run())
    return diagnostics
