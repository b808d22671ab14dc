"""Async-safety analyzer: no blocking calls inline on the event loop.

The HTTP front end (:mod:`repro.service.http`) serves its connections
from an asyncio event loop and pushes every blocking service call into
a thread pool.  A blocking call that slips into code the loop runs
*inline* — a lock ``.acquire()``, a synchronous
``MergeService`` write, file or socket I/O, ``time.sleep`` — stalls the
whole loop, which under load turns one slow merge into a full-service
outage.  That failure mode is invisible to unit tests (a single request
never notices) and to type checkers, so it gets its own analyzer.

The rule (``async-blocking``):

* the *roots* are every ``async def`` in the module, and the
  synchronous code the loop calls back: the ``connection_made`` /
  ``data_received`` / ``eof_received`` / ``connection_lost`` methods of
  ``asyncio.Protocol`` subclasses, and every function passed by
  reference to ``call_soon``, ``call_soon_threadsafe`` or
  ``call_later``;
* the *reachable set* is the roots plus every synchronous function in
  the same module transitively called from a root by bare name or as a
  ``<object>.<name>(...)`` method — those helpers run inline on the
  loop too;
* within the reachable set, flag

  - ``<anything>.acquire(...)`` calls — lock acquisition;
  - calls of known-blocking methods (``join``, ``result``, ``recv``,
    ``send``, ``connect``, ``accept``, ``communicate``, ``wait`` ...)
    and known-blocking service methods (``register``);
  - ``open(...)`` and ``time.sleep(...)``;
  - a synchronous ``with`` statement whose context expression looks
    like a lock (name matches ``lock``/``mutex``/``_writer``);

* **awaited calls are exempt** — ``await self._stop.wait()`` suspends,
  it does not block — and so are function *references* (passing
  ``self._service.register`` to ``run_in_executor`` or a pool's
  ``submit`` is the sanctioned escape hatch; the analyzer only flags
  *calls*).

Nested function definitions and lambdas are not treated as running
inline (they are typically executor thunks), but calling one by name
from a coroutine pulls it into the reachable set like any helper.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.check.diagnostics import Diagnostic, SourceFile

__all__ = ["check_async_safety"]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Attribute-call names that block the calling thread.
BLOCKING_ATTR_CALLS = frozenset(
    {
        "accept",
        "acquire",
        "check_call",
        "check_output",
        "communicate",
        "connect",
        "join",
        "read_text",
        "recv",
        "result",
        "send",
        "sendall",
        "wait",
        "write_text",
    }
)

#: Service methods that take locks / do real work; calling them inline
#: from a coroutine bypasses the executor hand-off.
BLOCKING_SERVICE_METHODS = frozenset({"register", "retire", "save"})

#: Bare-name calls that block.
BLOCKING_NAME_CALLS = frozenset({"open", "input"})

#: ``module.func`` calls that block.
BLOCKING_DOTTED_CALLS = frozenset({("time", "sleep"), ("socket", "create_connection")})

#: Protocol base classes, and the callbacks of theirs the loop calls.
_PROTOCOL_BASES = frozenset({"BaseProtocol", "Protocol", "BufferedProtocol"})
_PROTOCOL_CALLBACKS = frozenset(
    {"connection_made", "data_received", "eof_received", "connection_lost"}
)

#: Loop methods whose function argument later runs on the loop.
_SCHEDULERS = frozenset({"call_soon", "call_soon_threadsafe", "call_later"})

_LOCKISH = re.compile(r"(^|_)(lock|mutex)s?($|_)|^_writer$|^_planner$")


def _function_defs(tree: ast.Module) -> Dict[str, FunctionNode]:
    """Top-level and class-method defs by bare name (last wins)."""
    defs: Dict[str, FunctionNode] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs[item.name] = item
    return defs


def _own_nodes(func: FunctionNode) -> List[ast.AST]:
    """Nodes of *func*'s body excluding nested def/lambda bodies."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # executor thunks / callbacks run elsewhere
        stack.extend(ast.iter_child_nodes(node))
    return out


def _ref_name(node: ast.AST) -> Optional[str]:
    """The function a bare name or ``<object>.<name>`` refers to."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _called_names(func: FunctionNode) -> Set[str]:
    """Bare-name and ``<object>.<name>`` call targets in *func*'s own body."""
    calls = (node.func for node in _own_nodes(func) if isinstance(node, ast.Call))
    return set(filter(None, map(_ref_name, calls)))


def _callback_roots(tree: ast.Module) -> Set[str]:
    """Synchronous functions the event loop itself calls back."""
    roots: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            _ref_name(base) in _PROTOCOL_BASES for base in node.bases
        ):
            roots.update(_PROTOCOL_CALLBACKS & {getattr(i, "name", "") for i in node.body})
        elif isinstance(node, ast.Call) and _ref_name(node.func) in _SCHEDULERS:
            roots.update(filter(None, map(_ref_name, node.args)))
    return roots


def _reachable_sync(
    defs: Dict[str, FunctionNode], callbacks: Set[str]
) -> Dict[str, Tuple[FunctionNode, str]]:
    """``name → (def, root)`` for code that runs inline on the loop.

    Roots are the async defs and the loop *callbacks* (their *root* is
    themselves); other defs enter the map when reachable from a root,
    tagged with the root that pulls them in (for the diagnostic
    message).
    """
    reachable: Dict[str, Tuple[FunctionNode, str]] = {}
    queue: List[Tuple[str, str]] = []
    for name, node in defs.items():
        if isinstance(node, ast.AsyncFunctionDef) or name in callbacks:
            reachable[name] = (node, name)
            queue.append((name, name))
    while queue:
        name, root = queue.pop()
        for callee in _called_names(defs[name]):
            if callee in reachable or callee not in defs:
                continue
            node = defs[callee]
            reachable[callee] = (node, root)
            queue.append((callee, root))
    return reachable


def _awaited_calls(func: FunctionNode) -> Set[int]:
    """``id()`` of every expression directly under an ``await``."""
    return {
        id(node.value)
        for node in ast.walk(func)
        if isinstance(node, ast.Await)
    }


def _blocking_call_reason(node: ast.Call) -> Optional[str]:
    """Why this call blocks, or ``None`` if it does not."""
    target = node.func
    if isinstance(target, ast.Name):
        if target.id in BLOCKING_NAME_CALLS:
            return f"blocking builtin call {target.id}()"
        return None
    if not isinstance(target, ast.Attribute):
        return None
    attr = target.attr
    if isinstance(target.value, ast.Name):
        dotted = (target.value.id, attr)
        if dotted in BLOCKING_DOTTED_CALLS:
            return f"blocking call {dotted[0]}.{attr}()"
    if attr in BLOCKING_ATTR_CALLS:
        return f"blocking call .{attr}()"
    if attr in BLOCKING_SERVICE_METHODS:
        return f"blocking service method .{attr}() called inline"
    return None


def _lockish_with_reason(item: ast.withitem) -> Optional[str]:
    """A ``with``-item that acquires a lock synchronously, or ``None``."""
    expr = item.context_expr
    name: Optional[str] = None
    if isinstance(expr, ast.Attribute):
        name = expr.attr
    elif isinstance(expr, ast.Name):
        name = expr.id
    if name is not None and _LOCKISH.search(name):
        return f"synchronous `with {name}:` acquires a lock on the loop"
    return None


def check_async_safety(sf: SourceFile) -> List[Diagnostic]:
    """Run the ``async-blocking`` rule over one source file."""
    defs = _function_defs(sf.tree)
    reachable = _reachable_sync(defs, _callback_roots(sf.tree))
    diagnostics: List[Diagnostic] = []

    def report(line: int, reason: str, name: str, root: str) -> None:
        if sf.suppressed(line, "async-blocking"):
            return
        kind = "coroutine" if isinstance(defs[root], ast.AsyncFunctionDef) else "loop callback"
        if name == root:
            where = f"in {kind} {root}()"
        else:
            where = f"in {name}(), reachable from {kind} {root}()"
        diagnostics.append(
            Diagnostic(
                path=sf.path,
                line=line,
                rule="async-blocking",
                message=(
                    f"{reason} {where} — the event loop stalls; move the "
                    "work into run_in_executor or await an async variant"
                ),
            )
        )

    for name, (func, root) in sorted(reachable.items()):
        awaited = _awaited_calls(func)
        for node in _own_nodes(func):
            if isinstance(node, ast.Call) and id(node) not in awaited:
                reason = _blocking_call_reason(node)
                if reason is not None:
                    report(node.lineno, reason, name, root)
            elif isinstance(node, ast.With):
                for item in node.items:
                    reason = _lockish_with_reason(item)
                    if reason is not None:
                        report(node.lineno, reason, name, root)
    return diagnostics
