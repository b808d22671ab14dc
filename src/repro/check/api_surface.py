"""API-surface analyzer: ``__all__`` honesty and exception coverage.

Three related contracts, all about keeping the *published* surface in
sync with the code that backs it:

``api-surface``
    * every name a module lists in ``__all__`` is actually bound at
      module top level (a deleted class with a stale export is a
      latent ``ImportError`` for ``from m import *`` users);
    * in a package ``__init__.py`` facade, every *public* name imported
      with ``from ... import`` is listed in ``__all__`` (a facade that
      imports but does not export is leaking an accidental API), and
      every re-exported name is declared by its source module's own
      ``__all__`` (the facade cannot publish what the submodule calls
      private).

``http-status-map``
    every exception class defined in an ``exceptions`` module is mapped
    to an HTTP status by some ``_STATUS_MAP`` in the checked file set —
    directly or through a mapped ancestor.  ``status_for`` answers 500
    for unmapped types, so a new exception without a mapping silently
    turns a client error into an internal-server-error page.

This analyzer is cross-file: it receives the whole list of
:class:`SourceFile` objects for a run, resolves ``from pkg.sub import
name`` back to the source file when that file is part of the run, and
skips the checks it cannot ground (a facade importing a third-party
module is never flagged).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.check.diagnostics import Diagnostic, SourceFile

__all__ = ["check_api_surface"]


def _extract_all(tree: ast.Module) -> Optional[Tuple[int, List[str]]]:
    """``(lineno, names)`` of a literal top-level ``__all__``, or ``None``.

    Returns ``None`` both when there is no ``__all__`` and when it is
    built dynamically (augmented assignment, comprehension ...) — the
    checks require a literal list to be meaningful.
    """
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            continue
        if not isinstance(node.value, (ast.List, ast.Tuple)):
            return None
        names: List[str] = []
        for element in node.value.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                names.append(element.value)
            else:
                return None
        return node.lineno, names
    return None


def _top_level_bindings(tree: ast.Module) -> Set[str]:
    """Names bound by the module's top-level statements."""
    bound: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".", 1)[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound.add(alias.asname or alias.name)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name_node in ast.walk(target):
                    if isinstance(name_node, ast.Name):
                        bound.add(name_node.id)
        elif isinstance(node, (ast.If, ast.Try)):
            for sub in ast.walk(node):
                if isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    bound.add(sub.name)
                elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                    for alias in sub.names:
                        if alias.name == "*":
                            continue
                        if isinstance(sub, ast.Import):
                            bound.add(alias.asname or alias.name.split(".", 1)[0])
                        else:
                            bound.add(alias.asname or alias.name)
                elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                    bound.add(sub.id)
    return bound


def _resolve_import(sf: SourceFile, node: ast.ImportFrom) -> Optional[Path]:
    """The file a ``from X import ...`` pulls from, or ``None``.

    Absolute imports resolve by ascending from the importing file to a
    directory whose name matches the first dotted part; relative ones
    ascend ``node.level`` packages.  Missing files return ``None`` (the
    caller skips — nothing to check against).
    """
    here = Path(sf.path).resolve().parent
    if node.level:
        base = here
        for _ in range(node.level - 1):
            base = base.parent
        parts = node.module.split(".") if node.module else []
    else:
        if not node.module or node.module == "__future__":
            return None
        parts = node.module.split(".")
        base = None
        probe = here
        for _ in range(16):
            if probe.name == parts[0]:
                base = probe.parent
                break
            if probe == probe.parent:
                break
            probe = probe.parent
        if base is None:
            return None
    target = base.joinpath(*parts) if parts else base
    if (target / "__init__.py").is_file():
        return target / "__init__.py"
    candidate = target.with_suffix(".py")
    if candidate.is_file():
        return candidate
    return None


def _module_checks(
    sf: SourceFile, by_path: Dict[Path, SourceFile]
) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    extracted = _extract_all(sf.tree)
    bound = _top_level_bindings(sf.tree)
    is_facade = Path(sf.path).name == "__init__.py"
    # PEP 562: a module-level __getattr__ can provide any name lazily,
    # so static binding analysis cannot call an export a lie.
    has_module_getattr = "__getattr__" in bound

    if extracted is not None and not has_module_getattr:
        all_line, exported = extracted
        for name in sorted(set(exported) - bound):
            if sf.suppressed(all_line, "api-surface"):
                continue
            diagnostics.append(
                Diagnostic(
                    path=sf.path,
                    line=all_line,
                    rule="api-surface",
                    message=(
                        f"__all__ exports {name!r} but the module never "
                        "binds it — `from module import *` would fail"
                    ),
                )
            )

    for node in sf.tree.body:
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.module == "__future__":
            continue
        source_path = _resolve_import(sf, node)
        source = by_path.get(source_path) if source_path else None
        source_all = _extract_all(source.tree) if source is not None else None
        for alias in node.names:
            if alias.name == "*" or alias.name.startswith("_"):
                continue
            public_name = alias.asname or alias.name
            if (
                is_facade
                and extracted is not None
                and source is not None
                and not public_name.startswith("_")
                and public_name not in extracted[1]
                and not sf.suppressed(node.lineno, "api-surface")
            ):
                diagnostics.append(
                    Diagnostic(
                        path=sf.path,
                        line=node.lineno,
                        rule="api-surface",
                        message=(
                            f"facade imports {public_name!r} but does not "
                            "list it in __all__ — accidental public API"
                        ),
                    )
                )
            if (
                is_facade
                and source_all is not None
                and alias.name not in source_all[1]
                and Path(source.path).name != "__init__.py"
                and not sf.suppressed(node.lineno, "api-surface")
            ):
                diagnostics.append(
                    Diagnostic(
                        path=sf.path,
                        line=node.lineno,
                        rule="api-surface",
                        message=(
                            f"re-export of {alias.name!r} is not declared "
                            f"by __all__ of {source.path} — the facade "
                            "publishes a name its source module keeps "
                            "private"
                        ),
                    )
                )
    return diagnostics


# ---------------------------------------------------------------------------
# http-status-map


def _exception_classes(tree: ast.Module) -> Dict[str, List[str]]:
    """``class name → base names`` for every top-level class."""
    return {
        node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }


def _class_lines(tree: ast.Module) -> Dict[str, int]:
    return {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }


def _status_mapped_names(tree: ast.Module) -> Optional[Set[str]]:
    """Exception names listed in a literal ``_STATUS_MAP``, or ``None``."""
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if not any(
            isinstance(t, ast.Name) and t.id == "_STATUS_MAP" for t in targets
        ):
            continue
        value = node.value
        if not isinstance(value, (ast.Tuple, ast.List)):
            return None
        names: Set[str] = set()
        for entry in value.elts:
            if isinstance(entry, (ast.Tuple, ast.List)) and entry.elts:
                head = entry.elts[0]
                if isinstance(head, ast.Name):
                    names.add(head.id)
                elif isinstance(head, ast.Attribute):
                    names.add(head.attr)
        return names
    return None


def _covered(name: str, classes: Dict[str, List[str]], mapped: Set[str]) -> bool:
    seen: Set[str] = set()
    stack = [name]
    while stack:
        current = stack.pop()
        if current in mapped:
            return True
        if current in seen:
            continue
        seen.add(current)
        stack.extend(classes.get(current, []))
    return False


def _status_map_checks(files: Sequence[SourceFile]) -> List[Diagnostic]:
    exceptions_files = [
        sf for sf in files if Path(sf.path).name == "exceptions.py"
    ]
    mapped: Set[str] = set()
    have_map = False
    for sf in files:
        names = _status_mapped_names(sf.tree)
        if names is not None:
            mapped |= names
            have_map = True
    if not have_map:
        return []
    diagnostics: List[Diagnostic] = []
    for sf in exceptions_files:
        classes = _exception_classes(sf.tree)
        lines = _class_lines(sf.tree)
        for name, line in sorted(lines.items(), key=lambda kv: kv[1]):
            if _covered(name, classes, mapped):
                continue
            if sf.suppressed(line, "http-status-map"):
                continue
            diagnostics.append(
                Diagnostic(
                    path=sf.path,
                    line=line,
                    rule="http-status-map",
                    message=(
                        f"exception {name} has no HTTP status mapping in "
                        "_STATUS_MAP (neither directly nor via a mapped "
                        "ancestor) — status_for() would answer 500 for a "
                        "taxonomy error"
                    ),
                )
            )
    return diagnostics


def check_api_surface(files: Sequence[SourceFile]) -> List[Diagnostic]:
    """Run ``api-surface`` + ``http-status-map`` over a whole file set."""
    by_path = {Path(sf.path).resolve(): sf for sf in files}
    diagnostics: List[Diagnostic] = []
    for sf in files:
        diagnostics.extend(_module_checks(sf, by_path))
    diagnostics.extend(_status_map_checks(files))
    return diagnostics
