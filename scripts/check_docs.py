#!/usr/bin/env python
"""Documentation checks: doctests green, referenced paths exist.

Two passes, both exercised by the CI ``docs`` job and runnable locally
with no arguments::

    python scripts/check_docs.py

1. **Doctests** — every module in :data:`DOCTEST_MODULES` is imported
   and run through :func:`doctest.testmod`.  These are the ``>>>``
   examples in the public-API docstrings (README quickstart claims
   live here too: if an example in the docs rots, this fails).
2. **Link check** — every markdown link target and every backticked
   repo path in ``README.md`` and ``docs/*.md`` must exist on disk.
   Only tokens under the known source roots are treated as paths, so
   prose code spans (``repro.service``, shell invocations, generated
   artifacts) are not false positives.  A ``path.py:symbol`` span
   (the path repo-relative or under ``src/repro/``) must also name a
   ``def``, a ``class`` or a top-level assignment in that file (a
   dotted ``Class.method`` is resolved class by class), so a doc
   citing a deleted or moved function fails.  A code span naming a
   benchmark artifact (``BENCH_<suite>.json``) must name a file git
   tracks, so a doc cannot cite an ignored or never-recorded result;
   smoke artifacts and pattern names are not artifacts and are skipped.

Exit code: 0 all green, 1 otherwise.
"""

from __future__ import annotations

import ast
import doctest
import importlib
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

DOCTEST_MODULES = [
    "repro.check",
    "repro.check.diagnostics",
    "repro.check.runner",
    "repro.check.witness",
    "repro.core.schema",
    "repro.obs",
    "repro.obs.exporters",
    "repro.obs.instrument",
    "repro.obs.metrics",
    "repro.obs.tracing",
    "repro.io.json_io",
    "repro.perf",
    "repro.perf.interning",
    "repro.perf.closure",
    "repro.perf.namespace",
    "repro.perf.reference",
    "repro.service",
    "repro.service.api_types",
    "repro.service.http",
    "repro.service.service",
    "repro.service.shards",
    "repro.service.snapshots",
    "repro.service.storage",
]

DOC_FILES = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

# A backticked token is checked as a path only when it starts under one
# of these roots (or is a tracked top-level file); everything else in
# code spans is prose, shell, or a generated artifact.
PATH_ROOTS = (
    "src/",
    "docs/",
    "examples/",
    "benchmarks/",
    "tests/",
    "scripts/",
    ".github/",
)
TOP_LEVEL_FILES = {
    "README.md",
    "ROADMAP.md",
    "CHANGES.md",
    "PAPER.md",
    "PAPERS.md",
    "SNIPPETS.md",
    "pyproject.toml",
    "setup.py",
}

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN = re.compile(r"`([^`\n]+)`")
SYMBOL_SPAN = re.compile(r"`([\w./-]+\.py):([\w.]+)`")
# A full-run benchmark artifact: `BENCH_http.json`, not
# `BENCH_http.smoke.json` or a pattern such as `BENCH_<suite>.json`.
ARTIFACT = re.compile(r"\bBENCH_\w+\.json\b")


def check_doctests() -> int:
    failures = 0
    for module_name in DOCTEST_MODULES:
        module = importlib.import_module(module_name)
        result = doctest.testmod(module, verbose=False)
        status = "ok" if result.failed == 0 else "FAIL"
        print(
            f"  doctest {module_name}: {result.attempted} examples {status}"
        )
        failures += result.failed
    return failures


def _candidate_paths(text: str):
    for match in MD_LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target.split("#", 1)[0], "link"
    for match in CODE_SPAN.finditer(text):
        # First shell word only: `benchmarks/runner.py --suite service`
        # names the file, the rest is invocation.  `path.py:symbol`
        # spans are checked by check_symbols.
        token = match.group(1).split()[0] if match.group(1).split() else ""
        if token.startswith(PATH_ROOTS) or token in TOP_LEVEL_FILES:
            yield token.split(":", 1)[0], "code span"


def _definitions(body: list) -> dict:
    """The defs, classes and assignments of one module or class body."""
    found = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return found


def resolves(path: Path, symbol: str) -> bool:
    """Does dotted *symbol* name a definition in *path*?

    The first part is looked up among the module's top-level names,
    each later part in the body of the class the previous part named,
    so ``Class.method`` passes only if ``method`` is defined in
    ``Class`` itself.
    """
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for part in symbol.split("."):
        node = _definitions(body).get(part)
        if node is None:
            return False
        body = node.body if isinstance(node, ast.ClassDef) else []
    return True


def check_symbols() -> int:
    """Every `path.py:symbol` span names a definition in that file."""
    failures = 0
    for doc in DOC_FILES:
        for match in SYMBOL_SPAN.finditer(doc.read_text(encoding="utf-8")):
            target, symbol = match.groups()
            path = next(
                (p for p in (ROOT / target, ROOT / "src/repro" / target)
                 if p.is_file()),
                None,
            )
            if path is None or not resolves(path, symbol):
                print(
                    f"  BROKEN symbol in {doc.relative_to(ROOT)}: "
                    f"{target}:{symbol}"
                )
                failures += 1
    return failures


def check_artifacts() -> int:
    """Every `BENCH_<suite>.json` a doc names is a tracked file."""
    tracked = set(
        subprocess.run(
            ["git", "ls-files", "BENCH_*.json"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
    )
    failures = 0
    for doc in DOC_FILES:
        for span in CODE_SPAN.finditer(doc.read_text(encoding="utf-8")):
            for name in ARTIFACT.findall(span.group(1)):
                if name not in tracked:
                    print(
                        f"  UNTRACKED artifact in {doc.relative_to(ROOT)}: "
                        f"{name}"
                    )
                    failures += 1
    return failures


def check_links() -> int:
    failures = 0
    for doc in DOC_FILES:
        text = doc.read_text(encoding="utf-8")
        seen = set()
        for target, kind in _candidate_paths(text):
            if target in seen:
                continue
            seen.add(target)
            # Markdown links resolve relative to the containing file;
            # backticked paths are written repo-relative.
            base = doc.parent if kind == "link" else ROOT
            resolved = (base / target).resolve()
            if not resolved.exists() and not (ROOT / target).exists():
                print(
                    f"  BROKEN {kind} in {doc.relative_to(ROOT)}: {target}"
                )
                failures += 1
        print(f"  links {doc.relative_to(ROOT)}: {len(seen)} checked")
    return failures


def main() -> int:
    print("doctests:")
    doctest_failures = check_doctests()
    print("doc links:")
    link_failures = check_links() + check_symbols() + check_artifacts()
    if doctest_failures or link_failures:
        print(
            f"FAIL: {doctest_failures} doctest failure(s), "
            f"{link_failures} broken path(s)",
            file=sys.stderr,
        )
        return 1
    print("docs check: all green")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
