#!/usr/bin/env python
"""Documentation and source health check, run by CI.

Four invariants are enforced:

1. every public module under ``src/repro`` (file names not starting with an
   underscore; ``__init__.py`` counts as the package's module) carries a
   module docstring — the ``core`` package is the hard requirement, the rest
   of the tree is checked too since it currently holds;
2. every relative Markdown link in the repo's documentation front door
   (``README.md``, ``docs/*.md``, ``ROADMAP.md``, ``benchmarks/README.md``)
   resolves to an existing file or directory;
3. every reference implementation in ``tests/reference/`` (each module but
   ``__init__.py``) is named in ``docs/architecture.md``, which is where a
   reader learns what each one pins down;
4. no module under ``src/repro`` imports a name it never uses.  A name
   counts as used when the module reads it (annotations included, quoted
   ones too) or lists it in ``__all__``; a package's ``__init__.py``
   re-exports what it imports, so its imports all count as used.

Exits non-zero with a per-violation listing on failure, so the CI step's log
names exactly what to fix.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Documents whose relative links must resolve.
DOCUMENTS = ("README.md", "ROADMAP.md", "benchmarks/README.md")

#: Markdown inline links: [text](target), excluding images handled the same.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def missing_docstrings() -> list:
    """Public ``src/repro`` modules without a module docstring."""
    failures = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        if path.name.startswith("_") and path.name != "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        if ast.get_docstring(tree) is None:
            failures.append(path.relative_to(REPO_ROOT))
    return failures


def broken_links() -> list:
    """(document, target) pairs whose relative link does not resolve."""
    documents = [REPO_ROOT / name for name in DOCUMENTS]
    documents.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    failures = []
    for document in documents:
        if not document.exists():
            failures.append((document.relative_to(REPO_ROOT), "<document missing>"))
            continue
        for target in _LINK_RE.findall(document.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = (document.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                failures.append((document.relative_to(REPO_ROOT), target))
    return failures


def undocumented_references() -> list:
    """``tests/reference/`` modules that ``docs/architecture.md`` never names."""
    architecture = (REPO_ROOT / "docs" / "architecture.md").read_text()
    return [
        path.relative_to(REPO_ROOT)
        for path in sorted((REPO_ROOT / "tests" / "reference").glob("*.py"))
        if path.name != "__init__.py"
        and f"tests/reference/{path.name}" not in architecture
    ]


def _quoted_annotation_names(tree: ast.AST) -> set:
    """Names read inside string annotations (``x: "Forest"``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            annotations.append(node.returns)
            for arg in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
                        arguments.vararg, arguments.kwarg):
                if arg is not None:
                    annotations.append(arg.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in annotations:
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


def _exported_names(tree: ast.Module) -> set:
    """The string entries of a module-level ``__all__``."""
    names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else []
        )
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets) and node.value:
            names.update(
                n.value for n in ast.walk(node.value)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            )
    return names


def unused_imports() -> list:
    """(module, line, name) for every ``src/repro`` import that is never used."""
    failures = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    if alias.name != "*":
                        imported.append((node.lineno, alias.asname or alias.name))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _quoted_annotation_names(tree) | _exported_names(tree)
        failures.extend(
            (path.relative_to(REPO_ROOT), line, name)
            for line, name in imported
            if name not in used
        )
    return failures


def main() -> int:
    status = 0
    for path in missing_docstrings():
        print(f"missing module docstring: {path}")
        status = 1
    for document, target in broken_links():
        print(f"broken link in {document}: {target}")
        status = 1
    for path in undocumented_references():
        print(f"reference implementation not named in docs/architecture.md: {path}")
        status = 1
    for path, line, name in unused_imports():
        print(f"unused import in {path}:{line}: {name}")
        status = 1
    if status == 0:
        print(
            "docs check passed: module docstrings present, all relative links "
            "resolve, every reference implementation documented, no unused imports"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
