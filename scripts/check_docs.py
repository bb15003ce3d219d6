#!/usr/bin/env python
"""Documentation health check, run by CI.

Three invariants are enforced:

1. every public module under ``src/repro`` (file names not starting with an
   underscore; ``__init__.py`` counts as the package's module) carries a
   module docstring — the ``core`` package is the hard requirement, the rest
   of the tree is checked too since it currently holds;
2. every relative Markdown link in the repo's documentation front door
   (``README.md``, ``docs/*.md``, ``ROADMAP.md``, ``benchmarks/README.md``)
   resolves to an existing file or directory;
3. every reference implementation in ``tests/reference/`` (each module but
   ``__init__.py``) is named in ``docs/architecture.md``, which is where a
   reader learns what each one pins down.

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
    if status == 0:
        print(
            "docs check passed: module docstrings present, all relative links "
            "resolve, every reference implementation documented"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
