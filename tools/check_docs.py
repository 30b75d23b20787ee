#!/usr/bin/env python3
"""Docs consistency checker (run by the CI ``docs`` job and the tier-1
test ``tests/test_docs.py``).

Four checks:

1. **Links** — every intra-repo markdown link in the repository's
   ``*.md`` files (root + ``docs/``) must point at a file that exists.
   External (``http(s)://``), ``mailto:`` and pure-anchor links are
   skipped; placeholder links like ``<this-repo>`` are ignored.
2. **Workload coverage** — every canonical workload name in
   ``repro.workloads.registry.all_workloads()`` must appear verbatim in
   ``docs/workloads.md``, so the gallery can never silently fall behind
   the registry.
3. **Docs reachability** — every file in ``docs/`` must be linked from
   ``README.md`` or ``docs/architecture.md``, so new documents (e.g.
   ``docs/tuner.md``, ``docs/testing.md``) can never be orphaned.
4. **Cited docs exist** — every ``*.md`` file name that a ``.py`` file
   under ``src/``, ``tests/`` or ``tools/`` cites must exist at the repo
   root or under ``docs/``, so code comments and docstrings can never
   point readers at a document that was deleted or never written.

Exit status 0 when clean; 1 with a per-problem report otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown inline links: [text](target). Images share the syntax.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: Link targets that are not intra-repo file references.
_EXTERNAL = ("http://", "https://", "mailto:", "#")
#: A markdown file name, optionally behind a relative directory path.
_MD_NAME = re.compile(r"(?<![\w.-])(?:[\w.-]+/)*([\w-]+\.md)\b")
#: Code trees whose ``*.md`` citations must resolve.
_CITING_DIRS = ("src", "tests", "tools")
#: The checker's own tests cite missing files on purpose.
_CITATION_EXEMPT = ("tests/test_docs.py",)


def markdown_files() -> List[Path]:
    """The repo's prose: root-level and docs/ markdown files."""
    files = sorted(REPO_ROOT.glob("*.md")) + sorted((REPO_ROOT / "docs").glob("*.md"))
    return [f for f in files if f.is_file()]


def check_links() -> List[str]:
    """Return one error string per unresolved intra-repo link."""
    errors: List[str] = []
    for md in markdown_files():
        text = md.read_text(encoding="utf-8")
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(_EXTERNAL) or "<" in target:
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (md.parent / path).resolve()
            if not resolved.exists():
                rel = md.relative_to(REPO_ROOT)
                errors.append(f"{rel}: broken link -> {target}")
    return errors


def check_workload_coverage() -> List[str]:
    """Return one error string per registry name missing from the gallery."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.workloads.registry import all_workloads
    finally:
        sys.path.pop(0)
    gallery = REPO_ROOT / "docs" / "workloads.md"
    if not gallery.is_file():
        return ["docs/workloads.md is missing"]
    text = gallery.read_text(encoding="utf-8")

    def documented(name: str) -> bool:
        # Boundary-aware: `cg/fv1/N=1` must not pass by being a prefix
        # of a documented `cg/fv1/N=16` (names may be followed by
        # punctuation/backticks but never by more name characters).
        return re.search(re.escape(name) + r"(?![\w@=])", text) is not None

    return [
        f"docs/workloads.md: registry workload {name!r} not documented"
        for name in all_workloads()
        if not documented(name)
    ]


def check_docs_reachable() -> List[str]:
    """Return one error string per docs/ file no entry point links to."""
    entry_points = [REPO_ROOT / "README.md", REPO_ROOT / "docs" / "architecture.md"]
    linked: set = set()
    for md in entry_points:
        if not md.is_file():
            continue
        for match in _LINK.finditer(md.read_text(encoding="utf-8")):
            target = match.group(1)
            if target.startswith(_EXTERNAL) or "<" in target:
                continue
            path = target.split("#", 1)[0]
            if path:
                linked.add((md.parent / path).resolve())
    errors = []
    for doc in sorted((REPO_ROOT / "docs").glob("*.md")):
        if doc.resolve() in linked or doc.name == "architecture.md":
            continue
        errors.append(
            f"docs/{doc.name}: not linked from README.md or docs/architecture.md"
        )
    return errors


def check_cited_docs() -> List[str]:
    """Return one error string per ``*.md`` name a ``.py`` file cites that
    exists neither at the repo root nor under ``docs/``."""
    errors = []
    for top in _CITING_DIRS:
        for py in sorted((REPO_ROOT / top).rglob("*.py")):
            rel = py.relative_to(REPO_ROOT).as_posix()
            if rel in _CITATION_EXEMPT:
                continue
            text = py.read_text(encoding="utf-8")
            for lineno, line in enumerate(text.splitlines(), 1):
                for name in _MD_NAME.findall(line):
                    if not ((REPO_ROOT / name).is_file()
                            or (REPO_ROOT / "docs" / name).is_file()):
                        errors.append(f"{rel}:{lineno}: cites missing {name}")
    return errors


def main() -> int:
    errors = (check_links() + check_workload_coverage()
              + check_docs_reachable() + check_cited_docs())
    if errors:
        print("docs check FAILED:")
        for e in errors:
            print(f"  {e}")
        return 1
    n_files = len(markdown_files())
    print(f"docs check ok ({n_files} markdown files, all registry "
          "workloads documented)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
