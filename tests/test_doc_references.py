"""Every Markdown document the code cites must exist in the repository.

Docstrings and comments point readers at ``README.md`` sections and other
``*.md`` files; a citation of a document that is not checked in leaves the
reader with nothing to follow.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CITING_DIRS = ("src", "tests", "benchmarks", "examples")
_MD_NAME = re.compile(r"[A-Za-z0-9_./-]+\.md\b")


def _cited_names() -> dict[str, list[str]]:
    """``{cited name: [file:line, ...]}`` over the Python sources."""
    cited: dict[str, list[str]] = {}
    for directory in CITING_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            for lineno, line in enumerate(text.splitlines(), start=1):
                for name in _MD_NAME.findall(line):
                    where = f"{path.relative_to(ROOT)}:{lineno}"
                    cited.setdefault(name, []).append(where)
    return cited


def _exists(name: str, basenames: set[str]) -> bool:
    if "/" in name:
        return (ROOT / name).is_file()
    return name in basenames


def test_every_cited_markdown_document_exists():
    basenames = {
        path.name for path in ROOT.rglob("*.md") if ".git" not in path.relative_to(ROOT).parts
    }
    cited = _cited_names()
    assert "README.md" in cited  # the scan reads the sources it should
    missing = {name: sites for name, sites in cited.items() if not _exists(name, basenames)}
    assert not missing, f"cited documents missing from the repo: {missing}"
