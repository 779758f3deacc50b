#!/usr/bin/env python3
"""Documentation gate: every public module under ``src/repro`` must carry a
module-level docstring.

A "public module" is any ``.py`` file whose name does not start with an
underscore, plus the package initialisers (``__init__.py``) and the
``__main__.py`` entry point.  The gate runs in tier-1 via
``tests/test_docs_gate.py`` and can be invoked standalone::

    python scripts/check_docs.py

Exit status 0 means every module passes; 1 lists the offenders.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Repository root (this file lives in <root>/scripts/).
REPO_ROOT = Path(__file__).resolve().parent.parent

#: The package tree the gate covers.
SOURCE_ROOT = REPO_ROOT / "src" / "repro"

#: Dunder modules that are public despite the leading underscore.
PUBLIC_DUNDERS = {"__init__.py", "__main__.py"}

#: Modules the gate additionally requires to *exist* (repo-relative to
#: ``src/repro``).  The blanket rule only covers files that are present;
#: these are load-bearing public surfaces whose disappearance should fail
#: the gate too — notably the HTTP serving layer, whose documented wire
#: format (docs/api-reference.md) depends on them.
REQUIRED_MODULES = (
    "serving/server.py",
    "serving/protocol.py",
    "serving/pool.py",
    "serving/fleet.py",
    "serving/router.py",
    "serving/edge.py",
    "serving/tracing.py",
    "compiler/cache.py",
    "rtl/interchange.py",
    "fuzz/__init__.py",
    "fuzz/generator.py",
    "fuzz/differential.py",
    "fuzz/shrink.py",
    "fuzz/corpus.py",
)


def is_public_module(path: Path) -> bool:
    """True for modules the gate requires a docstring on."""
    name = path.name
    return not name.startswith("_") or name in PUBLIC_DUNDERS


def missing_docstrings(root: Path = SOURCE_ROOT) -> list[Path]:
    """Public modules under *root* without a module docstring."""
    problems: list[Path] = []
    for path in sorted(root.rglob("*.py")):
        if not is_public_module(path):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        if not ast.get_docstring(tree):
            problems.append(path)
    return problems


def missing_required_modules(root: Path = SOURCE_ROOT) -> list[str]:
    """Entries of :data:`REQUIRED_MODULES` that do not exist under *root*."""
    return [name for name in REQUIRED_MODULES if not (root / name).is_file()]


def main() -> int:
    absent = missing_required_modules()
    if absent:
        print("required public modules are missing:", file=sys.stderr)
        for name in absent:
            print(f"  src/repro/{name}", file=sys.stderr)
        return 1
    problems = missing_docstrings()
    if problems:
        print("public modules missing a module docstring:", file=sys.stderr)
        for path in problems:
            print(f"  {path.relative_to(REPO_ROOT)}", file=sys.stderr)
        return 1
    count = sum(
        1 for path in SOURCE_ROOT.rglob("*.py") if is_public_module(path)
    )
    print(f"docs gate: {count} public modules all carry docstrings")
    return 0


if __name__ == "__main__":
    sys.exit(main())
