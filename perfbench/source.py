"""The f2froute sources this benchmark measures.

Importing this module puts the checkout's `src/` first on sys.path, so
the benchmark always runs the code next to it, never an installed copy.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "f2froute" / "__init__.py").is_file():
    raise ImportError(f"f2froute sources not found under {SRC}")
sys.path.insert(0, str(SRC))


def src_digest() -> str:
    """sha256 over the package's file names and contents."""
    h = hashlib.sha256()
    for path in sorted((SRC / "f2froute").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None
