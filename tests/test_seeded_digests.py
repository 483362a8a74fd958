"""Seeded outputs are pinned: `tools/seeded_digests.py` must print exactly
`tools/seeded_digests.txt`. A change that alters a seeded output updates
that file and says which lines changed and why."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_seeded_digests_match_pinned_file():
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "seeded_digests.py")],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=600, check=True, cwd=ROOT,
    )
    got = out.stdout.splitlines()
    want = (ROOT / "tools" / "seeded_digests.txt").read_text().splitlines()
    want_by, got_by = (dict(line.split(" ", 1) for line in lines) for lines in (want, got))
    differing = [name for name in {**want_by, **got_by} if want_by.get(name) != got_by.get(name)]
    assert not differing, f"seeded outputs differ from tools/seeded_digests.txt: {differing}"
    assert got == want  # the same lines in the same order
