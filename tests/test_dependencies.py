"""The runtime needs only the standard library: networkx and scipy are
references for differential tests, never imported by f2froute itself.
Its modules share only public names: none imports another's private one."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import f2froute

SCRIPT = """
import importlib, pkgutil, sys
import f2froute
for module in pkgutil.iter_modules(f2froute.__path__):
    importlib.import_module(f"f2froute.{module.name}")
from f2froute.experiments import aggregate
from f2froute.graph import generate_synthetic
generate_synthetic("pa", 200, 3, 1)
generate_synthetic("er", 100, 0.1, 1)
aggregate("x", [{"m": 1.0}, {"m": 2.0}, {"m": 4.0}], ("m",))
print(" ".join(sorted(name for name in sys.modules if name.partition(".")[0] in ("networkx", "scipy"))))
"""


def test_runtime_imports_neither_networkx_nor_scipy():
    src = str(Path(f2froute.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.split() == []


def test_modules_import_no_private_names_from_each_other():
    # a name with a leading underscore belongs to its own module
    package = Path(f2froute.__file__).resolve().parent
    crossings = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("f2froute")):
                crossings += [f"{path.name}: {node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    assert crossings == []
