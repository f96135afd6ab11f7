"""Every name a twinfuse module imports is used in that module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "twinfuse"

# Bound in mocap only so that perfbench/spans.py can wrap them there.
ALLOWED = {("mocap.py", "triangulate"), ("mocap.py", "unproject")}

# __init__.py imports to re-export: its names are the package's public API.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_import_detector():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom json import dumps, loads\n"
              "def f(x: np.ndarray):\n    return loads(x)\n")
    assert _unused_imports(source) == ["dumps", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = [name for name in _unused_imports(path.read_text())
              if (path.name, name) not in ALLOWED]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"
