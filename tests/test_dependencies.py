"""prtvol imports nothing at run time beyond numpy and the standard library."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "prtvol"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "prtvol"}


def foreign_imports(source):
    """Top-level names of the absolute imports in source outside ALLOWED."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [n.split(".")[0] for n in names if n.split(".")[0] not in ALLOWED]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_numpy_and_stdlib(path):
    assert foreign_imports(path.read_text()) == []


def test_foreign_imports_are_found():
    source = ("import os.path\nimport numpy as np\nfrom . import sh\n"
              "from prtvol import field\nimport scipy.ndimage\n"
              "def f():\n    from PIL import Image\n")
    assert foreign_imports(source) == ["scipy", "PIL"]
