"""The package runs on the standard library alone."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "sphgeo").glob("*.py"))


def test_imports_are_standard_library_only():
    # relative imports (level > 0) stay inside the package
    assert SOURCES
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_dependency_list_is_empty():
    project = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    table = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", project, re.M | re.S).group(1)
    assert re.search(r"^dependencies = \[\]$", table, re.M)
