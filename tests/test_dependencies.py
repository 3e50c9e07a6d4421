"""obskit runs on the standard library alone; networkx serves the tests."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_no_obskit_module_imports_networkx():
    importers = set()
    for path in sorted((ROOT / "src" / "obskit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "networkx" for name in names):
                importers.add(path.name)
    assert importers == set()


def test_pyproject_lists_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    assert any(req.startswith("networkx")
               for req in project["optional-dependencies"]["test"])
