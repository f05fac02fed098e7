"""Static checks of the package source, which has no linter to run."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "signcov").glob("*.py"))


def unused_imports(text: str) -> list[str]:
    """Names the module text imports and never reads, but for `from
    __future__` imports and names imported on a `# noqa: F401` line."""
    tree, lines = ast.parse(text), text.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{alias.lineno}: {name}")
    return unused


def test_unused_imports_finds_what_it_should():
    text = ("from __future__ import annotations\nimport os\nimport numpy.random\n"
            "from x import (\n    a,\n    b,  # noqa: F401\n)\nimport re  # noqa: F401\n"
            "def f():\n    import json\n    return a, json.dumps\n")
    assert unused_imports(text) == ["2: os", "3: numpy"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text()) == []


# the one location dispatcher, location._locations, is the only caller of these
BLOCK_ESTIMATORS = {"_spatial_medians", "_block_means"}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "location.py"],
                         ids=lambda p: p.name)
def test_only_location_reaches_the_block_estimators(path):
    tree = ast.parse(path.read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & BLOCK_ESTIMATORS
