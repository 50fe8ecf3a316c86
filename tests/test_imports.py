"""Every name that a module of src/compgen imports is used in it."""

import ast
from pathlib import Path

import pytest

import compgen

MODULES = sorted(Path(compgen.__file__).parent.glob("*.py"))


def unused_imports(path: Path) -> list[str]:
    """The names path imports but never reads: a name counts as read when it
    occurs as an ast.Name, which also covers the root of an ast.Attribute.
    Exempt are `from __future__ import ...` and imports marked `# noqa: F401`
    (re-exports)."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path) == []
