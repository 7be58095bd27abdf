"""Every module under src/ and tests/ uses each name it imports.

The package `__init__.py` files re-export names and are not scanned, and
`from __future__` imports bind no name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    assert unused_imports("import os\nimport a.b as c\nfrom x import y, z\nz()\n") == [
        "line 1: os", "line 2: c", "line 3: y"]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(p for top in ("src", "tests") for p in (ROOT / top).rglob("*.py")
                   if p.name != "__init__.py")
    assert len(paths) > 15
    unused = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in paths}
    assert {path: names for path, names in unused.items() if names} == {}
