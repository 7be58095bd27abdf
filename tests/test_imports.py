"""Every module under src/ and tests/ uses each name it imports, and every
private module-level definition under src/ is used.

The package `__init__.py` files re-export names and are not scanned for
imports, and `from __future__` imports bind no name.
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


def _defined_names(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level private names (functions, classes and assignments whose
    name starts with `_`, dunders exempt) that no code references outside
    the statement defining them.  `sources` maps module names to sources;
    `from .m import _x` or `from pkg.m import _x` references m's `_x`."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = {(module, name): stmt for module, tree in trees.items() for stmt in tree.body
               for name in _defined_names(stmt)
               if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))}
    used = set()
    for module, tree in trees.items():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.ImportFrom):
                    source = (node.module or "").rpartition(".")[2]
                    used.update((source, alias.name) for alias in node.names)
                elif isinstance(node, ast.Name) and defined.get((module, node.id)) is not stmt:
                    used.add((module, node.id))
    return sorted(f"{module}.{name}" for module, name in defined if (module, name) not in used)


def test_unused_private_definitions_are_found():
    sources = {
        "a": "def _f():\n    return _f()\n_X = 1\n_Y, _Z = 2, 3\n__all__ = []\n"
             "def _g():\n    return _Y\nclass _C:\n    pass\n",
        "b": "from .a import _g\nfrom pkg.a import _Z\n_C = 0\nprint(_C)\n",
    }
    assert unused_private_definitions(sources) == ["a._C", "a._X", "a._f"]


def test_no_private_definition_in_src_is_unused():
    paths = sorted((ROOT / "src" / "cubecensus").glob("*.py"))
    assert len(paths) > 5
    assert unused_private_definitions({p.stem: p.read_text() for p in paths}) == []
