"""No module of ``src/hypermat`` except ``__init__.py`` imports a name it
never uses.  Deleting code can orphan an import, and nothing else would
notice: the scan reads each module's syntax tree, counts every name it
loads (quoted annotations included) and lists the imported ones it never
loads.  ``__init__.py`` imports to re-export, so it is left out."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hypermat"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    nodes = list(ast.walk(tree))
    annotations = [n.annotation for n in nodes if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in nodes if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for a in filter(None, annotations):
        for c in ast.walk(a):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):  # quoted, as in -> "HVector"
                used.update(n.id for n in ast.walk(ast.parse(c.value, mode="eval")) if isinstance(n, ast.Name))
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_orphaned_import():
    assert unused_imports("from .hyperfields import Grade, HElement\nx: HElement\n") == ["Grade"]
    assert unused_imports("import os\ndef f() -> 'os.PathLike': ...\n") == []
