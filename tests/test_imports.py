"""Every name a module imports is read somewhere in that module: a static
check of the package's modules and of the tests.  ``__init__.py`` is left
out, since its imports are the package's exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*ROOT.glob("src/cutgrids/*.py"), *ROOT.glob("tests/*.py")]
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by an import statement and never loaded, each with
    the line of its import."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read]


def test_the_check_finds_an_unused_import():
    source = "import os.path\nfrom json import dumps, loads as read\nread(os.sep)\n"
    assert unused_imports(source) == ["dumps (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
