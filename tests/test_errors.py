"""Every exception the package raises belongs to the ArtifactError
hierarchy, so callers can catch domain failures with one class."""

import ast
import importlib
from pathlib import Path

import cutgrids
from cutgrids.errors import ArtifactError

PACKAGE = Path(cutgrids.__file__).parent


def test_every_raise_names_an_artifact_error():
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "cutgrids" if path.stem == "__init__" else f"cutgrids.{path.stem}"
        module = importlib.import_module(name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue  # a bare re-raise
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            where = f"{path.name}:{node.lineno}"
            if not isinstance(exc, ast.Name):
                outside.append(f"{where}: {ast.unparse(exc)}")
                continue
            if exc.id == "AssertionError":  # unreachable branches assert
                continue
            cls = getattr(module, exc.id, None)
            if not (isinstance(cls, type) and issubclass(cls, ArtifactError)):
                outside.append(f"{where}: {exc.id}")
    assert outside == []
