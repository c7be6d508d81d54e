"""A dataclass declared with ``init=False`` has a hand-written ``__init__``,
which ``dataclasses.replace``, ``repr`` and ``==`` assume takes the fields,
by name and in order.  A static check with ``ast`` finds each such class in
the package, and its ``__init__`` parameters after ``self`` are compared
with ``dataclasses.fields`` of the class itself, so a field added without
the constructor fails here."""

import ast
import dataclasses
import importlib
from pathlib import Path

import cutgrids

PACKAGE = Path(cutgrids.__file__).parent


def _declares_init_false(decorator) -> bool:
    """@dataclass(..., init=False) or @dataclasses.dataclass(..., init=False)."""
    if not isinstance(decorator, ast.Call):
        return False
    name = decorator.func
    named = (isinstance(name, ast.Name) and name.id == "dataclass") or (
        isinstance(name, ast.Attribute) and name.attr == "dataclass")
    return named and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in decorator.keywords)


def hand_written_inits(source: str) -> dict[str, list[str]]:
    """Class name -> the parameter names of its own __init__ after self,
    for each top-level class of source declared a dataclass with
    init=False (an empty list when it defines no __init__)."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(
                map(_declares_init_false, node.decorator_list)):
            init = next((item for item in node.body
                         if isinstance(item, ast.FunctionDef) and item.name == "__init__"),
                        None)
            args = [] if init is None else init.args.posonlyargs + init.args.args
            found[node.name] = [a.arg for a in args[1:]]
    return found


def test_the_check_reads_init_false_dataclasses():
    source = '''
import dataclasses
from dataclasses import dataclass

@dataclass(frozen=True, init=False)
class Cell:
    lo: int
    hi: int
    def __init__(self, lo, hi): pass

@dataclasses.dataclass(init=False)
class Missing:
    lo: int

@dataclass(frozen=True)
class Generated:
    lo: int
'''
    assert hand_written_inits(source) == {"Cell": ["lo", "hi"], "Missing": []}


def test_hand_written_constructors_take_the_fields_in_order():
    checked = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, params in hand_written_inits(path.read_text(encoding="utf-8")).items():
            cls = getattr(importlib.import_module(f"cutgrids.{path.stem}"), name)
            fields = [f.name for f in dataclasses.fields(cls)]
            assert params == fields, f"{path.stem}.{name}"
            checked.append(f"{path.stem}.{name}")
    assert {"plgeom.Seg", "plgeom.Slab"} <= set(checked)
