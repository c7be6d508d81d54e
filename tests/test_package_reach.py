"""Every function, class and method of the package is reached from package
code or from the benchmarks, unless ``__init__`` exports it: code that only
tests use lives in ``tests/``.  A static check with ``ast``.

A reference is a loaded name or attribute in a package module, or in
``benchmarks/`` also a string constant, since ``spans.LAYERS`` names the
functions it traces by string.  Names are matched bare, so a method counts
as reached when any attribute of its name is read.  A reference inside the
definition itself, or inside a definition that is not reached, does not
count, so a helper that only unreached code calls is listed too."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree: ast.Module, module: str) -> dict[int, tuple[str, str]]:
    """id(node) -> ("module.qualified name", bare name) for each top-level
    function or class and each method of such a class that is not a dunder."""
    found = {}
    for node in tree.body:
        if not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            continue
        found[id(node)] = (f"{module}.{node.name}", node.name)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    found[id(item)] = (f"{module}.{node.name}.{item.name}", item.name)
    return found


def _references(node, definitions: dict, enclosing: frozenset, strings: bool,
                out: dict) -> None:
    """Add to out[name] the set of definitions enclosing each reference."""
    if id(node) in definitions:
        enclosing = enclosing | {definitions[id(node)][0]}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        out[node.id].append(enclosing)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        out[node.attr].append(enclosing)
    elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
        out[node.value].append(enclosing)
    for child in ast.iter_child_nodes(node):
        _references(child, definitions, enclosing, strings, out)


def reached_only_by_tests(package: dict[str, str],
                          benchmarks: list[str]) -> list[str]:
    """"module.name" of each definition in the package sources (module ->
    source, with "__init__" among them) that neither ``__init__`` exports
    nor reached code refers to, sorted."""
    refs: dict[str, list[frozenset]] = defaultdict(list)
    defs = []  # ("module.qualified name", bare name)
    exported = set()
    for module, source in package.items():
        tree = ast.parse(source)
        definitions = _definitions(tree, module)
        _references(tree, definitions, frozenset(), False, refs)
        if module == "__init__":
            exported = {alias.asname or alias.name for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom) for alias in node.names}
        defs += list(definitions.values())
    for source in benchmarks:
        _references(ast.parse(source), {}, frozenset(), True, refs)
    unreached: set[str] = set()
    while True:
        now = {qual for qual, bare in defs
               if qual.partition(".")[2] not in exported
               and not any(not enclosing & (unreached | {qual})
                           for enclosing in refs[bare])}
        if now == unreached:
            return sorted(unreached)
        unreached = now


def test_the_check_finds_code_only_tests_reach():
    package = {
        "__init__": "from .shapes import Exported\n",
        "shapes": '''
class Exported:
    def used(self): return self.helper()
    def helper(self): return 1
    def only_tested(self): return self.only_tested()
    def __repr__(self): return ""

def traced(): pass
def _inner(): return _inner()
def caller(): return _inner()
def top(): return Exported().used()
top()
''',
    }
    benchmarks = ['LAYERS = {"shapes": ("traced",)}\n']
    assert reached_only_by_tests(package, benchmarks) == [
        "shapes.Exported.only_tested", "shapes._inner", "shapes.caller"]


def test_every_definition_is_reached_from_package_or_benchmark_code():
    package = {p.stem: p.read_text(encoding="utf-8")
               for p in (ROOT / "src" / "cutgrids").glob("*.py")}
    benchmarks = [p.read_text(encoding="utf-8")
                  for p in (ROOT / "benchmarks").glob("*.py")]
    assert reached_only_by_tests(package, benchmarks) == []
