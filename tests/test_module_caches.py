"""The package keeps one module-level cache, the memo on grids.cut_regions.
Any other state lives in objects a caller creates and passes, such as the
integer table one 2D refinement builds and shares among its y-fibres, with
the graphs of its cells, so no call changes what a later call computes or
how much memory the process holds between calls."""

import ast
from pathlib import Path

import cutgrids

PACKAGE = Path(cutgrids.__file__).parent
CACHE_DECORATORS = {"lru_cache", "cache"}
MUTATORS = {"setdefault", "update", "pop", "popitem", "clear", "add",
            "append", "extend", "insert", "remove", "discard", "__setitem__"}
ALLOWED = {("grids", "cut_regions")}  # (module, function) with a memo
CONTAINERS = {"dict", "set", "list", "defaultdict", "OrderedDict", "Counter",
              "deque", "WeakKeyDictionary", "WeakValueDictionary"}


def _names_a_cache_decorator(node) -> bool:
    """lru_cache or cache, by its own name or as functools.<name>."""
    if isinstance(node, ast.Name):
        return node.id in CACHE_DECORATORS
    return (isinstance(node, ast.Attribute) and node.attr in CACHE_DECORATORS
            and isinstance(node.value, ast.Name) and node.value.id == "functools")


def _is_empty_container(node) -> bool:
    """{}, [], set(), dict(), defaultdict(list) and the like: a module-level
    container that starts empty is only there to be filled at run time."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, (ast.List, ast.Set)):
        return not node.elts
    if not isinstance(node, ast.Call) or node.keywords:
        return False
    name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(
        node.func, "id", None)
    return name in CONTAINERS and len(node.args) <= (name == "defaultdict")


def module_caches(source: str, module: str) -> list[str]:
    """Where source memoizes a function, keeps an empty module-level
    container, or writes a module-level name from inside a function, as
    "module:line: what", in line order."""
    tree = ast.parse(source)
    module_names = set()
    found = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        module_names.update(names)
        if names and node.value is not None and _is_empty_container(node.value):
            found.append((node.lineno, f"empty {', '.join(names)}"))
    allowed = set()  # the nodes of the allowed memos' decorators
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if (module, fn.name) in ALLOWED:
            allowed |= {id(n) for d in fn.decorator_list for n in ast.walk(d)}
        local = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        local |= {n.id for n in ast.walk(fn)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                found.append((node.lineno, f"global {', '.join(node.names)}"))
                continue
            if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                target = node.value
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATORS):
                target = node.func.value
            else:
                continue
            if (isinstance(target, ast.Name) and target.id in module_names
                    and target.id not in local):
                found.append((node.lineno, f"writes {target.id}"))
    for node in ast.walk(tree):
        if _names_a_cache_decorator(node) and id(node) not in allowed:
            found.append((node.lineno, ast.unparse(node)))
    return [f"{module}:{line}: {what}" for line, what in sorted(found)]


def test_the_cut_regions_memo_is_the_only_module_level_cache():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += module_caches(path.read_text(encoding="utf-8"), path.stem)
    assert found == []


def test_module_caches_finds_memos_and_module_state():
    source = '''
import functools
from functools import lru_cache, cache
_MEMO = {}
_SEEN: set = set()
TABLE = {"+": "-"}

@lru_cache(maxsize=64)
def cut_regions(cut): return cut

@cache
def other(x): return x

def lookup(x):
    return TABLE[x]

def remember(x):
    _MEMO[x] = x
    _SEEN.add(x)
    return functools.lru_cache(None)(lookup)

def shadowed(_MEMO):
    _MEMO[1] = 2
'''
    assert module_caches(source, "grids") == [
        "grids:4: empty _MEMO", "grids:5: empty _SEEN", "grids:11: cache",
        "grids:18: writes _MEMO", "grids:19: writes _SEEN",
        "grids:20: functools.lru_cache"]
    assert module_caches(source, "plgeom")[2] == "plgeom:8: lru_cache"
    assert len(module_caches(source, "plgeom")) == 7
