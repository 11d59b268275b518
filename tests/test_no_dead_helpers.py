"""Code that nothing needs is deleted: every module-level private name
(`_x`, not a dunder) that a module of the package defines is used
somewhere in the package outside its own definition."""

import ast
from pathlib import Path

import cyarith

SOURCES = sorted(Path(cyarith.__file__).parent.glob("*.py"))


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Each module-level private function, class or assigned name, with
    the statement that defines it."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            continue
        found.update((name, node) for name in names if is_private(name))
    return found


def dead_helpers(trees: dict[str, ast.Module]) -> list[str]:
    """`module: name` for every private definition read nowhere in `trees`
    but inside the statement that defines it; an import alone is no use."""
    definitions = {
        (module, name): node for module, tree in trees.items() for name, node in private_definitions(tree).items()
    }
    inside = {id(n): key for key, node in definitions.items() for n in ast.walk(node)}
    used = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            owner = inside.get(id(node))
            if owner is None or owner[1] != name:
                used.add(name)
    return sorted(f"{module}: {name}" for module, name in definitions if name not in used)


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"arith.py", "arrangement.py", "qseries.py"}


def test_every_private_helper_is_used():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    assert dead_helpers(trees) == []


def test_detector_flags_each_kind():
    lib = (
        "_TABLE = {}\n"
        "_WIDTH: int = 8\n"
        "_SEEN = 0\n"
        "_IMPORTED_ONLY = 0\n"
        "def _dead(v):\n    return v\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
        "class _Unused:\n    pass\n"
        "def _used(v):\n    return _TABLE.get(v)\n"
        "def __dunder__():\n    pass\n"
        "def public():\n    return _used(1)\n"
    )
    user = "from .lib import _SEEN, _IMPORTED_ONLY\nimport lib\nx = lib._WIDTH + _SEEN\n"
    trees = {"lib.py": ast.parse(lib), "user.py": ast.parse(user)}
    assert dead_helpers(trees) == [f"lib.py: {name}" for name in ("_IMPORTED_ONLY", "_Unused", "_dead", "_recursive")]
