"""Code that nothing needs is deleted: every module-level private name
(`_x`, not a dunder) that a module of the package defines is used
somewhere in the package outside its own definition, and every public
name, public method and public dataclass field is read by the package,
the benchmark or the test fixtures, not by its own tests alone."""

import ast
from pathlib import Path

import cyarith

SOURCES = sorted(Path(cyarith.__file__).parent.glob("*.py"))
ROOT = Path(__file__).parent.parent
#: production readers of the public names besides the package: the
#: benchmark, and the fixture that resets every cache by `cache_clear`
READERS = sorted((ROOT / "perfbench").glob("*.py")) + [Path(__file__).parent / "conftest.py"]


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def is_public(name: str) -> bool:
    return not name.startswith("_")


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCTIONS, ast.ClassDef)


def is_dataclass(node: ast.ClassDef) -> bool:
    decorators = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


def definitions(tree: ast.Module, public: bool = False) -> list[tuple[str, ast.AST]]:
    """Each module-level private function, class or assigned name, with
    the statement that defines it; with `public`, each public one instead,
    and each public method of a module-level class, and each public
    annotated field of a module-level dataclass, after its class."""
    wanted = is_public if public else is_private
    found = []
    for node in tree.body:
        if isinstance(node, _DEFS):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            continue
        found += [(name, node) for name in names if wanted(name)]
        if public and isinstance(node, ast.ClassDef):
            found += [(m.name, m) for m in node.body if isinstance(m, _FUNCTIONS) and wanted(m.name)]
            if is_dataclass(node):
                fields = [m for m in node.body if isinstance(m, ast.AnnAssign) and isinstance(m.target, ast.Name)]
                found += [(m.target.id, m) for m in fields if wanted(m.target.id)]
    return found


def dead_helpers(trees: dict[str, ast.Module], public: bool = False, readers=()) -> list[str]:
    """`module: name` for every definition (see `definitions`) read nowhere
    in `trees` or `readers` but inside the statement that defines it; an
    import alone is no use.  Names are matched, not objects: a read of
    `x.chi` counts for every `chi` defined."""
    defined = [(module, name, node) for module, tree in trees.items() for name, node in definitions(tree, public)]
    # a method comes after its class, so a node inside it is owned by the method
    inside = {id(n): (module, name) for module, name, node in defined for n in ast.walk(node)}
    used = set()
    for tree in [*trees.values(), *readers]:
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
    return sorted({f"{module}: {name}" for module, name, _ in defined if name not in used})


def parse(paths) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"arith.py", "arrangement.py", "qseries.py"}
    assert {path.name for path in READERS} >= {"workloads.py", "conftest.py"}


def test_every_private_helper_is_used():
    assert dead_helpers(parse(SOURCES)) == []


def test_every_public_name_is_read():
    assert dead_helpers(parse(SOURCES), public=True, readers=parse(READERS).values()) == []


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


def test_public_detector_flags_each_kind():
    lib = (
        "LIMIT = 3\n"
        "UNREAD = 4\n"
        "def helper():\n    return LIMIT\n"
        "def orphan():\n    return orphan()\n"
        "class Box:\n"
        "    def read(self):\n        return self.alias()\n"
        "    def alias(self):\n        return self.read()\n"
        "    def selfish(self):\n        return self.selfish()\n"
        "    def _private(self):\n        pass\n"
        "    def __str__(self):\n        return helper()\n"
        "class Lonely:\n    pass\n"
        "@dataclass(frozen=True)\n"
        "class Pair:\n    left: int\n    unread: int\n    _hidden: int\n"
    )
    init = "from .lib import UNREAD, Lonely\n"
    bench = "import lib\nlib.Box().read()\nlib.Pair(1, 2, 3).left\n"
    trees = {"lib.py": ast.parse(lib), "__init__.py": ast.parse(init)}
    flagged = ("Lonely", "UNREAD", "orphan", "selfish", "unread")
    assert dead_helpers(trees, public=True, readers=[ast.parse(bench)]) == [f"lib.py: {name}" for name in flagged]
    # without the reader, nothing outside Box reads Box
    assert "lib.py: Box" in dead_helpers(trees, public=True)
