"""A slow path survives only as a test oracle: no function or class that
tests/oracles.py defines is defined in, or imported by, a module of the
package, and no module of the package imports the oracles."""

import ast
from pathlib import Path

import pytest

import cyarith

SOURCES = sorted(Path(cyarith.__file__).parent.glob("*.py"))
ORACLES = Path(__file__).parent / "oracles.py"


def oracle_names(tree: ast.Module) -> set[str]:
    return {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def oracle_uses(tree: ast.AST, names: set[str]) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name in names:
            found.append(f"{where}: defines {node.name}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module = node.module if isinstance(node, ast.ImportFrom) else None
            if module and module.rsplit(".", 1)[-1] == "oracles":
                found.append(f"{where}: imports from {module}")
            for alias in node.names:
                for name in {alias.name.rsplit(".", 1)[-1], alias.asname} - {None}:
                    if name in names or name == "oracles":
                        found.append(f"{where}: imports {name}")
    return found


NAMES = oracle_names(ast.parse(ORACLES.read_text(), filename=str(ORACLES)))


def test_oracles_found():
    assert {"eta_unit_power", "pow_trunc", "tensor_euler_factor_full_degree"} <= NAMES
    assert {path.name for path in SOURCES} >= {"arith.py", "qseries.py", "tensor.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_oracle_in_the_package(path):
    assert oracle_uses(ast.parse(path.read_text(), filename=str(path)), NAMES) == []


def test_detector_flags_each_kind():
    source = (
        "from .helpers import slow as quick\n"
        "import pkg.slow\n"
        "from oracles import other\n"
        "import tests.oracles\n"
        "def slow(n):\n    return n\n"
        "class Box:\n    def slow(self):\n        pass\n"
        "class Slow:\n    pass\n"
    )
    assert sorted(oracle_uses(ast.parse(source), {"slow", "Slow"})) == [
        "line 10: defines Slow",
        "line 1: imports slow",
        "line 2: imports slow",
        "line 3: imports from oracles",
        "line 4: imports oracles",
        "line 5: defines slow",
        "line 8: defines slow",
    ]
    assert oracle_uses(ast.parse("from .arith import fast\ndef fast_path(n):\n    return n\n"), {"slow"}) == []
