"""The package computes in exact integer arithmetic: its source has no
float literal, no true division and no call that makes a float."""

import ast
from pathlib import Path

import pytest

import cyarith

SOURCES = sorted(Path(cyarith.__file__).parent.glob("*.py"))


def float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: literal {node.value!r}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{where}: true division")
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "float":
                found.append(f"{where}: float(...)")
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "sqrt"
                and isinstance(func.value, ast.Name)
                and func.value.id == "math"
            ):
                found.append(f"{where}: math.sqrt(...)")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{where}: from math import sqrt" for alias in node.names if alias.name == "sqrt"]
    return found


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"arith.py", "pointcount.py", "qseries.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_floating_point(path):
    assert float_uses(ast.parse(path.read_text(), filename=str(path))) == []


def test_detector_flags_each_kind():
    source = "import math\nfrom math import sqrt\na = n**0.5\nb = x / y\nc /= 2\nd = float(3)\ne = math.sqrt(2)\nf = 2j\n"
    kinds = [use.split(": ", 1)[1] for use in float_uses(ast.parse(source))]
    assert sorted(kinds) == sorted(
        ["from math import sqrt", "literal 0.5", "true division", "true division", "float(...)", "math.sqrt(...)", "literal 2j"]
    )
    assert float_uses(ast.parse("a = x // y\nb = isqrt(n)\nc = isinstance(v, float)\n")) == []
