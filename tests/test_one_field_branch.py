"""The facts that differ between Q(i) and Q(sqrt(-3)) live in `CMField`:
outside it, only the normalizing congruence `is_normalized` may ask which
field it works in, so no other code compares a `.d` with an integer."""

import ast
from pathlib import Path

import pytest

import cyarith

SOURCES = sorted(Path(cyarith.__file__).parent.glob("*.py"))

#: the class and the function allowed to branch on the field tag
ALLOWED = {"CMField", "is_normalized"}


def _is_int_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(map(_is_int_literal, node.elts))
    return isinstance(node, ast.Constant) and type(node.value) is int


def field_branches(tree: ast.AST) -> list[str]:
    """`.d` compared with an integer literal (or a collection of them)
    outside the allowed class and function."""
    found = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in ALLOWED:
            return
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Attribute) and o.attr == "d" for o in operands) and any(
                map(_is_int_literal, operands)
            ):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_sources_found():
    assert "cmforms.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_field_decided_only_in_cmfield_and_is_normalized(path):
    assert field_branches(ast.parse(path.read_text(), filename=str(path))) == []


def test_detector_flags_each_kind():
    source = (
        "a = 'i' if f.d == 4 else 'w'\n"
        "def trace(e):\n    return 2 * e.x if e.field.d != 4 else 0\n"
        "class QuadOrderElem:\n    def mul(self):\n        if 3 == self.field.d:\n            pass\n"
        "b = field.d in (3, 4)\n"
    )
    assert [hit.split(": ", 1)[1] for hit in field_branches(ast.parse(source))] == [
        "f.d == 4",
        "e.field.d != 4",
        "3 == self.field.d",
        "field.d in (3, 4)",
    ]
    allowed = (
        "class CMField:\n    def name(self):\n        return 'i' if self.d == 4 else 'zeta3'\n"
        "def is_normalized(e):\n    return e.field.d == 4\n"
        "x = field.d % 2\ny = f'd={field.d}'\nz = m == 1\nw = field.d == n\n"
    )
    assert field_branches(ast.parse(allowed)) == []
