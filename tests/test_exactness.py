"""No float in a library code path: ``QField.__float__`` is the one exception."""

import ast
from pathlib import Path

import atfkit

SOURCE = Path(atfkit.__file__).parent
# the math functions that take and return integers
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}


def float_sites(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each float literal, ``float(...)`` call and float
    ``math`` function in the tree, outside ``QField.__float__``."""
    exempt = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "QField"
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "__float__"
        for node in ast.walk(fn)
    }
    sites = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            sites.append((node.lineno, f"literal {node.value!r}"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            sites.append((node.lineno, "float() call"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in INTEGER_MATH
        ):
            sites.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names = [a.name for a in node.names if a.name not in INTEGER_MATH]
            sites += [(node.lineno, f"math.{name}") for name in names]
    return sorted(sites)


def test_scanner_finds_each_kind_of_float():
    tree = ast.parse(
        "import math\n"
        "from math import floor, gcd\n"
        "x = 0.5\n"
        "y = float(x)\n"
        "z = math.sqrt(2) + math.isqrt(9)\n"
        "class QField:\n"
        "    def __float__(self):\n"
        "        return math.sqrt(2) * 1.0\n"
    )
    assert float_sites(tree) == [
        (2, "math.floor"), (3, "literal 0.5"), (4, "float() call"), (5, "math.sqrt")
    ]


def test_library_code_has_no_float():
    modules = sorted(SOURCE.glob("*.py"))
    assert len(modules) >= 12
    sites = [
        f"{path.name}:{line}: {what}"
        for path in modules
        for line, what in float_sites(ast.parse(path.read_text(), str(path)))
    ]
    assert sites == []
