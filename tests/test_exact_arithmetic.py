"""The library computes in ints and Fractions only.

Every claim the verifiers check is exact, so no module of ``lampgeo`` may
hold a float literal or call ``float``, ``math.sqrt``, ``math.log*``,
``math.hypot`` or ``math.exp``.  The ``time.perf_counter`` timings behind
``--timing`` are the one float source left, and they only fill
``elapsed_ms``.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lampgeo"
MODULES = sorted(SRC.glob("*.py"))
FLOAT_MATH = {"sqrt", "hypot", "exp"}


def _is_float_math(name: str) -> bool:
    return name in FLOAT_MATH or name.startswith("log")


def float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: float literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"{where}: call to float")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and _is_float_math(node.attr)):
            found.append(f"{where}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend(f"{where}: from math import {a.name}"
                         for a in node.names if _is_float_math(a.name) or a.name == "*")
    return found


def test_modules_found():
    assert {"base_groups.py", "quads.py", "maps.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_arithmetic(path):
    assert float_uses(ast.parse(path.read_text(), filename=str(path))) == []


def test_checker_sees_each_float_form():
    src = ("import math\nfrom math import log2\nx = 0.5\ny = float(3)\n"
           "z = math.sqrt(2) + math.log(3, 2) + math.hypot(1, 1) + math.exp(1)\n"
           "t = math.isqrt(9) + math.gcd(4, 6)\n")
    assert len(float_uses(ast.parse(src))) == 7
