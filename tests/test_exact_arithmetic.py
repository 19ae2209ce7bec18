"""The library computes in ints and Fractions only.

Every claim the verifiers check is exact, so no module of ``lampgeo`` may
hold a float literal or call ``float``, ``math.sqrt``, ``math.log*``,
``math.hypot`` or ``math.exp``.  The ``time.perf_counter`` timings behind
``--timing`` are the one float source left, and they only fill
``elapsed_ms``.

Two more rules keep user text and failures in one place each: only
``formats`` may call ``.isdigit()``, ``.isdecimal()`` or ``.isnumeric()``,
and only ``cli.run`` may catch everything (a bare ``except``,
``except Exception`` or ``except BaseException``).
"""

import ast
import pathlib
import textwrap

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


DIGIT_TESTS = {"isdigit", "isdecimal", "isnumeric"}
BROAD = {"Exception", "BaseException"}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, ast.Name) and t.id in BROAD for t in types)


def broad_handlers(tree: ast.AST, scope: str) -> list[str]:
    """The scope (module.function) of each broad except handler."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += broad_handlers(node, f"{scope}.{node.name}")
            continue
        if isinstance(node, ast.ExceptHandler) and _is_broad(node):
            found.append(scope)
        found += broad_handlers(node, scope)
    return found


def digit_tests(tree: ast.AST) -> list[str]:
    return [f"line {node.lineno}: .{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in DIGIT_TESTS]


def test_cli_run_is_the_one_broad_handler():
    found = []
    for path in MODULES:
        found += broad_handlers(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert found == ["cli.run"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "formats"], ids=lambda p: p.name)
def test_only_formats_tests_digits(path):
    assert digit_tests(ast.parse(path.read_text(), filename=str(path))) == []


def test_checkers_see_each_form():
    src = textwrap.dedent("""
        def f(s):
            try:
                pass
            except:
                pass
            try:
                pass
            except (ValueError, Exception):
                pass
            return s.isdigit() or s.isdecimal() or s.isnumeric() or s.isalpha()

        class C:
            def g(self):
                try:
                    pass
                except BaseException:
                    pass
                except ValueError:
                    pass
        """)
    tree = ast.parse(src)
    assert broad_handlers(tree, "m") == ["m.f", "m.f", "m.C.g"]
    assert len(digit_tests(tree)) == 3
