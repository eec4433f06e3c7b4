"""Every parameter of a public module-level function of htwist is read.

A parameter that the body never reads is a knob with no effect: a caller
can set it and nothing changes.  Each module of `src/htwist` is parsed and
every public top-level `def` is checked for parameters that no name in its
body (nested functions included) loads.
"""

import ast
from pathlib import Path

import pytest

import htwist

MODULES = sorted(Path(htwist.__file__).parent.glob("*.py"))


def _parameters(fn: ast.FunctionDef) -> list[str]:
    a = fn.args
    names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
    names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    return names


def _unread_parameters(source: str) -> list[str]:
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        loaded = {n.id for stmt in node.body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"{node.name}({p})" for p in _parameters(node) if p not in loaded]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_public_functions_read_every_parameter(path):
    assert _unread_parameters(path.read_text()) == []


def test_scan_sees_an_unread_parameter():
    source = ("def kept(a, b):\n    return a + b\n"
              "def knob(a, N):\n    def inner():\n        return a\n    return inner\n"
              "def _private(unused):\n    return 0\n")
    assert _unread_parameters(source) == ["knob(N)"]
