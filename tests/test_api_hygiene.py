"""Every parameter of a public module-level function of htwist is read,
every defaulted one is passed somewhere, and every field of a dataclass is
read somewhere.

A parameter that the body never reads is a knob with no effect: a caller
can set it and nothing changes.  Each module of `src/htwist` is parsed and
every public top-level `def` is checked for parameters that no name in its
body (nested functions included) loads.

A defaulted parameter that no call passes is a second code path that only
its default runs.  Every call in src/, tests/ and bench/ is parsed, and each
defaulted parameter of a public top-level `def` must be passed, by position
or by keyword, by a call of a function or method of the same name.

A dataclass field that nothing reads is a record entry that every builder
fills for no reader.  Each field of a `@dataclass` in `src/htwist` must be
loaded as an attribute of that name (`x.field`) somewhere in src/, tests/
or bench/.

A structure map known by name is read by index through the basis, by
`_rows_by_name` or `_corows_by_name`, only where names come in: the input
loaders (`fixtures`, whose tables `io_json` reads through, and the
Pontryagin table of `chains`).  Every construction builds its maps by
index, and no other module of `src/htwist` calls either.
"""

import ast
import functools
from collections import defaultdict
from pathlib import Path

import pytest

import htwist

MODULES = sorted(Path(htwist.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
CALLERS = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


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


def _defaulted_parameters(source: str) -> list[tuple]:
    """(function, parameter, position) of each defaulted parameter of a
    public top-level function; the position of a keyword-only one is None."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        a = node.args
        positional = [*a.posonlyargs, *a.args]
        first = len(positional) - len(a.defaults)
        out += [(node.name, p.arg, i) for i, p in enumerate(positional) if i >= first]
        out += [(node.name, p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _passed(sources) -> dict:
    """name -> [most positional arguments, keywords] over every call of a
    function or method called name; *args counts as any number, and
    **kwargs as the keyword None."""
    passed = defaultdict(lambda: [0, set()])
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            passed[name][0] = max(passed[name][0], float("inf") if starred else len(node.args))
            passed[name][1] |= {k.arg for k in node.keywords}
    return passed


def _never_passed(source: str, passed: dict) -> list[str]:
    out = []
    for fn, p, position in _defaulted_parameters(source):
        count, keywords = passed.get(fn, (0, set()))
        if not (p in keywords or None in keywords or (position is not None and count > position)):
            out.append(f"{fn}({p})")
    return out


@functools.cache
def _passed_by_callers() -> dict:
    return _passed(p.read_text() for p in CALLERS)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_defaulted_parameter_is_passed(path):
    assert _never_passed(path.read_text(), _passed_by_callers()) == []


def test_scan_sees_a_never_passed_parameter():
    source = ("def f(a, b=1, c=2, *, d=3, e=4):\n    return a + b + c + d + e\n"
              "def g(x=0):\n    return x\n"
              "def h(y=0):\n    return y\n"
              "def _private(z=0):\n    return z\n")
    calls = "f(0, 1)\nobj.f(0, e=5)\ng(*args)\nh(**options)\n"
    assert _never_passed(source, _passed([calls])) == ["f(c)", "f(d)"]


def _dataclass_fields(source: str) -> list[tuple[str, str]]:
    """(class, field) of each annotated field of a top-level @dataclass."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in node.decorator_list):
            out += [(node.name, stmt.target.id) for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return out


def _loaded_attributes(sources) -> set[str]:
    return {n.attr for source in sources for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def _unread_fields(source: str, loaded: set[str]) -> list[str]:
    return [f"{cls}.{name}" for cls, name in _dataclass_fields(source) if name not in loaded]


@functools.cache
def _attributes_loaded_by_callers() -> set[str]:
    return _loaded_attributes(p.read_text() for p in CALLERS)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_dataclass_field_is_read(path):
    assert _unread_fields(path.read_text(), _attributes_loaded_by_callers()) == []


def test_scan_sees_an_unread_field():
    source = ("@dataclass\nclass Kept:\n    read: int\n    written: int\n    unread: str = ''\n"
              "    def total(self):\n        return self.read\n"
              "@dataclass(frozen=True)\nclass Frozen:\n    dead: int\n"
              "class Plain:\n    ignored: int\n"
              "def fill(k):\n    k.written = 1\n")
    assert _unread_fields(source, _loaded_attributes([source])) == [
        "Kept.written", "Kept.unread", "Frozen.dead"]


BY_NAME = {"_rows_by_name", "_corows_by_name"}
LOADERS = {"fixtures", "chains"}


def _calls(source: str, names: set[str]) -> set[str]:
    """The functions or methods among ``names`` that ``source`` calls."""
    return {f for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)
            and (f := getattr(n.func, "id", None) or getattr(n.func, "attr", None)) in names}


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem not in LOADERS], ids=lambda p: p.stem)
def test_only_loaders_read_structure_by_name(path):
    assert _calls(path.read_text(), BY_NAME) == set()


def test_scan_sees_a_read_by_name():
    source = ("from ._structure_maps import _rows_by_name\n"
              "def product(X, fn):\n    return Action(_rows_by_name(fn, X, X), X, X)\n"
              "def coproduct(m, X, fn):\n    return m._corows_by_name(fn, X, X, X)\n"
              "def kept(rows):\n    return rows\n")
    assert _calls(source, BY_NAME) == BY_NAME
