"""AST checks of the twinfuse modules: every name a module imports is used
in that module, the public API has no solver settings and no name without a
caller, and each rule written once stays in its one place."""

import ast
import dataclasses
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "twinfuse"

# Bound in mocap only so that perfbench/spans.py can wrap them there.
ALLOWED = {("mocap.py", "triangulate"), ("mocap.py", "unproject")}

# __init__.py holds only the package docstring and version.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_import_detector():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom json import dumps, loads\n"
              "def f(x: np.ndarray):\n    return loads(x)\n")
    assert _unused_imports(source) == ["dumps", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = [name for name in _unused_imports(path.read_text())
              if (path.name, name) not in ALLOWED]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


# No public function or method has a solver setting: a keyword parameter
# whose default is a number, a bool or a call. A setting is a module constant
# where it is used.
SETTINGS = set()


def _is_setting(default: ast.expr) -> bool:
    if isinstance(default, ast.UnaryOp):
        default = default.operand
    return isinstance(default, ast.Call) or (
        isinstance(default, ast.Constant)
        and isinstance(default.value, (bool, int, float)))


def _settings(source: str) -> set[tuple[str, str]]:
    """(function, parameter) pairs of public functions and public methods of
    public classes whose default is a number, a bool or a call."""
    found = set()
    tree = ast.parse(source)
    scopes = [tree.body] + [c.body for c in tree.body
                            if isinstance(c, ast.ClassDef) and not c.name.startswith("_")]
    for body in scopes:
        for f in body:
            if not isinstance(f, ast.FunctionDef) or f.name.startswith("_"):
                continue
            args = f.args.posonlyargs + f.args.args
            pairs = list(zip(args[len(args) - len(f.args.defaults):],
                             f.args.defaults))
            pairs += [(a, d) for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults)
                      if d is not None]
            found.update((f.name, a.arg) for a, d in pairs if _is_setting(d))
    return found


def test_settings_detector():
    source = ("def f(a, b=1, c=-0.5, d=None, e='x', *, g=True, h=P()):\n    pass\n"
              "def _private(a=1):\n    pass\n"
              "class C:\n    def m(self, n=2):\n        pass\n"
              "    def _p(self, n=2):\n        pass\n")
    assert _settings(source) == {("f", "b"), ("f", "c"), ("f", "g"), ("f", "h"),
                                 ("m", "n")}


def test_no_new_settings():
    found = set().union(*(_settings(p.read_text()) for p in MODULES))
    assert found == SETTINGS


# The number rule ("a finite number that is not a bool") is written once, in
# errors.finite_number: no other module calls math.isfinite.
def _isfinite_calls(source: str) -> int:
    tree = ast.parse(source)
    imported = any(isinstance(n, ast.ImportFrom) and n.module == "math"
                   and any(a.name == "isfinite" for a in n.names)
                   for n in ast.walk(tree))
    return imported + sum(
        isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and n.func.attr == "isfinite" and isinstance(n.func.value, ast.Name)
        and n.func.value.id == "math" for n in ast.walk(tree))


def test_isfinite_detector():
    source = ("import math\nimport numpy as np\nfrom math import isfinite\n"
              "math.isfinite(1.0)\nnp.isfinite(1.0)\n")
    assert _isfinite_calls(source) == 2


def test_number_rule_written_once():
    calls = {p.name: _isfinite_calls(p.read_text()) for p in MODULES}
    assert {name for name, n in calls.items() if n} == {"errors.py"}


# The number-list rule ("every item is a finite number") is written once, in
# errors.non_numbers: no other module passes finite_number to map or calls it
# in a comprehension or a generator expression.
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _names_finite_number(node: ast.expr) -> bool:
    return getattr(node, "id", getattr(node, "attr", None)) == "finite_number"


def _finite_number_loops(source: str) -> list[str]:
    """Name of the module-level function or class around each ``map`` call
    given ``finite_number`` and each comprehension that calls it."""
    def loop(n):
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "map":
            return any(map(_names_finite_number, n.args))
        return isinstance(n, COMPREHENSIONS) and any(
            isinstance(c, ast.Call) and _names_finite_number(c.func)
            for c in ast.walk(n))
    return [getattr(top, "name", "<module>") for top in ast.parse(source).body
            for n in ast.walk(top) if loop(n)]


def test_finite_number_loop_detector():
    source = ("from .errors import finite_number\nfrom . import errors\n"
              "def f(v):\n    return all(map(finite_number, v))\n"
              "class C:\n    bad = [x for x in v if not errors.finite_number(x)]\n"
              "def g(v):\n    return finite_number(v) and [x + 1 for x in v]\n"
              "check = lambda v: finite_number(v, int)\n"
              "positive = all(finite_number(x) and x > 0 for x in v)\n")
    assert _finite_number_loops(source) == ["f", "C", "<module>"]


def test_number_list_rule_written_once():
    found = {(p.name, name) for p in MODULES
             for name in _finite_number_loops(p.read_text())}
    assert found == {("errors.py", "non_numbers")}


def _callers(source: str, called) -> list[str]:
    """Name of the module-level function or class around each call whose
    ``func`` node satisfies ``called``."""
    return [getattr(top, "name", "<module>") for top in ast.parse(source).body
            for n in ast.walk(top) if isinstance(n, ast.Call) and called(n.func)]


# A frozen value type sets its fields through one helper, geometry._freeze:
# no other code calls setflags or object.__setattr__.
def _field_setters(source: str) -> list[str]:
    """Name of the module-level function or class around each call of
    ``setflags`` or ``object.__setattr__``."""
    return _callers(source, lambda f: isinstance(f, ast.Attribute) and (
        f.attr == "setflags"
        or (f.attr == "__setattr__" and isinstance(f.value, ast.Name)
            and f.value.id == "object")))


def test_field_setter_detector():
    source = ("import numpy as np\nclass C:\n    def __post_init__(self):\n"
              "        object.__setattr__(self, 'a', 1)\n"
              "def f(a):\n    a.setflags(write=False)\n    setattr(a, 'b', 1)\n"
              "np.zeros(3).setflags(write=False)\n")
    assert _field_setters(source) == ["C", "f", "<module>"]


def test_frozen_fields_set_in_one_helper():
    found = {(p.name, name) for p in MODULES for name in _field_setters(p.read_text())}
    assert found == {("geometry.py", "_freeze")}


# The array rule ("an array of this shape, every value finite") is written
# once, in geometry._as_array: every value type and solver checks the arrays
# it takes there, RigidTransform and the PLY reader too. The other calls of
# np.isfinite test a command-line value (cli._point) or a value a function
# computed: a norm, a cost, a ray angle and voxel keys.
NP_ISFINITE = {("cameras.py", "triangulate_batch"), ("cli.py", "_point"),
               ("fusion.py", "voxel_downsample"), ("geometry.py", "_as_array"),
               ("geometry.py", "_least_squares"), ("geometry.py", "quat_normalize")}


def test_array_rule_written_once():
    found = {(p.name, name) for p in MODULES for name in _callers(
        p.read_text(), lambda f: isinstance(f, ast.Attribute) and f.attr == "isfinite"
        and getattr(f.value, "id", None) == "np")}
    assert found == NP_ISFINITE


# A list of numbers is checked item by item once, in geometry._as_array, for
# every array a value type or solver takes from a file or a caller; the
# skeleton CSV reader checks a valid joint's four numbers, which a row holds
# beside its joint id and flag. No other code calls errors.non_numbers.
def _non_numbers_callers(source: str) -> list[str]:
    return _callers(source, lambda f: getattr(f, "id", getattr(f, "attr", None))
                    == "non_numbers")


def test_non_numbers_caller_detector():
    source = ("from .errors import non_numbers\nfrom . import errors\n"
              "def f(v):\n    return non_numbers(v)\n"
              "class C:\n    bad = errors.non_numbers([1, 'a'])\n"
              "check = non_numbers\n")
    assert _non_numbers_callers(source) == ["f", "C"]


def test_number_lists_checked_in_one_place():
    found = {(p.name, name) for p in MODULES
             for name in _non_numbers_callers(p.read_text())}
    assert found == {("geometry.py", "_as_array"), ("mocap.py", "skeleton_track_from_csv")}


# The text file rules (UTF-8, "\n" line ends) are written once, in
# errors.parse_file and errors.write_file; ply.py opens its binary files. No
# other code opens a file.
def _file_openers(source: str) -> list[str]:
    return _callers(source, lambda f: getattr(f, "id", getattr(f, "attr", None))
                    in ("open", "read_text", "write_text"))


def test_file_opener_detector():
    source = ("import io\nimport pathlib\n"
              "def f(p):\n    with open(p, 'w') as h:\n        h.write('x')\n"
              "class C:\n    text = pathlib.Path('a').read_text()\n"
              "def g(p):\n    return io.open(p).read() + opener(p)\n"
              "pathlib.Path('b').write_text('y')\n")
    assert _file_openers(source) == ["f", "C", "g", "<module>"]


def test_files_opened_in_one_place():
    found = {(p.name, name) for p in MODULES for name in _file_openers(p.read_text())}
    assert found == {("errors.py", "parse_file"), ("errors.py", "write_file"),
                     ("ply.py", "save_ply"), ("ply.py", "load_ply")}


# The pixel-to-ray rule is written once, in cameras._normalized: no other
# code undistorts.
def _undistort_callers(source: str) -> list[str]:
    return _callers(source, lambda f: getattr(f, "id", getattr(f, "attr", None))
                    == "_undistort")


def test_undistort_caller_detector():
    source = ("from .cameras import _undistort\nfrom . import cameras\n"
              "def f(x):\n    return _undistort(x, d)\n"
              "class C:\n    y = cameras._undistort(1, 2)\n"
              "g = _undistort\n")
    assert _undistort_callers(source) == ["f", "C"]


def test_pixel_to_ray_rule_written_once():
    found = {(p.name, name) for p in MODULES
             for name in _undistort_callers(p.read_text())}
    assert found == {("cameras.py", "_normalized")}


# Every public top-level function and class has a caller outside the unit
# tests: a Name or Attribute node (an import does not count) in the package,
# perfbench, scripts or the acceptance tests.
CALLER_FILES = (MODULES + sorted((ROOT / "perfbench").glob("*.py"))
                + sorted((ROOT / "scripts").glob("*.py"))
                + [ROOT / "tests" / "test_acceptance.py"])


def _public_names(source: str) -> set[str]:
    return {n.name for n in ast.parse(source).body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))
            and not n.name.startswith("_")}


def _referenced_names(source: str) -> set[str]:
    nodes = list(ast.walk(ast.parse(source)))
    return ({n.id for n in nodes if isinstance(n, ast.Name)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def test_public_name_detectors():
    source = ("from .a import used, imported_only\nimport b\n"
              "def f():\n    return used(b.g)\nclass C:\n    def m(self):\n"
              "        pass\ndef _p():\n    pass\n")
    assert _public_names(source) == {"f", "C"}
    assert _referenced_names(source) == {"used", "b", "g"}


def test_public_names_have_callers():
    referenced = set().union(*(_referenced_names(p.read_text())
                               for p in CALLER_FILES))
    uncalled = sorted((p.name, name) for p in MODULES
                      for name in _public_names(p.read_text())
                      if name not in referenced)
    assert uncalled == []


# The joint layout (25 body joints, then 21 per hand) and the part table of
# the keypoint file are written once, in mocap: no other module imports or
# references N_BODY, N_HAND or _PARTS.
LAYOUT_NAMES = {"N_BODY", "N_HAND", "_PARTS"}


def _layout_references(source: str) -> set[str]:
    imported = {a.name for n in ast.walk(ast.parse(source))
                if isinstance(n, ast.ImportFrom) for a in n.names}
    return (imported | _referenced_names(source)) & LAYOUT_NAMES


def test_layout_reference_detector():
    source = ("from .mocap import N_BODY, N_JOINTS\nfrom . import mocap\n"
              "x = mocap._PARTS\nN_HANDS = 2\n")
    assert _layout_references(source) == {"N_BODY", "_PARTS"}


def test_joint_layout_written_once():
    found = {(p.name, name) for p in MODULES
             for name in _layout_references(p.read_text())}
    assert found == {("mocap.py", name) for name in LAYOUT_NAMES}


# Every SynthConfig field is set by a caller outside the unit tests: a keyword
# of a SynthConfig(...) call in CALLER_FILES or a key of a "synth" object in
# perfbench/workloads.json. A value no caller changes is a constant in synth.
def _synth_keywords(source: str) -> set[str]:
    return {k.arg for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Call)
            and getattr(n.func, "id", getattr(n.func, "attr", None)) == "SynthConfig"
            for k in n.keywords if k.arg is not None}


def _synth_json_keys(obj) -> set[str]:
    if isinstance(obj, list):
        return set().union(*map(_synth_json_keys, obj))
    if not isinstance(obj, dict):
        return set()
    keys = set(obj["synth"]) if isinstance(obj.get("synth"), dict) else set()
    return keys.union(*map(_synth_json_keys, obj.values()))


def test_synth_caller_detectors():
    source = ("from twinfuse import synth\nfrom twinfuse.synth import SynthConfig\n"
              "SynthConfig(seed=1, **spec)\nsynth.SynthConfig(duration_s=2)\n"
              "Other(rate_hz=3)\n")
    assert _synth_keywords(source) == {"seed", "duration_s"}
    workloads = {"a": {"synth": {"x": 1}, "smoke": {"synth": {"y": 2}}},
                 "b": [{"synth": {"z": 3}}], "synth_note": {"w": 4}}
    assert _synth_json_keys(workloads) == {"x", "y", "z"}


def test_synth_settings_have_callers():
    from twinfuse.synth import SynthConfig

    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    set_by_callers = _synth_json_keys(workloads).union(
        *(_synth_keywords(p.read_text()) for p in CALLER_FILES))
    uncalled = sorted({f.name for f in dataclasses.fields(SynthConfig)}
                      - set_by_callers)
    assert uncalled == []
