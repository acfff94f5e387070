"""The runtime needs only the standard library: every module of the package
imports nothing but standard-library modules and the package itself, and
imports at module level only, so importing the package loads everything it
needs.  No record compiles methods from generated source at import.  The
package has one scalar field, Q(sqrt2, i): no module uses ``cmath``, the
builtin ``complex`` or a zero tolerance."""
import ast
import dataclasses
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import evolalg
from evolalg.records import Record

PACKAGE = Path(evolalg.__file__).parent


def imports(tree):
    """Every import statement under an AST node."""
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def parse(path):
    return ast.parse(path.read_text(), str(path))


def imports_outside_stdlib(path):
    """`file:line module` for each absolute import in `path` whose top-level
    name is neither in the standard library nor the package."""
    outside = []
    for node in imports(parse(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # a relative import (the package)
        for name in names:
            top = name.split(".")[0]
            if top != "evolalg" and top not in sys.stdlib_module_names:
                outside.append(f"{path.name}:{node.lineno} {name}")
    return outside


def imports_in_bodies(path):
    """`file:line` for each import inside a function or class body."""
    bodies = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    lines = {node.lineno for scope in ast.walk(parse(path))
             if isinstance(scope, bodies) for node in imports(scope)}
    return [f"{path.name}:{line}" for line in sorted(lines)]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "graph.py" in modules
    assert [hit for path in modules for hit in imports_outside_stdlib(path)] \
        == []


def test_the_guard_sees_third_party_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import json\nimport networkx.algorithms\n"
                     "from sympy import Rational\nfrom . import graph\n"
                     "from evolalg.graph import INFINITE\n")
    assert imports_outside_stdlib(probe) == [
        "probe.py:2 networkx.algorithms", "probe.py:3 sympy"]


def test_package_imports_at_module_level_only():
    assert [hit for path in sorted(PACKAGE.rglob("*.py"))
            for hit in imports_in_bodies(path)] == []


def test_the_guard_sees_imports_in_bodies(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import json\n\n\ndef f():\n    from . import graph\n"
                     "\n\nclass C:\n    def g(self):\n        import os\n")
    assert imports_in_bodies(probe) == ["probe.py:5", "probe.py:10"]


# A second scalar type would come back through these names.
FLOAT_SCALAR_NAMES = {"complex", "tol", "zero_tol"}


def float_scalar_uses(path):
    """`file:line name` for each import of cmath and each identifier
    named in FLOAT_SCALAR_NAMES: a name, attribute, parameter, keyword,
    imported name or definition."""
    hits = []
    for node in ast.walk(parse(path)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [a.name for a in node.names]
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            hits += [(node.lineno, "cmath") for name in modules
                     if name.split(".")[0] == "cmath"]
            idents = [a.name for a in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            idents = [node.name]
        else:  # ast.Name, ast.Attribute, ast.arg and ast.keyword
            idents = [getattr(node, field, None)
                      for field in ("id", "attr", "arg")]
        hits += [(node.lineno, name) for name in idents
                 if name in FLOAT_SCALAR_NAMES]
    return [f"{path.name}:{line} {name}" for line, name in sorted(hits)]


def test_package_has_one_scalar_field():
    assert [hit for path in sorted(PACKAGE.rglob("*.py"))
            for hit in float_scalar_uses(path)] == []


def test_the_guard_sees_a_second_scalar_type(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import cmath\nfrom cmath import isfinite\nfrom .s import tol\n"
        "x = complex(1, 2)\n\n\ndef f(v, tol=0.0):\n"
        "    return s.zero_tol + g(tol=tol) + isinstance(v, complex)\n"
        "y = 'complex values and tol in text are fine'\n")
    assert float_scalar_uses(probe) == [
        "probe.py:1 cmath", "probe.py:2 cmath", "probe.py:3 tol",
        "probe.py:4 complex", "probe.py:7 tol", "probe.py:8 complex",
        "probe.py:8 tol", "probe.py:8 tol", "probe.py:8 zero_tol"]


RECORD_METHODS = ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__")


def generated_methods(classes):
    """`Class.method` for each record method of a dataclass among `classes`
    that is neither Record's nor written out in the class body, or whose
    code, unwrapped, was compiled from a string, as dataclass-generated
    methods are."""
    hits = []
    for cls in classes:
        if not hasattr(cls, "__dataclass_fields__"):
            continue
        for name in RECORD_METHODS:
            method = getattr(cls, name)
            own = method is getattr(Record, name) or name in vars(cls)
            code = getattr(inspect.unwrap(method), "__code__", None)
            if not own or code is None or code.co_filename == "<string>":
                hits.append(f"{cls.__name__}.{name}")
    return hits


def package_classes():
    modules = [importlib.import_module(f"evolalg.{info.name}")
               for info in pkgutil.iter_modules(evolalg.__path__)]
    return {obj for module in modules for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__.startswith("evolalg")}


def test_records_share_methods_and_generate_none():
    classes = package_classes()
    records = [cls for cls in classes if hasattr(cls, "__dataclass_fields__")]
    assert {"FiniteRow", "Verdict", "NilpotencyReport", "FamilySpec",
            "BoundCertificate", "ApproxElement"} <= {c.__name__ for c in records}
    assert all(issubclass(cls, Record) for cls in records)
    assert generated_methods(classes) == []


def test_the_guard_sees_generated_methods():
    @dataclasses.dataclass(frozen=True)
    class Generated:
        n: int

    class Shared(Record):
        n: int

    class WrittenOut(Record):
        n: int

        def __init__(self, n):
            object.__setattr__(self, "n", n)

    assert generated_methods([Generated, Shared, WrittenOut, int]) == [
        f"Generated.{name}" for name in RECORD_METHODS]
