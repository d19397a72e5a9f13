"""Checks on the package's source text itself."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toposval"
SOURCES = sorted(PACKAGE.glob("*.py"))
BENCH = sorted((ROOT / "bench").rglob("*.py"))

# sampling.py holds the seeded fixtures and random draws that checks,
# witness searches and tests share (its docstring says so), so tests are
# callers of its public functions in their own right
SHARED_FIXTURES = "sampling.py"


def private_definitions_unused_in_source(paths):
    """The single-underscore functions, methods and classes defined in
    `paths` that no code in `paths` names, as (file name, name); a name in
    a docstring, a comment or any other string does not count."""
    defined, named = [], set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((path.name, node.name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return sorted((file, name) for file, name in defined if name not in named)


def public_definitions_unnamed(paths, users):
    """The public functions, classes and methods defined in `paths` (module
    level and in class bodies) that no code in `users` names and no
    `__init__.py` among `paths` imports, as (file name, qualified name); a
    name in a docstring, a comment or any other string does not count."""
    named, exported = set(), set()
    for path in users:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    defined = []

    def visit(file, body, owner):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined.append((file, f"{owner}{node.name}", node.name))
                if isinstance(node, ast.ClassDef):
                    visit(file, node.body, f"{owner}{node.name}.")

    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name == "__init__.py":
            exported.update(alias.asname or alias.name for node in ast.walk(tree)
                            if isinstance(node, ast.ImportFrom) for alias in node.names)
        visit(path.name, tree.body, "")
    return sorted((file, qualified) for file, qualified, name in defined
                  if name not in named and name not in exported)


def imported_modules(path):
    """The modules a file imports anywhere in it, as written: a relative
    import keeps its leading dots."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            out.append("." * node.level + (node.module or ""))
    return out


def outside_numpy_and_the_standard_library(modules):
    return [m for m in modules if m.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]


def test_every_private_definition_is_used_by_the_package():
    # a private helper that only the tests call is a second path beside the
    # one the package runs: test the package's path instead
    assert SOURCES
    assert private_definitions_unused_in_source(SOURCES) == []


def test_the_private_code_scan_ignores_docstrings(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('"""See `_helper`."""\n\n\ndef _helper():\n    """`_helper` again."""\n\n\n'
                      'class _Used:\n    def _method(self):\n        return 0\n\n\n'
                      'def public():\n    return _Used()._method()\n')
    assert private_definitions_unused_in_source([module]) == [("m.py", "_helper")]


def test_every_public_definition_is_run_by_the_package_or_exported():
    # a public name that only the tests reach is test code, and lives in
    # tests/; the benchmark counts as a caller, as it drives the package
    assert BENCH
    unnamed = public_definitions_unnamed(SOURCES, SOURCES + BENCH)
    assert [(file, name) for file, name in unnamed if file != SHARED_FIXTURES] == []


def test_the_public_code_scan_reads_methods_exports_and_callers(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .m import exported\n")
    (package / "m.py").write_text('"""See `unused` and `Box.spare`."""\n\n\n'
                                  'def exported():\n    return Box().used()\n\n\n'
                                  'def unused():\n    def inner():\n        return 0\n    return inner\n\n\n'
                                  'def called():\n    return 1\n\n\n'
                                  'class Box:\n    def used(self):\n        return 0\n\n'
                                  '    def spare(self):\n        """`unused`"""\n\n'
                                  '    def __repr__(self):\n        return "Box"\n')
    caller = tmp_path / "run.py"
    caller.write_text("from pkg.m import called\n\ncalled()\n")
    paths = sorted(package.glob("*.py"))
    assert public_definitions_unnamed(paths, paths) == [("m.py", "Box.spare"), ("m.py", "called"),
                                                         ("m.py", "unused")]
    assert public_definitions_unnamed(paths, paths + [caller]) == [("m.py", "Box.spare"), ("m.py", "unused")]


def test_the_index_imports_only_numpy_and_the_standard_library():
    # the exact kernel takes no float decision: it reaches none of linalg,
    # tolerances, contexts or ocat, nor any other module of the package
    modules = imported_modules(PACKAGE / "index.py")
    assert "numpy" in modules
    assert outside_numpy_and_the_standard_library(modules) == []


def test_the_import_scan_sees_relative_and_nested_imports(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n\nimport itertools\nimport numpy as np\n"
                      "from . import linalg\nfrom .tolerances import DEFAULT\n\n\n"
                      "def late():\n    from ..toposval.contexts import Context\n    import scipy.linalg\n")
    assert outside_numpy_and_the_standard_library(imported_modules(module)) == [
        ".", ".tolerances", "..toposval.contexts", "scipy.linalg"]
