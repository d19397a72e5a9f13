"""Checks on the package's source text itself."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "toposval").glob("*.py"))


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
