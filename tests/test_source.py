"""Checks on the package's source text."""

import ast
from pathlib import Path

import plapflow

# Definitions no code in the package refers to, each with why it stays.
UNREFERENCED = {
    "heat_manufactured_error": "ROADMAP item 5 replaces the heat section",
}


def test_every_definition_is_referenced_in_the_package():
    # A function, method or class that no name, attribute or import in the
    # package refers to is reached from tests alone, so its tests check rules
    # that no command runs.  Dunder methods are called by the interpreter.
    defined, referenced = {}, set()
    for path in sorted(Path(plapflow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)  # the name imported, whatever it is bound to
    unreferenced = {name: where for name, where in defined.items() if name not in referenced}
    assert unreferenced.keys() == UNREFERENCED.keys(), unreferenced
