"""Checks on the package's source text."""

import ast
from pathlib import Path

import plapflow

# The registries of model choices, and the only functions that may read them:
# a config checks each choice once, when it is built.
REGISTRIES = {"REGULARIZATION_KINDS", "SCHEMES", "NONLINEAR_SOLVERS", "COUPLINGS"}
READERS = {"SchemeConfig.__post_init__", "StudyConfig.__post_init__"}

# The regularization kinds, and where outside orlicz, which writes out every
# formula that depends on the kind, they may be read: the config constructors
# default and check a kind, SchemeConfig's field default included.
KINDS = {"QUADRATIC_NORM", "ADDITIVE_SHIFT"}
KIND_READERS = {"SchemeConfig", "SchemeConfig.__post_init__", "StudyConfig.__post_init__"}

# Definitions no code in the package refers to, each with why it stays.
UNREFERENCED = {}


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


def _reads(node, names, scope=()):
    """(qualified name of the enclosing definition, name) per read below node
    of a name in names, as a variable or an attribute."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _reads(child, names, scope + (child.name,))
            continue
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            name = child.id
        elif isinstance(child, ast.Attribute):
            name = child.attr
        else:
            name = None
        if name in names:
            yield ".".join(scope), name
        yield from _reads(child, names, scope)


def test_only_the_config_constructors_read_the_registries():
    # a kernel that re-checks a choice a config has checked tests nothing
    reads = set()
    for path in sorted(Path(plapflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        reads |= {(path.name, scope, name) for scope, name in _reads(tree, REGISTRIES)}
    assert {scope for _, scope, _ in reads} == READERS, sorted(reads)


def test_only_orlicz_and_the_config_constructors_read_the_kinds():
    # a formula written out per kind in a second module is a second owner
    # of the regularization
    reads = set()
    for path in sorted(Path(plapflow.__file__).parent.glob("*.py")):
        if path.name != "orlicz.py":
            tree = ast.parse(path.read_text(), filename=path.name)
            reads |= {(path.name, scope, name) for scope, name in _reads(tree, KINDS)}
    assert {scope for _, scope, _ in reads} == KIND_READERS, sorted(reads)


def test_no_scipy_cg_in_the_package():
    # schemes._cg is scipy's CG arithmetic without scipy's per-call wrapping
    # of the matrix and the preconditioner; neither comes back
    uses = []
    for path in sorted(Path(plapflow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in {"cg", "LinearOperator"}:
                uses.append(f"{path.name}:{node.lineno} {name}")
    assert not uses, uses


def test_one_step_loop_and_no_kept_trajectory():
    # run_evolution is the one step loop, and it hands each iterate to its
    # observers instead of keeping them: no module reads an .iterates
    # attribute, and no function but run_evolution names a step to take it
    iterates, steps = [], set()
    for path in sorted(Path(plapflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        iterates += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr == "iterates"]
        steps |= {(path.name, scope) for scope, _ in
                  _reads(tree, {"semi_implicit_step", "implicit_step"})}
    assert not iterates, iterates
    assert steps == {("schemes.py", "run_evolution")}, steps


def test_a_kept_run_feeds_its_list_alone():
    # a run that keeps its iterates is measured from that list after it
    # returns, so a run_evolution call that passes a list's append passes no
    # other observer; each observer is spelled out in the call, so the rule
    # can be read from it
    calls = []
    for path in sorted(Path(plapflow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "attr", getattr(node.func, "id", None)) == "run_evolution":
                calls.append((f"{path.name}:{node.lineno}", node.args[2:]))
    kept = [where for where, observers in calls
            if any(getattr(obs, "attr", None) == "append" for obs in observers)]
    assert kept, calls
    bad = [where for where, observers in calls
           if any(isinstance(obs, ast.Starred) for obs in observers)
           or (where in kept and len(observers) > 1)]
    assert not bad, bad
