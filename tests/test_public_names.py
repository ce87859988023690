"""No test-only API in the package, and no exception class.

Each public name defined at module level in ``src/ranklef/*.py``, and each
method or property of a class defined there that is not a dunder and does
not override a base-class method (``cli._Parser.error`` overrides argparse's),
must be read somewhere in ``src/`` or ``perfbench/`` outside its own
definition: as a name, an attribute, or a string that equals it
(``perfbench/tracing.py`` looks functions up by name).  Code that only the
tests read belongs in ``tests/reference.py``.  Every refused input raises
``ValueError`` (``cli.main`` maps it to exit 1), so no module defines its own
exception type.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ranklef").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
TREES = {path: ast.parse(path.read_text(encoding="utf-8")) for path in READERS}


def _definitions(tree):
    """(name, node) for each module-level function, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            yield from ((t.id, node) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _read_name(node):
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _methods(path, tree):
    """(qualified name, name, node) for each method and property of the module's
    classes that is not a dunder and overrides nothing in a base class."""
    module = importlib.import_module(f"ranklef.{path.stem}")
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = getattr(module, node.name).__mro__[1:]
        for item in node.body:
            if not isinstance(item, ast.FunctionDef) or item.name.startswith("__"):
                continue
            if not any(item.name in vars(base) for base in bases):
                yield f"{path.stem}.{node.name}.{item.name}", item.name, item


def _unread(definitions):
    """The qualified names whose every read lies inside their own definition."""
    reads = {}
    for tree in TREES.values():
        for node in ast.walk(tree):
            name = _read_name(node)
            if name is not None:
                reads.setdefault(name, []).append(node)
    unread = []
    for qualified, name, definition in definitions:
        inside = {id(node) for node in ast.walk(definition)}
        if all(id(node) in inside for node in reads.get(name, [])):
            unread.append(qualified)
    return unread


def test_every_public_name_is_read_outside_its_definition():
    unread = _unread(
        (f"{path.stem}.{name}", name, node)
        for path in PACKAGE
        for name, node in _definitions(TREES[path])
        if not name.startswith("_")
    )
    assert not unread, f"read only by the tests, or by nothing: {unread}"


def test_every_method_is_read_outside_its_definition():
    unread = _unread(item for path in PACKAGE for item in _methods(path, TREES[path]))
    assert unread == [], f"methods read only by the tests, or by nothing: {unread}"


def test_no_module_defines_an_exception_class():
    defined = [
        f"{path.stem}.{node.name}"
        for path in PACKAGE
        for node in TREES[path].body
        if isinstance(node, ast.ClassDef)
        and issubclass(getattr(importlib.import_module(f"ranklef.{path.stem}"), node.name), BaseException)
    ]
    assert defined == [], f"refusals raise ValueError, not a class of their own: {defined}"
