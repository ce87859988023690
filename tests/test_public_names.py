"""No test-only API in the package.

Each public name defined at module level in ``src/ranklef/*.py`` must be read
somewhere in ``src/`` or ``perfbench/`` outside its own definition: as a name,
an attribute, or a string that equals it (``perfbench/tracing.py`` looks
functions up by name).  Code that only the tests read belongs in
``tests/reference.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ranklef").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))


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


def test_every_public_name_is_read_outside_its_definition():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in READERS}
    reads = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            name = _read_name(node)
            if name is not None:
                reads.setdefault(name, []).append(node)
    unread = []
    for path in PACKAGE:
        for name, definition in _definitions(trees[path]):
            if name.startswith("_"):
                continue
            inside = {id(node) for node in ast.walk(definition)}
            if all(id(node) in inside for node in reads.get(name, [])):
                unread.append(f"{path.stem}.{name}")
    assert not unread, f"read only by the tests, or by nothing: {unread}"
