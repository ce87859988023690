"""The integer-row format stays inside ``chars``.

``chars._Rows`` holds weights as integer rows over one denominator and
``chars._Torus`` evaluates them; every Weyl orbit sum goes through
``_Torus.sum``.  No other module of ``src/ranklef/`` may name either class or
read a row's ``ints`` or ``floats``: it asks ``chars`` for the sum instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ranklef").glob("*.py"))
CLASSES = {"_Rows", "_Torus"}
ATTRIBUTES = CLASSES | {"ints", "floats"}


def _uses(tree):
    """(line, name) for each use of a row class, by name, attribute or import,
    and each read of a row's ``ints`` or ``floats``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in CLASSES:
            yield node.lineno, node.id
        elif isinstance(node, ast.alias) and node.name.rpartition(".")[2] in CLASSES:
            yield node.lineno, node.name
        elif isinstance(node, ast.Attribute) and node.attr in ATTRIBUTES:
            yield node.lineno, f".{node.attr}"


def test_only_chars_reads_the_row_format():
    outside = [
        f"{path.name}:{line} {name}"
        for path in PACKAGE
        if path.name != "chars.py"
        for line, name in _uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not outside, f"the row format is private to chars: {outside}"
