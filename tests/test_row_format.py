"""The integer-column format stays inside ``chars``.

``chars`` holds weights as integer columns over one denominator
(``chars._Columns``), the W(k,t) orbit of lambda as ``HCParameter.columns``
and its pairings with the roots as ``HCParameter.pairing_column``, and
``chars._Torus`` evaluates them; every Weyl orbit sum goes through
``_Torus.sum``.  No other module of ``src/ranklef/`` may name either class,
the orbit columns or the pairing columns: it asks ``chars`` for the sum
instead.  ``_Torus.phase_unless_one`` is the one test of e^v(t) = 1, so no
other module names its tolerance ``UNITY_TOL`` either; ``chars`` defines no
second ``*_TOL`` beside it, and no module names ``SINGULAR_TOL``.  The only
other tolerance in ``src/`` is ``sl2.MATCH_TOL``, which bounds a preset total
against its scaled oracle and, at n = 1, against an integer.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ranklef").glob("*.py"))
CLASSES = {"_Columns", "_Torus"}
ATTRIBUTES = CLASSES | {"columns", "rho_roots", "pairing_column", "_pairing_columns"}


def _uses(tree):
    """(line, name) for each use of ``_Columns`` or ``_Torus``, by name,
    attribute or import, and each read of the columns or the pairing columns."""
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
    assert not outside, f"the column format is private to chars: {outside}"


def _full_weyl_calls(tree):
    """Lines that call ``weyl_group`` for W(g,t): with "full" or without ``sub``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name != "weyl_group":
                continue
            sub = node.args[1] if len(node.args) > 1 else next((k.value for k in node.keywords if k.arg == "sub"), None)
            if sub is None or (isinstance(sub, ast.Constant) and sub.value == "full"):
                yield node.lineno


def test_only_cli_builds_the_full_weyl_group():
    """Omega is a Laplace expansion, so no term walks W(g,t); ``rootsys show``
    still reports its order."""
    outside = [
        f"{path.name}:{line}"
        for path in PACKAGE
        if path.name != "cli.py"
        for line in _full_weyl_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not outside, f"W(g,t) built outside cli: {outside}"


def _named(names, paths=PACKAGE):
    """path:line for each name, attribute or import of one of ``names`` in ``paths``."""
    return [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.alias) and {node.name.rpartition(".")[2], node.asname} & names)
    ]


def _named_outside_chars(names):
    return _named(names, [path for path in PACKAGE if path.name != "chars.py"])


def test_only_chars_names_the_determinant_routine():
    outside = _named_outside_chars({"_minors", "_det"})
    assert not outside, f"the determinant routine is private to chars: {outside}"


def test_only_chars_names_the_unit_phase_tolerance():
    outside = _named_outside_chars({"UNITY_TOL"})
    assert not outside, f"e^v(t) = 1 is decided by chars._Torus.phase_unless_one alone: {outside}"


def _module_level_names(tree):
    """The names that a module's top-level statements bind."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.asname or alias.name.rpartition(".")[2] for alias in node.names)
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        yield from (leaf.id for target in targets if target for leaf in ast.walk(target) if isinstance(leaf, ast.Name))


def test_chars_defines_one_unit_phase_tolerance():
    chars = ast.parse((ROOT / "src" / "ranklef" / "chars.py").read_text(encoding="utf-8"))
    extra = [name for name in _module_level_names(chars) if name.endswith("_TOL") and name != "UNITY_TOL"]
    assert not extra, f"chars decides e^v(t) = 1 by UNITY_TOL alone: {extra}"
    named = _named({"SINGULAR_TOL"})
    assert not named, f"SINGULAR_TOL is gone: {named}"


def test_src_defines_two_tolerances():
    defined = sorted(
        f"{path.stem}.{name}"
        for path in PACKAGE
        for name in _module_level_names(ast.parse(path.read_text(encoding="utf-8")))
        if name.endswith("_TOL")
    )
    assert defined == ["chars.UNITY_TOL", "sl2.MATCH_TOL"], defined
