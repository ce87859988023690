"""The records: immutable NamedTuples, checked where they were checked, and
built without the ``dataclasses`` machinery.

Five records check their values on construction.  A ``NamedTuple`` class body
cannot define ``__new__``, so each of them is a subclass with
``__slots__ = ()`` that lists ``jsonin.Checked`` before its NamedTuple and
defines only ``_check``.  ``Checked.__new__`` builds the tuple and runs
``_check``, and ``Checked._make``, and so ``_replace``, goes through
``__new__`` too; ``test_one_construction_path_for_the_checked_records`` fails
if another class in ``src`` defines ``__new__`` or ``_make``.  A subclass
without the empty ``__slots__`` would get a ``__dict__`` and accept new
attributes, which ``test_records_are_immutable`` catches.
"""

import ast
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ranklef import chars, epstein, lefschetz, rootsys, sl2
from ranklef.chars import Chamber, NoncompactCartanElement, TorusElement
from ranklef.epstein import MAX_EXPONENT_BASE, ClassProgression, EpsteinSpec, LaurentConstant
from ranklef.lefschetz import ParabolicIData

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = sorted((SRC / "ranklef").glob("*.py"))
MODULES = (rootsys, chars, lefschetz, epstein, sl2)

IDENTITY = TorusElement((Fraction(0), Fraction(0)))
PARABOLIC_I = dict(
    delta_flag=True, c_eta_plus=1.0, c_eta_minus=-1.0, C_eta_plus=0.7, C_eta_minus=0.7,
    dim_n_eta1=0, eta_torus=IDENTITY,
)


def _records():
    """One instance of each record, by class name, built by the code that
    builds it in use wherever there is such code."""
    rs = rootsys.build_root_system(rootsys.GroupDescriptor.from_name("sl2r"))
    mu = sl2.mu_from_weight(12)
    geom = sl2.build_geom_sl2z(4)
    spec = EpsteinSpec.from_dict({"classes": [{"weight": 1.0, "scale": 2.0}], "exponent_base": 1})
    values = [
        rs.descriptor, rs.positive[0], mu, rootsys.weyl_group(rs, "compact")[0], rs,
        IDENTITY, geom.parabolic_II[0].eta_H,
        chars.ds_character_Treg(rs, chars.hc_parameter(rs, mu), TorusElement((Fraction(1, 5), Fraction(-1, 5)))),
        geom.central_classes[0], geom.elliptic_classes[0], ParabolicIData(**PARABOLIC_I), geom.parabolic_II[0],
        geom, lefschetz.assemble(rs, mu, geom),
        spec.classes[0], spec, epstein.zeta_constant_terms(spec),
        sl2.hecke_reps(2)[0], sl2.compare(12, 2),
    ]
    return {type(value).__name__: value for value in values}


RECORDS = _records()


def test_every_record_has_an_instance_here():
    defined = {
        name
        for module in MODULES
        for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, tuple) and value.__module__ == module.__name__
        and not name.startswith("_")
    }
    assert defined == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable(name):
    record = RECORDS[name]
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], getattr(record, record._fields[0]))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_keep_keyword_construction_equality_and_hashing(name):
    record = RECORDS[name]
    again = type(record)(**record._asdict())
    assert again == record and type(again) is type(record)
    assert hash(again) == hash(record)
    assert record._replace() == record


# (class, fields of a valid record, the field set to a bad value, the bad value, exception, message)
INVALID = [
    (ClassProgression, dict(weight=1.0, scale=2.0), "scale", 0.0,
     ValueError, "progression data must be finite and positive"),
    (ClassProgression, dict(weight=1.0, scale=2.0), "offset", math.inf,
     ValueError, "progression data must be finite and positive"),
    (ClassProgression, dict(weight=1.0, scale=2.0), "weight", math.nan,
     ValueError, "progression data must be finite and positive"),
    (EpsteinSpec, dict(classes=(), lattice_vol=1.0, exponent_base=1), "lattice_vol", -1.0,
     ValueError, "lattice_vol must be finite and positive"),
    (EpsteinSpec, dict(classes=(), lattice_vol=1.0, exponent_base=1), "exponent_base", MAX_EXPONENT_BASE + 1,
     ValueError, f"exponent_base must be an integer from 1 to {MAX_EXPONENT_BASE}"),
    (LaurentConstant, dict(constant_term=0.5, pole_order_at_0=1), "pole_order_at_0", 2,
     AssertionError, "pole order at 0 must be 0 or 1"),
    (ParabolicIData, PARABOLIC_I, "dim_n_eta1", 3,
     ValueError, "dim_n_eta1 must be even, not 3"),
    (NoncompactCartanElement, dict(compact_angles=(), log_a=0.5, chamber=Chamber.H_PLUS), "chamber", Chamber.H_MINUS,
     ValueError, "chamber H_minus requires log_a < 0"),
    (NoncompactCartanElement, dict(compact_angles=(), log_a=0.0, chamber=Chamber.A_EQUALS_1), "log_a", math.nan,
     ValueError, "log_a must be a number, not nan"),
]


@pytest.mark.parametrize("cls, good, field, bad, error, message", INVALID)
def test_validated_records_reject_a_bad_value_however_built(cls, good, field, bad, error, message):
    record = cls(**good)
    fields = {**record._asdict(), field: bad}
    builds = {
        "keywords": lambda: cls(**fields),
        "positional": lambda: cls(*fields.values()),
        "_make": lambda: cls._make(fields.values()),
        "_replace": lambda: record._replace(**{field: bad}),
    }
    for how, build in builds.items():
        with pytest.raises(error) as caught:
            build()
        assert type(caught.value) is error and str(caught.value) == message, how


def _imports(tree):
    """(line, module) for each import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.lineno, node.module


def _class_defs():
    """(file:line, class node) for each class defined in ``src``."""
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                yield f"{path.name}:{node.lineno}", node


def _defines(node, name):
    """Whether a class body defines or assigns ``name``."""
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
            return True
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return True
    return False


def test_one_construction_path_for_the_checked_records():
    constructors = sorted(
        f"{where} {node.name}.{name}"
        for where, node in _class_defs()
        for name in ("__new__", "_make")
        if _defines(node, name) and not (where.startswith("jsonin.py:") and node.name == "Checked")
    )
    assert not constructors, f"only jsonin.Checked builds a checked record: {constructors}"
    bases = {node.name: [ast.unparse(b) for b in node.bases] for _, node in _class_defs() if _defines(node, "_check")}
    assert {cls.__name__ for cls, *_ in INVALID} <= set(bases)
    assert all(names[0] == "Checked" for names in bases.values()), bases


def test_no_module_imports_dataclasses():
    found = [
        f"{path.name}:{line}"
        for path in PACKAGE
        for line, module in _imports(ast.parse(path.read_text(encoding="utf-8")))
        if module.partition(".")[0] == "dataclasses"
    ]
    assert not found, f"records are NamedTuples; dataclasses imported at {found}"


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # -I ignores PYTHONPATH and the user site, -S skips site (which may import
    # either module), -B writes no bytecode into src
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import ranklef.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code, str(SRC)], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
