"""Seeded one- and two-field mutations of every input the tests ship, run
through ``cli.main`` (ROADMAP item 7, the input side).

The north star promises one of two results for every input.  Each run here
must end in one of them:

* exit 1, with exactly one ``error:`` line on stderr and nothing on stdout;
* exit 0, with a report on stdout whose numbers are all finite.

``tests/test_cli.py::test_every_bad_leaf_exits_zero_or_one`` replaces each
leaf of two small inputs with a fixed list of bad values.  Here each run picks
one or two fields at random, of one of these inputs:

* ``tests/reports/geometry-*.json``;
* the wide geometry of each group of ``test_weyl_tables.GROUPS``, written
  with ``reference.geometry_to_dict`` (angle denominators up to 2**61 - 1,
  numerators above 2**64, mixed Fraction and float vectors);
* ``tests/reports/epstein-spec.json``.

A mutation gives the field a value of the wrong type; or a zero, negative,
huge or fraction value; or drops a key of an object or adds an unknown one;
or makes a list one entry short or long.  The first run of each input is the
input itself.
"""

import json
import math
import random
import re
from fractions import Fraction
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest

from ranklef import cli
from ranklef.rootsys import GroupDescriptor, build_root_system
from reference import geometry_to_dict
from test_cli import DELETED, _key_paths, _replaced
from test_weyl_tables import GROUPS, make_geometry

REPORTS = Path(__file__).parent / "reports"
# mutations per input: about 1500 runs in all, 2-3 s on a shared 2-vCPU host
RUNS = 150
WRONG_TYPES = (None, True, "x", "1/3", 2, [2], {"a": 2})


# the argv tails of each shipped geometry, and its exit code as shipped
GEOMETRY_RUNS = {
    "geometry-sp21": ([["--group", "sp(2,1)", "--mu", m] for m in ("1,1,0", "0,0,0")], 0),
    # its central class is not central
    "geometry-sl2r-noncentral": ([["--group", "sl2r", "--k", "12"], ["--group", "sl2r", "--mu", "0,0"]], 1),
}


def _shipped():
    """(name, JSON value, argv tails, the base's exit code) for each input:
    each run appends one of the tails, in turn, to its command."""
    for path in sorted(REPORTS.glob("geometry-*.json")):
        yield path.stem, json.loads(path.read_text(encoding="utf-8")), *GEOMETRY_RUNS[path.stem]
    for group in GROUPS:
        rs = build_root_system(GroupDescriptor.from_name(group))
        data = geometry_to_dict(make_geometry(rs, seed=3, n_exact=10, n_float=6, wide=True))
        mus = [",".join(str(c * x) for x in (rs.rho_g - rs.rho_k).coords) for c in (Fraction(4, 3), Fraction(5, 3))]
        slug = re.sub(r"\W", "", group)
        yield f"wide-{slug}", data, [["--group", group, "--mu", m] for m in mus], 0
    yield "epstein-spec", json.loads((REPORTS / "epstein-spec.json").read_text(encoding="utf-8")), [[]], 0


SHIPPED = list(_shipped())


def _kind(value):
    """The JSON type of a value: ints and floats are both numbers."""
    return "number" if type(value) in (int, float) else type(value)


def _mutated(rng, data):
    """The JSON value with one field mutated: returns (the new value, what changed)."""
    nodes = {(): data, **{path: reduce(getitem, path, data) for path in _key_paths(data)}}
    lists = [path for path, node in nodes.items() if isinstance(node, list) and node]
    kind = rng.choice(("type", "value", "key", "length") if lists else ("type", "value", "key"))
    if kind == "key":
        path = rng.choice([path for path, node in nodes.items() if isinstance(node, dict)])
        key = rng.choice([*nodes[path], None])
        path, new = (path + ("unknown",), 1) if key is None else (path + (key,), DELETED)
    elif kind == "length":
        path = rng.choice(lists)
        node = nodes[path]
        path, new = (path + (len(node) - 1,), DELETED) if rng.random() < 0.5 else (path, node + node[-1:])
    else:
        path = rng.choice(list(nodes)[1:])
        node = nodes[path]
        if kind == "type":
            new = rng.choice([v for v in WRONG_TYPES if _kind(v) != _kind(node)])
        else:
            x = node if _kind(node) == "number" and abs(node) <= 1e300 else 1
            new = rng.choice((0, -x if x else -1, 1e300, float("inf"), 2**70, 10**400, x / 3, [1, 3], [1, 0]))
    what = "dropped" if new is DELETED else f"<- {repr(new)[:12]}"
    return _replaced(data, path, new), f"{'.'.join(map(str, path))} {what}"


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for child in value:
            yield from _numbers(child)
    elif _kind(value) == "number":
        yield value


def _outcome(code, out, err):
    """None if the run ended in one of the two promised ways, else what went wrong."""
    if code == 1:
        return None if out == "" and err.startswith("error: ") and err.count("\n") == 1 else f"exit 1, {err[:80]!r}"
    if code != 0:
        return f"exit {code}"
    if err:
        return f"exit 0 with stderr {err[:80]!r}"
    try:
        report = json.loads(out)
    except ValueError as exc:
        return f"exit 0 with a report that is not JSON: {exc}"
    bad = [x for x in _numbers(report) if not math.isfinite(x)]
    return f"exit 0 with {len(bad)} numbers that are not finite" if bad else None


@pytest.mark.parametrize("name, data, tails, base_code", SHIPPED, ids=[s[0] for s in SHIPPED])
def test_mutated_inputs_exit_zero_with_a_finite_report_or_one_with_an_error(
    capsys, tmp_path, name, data, tails, base_code
):
    command = ["epstein", "const", "--spec"] if name == "epstein-spec" else ["lefschetz", "assemble", "--geom"]
    path = tmp_path / "input.json"
    rng = random.Random(f"input sweep {name}")
    failures, codes = [], []
    for i in range(RUNS + 1):
        mutant, changes = data, []
        for _ in range(min(i, rng.choice((1, 2)))):
            mutant, change = _mutated(rng, mutant)
            changes.append(change)
        path.write_text(json.dumps(mutant), encoding="utf-8")
        tail = tails[i % len(tails)]
        try:
            code = cli.main(command + [str(path)] + tail)
            problem = _outcome(code, *capsys.readouterr())
        except Exception as exc:  # noqa: BLE001 - any escape is the failure under test
            capsys.readouterr()
            code, problem = None, f"raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"{'; '.join(changes) or '(the input itself)'} {tail}: {problem}")
        codes.append(code)
    assert codes[0] == base_code, f"{name} itself exits {codes[0]}"
    assert not failures, f"{len(failures)} of {RUNS} runs failed:\n" + "\n".join(failures[:40])
    assert 1 in codes[1:]  # the sweep reaches the checks
