"""Write a fixed grid of CLI reports to a directory, to diff two source trees.

    PYTHONPATH=src python tests/report_grid.py OUTDIR
    PYTHONPATH=src python tests/report_grid.py --compare OLDDIR NEWDIR

Each command runs through ``ranklef.cli.main`` in this process, and for each
one the script writes ``NAME.stdout``, ``NAME.stderr`` and ``NAME.exit`` (the
exit code) to OUTDIR.  It imports whichever ``ranklef`` comes first on
``PYTHONPATH``, so the same script run against two trees shows every report
that differs between them:

    PYTHONPATH=/path/to/other/src python tests/report_grid.py other
    PYTHONPATH=src python tests/report_grid.py this
    diff -r other this

or list the moved reports with ``--compare other this``: for each command
whose digest differs, the largest change of a number relative to the
report's ``total`` (an ``sl2 compare`` report's ``lefschetz_value``), the keys
that moved, and whether ``rounded``, ``branch``, ``match``, the exit code or
stderr moved (``compare``).

It also writes ``grid.sha256`` to OUTDIR: one line per command, the SHA-256
of its stdout, a NUL byte, its stderr, a NUL byte and its ``NAME.exit`` text,
then its name.  The copy committed as ``tests/reports/grid.sha256`` is the
manifest that ``test_report_grid`` holds every tree to; a change that moves
report bytes on purpose refreshes it by copying the new file over it.

The grid, 252 commands:

* ``rootsys show`` on fifteen groups, so each family's root builder runs at
  both ends of its range;
* ``sl2 compare`` for k in {12, 24, 40} and n in 1..30, 100, 500, 1000 and
  2000, the level bound ``cli.MAX_SL2Z_LEVEL``, and at three points whose
  trace overflows a float (``OVERFLOW_COMPARES``);
* ``sl2 oracle`` for k = 12 and n in {1, 50, 475};
* ``lefschetz assemble --preset sl2z --k 12`` for n in {1, 2, 6, 12};
* the commands pinned in ``tests/reports/`` (``test_cli.PINNED_REPORTS``);
* eighteen commands that exit 1 with an ``error:`` line (``ERROR_COMMANDS``),
  each cheap on any tree;
* on the ``rank1-cli`` benchmark inputs of seeds 1-3, ``epstein const`` for
  each group and ``lefschetz assemble --geom`` for each (group, mu);
* ``lefschetz assemble --geom`` on inputs the benchmark never draws
  (``wide_commands``): for each group of ``test_weyl_tables.GROUPS``, its
  wide geometry (angle denominators 5, 7, 12, 97 and 2**61 - 1, negative
  numerators, numerators near 2**52 and above 2**64, mixed Fraction and float
  vectors, R+(xi0) vectors with denominators) at mu = 4/3 and 5/3 times
  rho_g - rho_k;
* ``lefschetz assemble --geom`` at MAX_TORUS_DIM (``max_dim_commands``):
  su(5,1), so(12,1) and sp(5,1) on the benchmark's geometry generator with
  seed 1, at mu = rho_g - rho_k and mu = 0, so that the singular classes and
  the unipotent sum over the largest W(k,t) are pinned;
* ``lefschetz assemble --geom`` on geometries that repeat torus elements
  (``inverse_commands``): su(2,1), so(6,1) and sp(2,1), each elliptic class
  beside its inverse and the inverse's float copy, each cusp compact element
  named five times and beside its float copy, so that the terms a float
  class shares with its inverse, and the bytes at a repeated compact element,
  are pinned.

A command that reads a file runs from the file's directory and names it
without a directory, so its report does not depend on where the file lies.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPORTS = HERE / "reports"
MANIFEST = REPORTS / "grid.sha256"
sys.path.insert(0, str(HERE.parent / "perfbench"))

from ranklef import cli  # noqa: E402
from ranklef.chars import TorusElement  # noqa: E402
from ranklef.lefschetz import CentralClass  # noqa: E402
from ranklef.rootsys import GroupDescriptor, build_root_system  # noqa: E402
from reference import geometry_to_dict  # noqa: E402
from test_cli import PINNED_REPORTS  # noqa: E402
from test_weyl_tables import GROUPS as WIDE_GROUPS, make_geometry  # noqa: E402
from workloads import Rank1Cli, geometry_json, rho_n  # noqa: E402  (imports no ranklef code)
from workloads import make_geometry as bench_geometry  # noqa: E402

GROUPS = (
    "sl2r", "su(2,1)", "su(3,1)", "su(4,1)", "su(5,1)",
    "so(2,1)", "so(6,1)", "so(8,1)", "so(10,1)", "so(12,1)",
    "sp(1,1)", "sp(2,1)", "sp(3,1)", "sp(4,1)", "sp(5,1)",
)
OVERFLOW_COMPARES = ((1000, 10), (1000, 2000), (500, 2000))
SEEDS = (1, 2, 3)
MAX_DIM_GROUPS = ("su(5,1)", "so(12,1)", "sp(5,1)")
INVERSE_GROUPS = ("su(2,1)", "so(6,1)", "sp(2,1)")


def sl2z_commands():
    for group in GROUPS:
        yield f"rootsys-show-{group}", ["rootsys", "show", group]
    points = [(k, n) for k in (12, 24, 40) for n in [*range(1, 31), 100, 500, 1000, 2000]]
    for k, n in points + list(OVERFLOW_COMPARES):
        yield f"sl2-compare-k{k}-n{n}", ["sl2", "compare", "--k", str(k), "--n", str(n)]
    for n in (1, 50, 475):
        yield f"sl2-oracle-k12-n{n}", ["sl2", "oracle", "--k", "12", "--n", str(n)]
    for n in (1, 2, 6, 12):
        yield f"assemble-sl2z-k12-n{n}", ["lefschetz", "assemble", "--preset", "sl2z", "--k", "12", "--n", str(n)]


ASSEMBLE_SL2Z = ["lefschetz", "assemble", "--preset", "sl2z"]
# sl2r with one central class at z = (1/3, -1/3), on which the root is nontrivial
ASSEMBLE_NONCENTRAL = ["lefschetz", "assemble", "--group", "sl2r", "--geom", "geometry-sl2r-noncentral.json"]
ERROR_COMMANDS = {
    "mu-short": ASSEMBLE_SL2Z + ["--n", "1", "--mu", "11/2"],
    "mu-long": ASSEMBLE_SL2Z + ["--n", "1", "--mu", "11/2,-11/2,99"],
    "mu-missing": ASSEMBLE_SL2Z + ["--n", "1"],
    "mu-not-dominant": ASSEMBLE_SL2Z + ["--n", "1", "--mu=-11/2,11/2"],
    "mu-not-compact-dominant": ["lefschetz", "assemble", "--group", "sp(2,1)", "--geom", "geometry-sp21.json", "--mu=-3,0,0"],
    "tolerance": ASSEMBLE_SL2Z + ["--k", "12", "--n", "1", "--tolerance", "1e-3"],
    "interpretation": ASSEMBLE_SL2Z + ["--k", "12", "--n", "1", "--interpretation", "identity"],
    "low-weight": ASSEMBLE_SL2Z + ["--k", "2", "--n", "1"],
    "preset-sp11": ASSEMBLE_SL2Z + ["--n", "2", "--group", "sp(1,1)", "--mu", "1,0"],
    "oracle-k1002": ["sl2", "oracle", "--k", "1002", "--n", "1"],
    "compare-k13": ["sl2", "compare", "--k", "13", "--n", "1"],
    "compare-n0": ["sl2", "compare", "--k", "12", "--n", "0"],
    "compare-n2001": ["sl2", "compare", "--k", "12", "--n", "2001"],
    "rootsys-show-so(5,1)": ["rootsys", "show", "so(5,1)"],
    "rootsys-show-su(6,1)": ["rootsys", "show", "su(6,1)"],
    "noncentral-k12": ASSEMBLE_NONCENTRAL + ["--k", "12"],
    "noncentral-mu0": ASSEMBLE_NONCENTRAL + ["--mu", "0,0"],
    "assemble-k1002": ASSEMBLE_SL2Z + ["--k", "1002", "--n", "1"],
}


def pinned_commands():
    for name, argv in PINNED_REPORTS.items():
        bare = [os.path.basename(a) if a.startswith(str(REPORTS)) else a for a in argv]
        yield f"pin-{Path(name).stem}", bare


def rank1_commands(seed, workdir):
    specs = {}
    for req in Rank1Cli().make_inputs(random.Random(seed), workdir):
        slug = Path(req.geom_path).stem.removeprefix("geom-")
        specs[slug] = Path(req.spec_path).name
        argv = ["lefschetz", "assemble", "--group", req.group, "--mu", req.mu_text]
        argv += ["--geom", Path(req.geom_path).name]
        yield f"seed{seed}-assemble-{slug}-{req.mu_label}", argv
    for slug, spec in specs.items():
        yield f"seed{seed}-epstein-{slug}", ["epstein", "const", "--spec", spec]


def wide_commands(workdir):
    """Write each group's wide geometry to ``workdir``, with a trivial and a
    huge integer central class, and assemble it at two mu with thirds or sixths."""
    for group in WIDE_GROUPS:
        rs = build_root_system(GroupDescriptor.from_name(group))
        data = geometry_to_dict(make_geometry(rs, seed=3, n_exact=10, n_float=6, wide=True))
        data["central_classes"] = [{"tag": tag, "z": [[z, 1]] * rs.dim} for tag, z in (("1", 0), ("huge", 2**64 + 1))]
        slug = re.sub(r"\W", "", group)
        (Path(workdir) / f"wide-{slug}.json").write_text(json.dumps(data), encoding="utf-8")
        for c in (Fraction(4, 3), Fraction(5, 3)):
            mu = ",".join(str(c * x) for x in (rs.rho_g - rs.rho_k).coords)
            argv = ["lefschetz", "assemble", "--group", group, "--mu", mu, "--geom", f"wide-{slug}.json"]
            yield f"wide-assemble-{slug}-rho{c.numerator}over3", argv


def _inverse(t):
    return TorusElement(tuple(-a for a in t.angles))


def _as_floats(angles):
    return tuple(map(float, angles))


def _with_first(angles, first, su):
    """The angles with ``first`` as coordinate 0, and for su the last one
    moved to keep the sum 0."""
    middle = angles[1:-1] if su else angles[1:]
    return (first, *middle, -(first + sum(middle))) if su else (first, *middle)


def inverse_commands(workdir):
    """Write for each group of ``INVERSE_GROUPS`` a geometry in which each
    elliptic class (exact, float, mixed, with a 0.0 coordinate) stands beside
    its inverse and the float copy of that inverse, and whose parabolic II
    entries name three compact elements, the float copy of one of them and
    the identity, which is also a central class, five times each; assemble
    it at mu = rho_g - rho_k and twice that.  Every entry at a repeated
    compact element is evaluated on its own, so these pin its bytes, not a
    shared evaluation."""
    for group in INVERSE_GROUPS:
        rs = build_root_system(GroupDescriptor.from_name(group))
        su = rs.descriptor.family.value == "su"
        geom = make_geometry(rs, seed=4, n_exact=4, n_float=3)
        last = geom.elliptic_classes[-1]
        extra = [last._replace(rep=TorusElement(_with_first(last.rep.angles, a, su))) for a in (Fraction(1, 7), 0.0)]
        elliptic = [c._replace(rep=rep) for c in geom.elliptic_classes + tuple(extra)
                    for rep in (c.rep, _inverse(c.rep), TorusElement(_as_floats(_inverse(c.rep).angles)))]
        identity = (Fraction(0),) * rs.dim
        compact = [p.eta_H.compact_angles for p in geom.parabolic_II[:3]]
        compact += [_as_floats(compact[1]), identity]
        parabolic_II = [p._replace(eta_H=p.eta_H._replace(compact_angles=angles))
                        for p in geom.parabolic_II for angles in compact]
        geom = geom._replace(central_classes=(CentralClass("1", TorusElement(identity)),),
                             elliptic_classes=tuple(elliptic), parabolic_II=tuple(parabolic_II))
        slug = re.sub(r"\W", "", group)
        (Path(workdir) / f"inverses-{slug}.json").write_text(json.dumps(geometry_to_dict(geom)), encoding="utf-8")
        rho = rs.rho_g - rs.rho_k
        for label, c in (("rho", 1), ("2rho", 2)):
            mu = ",".join(str(c * x) for x in rho.coords)
            argv = ["lefschetz", "assemble", "--group", group, "--mu", mu, "--geom", f"inverses-{slug}.json"]
            yield f"inverses-assemble-{slug}-{label}", argv


def max_dim_commands(workdir):
    """Write the benchmark's geometry (its generator, seed 1) for each group of
    ``MAX_DIM_GROUPS`` to ``workdir``, and assemble it at mu = rho_g - rho_k
    and mu = 0: the singular classes and the unipotent sum at MAX_TORUS_DIM."""
    for group in MAX_DIM_GROUPS:
        slug = re.sub(r"\W", "", group)
        data = geometry_json(bench_geometry(random.Random(1), group))
        (Path(workdir) / f"geom-{slug}.json").write_text(json.dumps(data), encoding="utf-8")
        rho = rho_n(group)
        for label, mu in (("rho", rho), ("zero", [0] * len(rho))):
            argv = ["lefschetz", "assemble", "--group", group, "--mu", ",".join(map(str, mu))]
            yield f"maxdim-assemble-{slug}-{label}", argv + ["--geom", f"geom-{slug}.json"]


def run(argv, cwd):
    """Run one command in this process from ``cwd``: (stdout, stderr, exit code)."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(here)
    return out.getvalue(), err.getvalue(), code


def grid(workdir):
    """Yield (name, stdout, stderr, exit code) for every grid command, in
    order; the ``rank1-cli`` inputs are written under ``workdir``."""
    commands = [(name, argv, os.getcwd()) for name, argv in sl2z_commands()]
    commands += [(name, argv, REPORTS) for name, argv in pinned_commands()]
    commands += [(f"error-{name}", argv, REPORTS) for name, argv in ERROR_COMMANDS.items()]
    for seed in SEEDS:
        seed_dir = Path(workdir) / f"seed{seed}"
        seed_dir.mkdir()
        commands += [(name, argv, seed_dir) for name, argv in rank1_commands(seed, seed_dir)]
    wide_dir = Path(workdir) / "wide"
    wide_dir.mkdir()
    commands += [(name, argv, wide_dir) for name, argv in wide_commands(wide_dir)]
    max_dir = Path(workdir) / "maxdim"
    max_dir.mkdir()
    commands += [(name, argv, max_dir) for name, argv in max_dim_commands(max_dir)]
    inverse_dir = Path(workdir) / "inverses"
    inverse_dir.mkdir()
    commands += [(name, argv, inverse_dir) for name, argv in inverse_commands(inverse_dir)]
    for name, argv, cwd in commands:
        yield (name, *run(argv, cwd))


def digest(stdout, stderr, code):
    text = f"{stdout}\0{stderr}\0{code}\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_manifest(path=MANIFEST):
    """A manifest, by default the committed one, as {name: digest}."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return {name: value for value, name in (line.split("  ", 1) for line in lines)}


def _leaves(report, path=""):
    """(path, value) for every leaf of a JSON report, an {im, re} object as one complex."""
    if isinstance(report, dict) and report.keys() == {"im", "re"}:
        yield path, complex(report["re"], report["im"])
    elif isinstance(report, (dict, list)):
        items = report.items() if isinstance(report, dict) else enumerate(report)
        for key, value in items:
            yield from _leaves(value, f"{path}.{key}" if path else str(key))
    else:
        yield path, report


def _is_number(x):
    return isinstance(x, (int, float, complex)) and not isinstance(x, bool)


def moved_report(old, new):
    """How one command's output moved, from two (stdout, stderr, exit text):
    (largest |change| of a number over |total|, or None where the report has no
    numeric ``total`` or is not JSON; the moved leaf keys; the moved names among
    ``rounded``, ``branch``, ``match``, ``exit`` and ``stderr``).  An ``sl2
    compare`` report's total is its ``lefschetz_value``."""
    try:
        before, after = (dict(_leaves(json.loads(out))) for out, _, _ in (old, new))
    except ValueError:
        before, after = {}, {}
    keys = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
    total = before.get("total", before.get("lefschetz_value"))
    rel = None
    if _is_number(total):
        changes = [abs(after[k] - before[k]) for k in keys
                   if _is_number(before.get(k)) and _is_number(after.get(k))]
        rel = max(changes, default=0.0) / abs(total) if total else math.inf
    if not before and old[0] != new[0]:
        keys = ["stdout"]
    flags = [k for k in ("rounded", "branch", "match") if k in keys]
    flags += [name for name, i in (("exit", 2), ("stderr", 1)) if old[i] != new[i]]
    return rel, keys, flags


def compare(old_dir, new_dir):
    """Print one line per command whose digest differs between two grid directories."""
    manifests = [read_manifest(d / "grid.sha256") for d in (old_dir, new_dir)]
    names = [name for name in manifests[0] | manifests[1] if manifests[0].get(name) != manifests[1].get(name)]
    for name in names:
        if not all(name in m for m in manifests):
            print(f"{name}: only in {old_dir if name in manifests[0] else new_dir}")
            continue
        outputs = [tuple((d / f"{name}.{ext}").read_text(encoding="utf-8") for ext in ("stdout", "stderr", "exit"))
                   for d in (old_dir, new_dir)]
        rel, keys, flags = moved_report(*outputs)
        size = "no total" if rel is None else f"{rel:.2g} of |total|"
        also = f"; MOVED {', '.join(flags)}" if flags else "; rounded, branch, match, exit and stderr kept"
        print(f"{name}: {size}; keys {', '.join(keys) or 'none'}{also}")
    print(f"{len(names)} of {len(manifests[1])} commands moved", file=sys.stderr)
    return 0


def main(argv):
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    outdir = Path(argv[0]).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, out, err, code in grid(tmp):
            (outdir / f"{name}.stdout").write_text(out, encoding="utf-8")
            (outdir / f"{name}.stderr").write_text(err, encoding="utf-8")
            (outdir / f"{name}.exit").write_text(f"{code}\n", encoding="utf-8")
            lines.append(f"{digest(out, err, code)}  {name}\n")
    (outdir / "grid.sha256").write_text("".join(lines), encoding="utf-8")
    print(f"{len(lines)} reports written to {outdir}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
