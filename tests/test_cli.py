"""CLI behaviour: subcommands, exit codes, byte stability."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ranklef import cli, epstein, rootsys, sl2
from ranklef import lefschetz as lef
from reference import geometry_to_dict


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


REPORTS = Path(__file__).parent / "reports"
SP21_GEOMETRY = str(REPORTS / "geometry-sp21.json")


# stdout captured once per subcommand; any change to the report encoding or
# to its numbers shows up here
PINNED_REPORTS = {
    "rootsys-show-sl2r.json": ["rootsys", "show", "sl2r"],
    # one pin per family with compact roots: the root order fixes float sums
    "rootsys-show-su31.json": ["rootsys", "show", "su(3,1)"],
    "rootsys-show-so61.json": ["rootsys", "show", "so(6,1)"],
    "rootsys-show-sp21.json": ["rootsys", "show", "sp(2,1)"],
    "sl2-compare-k12-n2.json": ["sl2", "compare", "--k", "12", "--n", "2"],
    "sl2-oracle-k12-n2.json": ["sl2", "oracle", "--k", "12", "--n", "2"],
    "lefschetz-assemble-sl2z-k12-n2.json": [
        "lefschetz", "assemble", "--preset", "sl2z", "--k", "12", "--n", "2"
    ],
    # at n = 12, trace 0 has four classes per orientation, with centralizers
    # of orders 2 and 6, so these guard their folding into one entry
    "sl2-compare-k12-n12.json": ["sl2", "compare", "--k", "12", "--n", "12"],
    "lefschetz-assemble-sl2z-k12-n12.json": [
        "lefschetz", "assemble", "--preset", "sl2z", "--k", "12", "--n", "12"
    ],
    "epstein-const.json": ["epstein", "const", "--spec", str(REPORTS / "epstein-spec.json")],
    # exact classes with compact roots vanishing, so the coset reps matter
    "lefschetz-assemble-sp21-rho-n.json": [
        "lefschetz", "assemble", "--group", "sp(2,1)", "--mu", "1,1,0", "--geom", SP21_GEOMETRY
    ],
    "lefschetz-assemble-sp21-zero.json": [
        "lefschetz", "assemble", "--group", "sp(2,1)", "--mu", "0,0,0", "--geom", SP21_GEOMETRY
    ],
}


@pytest.mark.parametrize("expected", PINNED_REPORTS)
def test_report_bytes_are_pinned(capsys, expected):
    code, out, err = run(capsys, PINNED_REPORTS[expected])
    assert code == 0 and err == ""
    assert out == (REPORTS / expected).read_text(encoding="utf-8")


# The keys of each report that is a record's fields: a record is a tuple, which
# json.dumps would write as an array, so the CLI passes its _asdict().
RECORD_KEYS = {
    ("sl2", "compare"): set(sl2.OracleReport._fields),
    ("lefschetz", "assemble"): set(lef.LefschetzBreakdown._fields) | {"provenance"},
    ("epstein", "const"): set(epstein.LaurentConstant._fields),
}


@pytest.mark.parametrize("expected", PINNED_REPORTS)
def test_reports_are_objects_with_record_fields_as_keys(capsys, expected):
    argv = PINNED_REPORTS[expected]
    code, out, _ = run(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert isinstance(report, dict), f"{expected} is a {type(report).__name__}, not an object"
    if tuple(argv[:2]) in RECORD_KEYS:
        assert set(report) == RECORD_KEYS[tuple(argv[:2])]
    if argv[:2] == ["rootsys", "show"]:
        assert report["positive_roots"]
        for i, root in enumerate(report["positive_roots"]):
            assert isinstance(root, dict) and set(root) == {"coords", "kind"}, f"positive_roots[{i}] is {root!r}"


def test_rootsys_show(capsys):
    code, out, _ = run(capsys, ["rootsys", "show", "su(2,1)"])
    assert code == 0
    data = json.loads(out)
    assert data["dim_p"] == 4 and data["weyl_order_full"] == 6
    assert data["spinor_dims"] == [2, 2]


def test_rootsys_show_rejects_unknown(capsys):
    code, _, err = run(capsys, ["rootsys", "show", "so(5,1)"])
    assert code == 1 and "error" in err


def test_compare_calibration_point(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, ["sl2", "compare", "--k", "12", "--n", "1", "--out", str(out_file)])
    assert code == 0
    data = json.loads(out)
    assert data["match"] is True and data["oracle_value"] == 1
    assert json.loads(out_file.read_text()) == data


def test_compare_rejects_odd_weight(capsys):
    code, _, err = run(capsys, ["sl2", "compare", "--k", "13", "--n", "1"])
    assert code == 1 and "error" in err


def test_compare_rejects_low_weight(capsys):
    code, _, err = run(capsys, ["lefschetz", "assemble", "--preset", "sl2z", "--k", "2", "--n", "1"])
    assert code == 1 and "weight must be >= 4" in err


def test_assemble_preset_and_byte_stability(capsys):
    argv = ["lefschetz", "assemble", "--preset", "sl2z", "--k", "12", "--n", "1"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["rounded"] == 1
    assert data["provenance"]["source"] == {"n": 1, "preset": "sl2z"}


def test_assemble_odd_weight_exit_one(capsys):
    code, _, err = run(capsys, ["lefschetz", "assemble", "--preset", "sl2z", "--k", "13", "--n", "1"])
    assert code == 1 and "error" in err


def test_assemble_rejects_n_with_a_geometry_file(capsys):
    argv = ["lefschetz", "assemble", "--group", "sp(2,1)", "--mu", "1,1,0", "--geom", SP21_GEOMETRY]
    code, out, err = run(capsys, argv + ["--n", "7"])
    assert code == 1 and out == ""
    assert err == "error: --n applies only to --preset sl2z\n"


def test_assemble_requires_one_geometry_source(capsys):
    code, _, err = run(capsys, ["lefschetz", "assemble", "--k", "12"])
    assert code == 1
    code, _, err = run(capsys, ["lefschetz", "assemble", "--preset", "sl2z", "--k", "12"])
    assert code == 1 and "--n" in err


def test_assemble_geometry_file(capsys, tmp_path):
    geom = sl2.build_geom_sl2z(2)
    path = tmp_path / "geom.json"
    path.write_text(json.dumps(geometry_to_dict(geom)))
    code, out, _ = run(
        capsys,
        ["lefschetz", "assemble", "--group", "sl2r", "--k", "12", "--geom", str(path)],
    )
    assert code == 0
    data = json.loads(out)
    direct = sl2.lefschetz_sl2z(12, 2)
    assert abs(data["total"]["re"] - direct.total.real) < 1e-9


def test_compare_mismatch_exit_two(capsys, monkeypatch):
    monkeypatch.setattr(sl2, "eichler_selberg", lambda k, n: 999)
    code, out, err = run(capsys, ["sl2", "compare", "--k", "12", "--n", "1"])
    assert code == 2 and "MISMATCH" in err


@pytest.mark.parametrize("power", [(12 - 2) // 2, 12 - 2], ids=["n^((k-2)/2)", "n^(k-2)"])
def test_compare_matches_at_one_normalization_only(capsys, monkeypatch, power):
    """A preset total off by another power of n is a mismatch: the defect is
    measured at n^{-(k-2)/2} alone."""
    preset = sl2.lefschetz_sl2z

    def scaled(k, n):
        bd = preset(k, n)
        return bd._replace(total=bd.total * n**power)

    monkeypatch.setattr(sl2, "lefschetz_sl2z", scaled)
    code, out, err = run(capsys, ["sl2", "compare", "--k", "12", "--n", "2"])
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("MISMATCH: ")
    data = json.loads(out)
    total = complex(data["lefschetz_value"]["re"], data["lefschetz_value"]["im"])
    assert data["defect"] == abs(total - data["oracle_value"] / 2**5)
    assert data["normalization_exponent"] == "-(k-2)/2" and data["match"] is False


def test_assemble_nonintegral_exit_three(capsys, monkeypatch):
    geom = sl2.build_geom_sl2z(1)
    bad = geom._replace(calibration=geom.calibration * 1.07)
    monkeypatch.setattr(sl2, "build_geom_sl2z", lambda n: bad)
    code, _, err = run(capsys, ["lefschetz", "assemble", "--preset", "sl2z", "--k", "12", "--n", "1"])
    assert code == 3 and "integer" in err


def test_sl2_oracle(capsys):
    code, out, _ = run(capsys, ["sl2", "oracle", "--k", "12", "--n", "5"])
    assert code == 0
    data = json.loads(out)
    assert data["eichler_selberg"] == 4830 and data["tau"] == 4830


SL2Z_LEVEL_COMMANDS = (
    ["sl2", "compare", "--k", "12", "--n"],
    ["sl2", "oracle", "--k", "12", "--n"],
    ["lefschetz", "assemble", "--preset", "sl2z", "--k", "12", "--n"],
)


@pytest.mark.parametrize("argv", SL2Z_LEVEL_COMMANDS, ids=lambda a: "-".join(a[:2]))
def test_sl2z_level_at_bound(capsys, argv):
    code, out, err = run(capsys, argv + [str(cli.MAX_SL2Z_LEVEL)])
    assert code == 0, err
    assert json.loads(out)


@pytest.mark.parametrize("argv", SL2Z_LEVEL_COMMANDS, ids=lambda a: "-".join(a[:2]))
def test_sl2z_level_above_bound_exit_one(capsys, argv):
    code, out, err = run(capsys, argv + [str(cli.MAX_SL2Z_LEVEL + 1)])
    assert code == 1 and out == ""
    assert f"above the SL(2,Z) level bound {cli.MAX_SL2Z_LEVEL}" in err


@pytest.mark.parametrize("command", ["oracle", "compare"])
def test_sl2z_weight_at_bound(capsys, command):
    code, out, err = run(capsys, ["sl2", command, "--k", str(cli.MAX_SL2Z_WEIGHT), "--n", "2"])
    assert code == 0, err
    assert json.loads(out)["k"] == cli.MAX_SL2Z_WEIGHT


@pytest.mark.parametrize("k, n", [(1000, 10), (1000, 2000), (500, 2000)])
def test_compare_where_the_scaled_trace_overflows_a_float(capsys, k, n):
    # The trace times n^{(k-2)/2} is far beyond the float range here; the
    # matching exponent divides it down, exactly.
    code, out, err = run(capsys, ["sl2", "compare", "--k", str(k), "--n", str(n)])
    assert code == 0, err
    data = json.loads(out)
    assert data["match"] is True
    assert data["normalization_exponent"] == "-(k-2)/2"


@pytest.mark.parametrize("command", ["oracle", "compare"])
def test_sl2z_weight_above_bound_exit_one(capsys, command):
    k = cli.MAX_SL2Z_WEIGHT + 2
    code, out, err = run(capsys, ["sl2", command, "--k", str(k), "--n", "1"])
    assert code == 1 and out == ""
    assert err == f"error: --k {k} is above the SL(2,Z) weight bound {cli.MAX_SL2Z_WEIGHT}\n"


@pytest.mark.parametrize("source", ["preset", "geom"])
def test_assemble_weight_bound(capsys, tmp_path, source):
    # the bound of the sl2 commands holds for `lefschetz assemble --k` from
    # either geometry source: at k = 10^18 the float turns pass 2^53, and the
    # total the command printed was rounding noise
    if source == "preset":
        argv = ["lefschetz", "assemble", "--preset", "sl2z", "--n", "7"]
    else:
        path = tmp_path / "geom.json"
        path.write_text(json.dumps(geometry_to_dict(sl2.build_geom_sl2z(7))))
        argv = ["lefschetz", "assemble", "--group", "sl2r", "--geom", str(path)]
    k = cli.MAX_SL2Z_WEIGHT
    code, out, err = run(capsys, argv + ["--k", str(k)])
    assert code == 0, err
    assert json.loads(out)["provenance"]["mu"] == [f"{k - 1}/2", f"{1 - k}/2"]
    for k in (cli.MAX_SL2Z_WEIGHT + 2, 10**18):
        code, out, err = run(capsys, argv + ["--k", str(k)])
        assert code == 1 and out == ""
        assert err == f"error: --k {k} is above the SL(2,Z) weight bound {cli.MAX_SL2Z_WEIGHT}\n"


def test_group_at_the_torus_dimension_bound(capsys):
    code, out, _ = run(capsys, ["rootsys", "show", "su(5,1)"])
    assert code == 0
    assert len(json.loads(out)["rho_g"]) == rootsys.MAX_TORUS_DIM


@pytest.mark.parametrize("group, dim", [("su(6,1)", 7), ("so(14,1)", 7), ("su(1000,1)", 1001)])
def test_group_above_the_torus_dimension_bound_exit_one(capsys, group, dim):
    # rejected before any root is built: su(1000,1) has about 10^6 roots
    start = time.perf_counter()
    code, out, err = run(capsys, ["rootsys", "show", group])
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == f"error: {group} has dim t = {dim}, above the bound {rootsys.MAX_TORUS_DIM}\n"


def test_epstein_const_cli(capsys, tmp_path):
    spec = {
        "classes": [{"weight": 1.0, "scale": 1.0, "offset": 1.0}],
        "lattice_vol": 1.0,
        "exponent_base": 1,
    }
    path = tmp_path / "hurwitz_a1.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, ["epstein", "const", "--spec", str(path)])
    assert code == 0
    data = json.loads(out)
    assert abs(data["constant_term"] - 0.5772157) < 1e-6
    assert data["pole_order_at_0"] == 1


def test_epstein_const_bad_spec(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"classes": [{"weight": 1.0}], "exponent_base": 1}))
    code, _, err = run(capsys, ["epstein", "const", "--spec", str(path)])
    assert code == 1 and "error" in err


def test_mu_flag_for_general_groups(capsys):
    code, out, _ = run(
        capsys,
        ["lefschetz", "assemble", "--group", "sl2r", "--mu", "11/2,-11/2", "--preset", "sl2z", "--n", "1"],
    )
    assert code == 0
    assert json.loads(out)["rounded"] == 1


def test_preset_rejects_groups_other_than_sl2r(capsys):
    code, out, err = run(
        capsys,
        ["lefschetz", "assemble", "--preset", "sl2z", "--n", "2", "--group", "sp(1,1)", "--mu", "1,0"],
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "sp(1,1)" in err


def test_report_names_the_geometry_file_however_its_path_is_spelled(capsys, monkeypatch):
    monkeypatch.chdir(REPORTS)
    outs = set()
    for path in ("geometry-sp21.json", "./geometry-sp21.json", SP21_GEOMETRY):
        code, out, _ = run(capsys, ["lefschetz", "assemble", "--group", "sp(2,1)", "--mu", "1,1,0", "--geom", path])
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    assert json.loads(outs.pop())["provenance"]["source"] == {"file": "geometry-sp21.json"}


def test_assemble_singular_weight_from_geometry_file(capsys, tmp_path):
    geom = {
        "total_vol": 1.0,
        "central_classes": [{"tag": "e", "z": [[0, 1], [0, 1]]}],
        "elliptic_classes": [],
        "parabolic_I": [],
        "parabolic_II": [],
        "residue_scalar": {"re": 3.0, "im": 0.0},
        "calibration": 1.0,
    }
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(geom))
    code, out, _ = run(
        capsys,
        ["lefschetz", "assemble", "--group", "sl2r", "--mu", "0,0", "--geom", str(path)],
    )
    assert code == 0
    data = json.loads(out)
    assert data["branch"] == "singular"
    assert data["central"] == {"im": 0.0, "re": 0.0}
    assert data["residue"]["re"] == -1.5
    # dropping the residue data makes the singular run a validation error
    geom["residue_scalar"] = None
    path.write_text(json.dumps(geom))
    code, _, err = run(
        capsys,
        ["lefschetz", "assemble", "--group", "sl2r", "--mu", "0,0", "--geom", str(path)],
    )
    assert code == 1 and "residue" in err


def _geometry_file(tmp_path, dim, override=None):
    """A regular-branch geometry file with one entry per section; ``override``
    maps a dotted path such as ``elliptic_classes.0.rep`` to a new value."""
    zero = [[0, 1]] * dim
    geom = {
        "total_vol": 1.0,
        "central_classes": [{"tag": "e", "z": zero}],
        "elliptic_classes": [{"rep": [[1, 3], [-1, 3]] + [[0, 1]] * (dim - 2), "vol_quotient": 0.5}],
        "parabolic_I": [
            {
                "delta_flag": True,
                "c_eta_plus": 1.0,
                "c_eta_minus": -1.0,
                "C_eta_plus": 0.5,
                "C_eta_minus": 0.25,
                "dim_n_eta1": 0,
                "eta_torus": zero,
            }
        ],
        "parabolic_II": [
            {
                "vol_M": 1.0,
                "det_Ad_n": 1.0,
                "coset_index": 1,
                "eta_H": {"compact_angles": zero, "log_a": 0.5, "chamber": "H_plus"},
            }
        ],
        "residue_scalar": {"re": 1.0, "im": 0.0},
        "calibration": 1.0,
    }
    for path, value in (override or {}).items():
        *parents, last = [int(p) if p.isdigit() else p for p in path.split(".")]
        entry = geom
        for p in parents:
            entry = entry[p]
        entry[last] = value
    path = tmp_path / "geom.json"
    path.write_text(json.dumps(geom))
    return str(path)


@pytest.mark.parametrize(
    "group, mu, dim",
    [("sl2r", "5,-5", 2), ("su(2,1)", "1/2,1/2,-1", 3)],
)
@pytest.mark.parametrize(
    "field",
    [
        "central_classes.0.z",
        "elliptic_classes.0.rep",
        "parabolic_I.0.eta_torus",
        "parabolic_II.0.eta_H.compact_angles",
    ],
)
def test_assemble_rejects_torus_element_of_wrong_dimension(capsys, tmp_path, group, mu, dim, field):
    argv = ["lefschetz", "assemble", "--group", group, "--mu", mu]
    code, _, _ = run(capsys, argv + ["--geom", _geometry_file(tmp_path, dim)])
    assert code == 0
    for angles in ([[1, 3]] * (dim - 1), [[1, 3]] * (dim + 1)):
        code, out, err = run(capsys, argv + ["--geom", _geometry_file(tmp_path, dim, {field: angles})])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        section, index, rest = field.split(".", 2)
        assert f"{section}[{index}].{rest} has {len(angles)} angles" in err
        assert f"dim t = {dim}" in err


@pytest.mark.parametrize(
    "group, mu, dim",
    [("sl2r", "5,-5", 2), ("su(2,1)", "1/2,1/2,-1", 3)],
)
@pytest.mark.parametrize("field, unit", [("Z0_pairing", "entries"), ("Rplus_xi0.0", "coordinates")])
def test_assemble_rejects_parabolic_I_vector_of_wrong_dimension(capsys, tmp_path, group, mu, dim, field, unit):
    # with n_{eta,1} > 0 the Z0 pairing enters the term, so it needs dim t entries
    base = {
        "parabolic_I.0.dim_n_eta1": 2,
        "parabolic_I.0.Z0_pairing": [0.5] * dim,
        "parabolic_I.0.Rplus_xi0": [[1] * dim],
    }
    argv = ["lefschetz", "assemble", "--group", group, "--mu", mu]
    code, _, err = run(capsys, argv + ["--geom", _geometry_file(tmp_path, dim, base)])
    assert code == 0, err
    for length in (dim - 1, dim + 1):
        bad = {**base, f"parabolic_I.0.{field}": [1] * length}
        code, out, err = run(capsys, argv + ["--geom", _geometry_file(tmp_path, dim, bad)])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"parabolic_I[0].{field.replace('.0', '[0]')} has {length} {unit}" in err
        assert f"dim t = {dim}" in err


@pytest.mark.parametrize("mu, count", [("11/2", 1), ("11/2,-11/2,99", 3)])
def test_assemble_rejects_mu_of_wrong_length(capsys, mu, count):
    # a long mu was once cut to dim t, and a short one named no field
    code, out, err = run(capsys, ["lefschetz", "assemble", "--preset", "sl2z", "--n", "1", "--mu", mu])
    assert code == 1 and out == ""
    assert err == f"error: mu has {count} coordinates; su(1,1) needs dim t = 2\n"


@pytest.mark.parametrize("mu", ["1/2,1/2", "1/2,1/2,-1,0"])
def test_assemble_rejects_mu_of_wrong_length_for_a_geometry_file(capsys, tmp_path, mu):
    argv = ["lefschetz", "assemble", "--group", "su(2,1)", "--geom", _geometry_file(tmp_path, 3), "--mu"]
    assert run(capsys, argv + ["1/2,1/2,-1"])[0] == 0
    code, out, err = run(capsys, argv + [mu])
    assert code == 1 and out == ""
    assert err == f"error: mu has {mu.count(',') + 1} coordinates; su(2,1) needs dim t = 3\n"


@pytest.mark.parametrize(
    "argv, option",
    [
        (["lefschetz", "assemble", "--preset", "sl2z", "--k", "12", "--n", "1"], ["--tolerance", "1e-3"]),
        (["lefschetz", "assemble", "--preset", "sl2z", "--k", "12", "--n", "1"], ["--interpretation", "identity"]),
        (["sl2", "compare", "--k", "12", "--n", "2"], ["--interpretation", "identity"]),
    ],
    ids=["assemble-tolerance", "assemble-interpretation", "compare-interpretation"],
)
def test_removed_options_exit_one(capsys, argv, option):
    code, out, err = run(capsys, argv + option)
    assert code == 1 and out == ""
    assert err == f"error: unrecognized arguments: {' '.join(option)}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lefschetz", "assemble", "--preset", "sl2z", "--n", "2", "--mu", "1/0,1"],
         "bad weight coordinates '1/0,1': Fraction(1, 0)"),
        (["lefschetz", "assemble", "--group", "sp(2,1)", "--k", "12", "--geom", SP21_GEOMETRY],
         "--k is the sl2r weight dictionary; use --mu for other groups"),
        (["lefschetz", "assemble", "--mu", "1,1,0", "--geom", SP21_GEOMETRY], "--geom requires --group"),
        (["rootsys", "show", "su(0,1)"], "unsupported group descriptor 'su(0,1)'"),
        (["rootsys", "show", "gl(2,1)"], "unsupported group descriptor 'gl(2,1)'"),
        (["sl2", "oracle", "--k", "13", "--n", "1"], "weight must be even and >= 4"),
        (["sl2", "oracle", "--k", "12", "--n", "0"], "n must be >= 1"),
    ],
    ids=["mu-zero-denominator", "k-for-sp21", "geom-without-group", "su01", "gl21", "oracle-k13", "oracle-n0"],
)
def test_refused_input_exits_one_with_one_error_line(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_json_default_refuses_other_types():
    with pytest.raises(TypeError, match=r"^object is not JSON serializable$"):
        cli.json_default(object())


@pytest.mark.parametrize(
    "target", ["{tmp}", "{tmp}/missing/report.json", ""], ids=["directory", "missing-directory", "empty"]
)
def test_unwritable_out_path_exits_one(capsys, tmp_path, target):
    code, out, err = run(capsys, ["sl2", "oracle", "--k", "12", "--n", "2", "--out", target.format(tmp=tmp_path)])
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write report: ") and err.count("\n") == 1


def test_closed_stdout_exits_one_without_a_traceback():
    # the read end is closed before the CLI starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ranklef.cli", "sl2", "oracle", "--k", "12", "--n", "2"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == "error: stdout closed before the report was written\n"


@pytest.mark.parametrize("value", [[], [1, 2], "geometry", 3, None])
@pytest.mark.parametrize(
    "argv",
    [
        ["lefschetz", "assemble", "--group", "sl2r", "--k", "12", "--geom"],
        ["epstein", "const", "--spec"],
    ],
    ids=["assemble", "epstein"],
)
def test_top_level_json_that_is_not_an_object_exits_one(capsys, tmp_path, argv, value):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(value))
    code, out, err = run(capsys, argv + [str(path)])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "JSON object" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["lefschetz", "assemble", "--group", "sl2r", "--k", "12", "--geom"],
        ["epstein", "const", "--spec"],
    ],
    ids=["assemble", "epstein"],
)
def test_deeply_nested_json_exits_one(capsys, tmp_path, argv):
    path = tmp_path / "input.json"
    path.write_text("[" * 100_000)  # deeper than the JSON decoder recurses
    code, out, err = run(capsys, argv + [str(path)])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (
            ["lefschetz", "assemble", "--group", "sl2r", "--k", "12", "--geom"],
            '{"total_vol": 1, "total_vol": 2}',
            "cannot read geometry file: the key 'total_vol' appears twice in one object",
        ),
        (
            ["lefschetz", "assemble", "--group", "sl2r", "--k", "12", "--geom"],
            '{"total_vol": 1, "elliptic_classes": [{"rep": [0, 0], "vol_quotient": 1, "d_xi": 1, "d_xi": 2}]}',
            "cannot read geometry file: the key 'd_xi' appears twice in one object",
        ),
        (
            ["epstein", "const", "--spec"],
            '{"classes": [{"weight": 1, "scale": 2}], "exponent_base": 2, "exponent_base": 3}',
            "bad Epstein spec: the key 'exponent_base' appears twice in one object",
        ),
        (
            ["epstein", "const", "--spec"],
            '{"classes": [{"weight": 1, "scale": 2, "weight": 5}], "exponent_base": 2}',
            "bad Epstein spec: the key 'weight' appears twice in one object",
        ),
    ],
    ids=["assemble-top", "assemble-entry", "epstein-top", "epstein-entry"],
)
def test_duplicated_json_key_exits_one(capsys, tmp_path, argv, text, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(json.loads(text)))  # the last value of each key
    assert run(capsys, argv + [str(path)])[0] == 0
    path.write_text(text)
    code, out, err = run(capsys, argv + [str(path)])
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# Every malformed leaf: exit 0 or 1, strict JSON or an error line, never a traceback

FUZZ_GEOMETRY = {
    "total_vol": 1.25,
    "central_classes": [{"tag": "1", "z": [[0, 1], [0, 1], [0, 1]]}],
    "elliptic_classes": [
        {"rep": [[1, 3], [1, 3], [-2, 3]], "vol_quotient": 0.25, "d_xi": 2.0},
        {"rep": [0.21, 0.47, -0.68], "vol_quotient": 0.5, "d_xi": 1.0},
    ],
    "parabolic_I": [
        {
            "delta_flag": True,
            "c_eta_plus": 1.1,
            "c_eta_minus": -0.7,
            "C_eta_plus": 0.3,
            "C_eta_minus": -0.4,
            "dim_n_eta1": 0,
            "eta_torus": [[1, 2], [1, 4], [0, 1]],
            "Rplus_xi0": [],
            "Z0_pairing": [0.2, -0.5, 0.9],
        },
        {
            "delta_flag": True,
            "c_eta_plus": 0.6,
            "c_eta_minus": -1.2,
            "C_eta_plus": -0.8,
            "C_eta_minus": 0.5,
            "dim_n_eta1": 2,
            "eta_torus": [[1, 3], [2, 3], [1, 6]],
            "Rplus_xi0": [[[1, 1], [0, 1], [-1, 1]]],
            "Z0_pairing": [-0.3, 0.7, 0.1],
        },
        {
            "delta_flag": False,
            "c_eta_plus": 0.9,
            "c_eta_minus": -0.6,
            "C_eta_plus": 0.2,
            "C_eta_minus": -0.9,
            "dim_n_eta1": 2,
            "eta_torus": [[3, 4], [0, 1], [5, 6]],
            "Rplus_xi0": [[[0, 1], [1, 1], [-1, 1]], [[1, 1], [-1, 1], [0, 1]]],
            "Z0_pairing": [0.4, 0.4, -0.8],
        },
    ],
    "parabolic_II": [
        {
            "vol_M": 0.5,
            "det_Ad_n": 2.0,
            "coset_index": 3,
            "eta_H": {"compact_angles": [[0, 1], [1, 2], [1, 2]], "log_a": 0.0, "chamber": "a_equals_1"},
        },
        {
            "vol_M": 0.75,
            "det_Ad_n": 1.5,
            "coset_index": 1,
            "eta_H": {"compact_angles": [[1, 4], [3, 4], [0, 1]], "log_a": 0.7, "chamber": "H_plus"},
        },
        {
            "vol_M": 0.3,
            "det_Ad_n": 3.0,
            "coset_index": 2,
            "eta_H": {"compact_angles": [[1, 6], [5, 6], [1, 3]], "log_a": -0.4, "chamber": "H_minus"},
        },
        {
            "vol_M": 0.9,
            "det_Ad_n": 0.5,
            "coset_index": 6,
            "eta_H": {"compact_angles": [[2, 3], [1, 3], [1, 2]], "log_a": 1.3, "chamber": "H_plus"},
        },
    ],
    "residue_scalar": {"re": 0.8, "im": 0.0},
    "calibration": 0.4,
}

# every scale and offset >= 1, so that a huge exponent_base reaches the
# Hurwitz sum instead of overflowing a power first
FUZZ_SPEC = {
    "classes": [
        {"weight": 1.5, "scale": 1.4, "offset": 1.5},
        {"weight": 0.5, "norm": 2.0},
    ],
    "lattice_vol": 1.2,
    "exponent_base": 1,
}

DELETED = object()  # the key or list entry is removed instead
BAD_LEAVES = (None, "x", [], {}, [1], -1, 0, float("nan"), float("inf"), 10**7, 10**400, DELETED)
# seconds one run may take: a huge value must be rejected, not computed with
CASE_TIME_LIMIT = 2.0


def _key_paths(value, prefix=()):
    """Every key path below the top level of a JSON value, parents first."""
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


def _replaced(value, path, leaf):
    copy = dict(value) if isinstance(value, dict) else list(value)
    if len(path) == 1 and leaf is DELETED:
        del copy[path[0]]
    else:
        copy[path[0]] = leaf if len(path) == 1 else _replaced(value[path[0]], path[1:], leaf)
    return copy


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "base, argv",
    [
        (FUZZ_GEOMETRY, ["lefschetz", "assemble", "--group", "su(2,1)", "--mu", "1/2,1/2,-1", "--geom"]),
        (FUZZ_SPEC, ["epstein", "const", "--spec"]),
    ],
    ids=["assemble", "epstein"],
)
def test_every_bad_leaf_exits_zero_or_one(capsys, tmp_path, base, argv):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(base))
    code, out, err = run(capsys, argv + [str(path)])
    assert code == 0 and err == ""
    _strict_json(out)
    failures = []
    for key_path in _key_paths(base):
        for leaf in BAD_LEAVES:
            path.write_text(json.dumps(_replaced(base, key_path, leaf)))
            case = f"{'.'.join(map(str, key_path))} = {'deleted' if leaf is DELETED else repr(leaf)[:10]}"
            start = time.perf_counter()
            try:
                code, out, err = run(capsys, argv + [str(path)])
            except Exception as exc:  # noqa: BLE001 - any escape is the failure under test
                failures.append(f"{case}: raised {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - start
            if elapsed > CASE_TIME_LIMIT:
                failures.append(f"{case}: took {elapsed:.1f} s")
            if code not in (0, 1):
                failures.append(f"{case}: exit {code}")
            elif code == 1 and (out or not err.startswith("error: ") or err.count("\n") != 1):
                failures.append(f"{case}: exit 1 with stdout {out[:40]!r}, stderr {err[:80]!r}")
            elif code == 0:
                try:
                    _strict_json(out)
                except ValueError as exc:
                    failures.append(f"{case}: exit 0 with a report that is not strict JSON: {exc}")
    assert not failures, f"{len(failures)} failures:\n" + "\n".join(failures[:40])


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("elliptic_classes",), [1], "elliptic_classes[0] must be a JSON object, not a number"),
        (("elliptic_classes", 0, "vol_quotient"), "1", "elliptic_classes[0].vol_quotient must be a number"),
        (("elliptic_classes", 0, "d_xi"), 0, "elliptic_classes[0].d_xi must be positive"),
        (("elliptic_classes", 0, "rep"), [[1], [-1, 3], [0, 1]], "elliptic_classes[0].rep[0] must be a [numerator"),
        (("central_classes",), [[0, 0]], "central_classes[0] must be a JSON object, not a list"),
        (("parabolic_II", 0, "eta_H"), 5, "parabolic_II[0].eta_H must be a JSON object, not a number"),
        (("parabolic_II", 1, "eta_H", "log_a"), -1, "parabolic_II[1].eta_H: chamber H_plus requires log_a > 0"),
        (("total_vol",), float("inf"), "total_vol must be a finite number"),
        (("calibration",), float("nan"), "calibration must be a finite number"),
        (("parabolic_II", 0, "eta_H", "log_a"), 0.5, "parabolic_II[0].eta_H: chamber a_equals_1 requires log_a = 0"),
        (("parabolic_II", 2, "eta_H", "log_a"), 0.4, "parabolic_II[2].eta_H: chamber H_minus requires log_a < 0"),
        # a misspelt key is not read as absent
        (("calibraton",), 5, "calibraton is not a known key"),
        (("elliptic_classes", 1, "dxi"), 2, "elliptic_classes[1].dxi is not a known key"),
        (("parabolic_II", 3, "eta_H", "loga"), 1.3, "parabolic_II[3].eta_H.loga is not a known key"),
        # an odd dim n_{eta,1} is rejected by name, whether or not the entry is active
        (("parabolic_I", 0, "dim_n_eta1"), 3, "parabolic_I[0].dim_n_eta1 must be even, not 3"),
        (("parabolic_I", 2, "dim_n_eta1"), 1, "parabolic_I[2].dim_n_eta1 must be even, not 1"),
    ],
)
def test_bad_geometry_entry_is_named(capsys, tmp_path, path, value, message):
    geom = tmp_path / "geom.json"
    geom.write_text(json.dumps(_replaced(FUZZ_GEOMETRY, path, value)))
    code, out, err = run(capsys, ["lefschetz", "assemble", "--group", "su(2,1)", "--mu", "1/2,1/2,-1", "--geom", str(geom)])
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read geometry file: ") and message in err


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("lattice_vol",), float("nan"), "lattice_vol must be a finite number"),
        (("classes", 1, "norm"), -2.0, "classes[1].norm must be positive"),
        (("exponent_base",), 1.5, "exponent_base must be an integer, not 1.5"),
        # the norm shorthand excludes the scale/offset form
        (("classes", 1), {"weight": 1, "norm": 2, "offset": 0.5}, "classes[1]: 'norm' excludes"),
        (("classes", 1), {"weight": 1, "scale": 2, "norm": 7}, "classes[1]: 'norm' excludes"),
        # a misspelt key is not read as absent
        (("classes", 0, "ofset"), 0.5, "classes[0].ofset is not a known key"),
        (("sign",), "minus", "sign is not a known key"),
    ],
)
def test_bad_spec_entry_is_named(capsys, tmp_path, path, value, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_replaced(FUZZ_SPEC, path, value)))
    code, out, err = run(capsys, ["epstein", "const", "--spec", str(spec)])
    assert code == 1 and out == ""
    assert err.startswith("error: bad Epstein spec: ") and message in err


@pytest.mark.parametrize(
    "base, changes, message",
    [
        # finite inputs whose results leave the float range
        (FUZZ_SPEC, {("lattice_vol",): 1e308, ("classes", 0, "scale"): 1e-300}, "not finite"),
        (FUZZ_SPEC, {("exponent_base",): 2, ("classes", 0, "offset"): 1e-300}, "floating-point range"),
        (FUZZ_GEOMETRY, {("total_vol",): 1e308, ("calibration",): 1e308}, "the total (inf"),
        (
            FUZZ_GEOMETRY,
            {("parabolic_I", 1, "dim_n_eta1"): 4000, ("parabolic_I", 1, "Z0_pairing"): [3.0, 1.0, 1.0]},
            "floating-point range",
        ),
    ],
    ids=["epstein-report", "epstein-hurwitz", "assemble-total", "assemble-parabolic-I"],
)
def test_results_out_of_float_range_exit_one(capsys, tmp_path, base, changes, message):
    for key_path, value in changes.items():
        base = _replaced(base, key_path, value)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(base))
    if "total_vol" in base:
        argv = ["lefschetz", "assemble", "--group", "su(2,1)", "--mu", "1/2,1/2,-1", "--geom", str(path)]
    else:
        argv = ["epstein", "const", "--spec", str(path)]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err
