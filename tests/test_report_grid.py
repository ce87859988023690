"""Every command of the report grid against the committed manifest.

``tests/reports/grid.sha256`` holds one SHA-256 per grid command over its
stdout, stderr and exit code (see ``report_grid``).  A refactor must leave
every one of them unchanged; a change that moves report bytes on purpose
refreshes the manifest, and ``report_grid.py --compare`` lists the commands
that moved, with how far.
Float bytes depend on the host's libm, as the pins in ``tests/reports/`` do.
"""

import json

import report_grid


def test_grid_matches_manifest(tmp_path):
    expected = report_grid.read_manifest()
    got = {name: report_grid.digest(out, err, code) for name, out, err, code in report_grid.grid(tmp_path)}
    moved = sorted(name for name in expected.keys() | got.keys() if got.get(name) != expected.get(name))
    assert not moved, f"{len(moved)} grid commands differ from the manifest: {moved}"


def _write_grid(outdir, reports):
    """Write {name: (report dict or None, stderr, exit code)} as ``report_grid`` lays out a grid."""
    outdir.mkdir()
    lines = []
    for name, (report, err, code) in reports.items():
        out = "" if report is None else json.dumps(report, sort_keys=True, indent=2)
        (outdir / f"{name}.stdout").write_text(out, encoding="utf-8")
        (outdir / f"{name}.stderr").write_text(err, encoding="utf-8")
        (outdir / f"{name}.exit").write_text(f"{code}\n", encoding="utf-8")
        lines.append(f"{report_grid.digest(out, err, code)}  {name}\n")
    (outdir / "grid.sha256").write_text("".join(lines), encoding="utf-8")


def _report(part_re, total_re, rounded=4):
    return {"branch": "regular", "parabolic_I": {"im": 0.0, "re": part_re}, "rounded": rounded,
            "total": {"im": 0.0, "re": total_re}}


def test_compare_lists_each_moved_report_with_its_size_and_flags(tmp_path, capsys):
    _write_grid(tmp_path / "old", {
        "kept": (_report(1.0, 4.0), "", 0),
        "nudged": (_report(1.0, 4.0), "", 0),
        "rounded": (_report(1.0, 4.0), "", 0),
        "error": (None, "error: a\n", 1),
        "gone": (None, "", 0),
    })
    _write_grid(tmp_path / "new", {
        "kept": (_report(1.0, 4.0), "", 0),
        "nudged": (_report(1.5, 4.5), "", 0),
        "rounded": (_report(1.0, 5.0, rounded=5), "warning\n", 0),
        "error": (None, "error: b\n", 2),
    })
    assert report_grid.main(["--compare", str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "nudged: 0.12 of |total|; keys parabolic_I, total; rounded, branch, exit and stderr kept",
        "rounded: 0.25 of |total|; keys rounded, total; MOVED rounded, stderr",
        "error: no total; keys none; MOVED exit, stderr",
        f"gone: only in {tmp_path / 'old'}",
    ]
