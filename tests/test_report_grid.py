"""Every command of the report grid against the committed manifest.

``tests/reports/grid.sha256`` holds one SHA-256 per grid command over its
stdout, stderr and exit code (see ``report_grid``).  A refactor must leave
every one of them unchanged; a change that moves report bytes on purpose
refreshes the manifest, and the manifest diff shows which commands moved.
Float bytes depend on the host's libm, as the pins in ``tests/reports/`` do.
"""

import report_grid


def test_grid_matches_manifest(tmp_path):
    expected = report_grid.read_manifest()
    got = {name: report_grid.digest(out, err, code) for name, out, err, code in report_grid.grid(tmp_path)}
    moved = sorted(name for name in expected.keys() | got.keys() if got.get(name) != expected.get(name))
    assert not moved, f"{len(moved)} grid commands differ from the manifest: {moved}"
