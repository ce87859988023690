"""Smoke test of the benchmark runner on the smallest seeded inputs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from program import import_program  # noqa: E402
from workloads import Compare, OracleTable, Rank1Cli, clear_caches, sl2z_cold  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

SMALL = [
    sl2z_cold(n_max=3, table=OracleTable(lo=20, hi=40, sizes=2, jitter=2)),
    Rank1Cli(groups=("su(2,1)", "so(6,1)"), n_rational=3, n_float=3),
]


@pytest.fixture(autouse=True)
def restore_ranklef_modules():
    """import_program re-imports ranklef; put back the modules other tests hold."""
    saved = {k: v for k, v in sys.modules.items() if k == "ranklef" or k.startswith("ranklef.")}
    yield
    for name in [k for k in sys.modules if k == "ranklef" or k.startswith("ranklef.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def test_workload_names_match_benchmark_json():
    assert {w.name for w in SMALL} == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_untraced_run_is_correct_and_complete(workload):
    result, detail = run.run(workload, seed=1, seconds=0, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert result["attempted"] >= 2
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(detail["setup_s_samples"]) == run.SETUP_REPEATS + detail["rounds"] * run.SETUP_PER_ROUND


def test_traced_run_emits_every_layer_metric(tmp_path):
    workload = sl2z_cold(n_max=2, table=OracleTable(lo=20, hi=40, sizes=1, jitter=0))
    result, detail = run.run(workload, seed=1, seconds=0, trace=True, probe={"budget_s": 0.0}, out_dir=tmp_path)
    assert result["correct"], detail
    assert set(result["metrics"]) == PER_LAYER - set(detail["probe_skipped"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["sl2.compare.calls"] == 2 * run.MIN_ROUNDS
    assert metrics["sl2.delta_coeffs.calls"] == run.MIN_ROUNDS
    assert metrics["sl2.elliptic_classes.self_ms"] > 0
    assert metrics["sl2.elliptic_classes.n10_ms"] > 0
    assert detail["probe_skipped"]["sl2.elliptic_classes.n20_ms"].startswith("predicted")
    assert detail["probe_skipped"]["sl2.elliptic_classes.n40_ms"].startswith("predicted")
    spans = (tmp_path / "spans-sl2z-cold-seed1.jsonl").read_text().splitlines()
    assert len(spans) > 1


class AlwaysFails(Compare):
    name = "always-fails"

    def check(self, prog, req, out):
        return "rejected"


def test_a_run_whose_requests_all_fail_reports_them():
    result, detail = run.run(AlwaysFails(n_max=2), seed=1, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["throughput_rps"]["value"] == 0
    assert detail["failures"] == ["rejected"]


def test_tracer_patches_every_binding_and_restores_them():
    prog = import_program()
    original = prog.lefschetz.assemble
    tracer = run.Tracer()
    tracer.install(prog)
    try:
        assert prog.sl2.assemble is prog.lefschetz.assemble is not original
        assert prog.sl2.hurwitz_class_number.cache_info().currsize >= 0
        prog.sl2.compare(12, 2)
    finally:
        tracer.uninstall()
    assert prog.sl2.assemble is prog.lefschetz.assemble is original
    assert tracer.stats["lefschetz.assemble"].calls == 1
    assert tracer.stats["chars.elliptic_orbital_term"].calls > 0


def test_caches_are_found_by_scanning_and_cleared():
    prog = import_program()
    names = set(prog.caches.owners)
    for fn in ("elliptic_classes", "build_geom_sl2z", "hurwitz_class_number", "_weyl_group_cached"):
        assert any(name.endswith("." + fn) for name in names), fn
    prog.sl2.compare(12, 3)
    assert prog.caches.currsize() > 0
    clear_caches(prog)
    assert prog.caches.currsize() == 0
    assert prog.caches.totals("hurwitz_class_number")["misses"] > 0


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out", "work-*"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "sl2z-cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
