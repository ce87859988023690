"""Same-code spread of the benchmark: run each workload on several seeds.

    python3 perfbench/steadiness.py [--workloads W ...] [--seeds 10]
                                    [--out FILE] [--against FILE]

Runs ``BENCHMARK.json``'s command once per seed 1, 2, ..., one run at a time,
and reports for every end-to-end metric its median, quartiles and spread, the
quartile distance over the median as ``statistics.quantiles(values, n=4)``
gives it, next to the metric's bound.  A spread above a third of its bound is
flagged.  ``--against`` names an earlier report of the same code; a median
that is worse than that report's by more than the bound is flagged too.  The
exit code is 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    *_, detail, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    result["detail"] = json.loads(detail)
    result["wall_s"] = wall
    return result


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "within_third_of_bound": spread < bound / 3,
        "values": values,
    }


def worsening(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``."""
    change = (after - before) / before
    return -change if better == "higher" else change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out")
    parser.add_argument("--against", help="an earlier report of the same code")
    args = parser.parse_args(argv)
    earlier = json.loads(Path(args.against).read_text(encoding="utf-8")) if args.against else None

    report = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "seeds": list(range(1, args.seeds + 1)),
        "workloads": {},
    }
    flagged = []
    for workload in args.workloads:
        runs = []
        for seed in report["seeds"]:
            runs.append(run_once(spec, workload, seed))
            values = {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()}
            print(json.dumps({"workload": workload, "seed": seed, "wall_s": round(runs[-1]["wall_s"], 1), **values}), flush=True)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "wall_s": [round(r["wall_s"], 2) for r in runs],
            "metrics": {},
        }
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            summary = summarize(values, metric["bound"])
            entry["metrics"][name] = summary
            if not summary["within_third_of_bound"]:
                flagged.append(f"{workload} {name}: spread {summary['spread']:.3f} above a third of bound {metric['bound']}")
            if earlier and workload in earlier["workloads"]:
                shift = worsening(earlier["workloads"][workload]["metrics"][name]["median"], summary["median"], metric["better"])
                summary["worse_than_earlier"] = shift
                if shift > metric["bound"]:
                    flagged.append(f"{workload} {name}: median {shift:.3f} worse than the earlier report, bound {metric['bound']}")
        report["workloads"][workload] = entry
        print(json.dumps({workload: {k: round(v["spread"], 4) for k, v in entry["metrics"].items()}}), flush=True)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    for line in flagged:
        print("FLAGGED:", line, file=sys.stderr)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
