"""ranklef benchmark: one seeded, single-client, closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ranklef is imported from its ``src``.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``.  The line before it is a JSON detail
record: the tail latency's percentile and sample count, the failure
fraction and messages, and in traced runs the probe skips
and time shares.  ``--trace 1`` also writes its spans to
``perfbench/out/``.  The exit code is 0 whenever the run completed, and 2,
with no result line, when no ranklef source tree is found.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from program import ProgramMissing, import_program, time_fresh_import
from tracing import Tracer, scaling_probe
from workloads import WORKLOADS, clear_caches

HERE = Path(__file__).resolve().parent
TAIL_BEYOND = 10
# every request runs at least this often, so repeated outputs are compared
MIN_ROUNDS = 3
# set-up is a bare import of ~0.06 s: it is timed SETUP_REPEATS times before
# the timed phase and SETUP_PER_ROUND times after each round, so its samples
# span the run as the requests do and one slow second of the host cannot move
# their median
SETUP_REPEATS = 5
SETUP_PER_ROUND = 3


@dataclass
class Phase:
    """Requests of one timed phase: latencies, keys and failures, in order."""

    latencies: list[float] = field(default_factory=list)
    keys: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    rounds: int = 0

    def fail_keys(self, deferred: dict) -> None:
        for i, key in enumerate(self.keys):
            if self.errors[i] is None and key in deferred:
                self.errors[i] = deferred[key]

    @property
    def failed(self) -> int:
        return sum(e is not None for e in self.errors)

    def ok_latencies(self) -> list[float]:
        return [dt for dt, error in zip(self.latencies, self.errors) if error is None]

    def throughput(self) -> float:
        """Requests that succeeded per second of their summed latency; 0 when
        none succeeded."""
        ok = self.ok_latencies()
        return len(ok) / sum(ok) if ok else 0.0


def timed_phase(workload, prog, requests: list, rng, seconds: float, tracer=None, setup_times=None) -> Phase:
    """Whole rounds until ``seconds`` have passed and at least MIN_ROUNDS
    rounds have run; each round issues every request once, in a seeded order.
    Every cache is cleared before each request; a request's latency covers
    only its call into ranklef.  Given ``setup_times``, fresh imports timed
    after each round are appended to it."""
    phase = Phase()
    start = time.perf_counter()
    while True:
        reqs = list(requests)
        rng.shuffle(reqs)
        for req in reqs:
            if tracer is not None:
                tracer.start_request(len(phase.keys))
            dt, error = 0.0, None
            try:
                clear_caches(prog)
                t0 = time.perf_counter()
                out = workload.call(prog, req)
                dt = time.perf_counter() - t0
                error = workload.check(prog, req, out)
            except Exception as exc:  # a request that raises is counted as failed, never dropped
                error = f"{type(exc).__name__}: {exc}"
            phase.latencies.append(dt)
            phase.keys.append(workload.key(req))
            phase.errors.append(error)
        phase.rounds += 1
        if setup_times is not None:
            setup_times.extend(time_fresh_import() for _ in range(SETUP_PER_ROUND))
        if phase.rounds >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
            return phase


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that still
    has TAIL_BEYOND samples above it; the maximum when there are too few, and
    zeros when there are none."""
    ordered = sorted(latencies)
    n = len(ordered)
    if not n:
        return 0.0, 0.0, 0
    idx = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n - idx - 1


def set_up(repeats: int):
    """Time ``repeats`` fresh imports; returns the last Program and every time."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        prog = import_program()
        times.append(time.perf_counter() - t0)
    return prog, times


def run(workload, seed: int, seconds: float, trace: bool, probe=None, out_dir: Path = HERE / "out"):
    """One benchmark run; returns (result, detail).  ``probe`` holds keyword
    arguments for ``scaling_probe``; a traced run writes its spans to ``out_dir``."""
    prog, setup_times = set_up(1 if trace else SETUP_REPEATS)
    rng = random.Random(seed)
    detail = {
        "workload": workload.name,
        "seed": seed,
        "python": platform.python_version(),
        "setup_s_samples": setup_times,
    }
    with tempfile.TemporaryDirectory(prefix="work-", dir=HERE) as workdir:
        requests = workload.make_inputs(rng, Path(workdir))
        plain = timed_phase(workload, prog, requests, rng, seconds, setup_times=None if trace else setup_times)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        phases = [plain]
        if trace:
            tracer = Tracer()
            tracer.install(prog)
            try:
                hurwitz0 = prog.caches.totals("hurwitz_class_number")
                traced = timed_phase(workload, prog, requests, rng, seconds, tracer)
                hurwitz = prog.caches.totals("hurwitz_class_number")
                hurwitz.subtract(hurwitz0)
            finally:
                tracer.uninstall()
            phases.append(traced)
        deferred = workload.verify(prog)
    for phase in phases:
        phase.fail_keys(deferred)
    attempted = sum(len(p.keys) for p in phases)
    failed = sum(p.failed for p in phases)
    messages = sorted({e for p in phases for e in p.errors if e is not None})
    ok = plain.ok_latencies()
    tail_ms, tail_pct, beyond = tail(ok)
    detail.update(
        requests=len(plain.latencies),
        rounds=plain.rounds,
        latency_tail_percentile=tail_pct,
        latency_tail_samples_beyond=beyond,
        failed_frac=failed / attempted,
        failures=messages[:20],
    )
    throughput = plain.throughput()
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "throughput_rps": (throughput, "1/s"),
            "latency_p50_ms": (statistics.median(ok) * 1e3 if ok else 0.0, "ms"),
            "latency_tail_ms": (tail_ms * 1e3, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        correct = failed == 0 and throughput > 0
    else:
        traced_rps = traced.throughput()
        request_ms = sum(traced.latencies) * 1e3
        metrics = tracer.layer_metrics()
        lookups = hurwitz["hits"] + hurwitz["misses"]
        metrics["sl2.hurwitz_class_number.hit_ratio"] = (hurwitz["hits"] / lookups if lookups else 0.0, "ratio")
        metrics["trace.request_ms"] = (request_ms, "ms")
        metrics["trace.overhead_share"] = (1 - traced_rps / throughput if throughput else 0.0, "ratio")
        probe_metrics, skipped, probe_errors = scaling_probe(prog, **(probe or {}))
        metrics.update(probe_metrics)
        busy = {name[: -len(".busy_ms")]: v for name, (v, _) in metrics.items() if name.endswith(".busy_ms")}
        detail.update(
            untraced_rps=throughput,
            traced_rps=traced_rps,
            overhead_rps=traced_rps - throughput,
            busy_share={k: v / request_ms for k, v in busy.items() if v} if request_ms else {},
            probe_skipped=skipped,
            probe_errors=probe_errors,
            spans_kept=len(tracer.spans),
            spans_aggregated=tracer.unrecorded,
        )
        tracer.write(out_dir / f"spans-{workload.name}-seed{seed}.jsonl", detail)
        correct = failed == 0 and not probe_errors
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, detail


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, detail = run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
