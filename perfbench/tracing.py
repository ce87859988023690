"""Traced runs: spans around ranklef's public functions, wrapped from outside.

Each traced function is replaced at every ranklef module attribute that binds
it, so calls between modules (``lefschetz`` calling ``chars.omega``, ``sl2``
calling ``lefschetz.assemble``) are seen too.  Spans live in memory as
(name, start_ns, end_ns, parent span, request id, span id) and are written
out when the run ends.  Leaf calls that repeat many times within one request
(``hurwitz_class_number`` in the oracle table) are only aggregated after the
first ``LEAF_SPANS_PER_REQUEST`` of them, and no more than ``MAX_SPANS`` spans
are kept; every call is still counted in the per-function totals.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

from workloads import clear_caches

TRACED = {
    "rootsys": ("build_root_system", "weyl_group"),
    "chars": ("hc_parameter", "elliptic_orbital_term", "omega", "formal_degree"),
    "epstein": ("zeta_constant_terms", "hurwitz_zeta", "digamma"),
    "lefschetz": (
        "assemble",
        "central_term",
        "elliptic_term",
        "parabolic_I_term",
        "parabolic_II_term",
        "residue_term",
        "geometry_from_dict",
    ),
    "sl2": (
        "hecke_reps",
        "elliptic_classes",
        "build_geom_sl2z",
        "hurwitz_class_number",
        "eichler_selberg",
        "delta_coeffs",
        "compare",
    ),
    "cli": ("main",),
}
TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

LEAF_SPANS_PER_REQUEST = 64
MAX_SPANS = 100_000


class FnStats:
    __slots__ = ("calls", "busy_ns", "self_ns", "active")

    def __init__(self):
        self.calls = self.busy_ns = self.self_ns = self.active = 0


def _geom_arg(args, kwargs):
    return kwargs["geom"] if "geom" in kwargs else args[2]


class Tracer:
    """Wraps the functions in ``TRACED`` and collects spans and counters."""

    def __init__(self):
        self.stats = {name: FnStats() for name in TRACED_NAMES}
        self.counters = {
            "lefschetz.elliptic_term.entries": 0,
            "lefschetz.elliptic_term.distinct_entries": 0,
            "rootsys.weyl_group.elements": 0,
            "sl2.compare.max_defect": 0.0,
        }
        self.spans: list[tuple] = []
        self.unrecorded = 0
        self.request_id = None
        self._leaf_count: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, child ns, has recorded child]
        self._next_id = 0
        self._patches: list[tuple] = []
        self._hooks = {
            "lefschetz.elliptic_term": self._count_entries,
            "rootsys.weyl_group": self._count_elements,
            "sl2.compare": self._track_defect,
        }

    def _count_entries(self, args, kwargs, result):
        classes = _geom_arg(args, kwargs).elliptic_classes
        self.counters["lefschetz.elliptic_term.entries"] += len(classes)
        self.counters["lefschetz.elliptic_term.distinct_entries"] += len({c.rep for c in classes})

    def _count_elements(self, args, kwargs, result):
        self.counters["rootsys.weyl_group.elements"] += len(result)

    def _track_defect(self, args, kwargs, result):
        c = self.counters
        c["sl2.compare.max_defect"] = max(c["sl2.compare.max_defect"], result.defect)

    def start_request(self, request_id) -> None:
        self.request_id = request_id
        self._leaf_count.clear()

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        hook = self._hooks.get(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0, False]
            stack.append(frame)
            stats.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stats.active -= 1
                dur = t1 - t0
                stats.calls += 1
                stats.self_ns += dur - frame[1]
                if not stats.active:
                    stats.busy_ns += dur
                if parent is not None:
                    parent[1] += dur
                self._record(name, t0, t1, parent, frame)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def _record(self, name, t0, t1, parent, frame) -> None:
        count = self._leaf_count.get(name, 0)
        keep = frame[2] or count < LEAF_SPANS_PER_REQUEST
        if keep and len(self.spans) < MAX_SPANS:
            self._leaf_count[name] = count + 1
            self.spans.append((name, t0, t1, parent[0] if parent else None, self.request_id, frame[0]))
            if parent is not None:
                parent[2] = True
        else:
            self.unrecorded += 1

    def install(self, prog) -> None:
        modules = [m for name, m in sys.modules.items() if name == "ranklef" or name.startswith("ranklef.")]
        for mod_name, fns in TRACED.items():
            for fn_name in fns:
                original = getattr(prog.modules[mod_name], fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def layer_metrics(self) -> dict:
        out = {}
        for name in TRACED_NAMES:
            s = self.stats[name]
            out[f"{name}.calls"] = (s.calls, "count")
            out[f"{name}.busy_ms"] = (s.busy_ns / 1e6, "ms")
            out[f"{name}.self_ms"] = (s.self_ns / 1e6, "ms")
        for name, value in self.counters.items():
            out[name] = (value, "abs" if name.endswith("defect") else "count")
        return out

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "unrecorded_spans": self.unrecorded}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# scaling probe: cold single calls at growing sizes (reported, not gated)

PROBE_BUDGET_S = 60.0


def _closure(prog, group: str) -> int:
    rs = prog.rootsys.build_root_system(prog.rootsys.GroupDescriptor.from_name(group))
    return len(prog.rootsys.weyl_group(rs, "full"))


# chains of (metric, size, growth exponent that predicts the next size's time,
# call, expected result or None); sizes reproduce the ROADMAP baseline
PROBE = (
    (
        ("sl2.elliptic_classes.n10_ms", 10, 2.5, lambda p: p.sl2.elliptic_classes(10), None),
        ("sl2.elliptic_classes.n20_ms", 20, 2.5, lambda p: p.sl2.elliptic_classes(20), None),
        ("sl2.elliptic_classes.n40_ms", 40, 2.5, lambda p: p.sl2.elliptic_classes(40), None),
    ),
    (
        ("sl2.delta_coeffs.N1000_ms", 1000, 2.0, lambda p: len(p.sl2.delta_coeffs(1000)), 1000),
        ("sl2.delta_coeffs.N3000_ms", 3000, 2.0, lambda p: len(p.sl2.delta_coeffs(3000)), 3000),
    ),
    (("rootsys.weyl_group.su41_ms", 1, 0.0, lambda p: _closure(p, "su(4,1)"), 120),),
    (("rootsys.weyl_group.so81_ms", 1, 0.0, lambda p: _closure(p, "so(8,1)"), 384),),
)
PROBE_METRICS = tuple(step[0] for chain in PROBE for step in chain)


def scaling_probe(prog, budget_s: float = PROBE_BUDGET_S, plan=PROBE):
    """Time each probe call once with cold caches.

    Within a chain, a size whose predicted time (the previous time scaled by
    the size ratio to the chain's exponent) exceeds ``budget_s`` is skipped,
    and so is every larger size; a skipped size has no metric, and its reason
    is returned instead.  Returns (metrics, skipped, errors)."""
    metrics, skipped, errors = {}, {}, []
    for chain in plan:
        prev, reason = None, None
        for name, size, exponent, call, expected in chain:
            if reason is None and prev is not None:
                predicted = prev[1] * (size / prev[0]) ** exponent
                if predicted > budget_s:
                    reason = f"predicted {predicted:.1f} s exceeds the {budget_s:.0f} s probe budget"
            if reason is not None:
                skipped[name] = reason
                continue
            clear_caches(prog)
            t0 = time.perf_counter()
            value = call(prog)
            dt = time.perf_counter() - t0
            if expected is not None and value != expected:
                errors.append(f"{name}: got {value}, expected {expected}")
            metrics[name] = (dt * 1e3, "ms")
            prev = (size, dt)
    return metrics, skipped, errors
