"""Spans and per-layer counters for the traced run.

The tracer wraps the module attributes through which the benchmark and the
program reach each layer (`pvgraph.run`, `pvgraph.oracle.min_moves`,
`pvgraph.cli.make_instance`, ...), so nested calls are timed without editing
`src/`. Strategies are wrapped in a proxy that times `decide`; those calls are
too many to keep one span each, so each `run` span gets one aggregate
`decide` child carrying their summed time and count.

A span's self time is its busy time minus its children's busy time. Spans
stay in memory and are written out once, when the run ends.
"""
from __future__ import annotations

import json
import math
import resource
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import pvgraph
import pvgraph.cli
import pvgraph.instances
import pvgraph.oracle

from corpus import dense_states

#: (layer, function name, modules whose attribute of that name is wrapped)
WRAPPED = [
    ("engine", "run", [pvgraph, pvgraph.oracle, pvgraph.cli]),
    ("engine", "replay_check", [pvgraph]),
    ("engine", "trace_to_csv", [pvgraph]),
    ("oracle", "audit", [pvgraph]),
    ("oracle", "exact_feasible", [pvgraph]),
    ("oracle", "min_moves", [pvgraph, pvgraph.oracle, pvgraph.cli]),
    ("instances", "make_instance", [pvgraph, pvgraph.cli]),
    ("instances", "random_routeset_raw", [pvgraph.instances]),
    ("core", "is_simple", [pvgraph]),
    ("core", "is_irredundant", [pvgraph]),
    ("core", "is_feasible", [pvgraph, pvgraph.instances]),
    ("fileformat", "dumps", [pvgraph]),
    ("fileformat", "loads", [pvgraph]),
    ("cli", "main", [pvgraph.cli]),
]
STRATEGIES = [("hitch", "HitchARide"), ("guess", "GuessingRide")]
STRATEGY_MODULES = [pvgraph, pvgraph.oracle, pvgraph.cli]

#: Which self-time metric each wrapped function's self time adds to.
SELF_METRIC = {
    "run": "engine.run_s",
    "replay_check": "engine.replay_s",
    "trace_to_csv": "engine.csv_s",
    "audit": "oracle.self_s",
    "exact_feasible": "oracle.self_s",
    "min_moves": "oracle.self_s",
    "make_instance": "instances.generate_s",
    "random_routeset_raw": "instances.generate_s",
    "is_simple": "core.validate_s",
    "is_irredundant": "core.validate_s",
    "is_feasible": "core.feasible_s",
    "dumps": "fileformat.dumps_s",
    "loads": "fileformat.loads_s",
    "main": "cli.main_s",
}
#: Functions whose tracemalloc peak is recorded in the memory pass.
PEAK_METRIC = {
    "run": "engine.peak_mb",
    "replay_check": "engine.peak_mb",
    "trace_to_csv": "engine.peak_mb",
    "audit": "oracle.peak_mb",
    "exact_feasible": "oracle.peak_mb",
    "min_moves": "oracle.peak_mb",
    "is_feasible": "core.feasible_peak_mb",
}


def lcm_phases(rs) -> int:
    """Phases the pairwise meeting scan enumerates: the sum of pair lcms."""
    periods = [c.route.period for c in rs.carriers]
    return sum(math.lcm(a, b) for i, a in enumerate(periods) for b in periods[i + 1:])


class DecideProxy:
    """A strategy whose `decide` calls are timed and counted."""

    def __init__(self, inner, kind: str):
        self.inner = inner
        self.kind = kind
        self.busy = 0.0
        self.calls = 0

    def decide(self, obs):
        t0 = perf_counter()
        action = self.inner.decide(obs)
        self.busy += perf_counter() - t0
        self.calls += 1
        return action


class Tracer:
    """Records spans and counters while `active()`; peaks while `memory()`."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, layer, op, parent, start, end, busy, child_busy, calls]
        self.stack: list[int] = []
        self.op = None  # id of the op in flight; spans of one op share it
        self.seg = None
        self.stats: dict = {}  # segment (set-up or pass) -> Counter of metric sums
        self.peaks: Counter = Counter()
        self._mem_frames: list[list[int]] = []  # [start_current, peak]
        self._memory = False

    # -- segments ---------------------------------------------------------
    def segment(self, seg) -> None:
        """Start adding counts to segment `seg` ("setup" or a pass number)."""
        self.seg = seg
        self.stats.setdefault(seg, Counter())

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, layer: str, name: str, fn):
        def traced(*args, **kwargs):
            if self._memory:
                return self._measure_peak(name, fn, args, kwargs)
            return self._record(layer, name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _strategy(self, kind: str, cls):
        return lambda *args, **kwargs: DecideProxy(cls(*args, **kwargs), kind)

    @contextmanager
    def active(self):
        """Wrap the layers; spans and counters are recorded until exit."""
        saved = []
        try:
            for layer, name, modules in WRAPPED:
                for module in modules:
                    fn = getattr(module, name)
                    saved.append((module, name, fn))
                    setattr(module, name, self._wrap(layer, name, fn))
            for kind, name in STRATEGIES:
                for module in STRATEGY_MODULES:
                    cls = getattr(module, name)
                    saved.append((module, name, cls))
                    setattr(module, name, self._strategy(kind, cls))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    @contextmanager
    def memory(self):
        """Wrap the layers and record tracemalloc peaks only (no spans)."""
        tracemalloc.start()
        self._memory = True
        try:
            with self.active():
                yield self
        finally:
            self._memory = False
            tracemalloc.stop()

    # -- spans ------------------------------------------------------------
    def _record(self, layer, name, fn, args, kwargs):
        stats = self.stats[self.seg]
        parent = self.stack[-1] if self.stack else None
        outermost_oracle = layer == "oracle" and not any(
            self.spans[s][2] == "oracle" for s in self.stack
        )
        rec = [len(self.spans), name, layer, self.op, parent, 0.0, 0.0, 0.0, 0.0, 1]
        self.spans.append(rec)
        self.stack.append(rec[0])
        strategy = args[1] if name == "run" and len(args) > 1 else None
        proxy = strategy if isinstance(strategy, DecideProxy) else None
        before = (proxy.busy, proxy.calls) if proxy else None
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt if outermost_oracle else 0
        result = None
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except pvgraph.StateSpaceTooLarge:
            stats["oracle.refused"] += 1
            raise
        finally:
            t1 = perf_counter()
            self.stack.pop()
            rec[5], rec[6], rec[7] = t0, t1, t1 - t0
            if parent is not None:
                self.spans[parent][8] += t1 - t0
            if outermost_oracle:
                stats["oracle.minflt"] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            if proxy is not None:
                busy, calls = proxy.busy - before[0], proxy.calls - before[1]
                self.spans.append(
                    [len(self.spans), "decide", "strategies", self.op, rec[0], t0, t1, busy, 0.0, calls]
                )
                rec[8] += busy
                stats[f"strategies.{proxy.kind}.decide_s"] += busy
                stats[f"strategies.{proxy.kind}.decides"] += calls
            stats[SELF_METRIC[name]] += rec[7] - rec[8]
            self._count(stats, name, args, result)

    @staticmethod
    def _count(stats, name, args, result):
        if result is None and name != "min_moves":
            return
        if name == "run":
            stats["engine.moves"] += result.moves
        elif name == "min_moves":
            stats["oracle.calls"] += 1
            stats["oracle.dense_states"] += dense_states(args[0])
            stats["oracle.layers"] += result or 0
        elif name == "is_feasible":
            stats["core.lcm_phases"] += lcm_phases(args[0])
        elif name == "make_instance":
            stats["instances.slots"] += sum(c.route.period for c in result.routeset.carriers)
        elif name == "random_routeset_raw":
            stats["instances.slots"] += sum(c.route.period for c in result.carriers)
        elif name == "dumps":
            stats["fileformat.bytes"] += len(result.encode("utf-8"))

    # -- memory -----------------------------------------------------------
    def _fold_peak(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._mem_frames:
            frame[1] = max(frame[1], peak)
        return current

    def _measure_peak(self, name, fn, args, kwargs):
        metric = PEAK_METRIC.get(name)
        if metric is None:
            return fn(*args, **kwargs)
        current = self._fold_peak()
        tracemalloc.reset_peak()
        frame = [current, current]
        self._mem_frames.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            self._fold_peak()
            self._mem_frames.pop()
            self.peaks[metric] = max(self.peaks[metric], (frame[1] - frame[0]) / 2**20)

    # -- output -----------------------------------------------------------
    def write(self, path, header: dict) -> None:
        keys = ["id", "name", "layer", "op", "parent", "start", "end", "busy_s", "self_s", "calls"]
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header) + "\n")
            for s in self.spans:
                row = dict(zip(keys, s[:8] + [s[7] - s[8], s[9]]))
                f.write(json.dumps(row) + "\n")
