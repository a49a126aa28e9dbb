"""pvgraph benchmark: one workload, one process, a closed loop of one op at a time.

    python3 bench/run.py --workload ride --seed 1 --seconds 30 --trace 0

Workloads are `ride`, `audit` and `build` (see bench/README.md). The run
builds its inputs from the seed, repeats whole passes over them until
`--seconds` have passed, checks every op's output, and prints one JSON object
as its last line: end-to-end metrics with `--trace 0`, scaled to the speed of
a fixed reference loop timed between ops, or per-layer metrics from
a separate traced run with `--trace 1`. Lines before it say how many ops ran,
which ones failed and why, which ops showed a documented defect of the program,
and (traced) where the spans were written.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from here: imports, then inputs

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 4  # extra set-ups, each in a fresh process; setup_s is the median
#: Op and pass times are reported at reference speed: scaled by REF_S over the
#: median duration of `reference()` measured around them. REF_S is close to that median on
#: the machine under "Noise" in README.md, so scaled times stay close to its
#: seconds. The host's speed drifts by tens of percent for minutes at a time,
#: and the reference's median over a pass tracks that drift.
REF_S = 0.003
REF_EVERY_S = 0.1  # op time between two timings of the reference in a pass

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
EXACT_COUNTS = ("engine.moves", "oracle.layers", "fileformat.bytes", "core.lcm_phases")
LIMITS = (
    "own process only, through perf_counter, getrusage and tracemalloc; "
    "no hardware counters and no tracing of the whole machine"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_program():
    """Import pvgraph from this checkout's src/, and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import pvgraph
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import pvgraph from {src}: {exc}") from None
    if not Path(pvgraph.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench: pvgraph was imported from {pvgraph.__file__}, not {src}")
    return pvgraph


def set_up(args):
    load_program()
    import workloads

    OUT.mkdir(exist_ok=True)
    return workloads.make_ops(args.workload, args.seed, OUT)


def probe_setup(args) -> float:
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            sha = (ROOT / ".git" / ref[5:]).read_text().strip()
    numpy = sys.modules.get("numpy")
    return {
        "git_sha": sha or "not a git checkout",
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "limits": LIMITS,
    }


def reference() -> float:
    """Duration of a fixed pure-Python loop, the benchmark's speed reference.

    The garbage collector is off while it runs: a collection would scan the
    program's live objects, and the reference must not depend on them.
    """
    gc.disable()
    t0 = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc += (i * i) & 7
    seen = {}
    for i in range(3000):
        item = (i, str(i & 255), [i])
        seen[item[1]] = item
        acc += len(seen)
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


class Passes:
    """Results of whole passes over the ops: latencies, pass times, failures."""

    def __init__(self):
        self.latencies: list[float] = []
        self.refs: list[list[float]] = []  # per pass, when timed with `calibrate`
        self.pass_s: list[float] = []
        self.attempted = 0
        self.failures: dict[str, list] = {}  # label -> [reason, times]
        self.known: dict[str, list] = {}  # documented defects, not failures
        self.moves = 0
        self.run_s = 0.0


def run_passes(ops, seconds: float, min_passes: int, tracer=None, outputs=None,
               calibrate: bool = False) -> Passes:
    """Repeat whole passes over `ops`; with `calibrate`, time `reference()`
    at the start of each pass and after every REF_EVERY_S of op time."""
    import workloads

    res = Passes()
    start = time.perf_counter()
    while len(res.pass_s) < min_passes or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.segment(len(res.pass_s))
        refs: list[float] = []
        since_ref = REF_EVERY_S
        p0 = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = f"{len(res.pass_s)}:{i}"
            if calibrate and since_ref >= REF_EVERY_S:
                refs.append(reference())
                since_ref = 0.0
            res.attempted += 1
            t0 = time.perf_counter()
            out = None
            try:
                out = op.call()
                reason = None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                reason = f"raised {type(exc).__name__}: {exc}"
            res.latencies.append(time.perf_counter() - t0)
            since_ref += res.latencies[-1]
            if reason is None:
                try:
                    reason = op.check(out)
                except Exception as exc:
                    reason = f"check raised {type(exc).__name__}: {exc}"
                if reason is None and op.moves is not None:
                    moves, run_s = op.moves(out)
                    res.moves += moves
                    res.run_s += run_s
            if isinstance(reason, workloads.KnownDefect):
                res.known.setdefault(op.label, [reason, 0])[1] += 1
            elif reason is not None:
                res.failures.setdefault(op.label, [reason, 0])[1] += 1
            if outputs is not None:
                outputs.append(out)
        res.pass_s.append(time.perf_counter() - p0)
        res.refs.append(refs)
    return res


def scaled_latencies(res: Passes, n_ops: int) -> list[list[float]]:
    """Each op's latencies, one per pass, at reference speed: each scaled by
    REF_S over the median reference duration of its own pass."""
    speed = [REF_S / statistics.median(refs) for refs in res.refs]
    return [[lat * f for lat, f in zip(res.latencies[i::n_ops], speed)] for i in range(n_ops)]


def tail_percentile(min_ops: int) -> int:
    """Highest whole percentile that leaves at least 10 of `min_ops` beyond it."""
    return math.floor(100 * (1 - 10 / min_ops))


def percentile(values: list[float], q: int) -> float:
    ranked = sorted(values)
    return ranked[max(0, math.ceil(q / 100 * len(ranked)) - 1)]


def report_passes(workload: str, seed: int, res: Passes, q: int) -> None:
    failed = sum(times for _, times in res.failures.values())
    refs = [r for pass_refs in res.refs for r in pass_refs]
    print(f"workload {workload} seed {seed}: {len(res.pass_s)} passes, {res.attempted} ops, "
          f"{failed} failed (failed_frac {failed / res.attempted:.4f} of {res.attempted} attempted)")
    print(f"unscaled: pass wall time median {statistics.median(res.pass_s):.4f} s, "
          f"fastest {min(res.pass_s):.4f} s; op latency median {statistics.median(res.latencies) * 1e3:.4f} ms; "
          f"{len(refs)} reference timings, median {statistics.median(refs) * 1e3:.4f} ms "
          f"(reference speed: {REF_S * 1e3:g} ms)")
    print(f"op_tail_ms is p{q} of all {res.attempted} scaled op latencies "
          f"(at least 10 beyond it in the fewest passes a run makes)")
    if res.moves:
        per_pass = res.moves // len(res.pass_s)
        print(f"moves per pass {per_pass}; moves_per_s {res.moves / res.run_s:.0f} (time inside run)")
    print_failures(res)


def print_failures(res: Passes) -> None:
    for label, (reason, times) in res.failures.items():
        print(f"failed op x{times}: {label}: {reason}")
    if res.known:
        print(f"known defect on {len(res.known)} ops, listed and not counted as failed "
              f"(see bench/README.md):")
    for label, (reason, times) in res.known.items():
        print(f"known defect x{times}: {label}: {reason}")


def end_to_end(args, ops, setup_main: float) -> dict:
    import workloads

    setups = [setup_main] + [probe_setup(args) for _ in range(SETUP_PROBES)]
    k = workloads.MIN_PASSES[args.workload]
    q = tail_percentile(k * len(ops))
    res = run_passes(ops, args.seconds, k, calibrate=True)
    report_passes(args.workload, args.seed, res, q)
    per_op = scaled_latencies(res, len(ops))
    typical = [statistics.median(lat) for lat in per_op]
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": sum(typical),
        "op_p50_ms": statistics.median(typical) * 1e3,
        "op_tail_ms": percentile([x for lat in per_op for x in lat], q) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return _result(res, metrics, END_TO_END_UNITS)


def per_layer(args, ops) -> dict:
    import spans
    import workloads

    share = args.seconds / 2
    plain = run_passes(ops, share, 2)
    tracer = spans.Tracer()
    with tracer.active():
        tracer.segment("setup")
        tracer.op = "setup"
        ops = workloads.make_ops(args.workload, args.seed, OUT)
        traced = run_passes(ops, share, 2, tracer)
    with tracer.memory():
        run_passes(ops, 0, 1)

    setup = tracer.stats.pop("setup")
    keys = set(setup).union(*tracer.stats.values())
    m = Counter({k: setup[k] + statistics.median_low(s[k] for s in tracer.stats.values()) for k in keys})
    moves = m["engine.moves"]
    decide_s = m["strategies.hitch.decide_s"] + m["strategies.guess.decide_s"]
    metrics = {k: m[k] for k in PER_LAYER_UNITS}  # 0 where the workload never calls the layer
    metrics.update(tracer.peaks)
    metrics.update({
        "engine.self_s": m["engine.run_s"] + m["engine.replay_s"] + m["engine.csv_s"],
        "engine.us_per_move": m["engine.run_s"] / moves * 1e6 if moves else 0.0,
        "engine.moves_per_s": moves / (m["engine.run_s"] + decide_s) if moves else 0.0,
        "strategies.decides": m["strategies.hitch.decides"] + m["strategies.guess.decides"],
        "trace.pass_s": min(traced.pass_s),
        "trace.untraced_pass_s": min(plain.pass_s),
    })
    for kind in ("hitch", "guess"):
        calls = m[f"strategies.{kind}.decides"]
        metrics[f"strategies.{kind}.us_per_decide"] = (
            m[f"strategies.{kind}.decide_s"] / calls * 1e6 if calls else 0.0
        )
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - metrics["trace.untraced_pass_s"]
    self_s = {
        "engine": metrics["engine.self_s"],
        "strategies": decide_s,
        "oracle": m["oracle.self_s"],
        "instances": m["instances.generate_s"],
        "core": m["core.validate_s"] + m["core.feasible_s"],
        "fileformat": m["fileformat.dumps_s"] + m["fileformat.loads_s"],
        "cli": m["cli.main_s"],
    }

    print(f"workload {args.workload} seed {args.seed}: traced {len(traced.pass_s)} passes, "
          f"untraced {len(plain.pass_s)} passes, memory 1 pass")
    print("self time per layer (s, set-up plus one pass): "
          + ", ".join(f"{layer} {v:.4f}" for layer, v in self_s.items()))
    print("exact counts (set-up plus one pass): "
          + ", ".join(f"{k} {metrics[k]}" for k in EXACT_COUNTS))
    print_failures(traced)
    print(f"tracing overhead: fastest traced pass {metrics['trace.pass_s']:.4f} s - untraced "
          f"{metrics['trace.untraced_pass_s']:.4f} s = {metrics['trace.overhead_s']:.4f} s")
    path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "env": environment()})
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    return _result(traced, metrics, PER_LAYER_UNITS)


def _result(res: Passes, metrics: dict, units: dict) -> dict:
    failed = sum(times for _, times in res.failures.values())
    return {
        "correct": failed == 0,
        "attempted": res.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    ops = set_up(args)
    setup_main = time.perf_counter() - T0
    if args.setup_probe:
        print(setup_main)
        return 0
    print("env " + json.dumps(environment()))
    result = per_layer(args, ops) if args.trace else end_to_end(args, ops, setup_main)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
