"""The benchmark's three workloads: their inputs, their ops, and the check on
every op's output.

An op is one closed-loop request: `call()` makes the program calls and returns
their outputs, and `check(outputs)` returns None when the outputs keep the
properties the paper states, else the reason they do not. Every program call
goes through a module attribute (`pv.run`, `cli.main`, ...) looked up at call
time, so the traced run can wrap those attributes without touching `src/`.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import pvgraph as pv
import pvgraph.cli as cli
import pvgraph.instances as instances

import corpus


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    moves: Callable[[Any], tuple[int, float]] | None = None  # (moves, seconds inside run)


# ---------------------------------------------------------------------------
# ride: both strategies on mid-size family instances


#: (family, n, k, p); the seeded `random` system is the only input the seed changes.
RIDE_SYSTEMS = [
    ("sihe", 48, 5, None),
    ("sihe", 40, 4, None),
    ("thm4", 60, 10, 40),
    ("thm8", 60, 6, None),
    ("siho", 40, 5, None),
    ("thm3", 60, 10, 60),
    ("thm7", 60, 10, None),
    ("random", 40, 8, 30),
]
#: Hitch also runs on an anonymous copy of this system.
RIDE_ANONYMOUS = ("thm7", 60, 10, None)


def _name(family: str, n: int, k: int, p: int | None) -> str:
    return f"{family}({n},{k}" + (f",{p})" if p is not None else ")")


def move_cap(rs, kind: str) -> int:
    """The paper's move bound: hitch makes at most (3k-2)B' moves, guess
    fewer than 12kP (B' and P are p when homogeneous, else p^2)."""
    p = rs.max_period
    per = p if pv.is_homogeneous(rs) else p * p
    return (3 * rs.k - 2) * per if kind == "hitch" else 12 * rs.k * per


def check_ride(rs, kind: str, out) -> str | None:
    trace, replay, csv, _ = out
    if replay != (True, None):
        return f"replay_check rejects step {replay[1]}"
    if not trace.halted:
        return f"did not halt after {trace.moves} moves"
    here = rs.carrier(trace.start_carrier).route.at(0)
    walked = {here, *(s.to_site for s in trace.steps)}
    if walked != set(rs.sites):
        return f"walk covers {len(walked)} of {rs.n} sites"
    cap = move_cap(rs, kind)
    if kind == "hitch" and trace.moves > cap:
        return f"{trace.moves} moves > (3k-2)B' = {cap}"
    if kind == "guess" and trace.moves >= cap:
        return f"{trace.moves} moves >= 12kP = {cap}"
    if csv.count("\n") != trace.moves + 1:
        return "CSV row count differs from the move count"
    return None


def _ride_op(label: str, rs, start: str, kind: str) -> Op:
    homogeneous = pv.is_homogeneous(rs)

    def call():
        if kind == "hitch":
            strategy = pv.HitchARide(rs.max_period, homogeneous_known=homogeneous)
        else:
            strategy = pv.GuessingRide(rs.n)
        t0 = perf_counter()
        trace = pv.run(rs, strategy, start)
        run_s = perf_counter() - t0
        return trace, pv.replay_check(rs, trace), pv.trace_to_csv(trace), run_s

    return Op(f"{kind} {label}", call, lambda out: check_ride(rs, kind, out),
              lambda out: (out[0].moves, out[3]))


def ride_ops(seed: int) -> list[Op]:
    ops = []
    for spec in RIDE_SYSTEMS:
        inst = pv.make_instance(*spec, seed=seed)
        for kind in ("hitch", "guess"):
            ops.append(_ride_op(_name(*spec), inst.routeset, inst.start, kind))
    inst = pv.make_instance(*RIDE_ANONYMOUS)
    rs = inst.routeset
    anonymous = pv.RouteSet(rs.carriers, pv.ANONYMOUS, rs.sites)
    ops.append(_ride_op("anonymous " + _name(*RIDE_ANONYMOUS), anonymous, inst.start, "hitch"))
    return ops


# ---------------------------------------------------------------------------
# audit: exact optimum on a grid, CLI sweeps, feasibility against the oracle


#: `pvg bench` sweeps; every point is legal and fits the state cap. The
#: `random` sweep takes the workload seed.
BENCH_SWEEPS = [
    ["--family", "thm8", "--n", "7", "8", "13", "--k", "3"],
    ["--family", "thm7", "--n", "8", "10", "12", "--k", "2", "3", "4"],
    ["--family", "thm4", "--n", "9", "12", "--k", "3", "--p", "5", "6", "7"],
    ["--family", "siho", "--n", "8", "10", "12", "--k", "2", "3"],
    ["--family", "random", "--n", "6", "8", "--k", "2", "3", "--p", "4", "--seed"],
]
BENCH_HEADER = "family,n,k,p,bound,oracle(opt),hitch_moves,guess_moves"
FEASIBILITY_SYSTEMS = 40


class KnownDefect(str):
    """A check's reason that names a documented defect of the program: the run
    lists it on every pass but does not count the op as failed (see README)."""


#: Audit points whose generator bound exceeds the exact optimum. The bound
#: formulas are wrong there; optimal walks rebuilt separately pass
#: `replay_check` and `is_concrete_cover`. A `bound > optimum` anywhere else
#: is a failed op, and a point that no longer shows it simply drops out.
KNOWN_BOUND_DEFECTS = {
    ("thm3", 10, 3, 5), ("thm3", 12, 3, 6), ("thm3", 12, 4, 4), ("thm3", 14, 3, 7),
    ("thm3", 15, 4, 5), ("thm3", 16, 3, 8), ("thm3", 16, 5, 4), ("thm8", 13, 6, None),
}


def check_audit(point: tuple, report) -> str | None:
    b, o = report.theoretical_lower_bound, report.oracle_optimum
    beaten = {k: m for k, m in report.strategy_moves.items() if o is not None and m < o}
    if beaten:
        return f"strategies beat optimum {o}: {beaten}"
    if set(report.strategy_moves) != {"hitch", "guess"}:
        return "strategy failed to cover: " + "; ".join(report.notes)
    if report.violation():
        reason = f"bound {b} > optimum {o}"
        return KnownDefect(reason) if point in KNOWN_BOUND_DEFECTS else reason
    return None


def _audit_op(point: list) -> Op:
    inst = pv.make_instance(*point)
    return Op("audit " + _name(*point), lambda: pv.audit(inst),
              lambda report: check_audit(tuple(point), report))


def check_sweep(rows_expected: int, out) -> str | None:
    code, text = out
    if code != 0:
        return f"exit code {code}"
    lines = text.splitlines()
    if lines[:1] != [BENCH_HEADER] or len(lines) != rows_expected + 1:
        return f"table has {len(lines) - 1} rows and header {lines[:1]}"
    for line in lines[1:]:
        _, _, _, _, bound, opt, hitch, guess = line.split(",")
        if not (opt and hitch and guess):
            return f"incomplete row {line}"
        if bound and int(bound) > int(opt):
            return f"bound > optimum in row {line}"
        if min(int(hitch), int(guess)) < int(opt):
            return f"strategy beats the optimum in row {line}"
    return None


def _sweep_op(argv: list[str], out_file: Path) -> Op:
    sizes = {flag: 0 for flag in ("--n", "--k", "--p")}
    flag = None
    for arg in argv:
        if arg.startswith("--"):
            flag = arg
        elif flag in sizes:
            sizes[flag] += 1
    rows = sizes["--n"] * sizes["--k"] * max(1, sizes["--p"])

    def call():
        code = cli.main(["bench", *argv, "-o", str(out_file)])
        return code, out_file.read_text()

    return Op("pvg bench " + " ".join(argv), call, lambda out: check_sweep(rows, out))


def check_feasibility(out) -> str | None:
    fast, exact = out
    return None if fast == exact else f"is_feasible {fast} but exact_feasible {exact}"


def _feasibility_op(i: int, seed: int) -> Op:
    rng = random.Random(f"audit-feasibility-{seed}-{i}")
    n, k = rng.randint(6, 10), rng.randint(2, 4)
    p = rng.randint(max(2, -(-n // k)), 6)
    rs = instances.random_routeset_raw(n, k, p, rng.randrange(1 << 30))
    return Op(
        f"feasibility random_raw({n},{k},{p})#{i}",
        lambda: (pv.is_feasible(rs), pv.exact_feasible(rs)),
        check_feasibility,
    )


def audit_ops(seed: int, out_dir: Path) -> list[Op]:
    ops = [_audit_op(point) for point in corpus.load()["audit"]]
    out_file = out_dir / f"pvg-bench-{seed}.csv"
    for argv in BENCH_SWEEPS:
        if argv[-1] == "--seed":
            argv = [*argv, str(seed)]
        ops.append(_sweep_op(argv, out_file))
    ops += [_feasibility_op(i, seed) for i in range(FEASIBILITY_SYSTEMS)]
    return ops


# ---------------------------------------------------------------------------
# build: generation, validation, feasibility and the file format


def _largest_prime_below(limit: int) -> int:
    return next(c for c in range(limit - 1, 1, -1) if all(c % f for f in range(2, math.isqrt(c) + 1)))


def stated_periods(family: str, n: int, k: int) -> list[int] | None:
    """Route periods the simple-route constructions state (None for others)."""
    if family == "siho":
        m = _largest_prime_below(n - k)
        return [m * m - m + 1 + (n - m - k)] * k
    if family == "sihe":
        m = _largest_prime_below((n - 3 * k - 4) // 2 + 1)
        q = m * m - m + k - 1
        return [q] + [q + 1] * (k - 1)
    return None


def check_family(point: list, out) -> str | None:
    rs, simple, _, feasible, _, back = out
    if back != rs:
        return "loads(dumps(rs)) != rs"
    if not feasible:
        return "is_feasible is False for a family instance"
    periods = stated_periods(*point[:3])
    if periods is not None:
        if not all(simple):
            return "a simple-route family has a non-simple route"
        if [c.route.period for c in rs.carriers] != periods:
            return f"periods differ from the stated {sorted(set(periods))}"
    return None


def _family_op(point: list) -> Op:
    def call():
        rs = pv.make_instance(*point).routeset
        simple = [pv.is_simple(c.route) for c in rs.carriers]
        irredundant = [pv.is_irredundant(c.route) for c in rs.carriers]
        feasible = pv.is_feasible(rs)
        text = pv.dumps(rs)
        return rs, simple, irredundant, feasible, text, pv.loads(text)

    return Op("build " + _name(*point), call, lambda out: check_family(point, out))


WIDE_SITES = 60


def wide_routeset(periods: list[int], seed: int):
    """A 60-site system with the given periods and seeded site placement.

    Every route ends on s0, so all periods share the residue -1 and every pair
    meets there: the system is feasible by construction.
    """
    rng = random.Random(f"build-wide-{seed}-{periods}")
    sites = [f"s{i}" for i in range(WIDE_SITES)]
    routes = [[rng.choice(sites) for _ in range(p - 1)] + ["s0"] for p in periods]
    slots = [(c, j) for c, p in enumerate(periods) for j in range(p - 1)]
    for site, (c, j) in zip(sites[1:], rng.sample(slots, WIDE_SITES - 1)):
        routes[c][j] = site
    return pv.RouteSet.from_routes([(f"c{c}", r) for c, r in enumerate(routes)], pv.IDS, sites)


def check_wide(out) -> str | None:
    return None if out is True else f"is_feasible returned {out!r} on a system feasible by construction"


def build_ops(seed: int) -> list[Op]:
    ops = [_family_op(point) for point in corpus.load()["build"]]
    for periods in corpus.WIDE_PERIODS:
        rs = wide_routeset(periods, seed)
        ops.append(Op(f"wide random(60,4) periods {periods}", lambda rs=rs: pv.is_feasible(rs), check_wide))
    return ops


#: Fewest passes a run makes, so that the tail percentile keeps ten ops beyond it.
MIN_PASSES = {"ride": 3, "audit": 2, "build": 2}


def make_ops(workload: str, seed: int, out_dir: Path) -> list[Op]:
    if workload == "ride":
        return ride_ops(seed)
    if workload == "audit":
        return audit_ops(seed, out_dir)
    return build_ops(seed)
