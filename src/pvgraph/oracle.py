"""Exact optimum by breadth-first search over (site, time, visited-set).

Every move rides one carrier from the agent's site, and any carrier at that
site may be boarded, so (site, t mod L, visited-mask) captures everything the
future depends on, where L is the lcm of all periods. All states of BFS layer
t share the phase t mod L, so the search steps one layer at a time and stores
only the states it reaches; a cap on their number keeps it from silently
eating memory.
"""
from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

from .core import IDS, RouteSet, is_homogeneous
from .engine import Trace, run
from .errors import StateSpaceTooLarge
from .strategies import GuessingRide, HitchARide

DEFAULT_STATE_CAP = 1 << 22


def min_moves(
    routeset: RouteSet, start_carrier: str, state_cap: int = DEFAULT_STATE_CAP
) -> int | None:
    """Fewest moves to visit every site starting on `start_carrier` at t=0.

    The first move may board any carrier at the start, so the optimum depends
    only on the start carrier's site at t=0. Returns None when no walk from
    that start ever covers the system.
    Raises StateSpaceTooLarge once more than `state_cap` states are stored.
    """
    start = routeset.carrier(start_carrier)
    n = routeset.n
    L = math.lcm(*(c.route.period for c in routeset.carriers))
    routes = routeset.schedule.routes
    full = (1 << n) - 1
    site = routeset.site_index[start.route.at(0)]
    mask = 1 << site
    if mask == full:
        return 0

    seen = {site << n | mask}
    frontier = [(site, mask)]
    t = 0
    while frontier:
        if len(seen) > state_cap:
            raise StateSpaceTooLarge(len(seen), state_cap)
        # where each site's carriers are one step later: the legal moves
        hops: dict[int, set[int]] = {}
        for r in routes:
            hops.setdefault(r[t % len(r)], set()).add(r[(t + 1) % len(r)])
        t += 1
        base = t % L * n
        nxt = []
        for site, mask in frontier:
            for s1 in hops[site]:
                m1 = mask | 1 << s1
                if m1 == full:
                    return t
                key = (base + s1) << n | m1
                if key not in seen:
                    seen.add(key)
                    nxt.append((s1, m1))
        frontier = nxt
    return None


def _per_start(routeset: RouteSet, state_cap: int) -> Iterator[tuple[str, int | None]]:
    """Yield (carrier id, optimum) in carrier order, searching each start site once."""
    by_site: dict[str, int | None] = {}
    for c in routeset.carriers:
        site = c.route.at(0)
        if site not in by_site:
            by_site[site] = min_moves(routeset, c.id, state_cap)
        yield c.id, by_site[site]


def exact_feasible(routeset: RouteSet, state_cap: int = DEFAULT_STATE_CAP) -> bool:
    """Ground truth for feasibility: every start site admits a cover.

    Stops at the first start site, in carrier order, that admits none.
    """
    return all(opt is not None for _, opt in _per_start(routeset, state_cap))


@dataclass
class BoundReport:
    """Audit verdict comparing a claimed lower bound against the search."""

    family: str
    parameters: dict[str, int]
    theoretical_lower_bound: int | None
    oracle_optimum: int | None
    oracle_max_over_starts: int | None
    strategy_moves: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def violation(self) -> bool:
        b, o = self.theoretical_lower_bound, self.oracle_optimum
        if b is not None and o is not None and o < b:
            return True
        # a strategy beating the optimum means the engine and search disagree
        return any(
            o is not None and m < o for m in self.strategy_moves.values()
        )

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "violation": self.violation()})


def race(routeset: RouteSet, start: str) -> dict[str, Trace]:
    """Run the default explorers from `start`, keyed by name.

    Hitch is told the true maximum period and whether the system is
    homogeneous; guess, which needs site identities, is told n and runs
    only on systems that grant them.
    """
    runners = {
        "hitch": HitchARide(routeset.max_period, homogeneous_known=is_homogeneous(routeset))
    }
    if routeset.mode == IDS:
        runners["guess"] = GuessingRide(routeset.n)
    return {name: run(routeset, strat, start) for name, strat in runners.items()}


def audit(instance, state_cap: int = DEFAULT_STATE_CAP) -> BoundReport:
    """Search the instance from every start site and race the strategies from its own.

    `instance` is an Instance from the generator module (kept untyped here
    to leave this module importable on its own).
    """
    rs = instance.routeset
    rs.carrier(instance.start)  # an unknown start is a ParameterViolation
    per_start = dict(_per_start(rs, state_cap))
    report = BoundReport(
        family=instance.family,
        parameters=instance.param_dict,
        theoretical_lower_bound=instance.bound,
        oracle_optimum=per_start[instance.start],
        oracle_max_over_starts=None,
    )
    if None in per_start.values():
        report.notes.append("some start carrier cannot cover the system")
    else:
        report.oracle_max_over_starts = max(per_start.values())

    for name, trace in race(rs, instance.start).items():
        covered = trace.covers(rs)
        if trace.halted and covered:
            report.strategy_moves[name] = trace.moves
        else:
            report.notes.append(
                f"{name}: halted={trace.halted} covered={covered} "
                f"after {trace.moves} moves"
            )
    return report
