"""Discrete-time simulation of one exploring agent riding carriers.

The agent is always aboard some carrier. Each instant it sees which carriers
share its site, then either switches (a move: both advance one step) or keeps
riding (also a move), or halts. Time only advances through moves; there is no
way to wait at a site.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Protocol

from .core import IDS, RouteSet, TimedEdge, _walk_fault, position
from .errors import IllegalAction


@dataclass(frozen=True)
class Observation:
    """What the agent knows at one instant, before choosing its action."""

    time: int
    current_carrier: str
    arriving_carriers: frozenset[str]
    site_identity: str | None  # None when the system hides site names


@dataclass(frozen=True)
class Ride:
    carrier: str


@dataclass(frozen=True)
class Halt:
    pass


HALT = Halt()

Action = Ride | Halt


class Strategy(Protocol):
    """Chooses each action. One with a proved cap on its moves may also define
    `move_bound(routeset) -> int`, and `run` then never cuts it off earlier."""

    def decide(self, obs: Observation) -> Action: ...


@dataclass(frozen=True)
class Trace:
    """A finished (or cut-off) execution: the concrete walk plus bookkeeping."""

    start_carrier: str
    steps: tuple[TimedEdge, ...]
    halted: bool
    visited_sites: tuple[str, ...]  # first-visit order, start site included
    move_limit_exceeded: bool = False

    def __post_init__(self):
        for i, s in enumerate(self.steps):
            if s.time != i:
                raise ValueError(f"step {i} timed {s.time}")

    @property
    def moves(self) -> int:
        return len(self.steps)

    def covers(self, routeset: RouteSet) -> bool:
        """Did the walk see every site of `routeset`'s universe?"""
        return set(self.visited_sites) == set(routeset.sites)


def default_move_limit(routeset: RouteSet, strategy: Strategy | None = None) -> int:
    # above the proved bounds of strategies told the true periods; a declared bound
    # raises it, plus one: the limit fires after a move, before the halting decision
    limit = 16 * routeset.k * routeset.max_period**2
    move_bound = getattr(strategy, "move_bound", None)
    return limit if move_bound is None else max(limit, move_bound(routeset) + 1)


def run(
    routeset: RouteSet,
    strategy: Strategy,
    start_carrier: str,
    move_limit: int | None = None,
) -> Trace:
    """Simulate until the strategy halts or the move limit cuts it off.

    The first observation happens at t=0 aboard the start carrier, with the
    full arrival set of its starting site. A cut-off run comes back as a
    partial trace flagged `move_limit_exceeded`, never an exception.
    """
    if move_limit is None:
        move_limit = default_move_limit(routeset, strategy)
    if move_limit <= 0:
        raise ValueError("move_limit must be positive")
    carrier = routeset.carrier(start_carrier)
    expose_sites = routeset.mode == IDS
    t = 0
    site = position(carrier, 0)
    steps: list[TimedEdge] = []
    visited = [site]
    seen = {site}
    halted = False
    limit_hit = False
    while True:
        arriving = frozenset(
            c.id for c in routeset.carriers if position(c, t) == site
        )
        obs = Observation(t, carrier.id, arriving, site if expose_sites else None)
        action = strategy.decide(obs)
        if isinstance(action, Halt):
            halted = True
            break
        if not isinstance(action, Ride):
            raise IllegalAction(f"strategy returned {action!r}")
        if action.carrier not in arriving:
            raise IllegalAction(
                f"carrier {action.carrier} is not at the agent's site at t={t}"
            )
        carrier = routeset.carrier(action.carrier)
        t += 1
        frm, site = site, position(carrier, t)
        steps.append(TimedEdge(t - 1, carrier.id, frm, site))
        if site not in seen:
            seen.add(site)
            visited.append(site)
        if len(steps) >= move_limit:
            limit_hit = True
            break
    return Trace(start_carrier, tuple(steps), halted, tuple(visited), limit_hit)


def replay_check(routeset: RouteSet, trace: Trace) -> tuple[bool, int | None]:
    """Re-validate a trace against the routes, step by step.

    Returns (True, None) for a legal execution, else (False, i) with the
    first offending step index. Checks activation (the step's edge is the
    carrier's move at that time), switch legality (consecutive carriers share
    the switch site), and that step 0 departs from the start carrier's site.
    """
    fault = _walk_fault(routeset, trace)
    return (True, None) if fault is None else (False, fault[0])


CSV_HEADER = "step,time,carrier,from,to,new_site"


def trace_to_csv(trace: Trace) -> str:
    """One row per move; new_site flags first arrivals."""
    rows = [CSV_HEADER]
    seen = {trace.visited_sites[0]} if trace.visited_sites else set()
    for i, s in enumerate(trace.steps):
        new = 0 if s.to_site in seen else 1
        seen.add(s.to_site)
        rows.append(f"{i},{s.time},{s.carrier},{s.from_site},{s.to_site},{new}")
    return "\n".join(rows) + "\n"


def summary_record(
    instance: str, strategy: str, routeset: RouteSet, trace: Trace
) -> dict:
    return {
        "instance": instance,
        "strategy": strategy,
        "k": routeset.k,
        "n": routeset.n,
        "p": routeset.max_period,
        "moves": trace.moves,
        "halted": trace.halted,
        "covered": trace.covers(routeset),
    }


def summary_line(instance: str, strategy: str, routeset: RouteSet, trace: Trace) -> str:
    return json.dumps(summary_record(instance, strategy, routeset, trace))
