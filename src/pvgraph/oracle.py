"""Exact optimum by breadth-first search over (carrier, time, visited-set).

Positions repeat every L = lcm of all periods, so (carrier, t mod L,
visited-mask) captures everything the future depends on. The state space is
k * L * 2^n; a hard cap keeps the search from silently eating memory.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from .core import IDS, RouteSet, is_homogeneous
from .engine import run
from .errors import StateSpaceTooLarge
from .strategies import GuessingRide, HitchARide

DEFAULT_STATE_CAP = 1 << 22
_CAP_ENV = "PVG_STATE_CAP"


def _resolve_cap(state_cap: int | None) -> int:
    if state_cap is not None:
        return state_cap
    env = os.environ.get(_CAP_ENV)
    return int(env) if env else DEFAULT_STATE_CAP


def min_moves(
    routeset: RouteSet, start_carrier: str, state_cap: int | None = None
) -> int | None:
    """Fewest moves to visit every site starting on `start_carrier` at t=0.

    Returns None when no walk from that start ever covers the system.
    Raises StateSpaceTooLarge rather than allocate past the cap
    (argument, else $PVG_STATE_CAP, else 2^22 states).
    """
    start = routeset.carrier(start_carrier)
    cap = _resolve_cap(state_cap)
    k, n = routeset.k, routeset.n
    L = math.lcm(*(c.route.period for c in routeset.carriers))
    total = k * L * (1 << n)
    if total > cap:
        raise StateSpaceTooLarge(total, cap)

    idx = routeset.site_index
    pos = [
        [idx[c.route.at(t)] for t in range(L)] for c in routeset.carriers
    ]
    # carriers co-located with carrier ci at phase ph — the legal boardings
    succ: list[list[tuple[int, ...]]] = []
    for ci in range(k):
        succ.append(
            [
                tuple(cj for cj in range(k) if pos[cj][ph] == pos[ci][ph])
                for ph in range(L)
            ]
        )

    ci0 = routeset.carriers.index(start)
    full = (1 << n) - 1
    start_mask = 1 << pos[ci0][0]
    if start_mask == full:
        return 0

    seen = bytearray(total)
    states_per_phase = 1 << n

    def key(ci: int, ph: int, mask: int) -> int:
        return (ci * L + ph) * states_per_phase + mask

    seen[key(ci0, 0, start_mask)] = 1
    frontier = [(ci0, 0, start_mask)]
    moves = 0
    while frontier:
        moves += 1
        nxt = []
        for ci, ph, mask in frontier:
            ph1 = (ph + 1) % L
            for cj in succ[ci][ph]:
                m1 = mask | (1 << pos[cj][ph1])
                if m1 == full:
                    return moves
                kk = key(cj, ph1, m1)
                if not seen[kk]:
                    seen[kk] = 1
                    nxt.append((cj, ph1, m1))
        frontier = nxt
    return None


def exact_feasible(routeset: RouteSet, state_cap: int | None = None) -> bool:
    """Ground truth for feasibility: every start carrier admits a cover."""
    return all(
        min_moves(routeset, c.id, state_cap) is not None
        for c in routeset.carriers
    )


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
        return json.dumps(
            {
                "family": self.family,
                "parameters": self.parameters,
                "theoretical_lower_bound": self.theoretical_lower_bound,
                "oracle_optimum": self.oracle_optimum,
                "oracle_max_over_starts": self.oracle_max_over_starts,
                "strategy_moves": self.strategy_moves,
                "notes": self.notes,
                "violation": self.violation(),
            }
        )


def audit(instance, state_cap: int | None = None) -> BoundReport:
    """Search the instance from its designated start and race the strategies.

    `instance` is an Instance from the generator module (kept untyped here
    to leave this module importable on its own).
    """
    rs = instance.routeset
    report = BoundReport(
        family=instance.family,
        parameters=instance.param_dict,
        theoretical_lower_bound=instance.bound,
        oracle_optimum=min_moves(rs, instance.start, state_cap),
        oracle_max_over_starts=None,
    )
    per_start = [min_moves(rs, c.id, state_cap) for c in rs.carriers]
    if None in per_start:
        report.notes.append("some start carrier cannot cover the system")
    else:
        report.oracle_max_over_starts = max(per_start)

    runners = [
        ("hitch", HitchARide(rs.max_period, homogeneous_known=is_homogeneous(rs)))
    ]
    if rs.mode == IDS:
        runners.append(("guess", GuessingRide(rs.n)))
    for name, strat in runners:
        trace = run(rs, strat, instance.start)
        covered = set(trace.visited_sites) == set(rs.sites)
        if trace.halted and covered:
            report.strategy_moves[name] = trace.moves
        else:
            report.notes.append(
                f"{name}: halted={trace.halted} covered={covered} "
                f"after {trace.moves} moves"
            )
    return report
