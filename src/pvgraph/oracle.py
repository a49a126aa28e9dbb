"""Exact optimum by a time-ordered search over the agent's choice states.

Every move rides one carrier from the agent's site, and any carrier at that
site may be boarded, so (site, t mod L, visited-mask) captures everything the
future depends on, where L is the lcm of the periods of the carriers the agent
can ever board, the start's meeting-graph component. The agent chooses only
at a choice instant: one where the carriers on its site go on to two or more
different sites. Between two such instants it rides one carrier, and the
search jumps that forced ride in one step. The start is the first choice
state, so its first move boards any carrier there as every other choice does.
The rides leaving a choice instant, (t mod L, site), do not depend on the
start. They are walked once per `min_moves`, `audit` or `exact_feasible` call,
across all its start sites, when that instant is first branched, from the
schedule's company table as `run` does. Each remembers the offset at which it
first sees each site, so a cover completed partway through a ride is timed
exactly.

Choice states are popped in time order until no pending state can beat the
best cover. Each (t mod L, site, mask) is laid down once, at its earliest time,
since states pop in time order and a forced ride is shorter than L moves. A cap
on the stored choice states plus the instants walked keeps the search from
silently eating memory or time; a search charges a ride another search walked
as if it had walked it itself. Nothing is allocated in proportion to n·L.
"""
from __future__ import annotations

import heapq
import json
import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

from .core import IDS, RouteSet, is_homogeneous
from .engine import Trace, run
from .errors import StateSpaceTooLarge
from .strategies import GuessingRide, HitchARide

DEFAULT_STATE_CAP = 1 << 22


def _cover_offset(seen: list[tuple[int, int]], need: int) -> int:
    """The offset on a ride at which the last of the sites in mask `need` is first seen."""
    for o, s in seen:
        need &= ~(1 << s)
        if not need:
            return o
    raise AssertionError("the ride never sees every needed site")


def min_moves(
    routeset: RouteSet, start_carrier: str, state_cap: int = DEFAULT_STATE_CAP
) -> int | None:
    """Fewest moves to visit every site starting on `start_carrier` at t=0.

    The start is the first choice state: time 0, the start carrier's t=0 site
    and a mask of that site alone. Its first move may board any carrier there,
    so the optimum depends only on that site. Returns None when no walk from
    that start ever covers the system.
    Raises StateSpaceTooLarge once the stored choice states plus the instants
    walked on forced rides exceed `state_cap`.
    """
    return _search(routeset, start_carrier, state_cap, {})


def _search(
    routeset: RouteSet, start_carrier: str, state_cap: int, rides: dict[int, tuple[list, int]]
) -> int | None:
    """`min_moves`, reading and filling `rides`: phase·n + site of each choice
    instant -> the forced rides that leave it and the instants they walk.

    The rides leaving an instant do not depend on the start, so the searches
    of one route set may share the table. Each search charges every ride it
    uses to its own count, walked here or by an earlier search, so the cap
    means the same as in a search of its own.

    Each state is laid down once, at its earliest time, since its key fixes
    its time mod L. A state laid at t1 = t_a + 1 + j, with j < L moves of
    forced ride, is laid again only at some t1' ≡ t1 (mod L) from a state popped
    at t_b ≥ t_a, so t1' ≥ t_b + 1 > t_a ≥ t1 − L, hence t1' ≥ t1.

    L is the lcm over the start's meeting-graph component only, read from
    `Schedule.lcms`, which lays it down once per system; the key stays
    exact: a carrier's `company` rows list only carriers it meets, all in
    its component, so every ride and boarding reads only routes whose
    periods divide L. A carrier outside never shares the agent's site, so it
    changes no choice and ends no ride. Searches from two components share
    the table safely: carriers on one site at one phase below both lcms stand
    there together at that instant, so they meet, and no key is laid by both.
    """
    routeset.carrier(start_carrier)  # an unknown start is a ParameterViolation
    sched = routeset.schedule
    routes, company, quiet = sched.routes, sched.company, sched.quiet
    n = routeset.n
    c0 = sched.index[start_carrier]
    L = sched.lcms[c0]
    full = (1 << n) - 1
    x0 = routes[c0][0]
    if 1 << x0 == full:
        return 0

    if state_cap < 1:  # the start state alone exceeds the cap
        raise StateSpaceTooLarge(1, state_cap)
    stored = {x0 << n | 1 << x0}  # (phase·n + site) << n | mask of each state laid down
    walked = 0  # instants walked on forced rides: each ride's moves plus its end

    def ride(t: int, c: int) -> tuple:
        """The forced ride aboard c from phase t, walked once per table of `rides`.

        It ends at the first instant where the carriers on the agent's site
        part, and returns its moves and that instant, phase·n + site. It records
        the sites first seen on the way as (offset, site) pairs, in offset
        order, and their mask. Its move count is None for a forced cycle:
        after L moves the agent is back where it began, so it never has a
        choice again. Only the first lap of c's route can show a new site;
        after it, the phases no other carrier can share are jumped.
        """
        nonlocal walked
        r, mates, lone = routes[c], company[c], quiet[c]
        p = len(r)
        budget = state_cap - len(stored) - walked  # a ride costs its moves plus one
        limit = min(L, budget)
        seen = []
        mask = j = 0
        while j < limit:
            i = (t + j) % p
            y = r[i]
            if j < p:
                if not mask >> y & 1:
                    mask |= 1 << y
                    seen.append((j, y))
            elif lone[i]:
                j += lone[i]
                continue
            z = r[i + 1 - p]  # the next site: index i + 1, wrapped by a negative index
            for d in mates[i]:
                rd = routes[d]
                pd = len(rd)
                u = (t + j) % pd
                if rd[u] == y and rd[u + 1 - pd] != z:
                    break
            else:
                j += 1
                continue
            walked += j + 1
            return j, (t + j) % L * n + y, c, seen, mask
        if j >= budget:
            raise StateSpaceTooLarge(len(stored) + walked + j + 1, state_cap)
        walked += L + 1
        return None, 0, c, seen, mask

    def leave(at: int, c: int) -> list[tuple]:
        """The rides leaving choice instant `at` = phase·n + site, reached aboard
        c: walked if no search has walked them yet, else charged as if walked."""
        nonlocal walked
        if at in rides:
            legs, cost = rides[at]
            walked += cost
            if len(stored) + walked > state_cap:
                raise StateSpaceTooLarge(len(stored) + walked, state_cap)
            return legs
        phase, x = divmod(at, n)
        # one boarding per next site: any carrier bound there rides the same
        r = routes[c]
        nxt = {r[(phase + 1) % len(r)]: c}
        for d in company[c][phase % len(r)]:
            rd = routes[d]
            u = phase % len(rd)
            if rd[u] == x:
                nxt.setdefault(rd[(u + 1) % len(rd)], d)
        phase1 = (phase + 1) % L
        before = walked
        legs = [ride(phase1, d) for d in nxt.values()]
        rides[at] = legs, walked - before
        return legs

    pending = [(0, x0, 1 << x0, c0)]  # a heap of (time, phase·n + site, mask, carrier)
    branches: dict[int, list[tuple]] = {}  # the choice instants this search has charged -> rides
    best = math.inf
    while pending:
        t, at, mask, c = heapq.heappop(pending)
        if t + 1 >= best:
            break
        legs = branches.get(at)
        if legs is None:
            legs = branches[at] = leave(at, c)
        for j, end, c1, seen, m in legs:
            m |= mask
            if m == full:  # covered on this ride, at the last missing site
                best = min(best, t + 1 + _cover_offset(seen, full & ~mask))
                continue
            if j is None or t + j + 2 >= best:
                continue  # a forced cycle, or no faster than the best cover
            key = end << n | m
            if key not in stored:
                stored.add(key)
                if len(stored) + walked > state_cap:
                    raise StateSpaceTooLarge(len(stored) + walked, state_cap)
                heapq.heappush(pending, (t + 1 + j, end, m, c1))
    return None if best == math.inf else best


def _per_start(routeset: RouteSet, state_cap: int) -> Iterator[tuple[str, int | None]]:
    """Yield (carrier id, optimum) in carrier order, searching each start site
    once; the searches share one table of forced rides."""
    by_site: dict[str, int | None] = {}
    rides: dict[int, tuple[list, int]] = {}
    for c in routeset.carriers:
        site = c.route.at(0)
        if site not in by_site:
            by_site[site] = _search(routeset, c.id, state_cap, rides)
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
