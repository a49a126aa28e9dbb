"""Discrete-time simulation of one exploring agent riding carriers.

The agent is always aboard some carrier. Each instant it sees which carriers
share its site, then either switches (a move: both advance one step) or keeps
riding (also a move), or halts. Time only advances through moves; there is no
way to wait at a site.
"""
from __future__ import annotations

import functools
import json
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count
from typing import Iterable, Iterator, NamedTuple, Protocol

from .core import IDS, RouteSet, TimedEdge, _walk_fault
from .errors import IllegalAction


class Observation(NamedTuple):
    """What the agent knows at one instant, before choosing its action."""

    time: int
    current_carrier: str
    arriving_carriers: frozenset[str]
    site_identity: str | None  # None when the system hides site names


class Ride(NamedTuple):
    """Board or stay on `carrier`; `moves > 1` asks to ride it on alone (see `Strategy`)."""

    carrier: str
    moves: int = 1


@dataclass(frozen=True)
class Halt:
    pass


HALT = Halt()

Action = Ride | Halt


class Strategy(Protocol):
    """Chooses each action. One with a proved cap on its moves may also define
    `move_bound(routeset) -> int`, and `run` then never cuts it off earlier.

    A `Ride(carrier, moves)` that keeps the current carrier may ride on alone
    through many instants: `run` makes up to `moves` moves before it asks
    again. It stops at the first instant another carrier actually shares the
    agent's site, after one lap of the carrier's route, at the first site the
    walk has not seen (with site identities), at the move limit, or after
    `moves` moves, whichever comes first; a switch, or an instant with company
    on the site, makes one move. The strategy reads how far it got from the
    next observation's `time`, so it must answer exactly as it would have at
    each instant skipped. `moves` must be an `int >= 1`.
    """

    def decide(self, obs: Observation) -> Action: ...


class Walk(Sequence):
    """The moves of a walk, stored by column: step i is
    `TimedEdge(i, carriers[i], froms[i], tos[i])`.

    A long walk holds three tuples of names instead of one object per move;
    the `TimedEdge`s are built only when the walk is indexed or iterated. It
    compares equal to, and hashes like, the tuple of those `TimedEdge`s.
    """

    __slots__ = ("carriers", "froms", "tos")

    def __init__(self, carriers: Iterable[str], froms: Iterable[str], tos: Iterable[str]):
        carriers, froms, tos = tuple(carriers), tuple(froms), tuple(tos)
        if not len(carriers) == len(froms) == len(tos):
            raise ValueError("walk columns differ in length")
        object.__setattr__(self, "carriers", carriers)
        object.__setattr__(self, "froms", froms)
        object.__setattr__(self, "tos", tos)

    @classmethod
    def of(cls, steps: Iterable[TimedEdge]) -> "Walk":
        """The walk of `steps`, which must be timed 0, 1, 2, ..."""
        if isinstance(steps, Walk):
            return steps
        steps = tuple(steps)
        for i, s in enumerate(steps):
            if s.time != i:
                raise ValueError(f"step {i} timed {s.time}")
        return cls(
            [s.carrier for s in steps], [s.from_site for s in steps], [s.to_site for s in steps]
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"Walk is immutable; cannot set {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__, not __setattr__
        return Walk, (self.carriers, self.froms, self.tos)

    def __len__(self) -> int:
        return len(self.tos)

    def __getitem__(self, i):
        at = range(len(self))[i]  # a step number, or a range for a slice; IndexError past the ends
        if isinstance(at, range):
            return tuple(map(self.__getitem__, at))
        return TimedEdge(at, self.carriers[at], self.froms[at], self.tos[at])

    def __iter__(self) -> Iterator[TimedEdge]:
        return map(TimedEdge, count(), self.carriers, self.froms, self.tos)

    def __eq__(self, other):
        if isinstance(other, Walk):
            return (self.tos, self.carriers, self.froms) == (other.tos, other.carriers, other.froms)
        if isinstance(other, tuple):
            return len(self) == len(other) and tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Walk.of({tuple(self)!r})"


@dataclass(frozen=True)
class Trace:
    """A finished (or cut-off) execution: the concrete walk plus bookkeeping.

    `steps` may be given as any sequence of `TimedEdge`s timed 0, 1, 2, ...;
    it is stored as a `Walk`.
    """

    start_carrier: str
    steps: Walk
    halted: bool
    visited_sites: tuple[str, ...]  # first-visit order, start site included
    move_limit_exceeded: bool = False

    def __post_init__(self):
        object.__setattr__(self, "steps", Walk.of(self.steps))

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
    routeset.carrier(start_carrier)  # an unknown start is a ParameterViolation
    sched = routeset.schedule
    routes, company, quiet, cycles = sched.routes, sched.company, sched.quiet, sched.cycles
    periods = [len(r) for r in routes]
    ids = [c.id for c in routeset.carriers]
    index = {cid: c for c, cid in enumerate(ids)}
    alone = [frozenset((cid,)) for cid in ids]  # the arrival set whenever c has no company
    names = routeset.sites
    expose_sites = routeset.mode == IDS
    # the agent rides carrier c and stands on site index `site`
    c = index[start_carrier]
    t = 0
    site = routes[c][0]
    carriers: list[str] = []  # step i's carrier and arrival site
    tos: list[str] = []
    visited = [names[site]]
    seen = {names[site]}
    halted = False
    limit_hit = False
    while True:
        phase = t % periods[c]
        mates = company[c][phase]
        if mates:
            arriving = frozenset(
                [ids[c], *(ids[d] for d in mates if routes[d][t % periods[d]] == site)]
            )
        else:
            arriving = alone[c]
        obs = Observation(t, ids[c], arriving, names[site] if expose_sites else None)
        action = strategy.decide(obs)
        if not isinstance(action, Ride):  # the common case tested first: a ride
            if isinstance(action, Halt):
                halted = True
                break
            raise IllegalAction(f"strategy returned {action!r}")
        if action.carrier not in arriving:
            raise IllegalAction(
                f"carrier {action.carrier} is not at the agent's site at t={t}"
            )
        moves = action.moves
        if type(moves) is not int or moves < 1:
            raise IllegalAction(f"ride of {moves!r} moves at t={t}, not an int >= 1")
        d = index[action.carrier]
        j = 1
        if d != c:  # a switch: one move on the new carrier
            c = d
            phase = t % periods[c]
        elif moves > 1 and len(arriving) == 1:
            # riding on alone: stop where another carrier stands on the site, after
            # one lap, at an unseen site or at the limit; quiet phases are jumped
            p = periods[c]
            most = min(moves, p, move_limit - t)
            lone, listed, route = quiet[c], company[c], routes[c]
            while j < most:
                i = (phase + j) % p
                if lone[i]:
                    j += lone[i]
                elif any(routes[e][(t + j) % periods[e]] == route[i] for e in listed[i]):
                    break
                else:
                    j += 1
            j = min(j, most)
            if expose_sites:  # the instants after t must stand on seen sites
                ahead = cycles[c][phase + 1:phase + j]
                if not seen.issuperset(ahead):
                    j = list(map(seen.__contains__, ahead)).index(False) + 1
        reached = cycles[c][phase + 1:phase + 1 + j]
        carriers.extend([ids[c]] * j)
        tos.extend(reached)
        if not seen.issuperset(reached):
            for to in reached:  # first visits in order, however many a ride crosses
                if to not in seen:
                    seen.add(to)
                    visited.append(to)
        t += j
        site = routes[c][t % periods[c]]
        if t >= move_limit:
            limit_hit = True
            break
    # step i departs where step i-1 arrived; freeing the list of arrivals
    # before the departures are cut from them keeps the peak low
    arrivals = tuple(tos)
    del tos
    froms = (visited[0],) + arrivals[:-1] if arrivals else ()
    return Trace(start_carrier, Walk(carriers, froms, arrivals), halted, tuple(visited), limit_hit)


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
CSV_BLOCK = 1000  # rows laid out and joined at a time; a power of ten


@functools.cache
def _csv_digits(block: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The step numbers below `block`, each with its comma: bare (`"7,"`) for
    block 0, and zero-padded (`"007,"`) to follow a later block's prefix."""
    width = len(str(block - 1))
    return tuple(f"{i}," for i in range(block)), tuple(f"{i:0{width}}," for i in range(block))


def trace_to_csv(trace: Trace) -> str:
    """One row per move; new_site flags first arrivals.

    Each block of `CSV_BLOCK` rows is laid out by column: a list of eight
    pieces a row, prefilled with commas, takes by slice assignment two pieces
    for the step and two for the time, then the carriers, departures and one
    `",to,0\n"` end a row, and only the first arrivals' ends are patched to
    `",to,1\n"`. Step i is the block's prefix `str(i // CSV_BLOCK)`, empty in
    block 0, and the digit table's entry for `i % CSV_BLOCK` with its comma,
    zero-padded after a prefix; so no row calls `str()`, and `CSV_BLOCK` must
    be a power of ten. Blocks are joined one at a time, so the peak stays near
    twice the CSV's size; a list of every row string would hold over four
    times it.
    """
    walk = trace.steps
    carriers, froms, tos = walk.carriers, walk.froms, walk.tos
    m = len(tos)
    first = {}  # each site's first arrival, in step order
    i = -1
    for site in dict.fromkeys(tos):
        first[site] = i = tos.index(site, i + 1)
    ends = dict(zip(first, map(",{},0\n".format, first)))
    if trace.visited_sites:  # arriving back at the start is not new
        first.pop(trace.visited_sites[0], None)
    new = list(reversed(first.values()))  # popped in step order
    bare, padded = _csv_digits(CSV_BLOCK)
    blocks = [CSV_HEADER + "\n"]
    for o in range(0, m, CSV_BLOCK):
        e = min(o + CSV_BLOCK, m)
        n = e - o
        pieces = [","] * (8 * n)
        pieces[0::8] = pieces[2::8] = [str(o // CSV_BLOCK) if o else ""] * n
        pieces[1::8] = pieces[3::8] = (padded if o else bare)[:n]
        pieces[4::8] = carriers[o:e]
        pieces[6::8] = froms[o:e]
        pieces[7::8] = map(ends.__getitem__, tos[o:e])
        while new and new[-1] < e:
            i = new.pop()
            pieces[8 * (i - o) + 7] = f",{tos[i]},1\n"
        blocks.append("".join(pieces))
        del pieces  # so the last block's pieces are not held through the final join
    return "".join(blocks)


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
