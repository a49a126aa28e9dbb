"""Discrete-time simulation of one agent riding carriers, and the walks it leaves.

The agent is always aboard some carrier. Each instant it sees which carriers
share its site, then either switches (a move: both advance one step) or keeps
riding (also a move), or halts. Time only advances through moves; there is no
way to wait at a site. Only this module reads a walk's ride segments.
"""
from __future__ import annotations

import functools
import json
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, count, islice, repeat
from typing import Iterable, Iterator, NamedTuple, Protocol

from .core import IDS, RouteSet
from .errors import IllegalAction, InconsistentWalk


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
    agent's site, at the first site the walk has not seen (with site
    identities), at the move limit, or after `moves` moves, whichever comes
    first, however many laps of the carrier's route that takes; a switch, or
    an instant with company on the site, makes one move. The strategy reads
    how far it got from the next observation's `time`, so it must answer
    exactly as it would have at each instant skipped. `moves` must be an
    `int >= 1`.
    """

    def decide(self, obs: Observation) -> Action: ...


@dataclass(frozen=True, slots=True)
class TimedEdge:
    """One move: `carrier` leaves `from_site` at `time`, arriving at `to_site`."""

    time: int
    carrier: str
    from_site: str
    to_site: str


def _arc(cycle: tuple[str, ...], start: int, moves: int) -> tuple[str, ...]:
    """The sites of `moves` consecutive phases of `cycle` from phase `start` on,
    wrapping round as often as needed."""
    q = len(cycle)
    start %= q
    end = start + moves
    return cycle[start:end] if end <= q else (cycle * -(-end // q))[start:end]


class Walk(Sequence):
    """The moves of a walk, stored as ride segments.

    A segment `(carrier, cycle, offset, moves)` makes `moves` moves on
    `carrier` over the sites of `cycle`: its j-th move goes from phase
    `offset + j` of the cycle to the next, wrapping round. `run` records one
    segment per ride on one carrier, its cycle the carrier's shared
    `route.sites` and its offset the phase the agent boarded at, so a long
    walk costs memory in proportion to its switches, not its moves. A walk
    built by hand from steps, `Walk.of(steps)`, holds one path segment for
    each run of steps on one carrier that departs where the last arrived, so
    a walk the routes do not allow can still be written, and a copy of a
    run-made walk has its segment count.

    Step i is `TimedEdge(i, carriers[i], froms[i], tos[i])`; the columns are
    derived from the segments each time they are read, and the `TimedEdge`s
    only when the walk is indexed or iterated. Indexing one step walks the
    segments, so it costs O(segments). A walk compares equal to, and hashes
    like, the tuple of its `TimedEdge`s.
    """

    __slots__ = ("segments", "_moves")

    def __init__(self, segments: Iterable[tuple[str, tuple[str, ...], int, int]]):
        """The walk of `segments`, each `(carrier, cycle, offset, moves)` with
        `0 <= offset < len(cycle)` and `moves >= 1`."""
        segments = tuple(map(tuple, segments))
        for _, cycle, offset, moves in segments:
            if not (0 <= offset < len(cycle) and moves >= 1):
                raise ValueError(f"segment of {moves} moves from phase {offset} of {len(cycle)}")
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "_moves", sum(s[3] for s in segments))

    @classmethod
    def of(cls, steps: Iterable[TimedEdge]) -> "Walk":
        """The walk of `steps`, which must be timed 0, 1, 2, ...: each run of
        steps on one carrier, each departing where the one before arrived, is
        one path segment `(carrier, (from, to_1, ..., to_m), 0, m)`."""
        if isinstance(steps, Walk):
            return steps
        segments, cid, path = [], None, []
        for i, s in enumerate(steps):
            if s.time != i:
                raise ValueError(f"step {i} timed {s.time}")
            if s.carrier != cid or s.from_site != path[-1]:
                if path:
                    segments.append((cid, tuple(path), 0, len(path) - 1))
                cid, path = s.carrier, [s.from_site]
            path.append(s.to_site)
        if path:
            segments.append((cid, tuple(path), 0, len(path) - 1))
        return cls(segments)

    def __setattr__(self, name, value):
        raise AttributeError(f"Walk is immutable; cannot set {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__, not __setattr__
        return Walk, (self.segments,)

    def _columns(self) -> tuple[Iterator[str], Iterator[str], Iterator[str]]:
        """The carrier, departure and arrival of every step in turn, streamed from the segments."""
        segments = self.segments
        return (
            chain.from_iterable(repeat(cid, moves) for cid, _, _, moves in segments),
            chain.from_iterable(_arc(cycle, at, moves) for _, cycle, at, moves in segments),
            chain.from_iterable(_arc(cycle, at + 1, moves) for _, cycle, at, moves in segments),
        )

    carriers = property(lambda self: tuple(self._columns()[0]), doc="Each step's carrier.")
    froms = property(lambda self: tuple(self._columns()[1]), doc="Each step's departure site.")
    tos = property(lambda self: tuple(self._columns()[2]), doc="Each step's arrival site.")

    def __len__(self) -> int:
        return self._moves

    def __getitem__(self, i):
        at = range(len(self))[i]  # a step number, or a range for a slice; IndexError past the ends
        if isinstance(at, range):  # build the steps up to the slice's far end only
            if not at:
                return ()
            lo, hi = sorted((at[0], at[-1]))
            return tuple(islice(self, lo, hi + 1))[:: at.step]
        step = at
        for cid, cycle, offset, moves in self.segments:
            if at < moves:
                return TimedEdge(step, cid, *_arc(cycle, offset + at, 2))
            at -= moves

    def __iter__(self) -> Iterator[TimedEdge]:
        return map(TimedEdge, count(), *self._columns())

    def __eq__(self, other):
        if isinstance(other, Walk):
            if self._moves != other._moves:
                return False
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

    The walk is recorded as one segment per ride on one carrier (see `Walk`):
    a stop that keeps the carrier extends the open segment. First visits are
    read from the route only while the carrier's route still holds a site the
    walk has not seen.
    """
    if move_limit is None:
        move_limit = default_move_limit(routeset, strategy)
    if move_limit <= 0:
        raise ValueError("move_limit must be positive")
    routeset.carrier(start_carrier)  # an unknown start is a ParameterViolation
    sched = routeset.schedule
    routes, company, quiet = sched.routes, sched.company, sched.quiet
    periods = [len(r) for r in routes]
    ids = [c.id for c in routeset.carriers]
    cycles = [c.route.sites for c in routeset.carriers]  # shared by the segments, not copied
    index = {cid: c for c, cid in enumerate(ids)}
    alone = [frozenset((cid,)) for cid in ids]  # the arrival set whenever c has no company
    names = routeset.sites
    expose_sites = routeset.mode == IDS
    # the agent rides carrier c and stands on site index `site`
    c = index[start_carrier]
    t = 0
    site = routes[c][0]
    segments = []  # the closed ride segments; the open one boarded at instant t0 and phase t0_phase
    t0 = t0_phase = 0
    visited = [names[site]]
    seen = {names[site]}
    done = [False] * len(ids)  # every site of carrier c's route seen
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
        if d != c:  # a switch: one move on the new carrier, in a new segment
            if t > t0:
                segments.append((ids[c], cycles[c], t0_phase, t - t0))
            c = d
            phase = t0_phase = t % periods[c]
            t0 = t
        elif moves > 1 and len(arriving) == 1:
            # riding on alone: stop at the asked moves, the limit, the first unseen
            # site or where another carrier stands on the site; quiet phases are jumped
            p = periods[c]
            most = min(moves, move_limit - t)
            if expose_sites and not done[c]:  # capped before the loop scans laps past it
                ahead = _arc(cycles[c], phase + 1, min(most, p))
                if not seen.issuperset(ahead):
                    most = list(map(seen.__contains__, ahead)).index(False) + 1
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
        if not done[c]:  # first visits in order, however many a ride crosses
            reached = _arc(cycles[c], phase + 1, min(j, periods[c]))
            if not seen.issuperset(reached):
                for to in reached:
                    if to not in seen:
                        seen.add(to)
                        visited.append(to)
            done[c] = seen.issuperset(cycles[c])
        t += j
        site = routes[c][t % periods[c]]
        if t >= move_limit:
            limit_hit = True
            break
    if t > t0:
        segments.append((ids[c], cycles[c], t0_phase, t - t0))
    return Trace(start_carrier, Walk(segments), halted, tuple(visited), limit_hit)


def _walk_fault(routeset: RouteSet, walk: Trace) -> tuple[int, str] | None:
    """The first step the routes do not allow, as (index, reason); None if lawful.

    Step i must depart where the agent stands (step 0: the start carrier's
    site at t=0) and be the move its carrier makes from time i to i+1. An
    unknown start carrier faults step 0. Each ride segment, its first move at
    step t, is judged in turn: an unknown carrier, or a first departure from
    elsewhere, faults step t. A segment that rides its carrier's route from
    phase t mod p makes that carrier's moves throughout; any other is compared
    with the route as two slices of sites, and the first site j that differs
    faults step t + max(j - 1, 0). No move runs Python code of its own.
    """
    by_id = routeset.by_id
    if walk.start_carrier not in by_id:
        return 0, f"no start carrier {walk.start_carrier!r}"
    here = by_id[walk.start_carrier].route.sites[0]
    t = 0
    for cid, cycle, offset, moves in walk.steps.segments:
        c = by_id.get(cid)
        if c is None:
            return t, f"step {t} rides unknown carrier {cid!r}"
        if cycle[offset] != here:
            # boarding a carrier that isn't standing where the agent is
            return t, f"step {t} departs {cycle[offset]} but the agent stands on {here}"
        route = c.route.sites
        if cycle != route or offset != t % len(route):
            made, due = _arc(cycle, offset, moves + 1), _arc(route, t, moves + 1)
            if made != due:
                j = max(next(j for j, (a, b) in enumerate(zip(made, due)) if a != b) - 1, 0)
                return t + j, (f"step {t + j}: carrier {cid} does not activate "
                               f"({made[j]} -> {made[j + 1]}) at time {t + j}")
        t += moves
        here = cycle[(offset + moves) % len(cycle)]
    return None


def is_concrete_cover(routeset: RouteSet, walk: Trace) -> bool:
    """Does the walk touch every site of the universe?

    The walk must be consistent, as `replay_check`'s checker (`_walk_fault`)
    judges it, but a violation raises InconsistentWalk rather than returning
    False — an inconsistent walk covers nothing meaningfully. The sites are
    gathered a segment at a time; one of a lap or more covers its whole cycle.
    """
    fault = _walk_fault(routeset, walk)
    if fault is not None:
        raise InconsistentWalk(fault[1])
    covered = {routeset.carrier(walk.start_carrier).route.sites[0]}
    for _, cycle, offset, moves in walk.steps.segments:
        covered.update(cycle if moves >= len(cycle) else _arc(cycle, offset + 1, moves))
    return covered == set(routeset.sites)


def replay_check(routeset: RouteSet, trace: Trace) -> tuple[bool, int | None]:
    """Re-validate a trace against the routes.

    Returns (True, None) for a legal execution, else (False, i) with the
    first offending step index. Checks activation (the step's edge is the
    carrier's move at that time), switch legality (consecutive carriers share
    the switch site), and that step 0 departs from the start carrier's site.
    Its checker, `_walk_fault`, is the one `is_concrete_cover` uses: it reads
    a walk a ride segment at a time, with no Python code per move.
    """
    fault = _walk_fault(routeset, trace)
    return (True, None) if fault is None else (False, fault[0])


CSV_HEADER = "step,time,carrier,from,to,new_site"
CSV_BLOCK = 1000  # rows laid out and joined at a time; a power of ten
_CSV_QUOTED = frozenset('",')  # a field holding one of these is quoted (RFC 4180)


def _csv_fields(names: tuple[str, ...]) -> tuple[str, ...]:
    """`names` as CSV fields: one that holds a comma or a quote is wrapped in
    quotes, each quote inside doubled; any other is as it is."""
    if _CSV_QUOTED.isdisjoint("".join(names)):
        return names
    return tuple(s if _CSV_QUOTED.isdisjoint(s) else '"' + s.replace('"', '""') + '"' for s in names)


@functools.cache
def _csv_digits(block: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The step numbers below `block`, each with its comma: bare (`"7,"`) for
    block 0, and zero-padded (`"007,"`) to follow a later block's prefix."""
    width = len(str(block - 1))
    return tuple(f"{i}," for i in range(block)), tuple(f"{i:0{width}}," for i in range(block))


def trace_to_csv(trace: Trace) -> str:
    """One row per move; new_site flags first arrivals.

    The rows are written from the walk's segments. Each call lays out, for
    each carrier and cycle the walk rides, the row tail `"c3,x1,x2,0\n"` of
    every phase; a segment's rows take the tails of its phases in turn. A
    name that holds a comma or a quote is quoted there, the RFC 4180 way,
    so no row pays for it.
    Each block of `CSV_BLOCK` rows is then a list of five pieces a row,
    filled by slice assignment: the step, the time (the same two pieces) and
    the tail. Only the first arrivals' tails are patched to end `",1\n"`.
    Step i is the block's prefix `str(i // CSV_BLOCK)`, empty in block 0,
    and the digit table's entry for `i % CSV_BLOCK` with its comma,
    zero-padded after a prefix; so no row calls `str()`, and `CSV_BLOCK` must
    be a power of ten. Blocks are joined one at a time, so the peak stays near
    twice the CSV's size; a list of every row string would hold over four
    times it.
    """
    segments = trace.steps.segments
    tails = {}  # (carrier, cycle) -> the row tail of each phase
    first = {}  # each site's first arrival, in step order
    t = 0
    for cid, cycle, offset, moves in segments:
        if (cid, cycle) not in tails:
            field, *sites = _csv_fields((cid, *cycle))
            arcs = zip(sites, sites[1:] + sites[:1])
            tails[cid, cycle] = tuple(f"{field},{a},{b},0\n" for a, b in arcs)
        for i, site in enumerate(_arc(cycle, offset + 1, min(moves, len(cycle))), t):
            first.setdefault(site, i)
        t += moves
    if trace.visited_sites:  # arriving back at the start is not new
        first.pop(trace.visited_sites[0], None)
    new = list(reversed(first.values()))  # popped in step order
    ends = chain.from_iterable(
        _arc(tails[cid, cycle], offset, moves) for cid, cycle, offset, moves in segments
    )
    bare, padded = _csv_digits(CSV_BLOCK)
    blocks = [CSV_HEADER + "\n"]
    for o in range(0, t, CSV_BLOCK):
        n = min(CSV_BLOCK, t - o)
        pieces = [str(o // CSV_BLOCK) if o else ""] * (5 * n)
        pieces[1::5] = pieces[3::5] = (padded if o else bare)[:n]
        pieces[4::5] = islice(ends, n)
        while new and new[-1] < o + n:
            i = 5 * (new.pop() - o) + 4
            pieces[i] = pieces[i][:-2] + "1\n"
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
