"""Discrete-time simulation of one agent riding carriers, and the walks it leaves.

The agent is always aboard some carrier. Each instant it sees which carriers
share its site, then either switches (a move: both advance one step) or keeps
riding (also a move), or halts. Time only advances through moves; there is no
way to wait at a site. Only this module reads a walk's ride segments.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain, count, filterfalse, repeat
from typing import Iterable, Iterator, NamedTuple, Protocol

from .core import IDS, RouteSet
from .errors import IllegalAction, InconsistentWalk


class Observation(NamedTuple):
    """What the agent knows at one instant, before choosing its action.

    With site identities it also reads `sites_seen`, the distinct sites the
    walk has stood on, this one included; without them both are None."""

    time: int
    current_carrier: str
    arriving_carriers: frozenset[str]
    site_identity: str | None  # None when the system hides site names
    sites_seen: int | None = None


class Ride(NamedTuple):
    """Board or stay on `carrier` for up to `moves` moves; `past`, a set,
    names the carriers whose company the ride passes, and `sites` the count
    of distinct sites stood on at which it stops, 0 for never (see `Strategy`)."""

    carrier: str
    moves: int = 1
    past: frozenset[str] = frozenset()
    sites: int = 0


@dataclass(frozen=True)
class Halt:
    pass


HALT = Halt()

Action = Ride | Halt


class Strategy(Protocol):
    """Chooses each action. One with a proved cap on its moves may also define
    `move_bound(routeset) -> int`, and `run` then never cuts it off earlier.

    A `Ride(carrier, moves, past, sites)` makes its first move on `carrier`,
    a switch if it is another arriving carrier, and then rides it on alone:
    `run` makes up to `moves` moves in all before it asks again. It stops at
    the first instant a carrier other than its own, whose id is not in
    `past`, shares the agent's site; at the instant the walk first stands on
    its `sites`-th distinct site (with site identities, and never for
    `sites` 0 or a count already reached); at the move limit; or after
    `moves` moves, whichever comes first, however many laps of the
    carrier's route that takes. So `past` names the carriers whose company
    cannot change the answer, and `sites` the one site count that can. A
    `past` that holds every carrier the ride's carrier ever meets leaves no
    company to stop at, and `run` checks none. The strategy reads how far it
    got from the next observation's `time`, so it must answer exactly as it
    would have at each instant skipped. Every ride, of one move or many,
    keeps one rule: `moves` is an `int >= 1`, `sites` an `int >= 0` and
    `past` a set or frozenset.
    """

    def decide(self, obs: Observation) -> Action: ...


@dataclass(frozen=True, slots=True)
class TimedEdge:
    """One move: `carrier` leaves `from_site` at `time`, arriving at `to_site`."""

    time: int
    carrier: str
    from_site: str
    to_site: str


def _arc(cycle: tuple, start: int, moves: int) -> tuple:
    """The sites of `moves` consecutive phases of `cycle` from phase `start` on,
    wrapping round as often as needed."""
    q = len(cycle)
    start %= q
    end = start + moves
    return cycle[start:end] if end <= q else (cycle * -(-end // q))[start:end]


def _first_visits(start: str | None, walk: Walk) -> dict[str | None, int]:
    """Each site the walk stands on, in first-visit order, mapped to the instant
    it is first stood on: `start` at 0, and step i's arrival at i + 1 (a
    `start` of None stands for no site). A segment is read for at most one
    lap of its cycle. The CSV's first-visit flags read the times;
    `Trace.covers` needs only the keys, and gathers them as a set."""
    first = {start: 0}
    t = 1
    for _, cycle, offset, moves in walk.segments:
        for i, site in enumerate(_arc(cycle, offset + 1, min(moves, len(cycle))), t):
            first.setdefault(site, i)
        t += moves
    return first


class Walk:
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
    only when the walk is indexed or iterated. Two walks with the same steps
    are equal and hash alike however they were built; a walk never equals a
    tuple. The repr, `Walk(<segments>)`, shows the segments. A slice or
    `reversed` builds each step once; one index walks the segments, so it
    costs O(segments).
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
        if isinstance(i, slice):
            return tuple(self)[i]
        at = step = range(len(self))[i]  # IndexError past the ends
        for cid, cycle, offset, moves in self.segments:
            if at < moves:
                return TimedEdge(step, cid, *_arc(cycle, offset + at, 2))
            at -= moves

    def __iter__(self) -> Iterator[TimedEdge]:
        return map(TimedEdge, count(), *self._columns())

    def __reversed__(self) -> Iterator[TimedEdge]:
        return reversed(tuple(self))

    def __eq__(self, other):
        if not isinstance(other, Walk):
            return NotImplemented
        return self._moves == other._moves and (
            (self.tos, self.carriers, self.froms) == (other.tos, other.carriers, other.froms)
        )

    def __hash__(self) -> int:
        return hash((self.carriers, self.froms, self.tos))

    def __repr__(self) -> str:
        return f"Walk({self.segments!r})"


@dataclass(frozen=True)
class Trace:
    """An execution: the start carrier, the concrete walk, and whether the
    strategy halted (False: the move limit cut the run off).

    `steps` may be given as any sequence of `TimedEdge`s timed 0, 1, 2, ...;
    it is stored as a `Walk`. Every other fact about the run, such as the
    sites it saw, is read from these three.
    """

    start_carrier: str
    steps: Walk
    halted: bool

    def __post_init__(self):
        object.__setattr__(self, "steps", Walk.of(self.steps))

    @property
    def moves(self) -> int:
        return len(self.steps)

    def covers(self, routeset: RouteSet) -> bool:
        """Is the set of sites the walk stands on `routeset`'s universe? The set
        holds the start carrier's site at t=0 and one lap of each segment, the
        sites `_first_visits` times, with no times or order; an unknown start
        carrier is a ParameterViolation."""
        stood = {routeset.carrier(self.start_carrier).route.sites[0]}
        for _, cycle, offset, moves in self.steps.segments:
            stood.update(_arc(cycle, offset + 1, min(moves, len(cycle))))
        return stood == set(routeset.sites)


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
    partial trace with `halted` False, never an exception.

    The walk is recorded as one segment per ride on one carrier, over the
    carrier's own `route.sites` (see `Walk`): a stop that keeps the carrier
    extends the open segment. Only with site identities does the run track
    the sites it has seen, as indices, for `sites_seen` and the stop at a
    site count: a counting ride caps its moves where it reaches the count
    among the unseen sites ahead, and every ride adds the arc it rode, at
    most one lap. A carrier is fully seen once its `Schedule.domains` entry
    is.

    Every ride, one move or many, stops by one rule. One whose `past` holds
    all of its carrier's `Schedule.mates` goes straight to its last move;
    any other checks the listed company phase by phase, jumping the quiet
    stretches.
    """
    if move_limit is None:
        move_limit = default_move_limit(routeset, strategy)
    if type(move_limit) is not int or move_limit < 1:
        raise ValueError(f"move_limit must be positive, an int >= 1, not {move_limit!r}")
    routeset.carrier(start_carrier)  # an unknown start is a ParameterViolation
    sched = routeset.schedule
    routes, domains, company, quiet = sched.routes, sched.domains, sched.company, sched.quiet
    mates = sched.mates  # the ids of the carriers each carrier ever meets
    periods, ids, index, alone = sched.periods, sched.ids, sched.index, sched.alone
    names = routeset.sites if routeset.mode == IDS else None
    # the agent rides carrier c and stands on site index `site`
    c = index[start_carrier]
    t = 0
    site = routes[c][0]
    segments = []  # the closed ride segments; the open one boarded at instant t0 and phase t0_phase
    t0 = t0_phase = 0
    seen = {site}  # the site indices stood on; read only with site identities
    done = [names is None] * len(ids)  # every site of carrier c's route seen
    halted = False
    while True:
        phase = t % periods[c]
        others = company[c][phase]
        if others:  # plain loops here and in lone rides: a generator costs more than the check
            present = [ids[c]]
            for d in others:
                if routes[d][t % periods[d]] == site:
                    present.append(ids[d])
            arriving = frozenset(present)
        else:
            arriving = alone[c]
        action = strategy.decide(Observation(
            t, ids[c], arriving, names[site] if names else None, len(seen) if names else None
        ))
        if not isinstance(action, Ride):  # the common case tested first: a ride
            if isinstance(action, Halt):
                halted = True
                break
            raise IllegalAction(f"strategy returned {action!r}")
        cid, moves, past, sites = action
        if cid not in arriving:
            raise IllegalAction(f"carrier {cid} is not at the agent's site at t={t}")
        if type(moves) is not int or moves < 1:
            raise IllegalAction(f"ride of {moves!r} moves at t={t}, not an int >= 1")
        if type(sites) is not int or sites < 0:
            raise IllegalAction(f"ride stopping at {sites!r} sites at t={t}, not an int >= 0")
        d = index[cid]
        if d != c:  # a switch: the ride's first move, on the new carrier in a new segment
            if t > t0:
                segments.append((ids[c], routeset.carriers[c].route.sites, t0_phase, t - t0))
            c = d
            phase = t0_phase = t % periods[c]
            t0 = t
        # stop at the asked moves, the limit, the site count if asked, or where a
        # carrier not passed stands on the site; quiet phases are jumped, and a
        # ride that passes every carrier c ever meets checks no company at all
        p, route = periods[c], routes[c]
        most = min(moves, move_limit - t)
        if sites and not done[c] and sites > len(seen):  # capped before the loop scans laps past it
            ahead = _arc(route, phase + 1, min(most, p))
            fresh = list(dict.fromkeys(filterfalse(seen.__contains__, ahead)))  # in reach order
            if len(seen) + len(fresh) >= sites:
                most = ahead.index(fresh[sites - len(seen) - 1]) + 1
        try:
            j = most if past.issuperset(mates[c]) else 1
        except AttributeError:
            raise IllegalAction(f"ride past {past!r} at t={t}, not a set of carrier ids") from None
        lone, listed = quiet[c], company[c]
        while j < most:
            i = (phase + j) % p
            if lone[i]:
                j += lone[i]
                continue
            for e in listed[i]:
                if routes[e][(t + j) % periods[e]] == route[i] and ids[e] not in past:
                    break
            else:
                j += 1
                continue
            break  # a carrier not passed stands on the site
        j = min(j, most)
        t += j
        site = route[t % p]
        if not done[c]:
            seen.update(_arc(route, phase + 1, min(j, p)))
            done[c] = seen.issuperset(domains[c])
        if t >= move_limit:
            break
    if t > t0:
        segments.append((ids[c], routeset.carriers[c].route.sites, t0_phase, t - t0))
    return Trace(start_carrier, Walk(segments), halted)


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
    False — an inconsistent walk covers nothing meaningfully. A consistent
    walk covers as `Trace.covers` says.
    """
    fault = _walk_fault(routeset, walk)
    if fault is not None:
        raise InconsistentWalk(fault[1])
    return walk.covers(routeset)


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
CSV_HEADS = 10_000  # rows numbered from one cached table; a multiple of CSV_BLOCK
_CSV_QUOTED = frozenset('",\r\n')  # a field holding one of these is quoted (RFC 4180)


def _csv_fields(names: tuple[str, ...]) -> tuple[str, ...]:
    """`names` as CSV fields: one that holds a comma, a quote or a line break
    is wrapped in quotes, each quote inside doubled; any other is as it is."""
    if _CSV_QUOTED.isdisjoint("".join(names)):
        return names
    return tuple(s if _CSV_QUOTED.isdisjoint(s) else '"' + s.replace('"', '""') + '"' for s in names)


@functools.cache
def _csv_heads(heads: int) -> tuple[str, ...]:
    """The step and time of each row below `heads`, with their commas: `"7,7,"`."""
    return tuple([f"{i},{i}," for i in range(heads)])


@functools.cache
def _csv_digits(block: int) -> tuple[str, ...]:
    """The step numbers below `block`, zero-padded to follow a block's prefix
    (`"007,"`), each with its comma."""
    width = len(str(block - 1))
    return tuple(f"{i:0{width}}," for i in range(block))


def trace_to_csv(trace: Trace) -> str:
    """One row per move; new_site flags first arrivals.

    The rows are written from the walk's segments. Each call lays out, for
    each carrier and cycle the walk rides, the row tail `"c3,x1,x2,0\n"` of
    every phase; a segment's rows take the tails of its phases in turn. A
    name that holds a comma, a quote or a line break is quoted there, the
    RFC 4180 way, so no row pays for it. Only the tails of the first
    arrivals, which the walk's first-visit pass gives from step 0's
    departure on, are patched to end `",1\n"`; a walk with no steps writes
    only the header.

    The rows are laid out `CSV_BLOCK` at a time, as a list of pieces filled
    by slice assignment. Below `CSV_HEADS` a row is two pieces: its step and
    time `"7,7,"`, from a table built once a process, on its first CSV, and
    its tail. Past it a row is five: the step, the time (the same two
    pieces) and the tail. Step i is then the block's prefix
    `str(i // CSV_BLOCK)` and the zero-padded digit table's entry for
    `i % CSV_BLOCK` with its comma, so `CSV_BLOCK` must be a power of ten.
    Those blocks share one list, its digit slots laid once, so each assigns
    only its prefixes and tails; the last is trimmed. No row calls `str()`.
    A block's tails are one slice of the current ride's tail table, joined
    with the next ride's slice where the block spans rides.
    Neither this nor `run`'s company checks make a generator: on CPython
    3.11 a generator per check or per block costs more than the check itself.

    Each joined block is added to one growing string, which CPython resizes
    in place while `+=` holds its only reference, so the peak stays near the
    CSV's own size; a list of the blocks joined at the end would hold twice
    it, and a list of every row string over four times it. The block loop
    is a `for` loop: on CPython 3.11 a `while` loop's backward jump does not
    warm a fresh function's code, so a first call's `+=` would never
    specialize to the in-place append, and would copy the string every block.
    """
    csv = CSV_HEADER + "\n"
    t = len(trace.steps)
    if not t:
        return csv
    segments = trace.steps.segments
    tails = {}  # (carrier, cycle) -> the row tail of each phase
    for cid, cycle, _, _ in segments:
        if (cid, cycle) not in tails:
            field, *sites = _csv_fields((cid, *cycle))
            arcs = zip(sites, sites[1:] + sites[:1])
            tails[cid, cycle] = [f"{field},{a},{b},0\n" for a, b in arcs]
    rides = [(tails[cid, cycle], offset, moves) for cid, cycle, offset, moves in segments]
    # the first arrivals' steps, popped in step order; a return to the start is not new
    start = segments[0][1][segments[0][2]]
    new = [i - 1 for i in _first_visits(start, trace.steps).values() if i][::-1]
    r = done = 0  # the ride the next row belongs to, and how many of its rows are written
    block, heads = CSV_BLOCK, CSV_HEADS
    numbered = _csv_heads(heads)
    if t > heads:
        lined = [""] * (5 * block)
        lined[1::5] = lined[3::5] = _csv_digits(block)
    for o in range(0, t, block):
        n = min(block, t - o)
        if o < heads:
            pieces, w = [""] * (2 * n), 2
            pieces[::2] = numbered[o:o + n]
        else:
            if n < block:
                del lined[5 * n:]
            pieces, w = lined, 5
            pieces[::5] = pieces[2::5] = (str(o // block),) * n
        parts, left = [], n  # the block's tails: one slice of each ride it crosses
        while left:
            cells, offset, moves = rides[r]
            take = min(left, moves - done)
            parts.append(_arc(cells, offset + done, take))
            left -= take
            done += take
            if done == moves:
                r, done = r + 1, 0
        pieces[w - 1::w] = parts[0] if len(parts) == 1 else tuple(chain.from_iterable(parts))
        while new and new[-1] < o + n:
            i = w * (new.pop() - o) + w - 1
            pieces[i] = pieces[i][:-2] + "1\n"
        csv += "".join(pieces)
    return csv


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
