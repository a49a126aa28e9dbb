"""Periodically varying graphs: carriers on fixed cyclic routes.

A system is a set of carriers, each looping forever over its own periodic
route of sites. The directed edge (route[i], route[i+1]) exists only at the
instants the carrier traverses it, so reachability is a question about
timing, not just topology. Two carriers standing on the same site at the
same instant form a meeting point; the meeting graph collects those pairs.

Everything here is an immutable value; validators and derived views never
mutate their inputs.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import InconsistentWalk, ParameterViolation, UnreachableSite

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Trace

ANONYMOUS = "anonymous"
IDS = "ids"


@dataclass(frozen=True)
class Route:
    """An ordered cycle of sites; index i is the site occupied at phase i."""

    sites: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(self.sites))
        if not self.sites:
            raise ValueError("route must contain at least one site")

    @property
    def period(self) -> int:
        return len(self.sites)

    @cached_property
    def domain(self) -> frozenset[str]:
        return frozenset(self.sites)

    def at(self, t: int) -> str:
        """Site occupied at time t (t may exceed the period)."""
        return self.sites[t % len(self.sites)]


@dataclass(frozen=True)
class Carrier:
    id: str
    route: Route


@dataclass(frozen=True, slots=True)
class TimedEdge:
    """One move: `carrier` leaves `from_site` at `time`, arriving at `to_site`."""

    time: int
    carrier: str
    from_site: str
    to_site: str


@dataclass(frozen=True)
class RouteSet:
    """The full system: k carriers over a site universe, plus the identity mode.

    `sites` fixes the universe and its canonical order. Omit it to default to
    the sites in first-appearance order across the routes. A declared site
    that no route ever visits is rejected (UnreachableSite): no walk could
    reach it.
    """

    carriers: tuple[Carrier, ...]
    mode: str = IDS
    sites: tuple[str, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "carriers", tuple(self.carriers))
        if not self.carriers:
            raise ValueError("need at least one carrier")
        if self.mode not in (ANONYMOUS, IDS):
            raise ValueError(f"unknown mode {self.mode!r}")
        ids = [c.id for c in self.carriers]
        if len(set(ids)) != len(ids):
            raise ValueError("carrier ids must be unique")
        seen = dict.fromkeys(chain.from_iterable(c.route.sites for c in self.carriers))
        if not self.sites:
            object.__setattr__(self, "sites", tuple(seen))
        else:
            object.__setattr__(self, "sites", tuple(self.sites))
            universe = set(self.sites)
            if len(universe) != len(self.sites):
                raise ValueError("site universe contains duplicates")
            extra = [s for s in seen if s not in universe]
            if extra:
                raise ValueError(f"route sites missing from declared universe: {extra}")
            dead = [s for s in self.sites if s not in seen]
            if dead:
                raise UnreachableSite(f"site(s) on no route: {', '.join(dead)}")
        for name in (*ids, *self.sites):  # distinct names only, so the cost is not per phase
            if name.split() != [name]:  # the text format could not write it back
                raise ValueError(f"name {name!r} is empty or contains whitespace")

    @classmethod
    def from_routes(
        cls,
        routes: Mapping[str, Sequence[str]] | Iterable[tuple[str, Sequence[str]]],
        mode: str = IDS,
        sites: Sequence[str] = (),
    ) -> "RouteSet":
        items = routes.items() if isinstance(routes, Mapping) else routes
        # a tuple built from a list is allocated at its exact size; one built
        # from a generator is over-allocated and shrunk, which leaves the
        # free lists of other tuple sizes filling between full collections
        carriers = tuple([Carrier(cid, Route(tuple(r))) for cid, r in items])
        return cls(carriers, mode, tuple(sites))

    @property
    def k(self) -> int:
        return len(self.carriers)

    @property
    def n(self) -> int:
        return len(self.sites)

    @cached_property
    def max_period(self) -> int:
        return max(c.route.period for c in self.carriers)

    @cached_property
    def site_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.sites)}

    @cached_property
    def by_id(self) -> dict[str, Carrier]:
        return {c.id: c for c in self.carriers}

    @cached_property
    def schedule(self) -> "Schedule":
        """The integer routes and who may share each phase's site, built on first use."""
        return _build_schedule(self)

    def carrier(self, cid: str) -> Carrier:
        try:
            return self.by_id[cid]
        except KeyError:
            raise ParameterViolation(f"no carrier {cid!r}") from None


def carriers_at(routeset: RouteSet, t: int, x: str) -> frozenset[str]:
    """Ids of every carrier standing on site x at time t.

    The reference scan over all routes; the engine looks the same set up in
    `RouteSet.schedule` instead.
    """
    return frozenset(c.id for c in routeset.carriers if c.route.at(t) == x)


@dataclass(frozen=True)
class Schedule:
    """The routes as site indices, and who can share each phase's site.

    `routes[c][i]` is the index in `RouteSet.sites` of carrier c's site at
    phase i. `company[c][i]` lists, in carrier order, every other carrier d
    that stands on that site at some instant ≡ i (mod p_c): those with a
    phase j ≡ i (mod gcd(p_c, p_d)) on the same site. The carriers on c's
    site at instant t are thus c and the d in `company[c][t mod p_c]` whose
    route is at that site at t. Both tables hold O(k·Σp) entries, none in
    proportion to the lcm of the periods.

    For the instants the agent rides alone, `quiet[c][i]` counts the phases
    from i on, up to p_c, whose `company` is empty: 0 where phase i lists
    company. It holds O(Σp) entries.

    `company` and `quiet` are the engine's skip hints, not its stopping rule:
    a listed carrier may stand elsewhere at a given instant. A lone ride jumps
    each quiet stretch, checks only the listed carriers at the other phases,
    and stops where one of them actually stands on the site.
    """

    routes: tuple[tuple[int, ...], ...]
    company: tuple[tuple[tuple[int, ...], ...], ...]
    quiet: tuple[tuple[int, ...], ...]


def _build_schedule(routeset: RouteSet) -> Schedule:
    idx = routeset.site_index
    routes = tuple(tuple(idx[s] for s in c.route.sites) for c in routeset.carriers)
    holders: list[list[int]] = [[] for _ in routeset.sites]  # carriers whose route holds the site
    for d, r in enumerate(routes):
        for s in set(r):
            holders[s].append(d)
    classes: dict[tuple[int, int], set[int]] = {}  # (d, g) -> {site·g + phase mod g} of d's route
    company = []
    for c, r in enumerate(routes):
        p = len(r)
        row = []
        for i, s in enumerate(r):
            mates = []
            for d in holders[s]:
                if d == c:
                    continue
                g = math.gcd(p, len(routes[d]))
                if (d, g) not in classes:
                    classes[d, g] = {x * g + j % g for j, x in enumerate(routes[d])}
                if s * g + i % g in classes[d, g]:
                    mates.append(d)
            row.append(tuple(mates))
        company.append(tuple(row))
    quiet = []
    for row in company:
        p, lone, left = len(row), 0, [0] * len(row)
        for i in range(2 * p - 1, -1, -1):  # the second lap counts the quiet phases that wrap
            lone = 0 if row[i % p] else lone + 1
            left[i % p] = min(lone, p)
        quiet.append(tuple(left))
    return Schedule(routes, tuple(company), tuple(quiet))


def is_simple(route: Route) -> bool:
    """No self-loops and no directed edge traversed at two distinct phases."""
    s = route.sites
    nxt = s[1:] + s[:1]
    return not any(map(operator.eq, s, nxt)) and len(set(zip(s, nxt))) == len(s)


def is_irredundant(route: Route) -> bool:
    """Simple, and the route's edge graph is a single cycle or a tree tour.

    Rings traverse each undirected edge once; tree tours traverse each
    undirected edge exactly once per direction (period 2(d-1) over d sites).
    Either way no undirected edge is repeated in the same direction, which
    caps the period at 2(n-1). A simple route whose edge set equals its
    reverse pairs its p directed edges into p/2 undirected ones, so at
    p = 2(d-1) those are the d-1 edges of a tree.
    """
    s = route.sites
    d = len(route.domain)
    p = len(s)
    if p not in (d, 2 * (d - 1)) or not is_simple(route):  # the O(1) period shape before the edge scan
        return False
    if p == d:
        ok = True  # simple cycle: every site exactly once
    else:
        nxt = s[1:] + s[:1]
        ok = set(zip(s, nxt)) == set(zip(nxt, s))  # closed tree walk: each edge once per direction
    assert not ok or p <= 2 * (d - 1), "irredundant period bound violated"
    return ok


def is_homogeneous(routeset: RouteSet) -> bool:
    periods = {c.route.period for c in routeset.carriers}
    return len(periods) == 1


class MeetingGraph:
    """Undirected graph on carriers; an edge means the pair meets somewhere.

    Only which pairs meet is kept, not when or where: feasibility needs
    nothing more.
    """

    def __init__(self, routeset: RouteSet, edges: Iterable[tuple[str, str]]):
        self.nodes = tuple([c.id for c in routeset.carriers])  # exact size, as in from_routes
        self._order = {c: i for i, c in enumerate(self.nodes)}
        self._edges = tuple(edges)
        adj: dict[str, set[str]] = {c: set() for c in self.nodes}
        for a, b in self._edges:
            adj[a].add(b)
            adj[b].add(a)
        self._adj = {c: frozenset(v) for c, v in adj.items()}

    def has_edge(self, a: str, b: str) -> bool:
        mates = self.neighbors(a)
        if b not in self._adj:
            raise ParameterViolation(f"no carrier {b!r}")
        return b in mates

    def neighbors(self, c: str) -> frozenset[str]:
        try:
            return self._adj[c]
        except KeyError:
            raise ParameterViolation(f"no carrier {c!r}") from None

    def edges(self) -> list[tuple[str, str]]:
        return list(self._edges)

    def components(self) -> list[frozenset[str]]:
        out, left = [], set(self.nodes)
        while left:
            root = min(left, key=self._order.__getitem__)
            comp, frontier = {root}, [root]
            while frontier:
                for nb in self._adj[frontier.pop()]:
                    if nb not in comp:
                        comp.add(nb)
                        frontier.append(nb)
            out.append(frozenset(comp))
            left -= comp
        return out


def _meets(a: Route, b: Route) -> bool:
    """Do the two routes ever stand on one site at one instant?

    Phase i of one route and phase j of the other coincide at some instant iff
    i ≡ j (mod g), g the gcd of the periods: the pair meets iff, for some
    residue r, the phases ≡ r of both routes share a site.
    """
    x, y = a.sites, b.sites
    g = math.gcd(len(x), len(y))
    return any(not set(x[r::g]).isdisjoint(y[r::g]) for r in range(g))


def build_meeting_graph(routeset: RouteSet) -> MeetingGraph:
    """Find every carrier pair that ever meets (see `_meets`), in carrier order."""
    cs = routeset.carriers
    edges = [(a.id, b.id) for i, a in enumerate(cs) for b in cs[i + 1:] if _meets(a.route, b.route)]
    return MeetingGraph(routeset, edges)


def is_feasible(routeset: RouteSet) -> bool:
    """Can an agent starting on any carrier visit every site?

    True iff, for every carrier, the union of route domains across its
    meeting-graph component is the whole universe. Switching works in both
    directions at a meeting and meetings recur forever, so a component's
    domain union is exactly the reachable site set from anywhere inside it.

    Each component is grown outward from its first carrier: a carrier that
    joins is scanned only against the carriers no component holds yet, so a
    pair already joined through others is never scanned and no pair is
    scanned twice. That is k(k−1)/2 scans when nothing meets, and k−1 when
    the first carrier meets all the others.
    """
    universe = set(routeset.sites)
    left = list(routeset.carriers)  # carriers in no component yet, in carrier order
    while left:
        frontier, covered = [left.pop(0)], set()
        while frontier:
            a = frontier.pop()
            covered |= a.route.domain
            rest = []
            for b in left:
                (frontier if _meets(a.route, b.route) else rest).append(b)
            left = rest
        if covered != universe:
            return False
    return True


def _arc(cycle: tuple[str, ...], start: int, moves: int) -> tuple[str, ...]:
    """The sites of `moves` consecutive phases of `cycle` from phase `start` on,
    wrapping round as often as needed."""
    q = len(cycle)
    start %= q
    end = start + moves
    return cycle[start:end] if end <= q else (cycle * -(-end // q))[start:end]


def _walk_fault(routeset: RouteSet, walk: "Trace") -> tuple[int, str] | None:
    """The first step the routes do not allow, as (index, reason); None if lawful.

    Step i must depart where the agent stands (step 0: the start carrier's
    site at t=0) and be the move its carrier makes from time i to i+1. An
    unknown start carrier faults step 0; an unknown step carrier, its step.
    Step times need no check: a trace's `Walk` times step i at i.

    The walk is checked a ride segment at a time. A segment whose cycle is
    its carrier's route, boarded at the phase of its first instant, makes
    that carrier's moves throughout: only its first departure is compared
    with where the agent stands. Any other segment is checked move by move.
    A run-made walk is thus checked in O(segments).
    """
    by_id = routeset.by_id
    if walk.start_carrier not in by_id:
        return 0, f"no start carrier {walk.start_carrier!r}"
    here = by_id[walk.start_carrier].route.sites[0]
    t = 0
    for segment in walk.steps.segments:
        cid, cycle, offset, moves = segment
        c = by_id.get(cid)
        if c is None or cycle != c.route.sites or offset != t % len(cycle) or cycle[offset] != here:
            fault = _step_fault(c, segment, t, here)
            if fault is not None:
                return fault
        t += moves
        here = cycle[(offset + moves) % len(cycle)]
    return None


def _step_fault(c: Carrier | None, segment, t: int, here: str) -> tuple[int, str] | None:
    """The first fault of `segment`, ridden on carrier `c` from step t with the
    agent standing on `here`, found move by move."""
    cid, cycle, offset, moves = segment
    moves_made = zip(_arc(cycle, offset, moves), _arc(cycle, offset + 1, moves))
    for i, (frm, to) in enumerate(moves_made, t):
        if c is None:
            return i, f"step {i} rides unknown carrier {cid!r}"
        if frm != here:
            # boarding a carrier that isn't standing where the agent is
            return i, f"step {i} departs {frm} but the agent stands on {here}"
        sites = c.route.sites
        if sites[i % len(sites)] != here or sites[(i + 1) % len(sites)] != to:
            return i, (f"step {i}: carrier {cid} does not activate "
                       f"({frm} -> {to}) at time {i}")
        here = to
    return None


def is_concrete_cover(routeset: RouteSet, walk: "Trace") -> bool:
    """Does the walk touch every site of the universe?

    The walk must be consistent (see `_walk_fault`): every step an edge its
    carrier activates at that time, departing where the agent stands.
    Violations raise InconsistentWalk rather than returning False — an
    inconsistent walk covers nothing meaningfully. The sites are gathered a
    segment at a time; one of a lap or more covers its whole cycle.
    """
    fault = _walk_fault(routeset, walk)
    if fault is not None:
        raise InconsistentWalk(fault[1])
    covered = {routeset.carrier(walk.start_carrier).route.sites[0]}
    for _, cycle, offset, moves in walk.steps.segments:
        covered.update(cycle if moves >= len(cycle) else _arc(cycle, offset + 1, moves))
    return covered == set(routeset.sites)
