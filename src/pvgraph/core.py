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
from dataclasses import dataclass, field
from functools import cached_property
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
        if not self.sites:
            raise ValueError("route must contain at least one site")
        object.__setattr__(self, "sites", tuple(self.sites))

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


@dataclass(frozen=True)
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
        seen: dict[str, None] = {}
        for c in self.carriers:
            for s in c.route.sites:
                seen.setdefault(s)
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
        carriers = tuple(Carrier(cid, Route(tuple(r))) for cid, r in items)
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

    def carrier(self, cid: str) -> Carrier:
        try:
            return self.by_id[cid]
        except KeyError:
            raise ParameterViolation(f"no carrier {cid!r}") from None


def position(carrier: Carrier, t: int) -> str:
    """Where the carrier stands at time t ≥ 0."""
    return carrier.route.at(t)


def carriers_at(routeset: RouteSet, t: int, x: str) -> frozenset[str]:
    """Ids of every carrier standing on site x at time t."""
    return frozenset(c.id for c in routeset.carriers if c.route.at(t) == x)


def _directed_edges(route: Route) -> list[tuple[str, str]]:
    p = route.period
    return [(route.sites[i], route.sites[(i + 1) % p]) for i in range(p)]


def is_simple(route: Route) -> bool:
    """No self-loops and no directed edge traversed at two distinct phases."""
    edges = _directed_edges(route)
    if any(a == b for a, b in edges):
        return False
    return len(set(edges)) == len(edges)


def is_irredundant(route: Route) -> bool:
    """Simple, and the route's edge graph is a single cycle or a tree tour.

    Rings traverse each undirected edge once; tree tours traverse each
    undirected edge exactly once per direction (period 2(d-1) over d sites).
    Either way no undirected edge is repeated in the same direction, which
    caps the period at 2(n-1).
    """
    if not is_simple(route):
        return False
    d = len(route.domain)
    p = route.period
    edges = set(_directed_edges(route))
    undirected = {frozenset(e) for e in edges}
    if p == d:
        ok = True  # simple cycle: every site exactly once
    elif p == 2 * (d - 1) and len(undirected) == d - 1 and all(
        (b, a) in edges for a, b in edges
    ):
        ok = True  # closed tree walk: each edge once per direction
    else:
        ok = False
    assert not ok or p <= 2 * (d - 1), "irredundant period bound violated"
    return ok


def is_homogeneous(routeset: RouteSet) -> bool:
    periods = {c.route.period for c in routeset.carriers}
    return len(periods) == 1


@dataclass(frozen=True)
class Witness:
    """One meeting: the pair stands on `site` at every time ≡ phase (mod recurrence)."""

    site: str
    phase: int
    recurrence: int


class MeetingGraph:
    """Undirected graph on carriers; an edge means the pair meets somewhere.

    Edges are fixed at construction; an edge's witnesses are derived from the
    two routes when they are asked for.
    """

    def __init__(self, routeset: RouteSet, edges: Iterable[tuple[str, str]]):
        self.nodes = tuple(c.id for c in routeset.carriers)
        self._routeset = routeset
        self._order = {c: i for i, c in enumerate(self.nodes)}
        self._edges = tuple(edges)
        self._residue_sets: dict[tuple[str, int], frozenset[tuple[str, int]]] = {}
        adj: dict[str, set[str]] = {c: set() for c in self.nodes}
        for a, b in self._edges:
            adj[a].add(b)
            adj[b].add(a)
        self._adj = {c: frozenset(v) for c, v in adj.items()}

    def has_edge(self, a: str, b: str) -> bool:
        return b in self._adj[a]

    def witnesses(self, a: str, b: str) -> tuple[Witness, ...]:
        """Every meeting of the pair within one joint period, by phase.

        Phase i of a and phase j of b coincide iff i ≡ j (mod g), g the gcd
        of the periods, at the one instant t < lcm with t ≡ i (mod pa) and
        t ≡ j (mod pb): t = i + pa·u where (pa/g)·u ≡ (j − i)/g (mod pb/g).
        """
        if not self.has_edge(a, b):
            return ()
        ra, rb = self._routeset.carrier(a).route, self._routeset.carrier(b).route
        pa, pb = ra.period, rb.period
        g = math.gcd(pa, pb)
        m, lcm = pb // g, pa // g * pb
        inv = pow(pa // g, -1, m)
        hits = []
        for s, r in self._residues(a, g) & self._residues(b, g):
            js = [j for j in range(r, pb, g) if rb.sites[j] == s]
            for i in range(r, pa, g):
                if ra.sites[i] == s:
                    hits.extend((i + pa * ((j - i) // g * inv % m), s) for j in js)
        hits.sort()
        return tuple(Witness(s, t, lcm) for t, s in hits)

    def _residues(self, c: str, g: int) -> frozenset[tuple[str, int]]:
        """The (site, phase mod g) pairs of c's route, kept for later requests."""
        if (c, g) not in self._residue_sets:
            sites = self._routeset.carrier(c).route.sites
            self._residue_sets[c, g] = frozenset((s, i % g) for i, s in enumerate(sites))
        return self._residue_sets[c, g]

    def neighbors(self, c: str) -> frozenset[str]:
        return self._adj[c]

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


def build_meeting_graph(routeset: RouteSet) -> MeetingGraph:
    """Find every carrier pair that ever meets, in carrier order.

    Phase i of one route and phase j of another coincide at some instant iff
    i ≡ j (mod g), g the gcd of the periods: the pair meets iff, for some
    residue r, the phases ≡ r of both routes share a site.
    """
    cs, edges = routeset.carriers, []
    for i, a in enumerate(cs):
        for b in cs[i + 1:]:
            x, y = a.route.sites, b.route.sites
            g = math.gcd(len(x), len(y))
            if any(not set(x[r::g]).isdisjoint(y[r::g]) for r in range(g)):
                edges.append((a.id, b.id))
    return MeetingGraph(routeset, edges)


def is_feasible(routeset: RouteSet) -> bool:
    """Can an agent starting on any carrier visit every site?

    True iff, for every carrier, the union of route domains across its
    meeting-graph component is the whole universe. Switching works in both
    directions at a meeting and meetings recur forever, so a component's
    domain union is exactly the reachable site set from anywhere inside it.
    """
    h = build_meeting_graph(routeset)
    universe = set(routeset.sites)
    for comp in h.components():
        covered = set()
        for cid in comp:
            covered |= routeset.carrier(cid).route.domain
        if covered != universe:
            return False
    return True


def _walk_fault(routeset: RouteSet, walk: "Trace") -> tuple[int, str] | None:
    """The first step the routes do not allow, as (index, reason); None if lawful.

    Step i must depart where the agent stands (step 0: the start carrier's
    site at t=0) and be the move its carrier makes from time i to i+1. An
    unknown start carrier faults step 0; an unknown step carrier, its step.
    Step times are checked when the Trace is built.
    """
    by_id = routeset.by_id
    if walk.start_carrier not in by_id:
        return 0, f"no start carrier {walk.start_carrier!r}"
    here = by_id[walk.start_carrier].route.sites[0]
    for i, step in enumerate(walk.steps):
        c = by_id.get(step.carrier)
        if c is None:
            return i, f"step {i} rides unknown carrier {step.carrier!r}"
        if step.from_site != here:
            # boarding a carrier that isn't standing where the agent is
            return i, f"step {i} departs {step.from_site} but the agent stands on {here}"
        sites = c.route.sites
        if sites[i % len(sites)] != here or sites[(i + 1) % len(sites)] != step.to_site:
            return i, (f"step {i}: carrier {step.carrier} does not activate "
                       f"({step.from_site} -> {step.to_site}) at time {i}")
        here = step.to_site
    return None


def is_concrete_cover(routeset: RouteSet, walk: "Trace") -> bool:
    """Does the walk touch every site of the universe?

    The walk must be consistent (see `_walk_fault`): every step an edge its
    carrier activates at that time, departing where the agent stands.
    Violations raise InconsistentWalk rather than returning False — an
    inconsistent walk covers nothing meaningfully.
    """
    fault = _walk_fault(routeset, walk)
    if fault is not None:
        raise InconsistentWalk(fault[1])
    here = routeset.carrier(walk.start_carrier).route.sites[0]
    return {here, *(step.to_site for step in walk.steps)} == set(routeset.sites)
