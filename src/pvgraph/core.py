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
from itertools import chain, compress
from typing import Iterable, Sequence

from .errors import ParameterViolation, UnreachableSite

ANONYMOUS = "anonymous"
IDS = "ids"


@dataclass(frozen=True)
class Route:
    """An ordered cycle of sites; index i is the site occupied at phase i.

    `domain`, the set of sites the route visits, is a cached property: the
    predicates build it on first use, and equality, hashing and repr ignore
    it. A route that only rides, as in a search or a simulation, never
    builds it.
    """

    sites: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(self.sites))
        if not self.sites:
            raise ValueError("route must contain at least one site")

    @cached_property
    def domain(self) -> frozenset[str]:
        return frozenset(self.sites)

    @property
    def period(self) -> int:
        return len(self.sites)

    def at(self, t: int) -> str:
        """Site occupied at time t (t may exceed the period)."""
        return self.sites[t % len(self.sites)]


@dataclass(frozen=True, slots=True)
class Carrier:
    id: str
    route: Route


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
        if not self.sites:
            object.__setattr__(self, "sites", tuple(self._first_appearances()))
        else:
            object.__setattr__(self, "sites", tuple(self.sites))
            universe = set(self.sites)
            if len(universe) != len(self.sites):
                raise ValueError("site universe contains duplicates")
            seen = set()
            for c in self.carriers:
                seen.update(c.route.sites)
            if not seen <= universe:
                extra = [s for s in self._first_appearances() if s not in universe]
                raise ValueError(f"route sites missing from declared universe: {extra}")
            if len(seen) < len(universe):
                dead = [s for s in self.sites if s not in seen]
                raise UnreachableSite(f"site(s) on no route: {', '.join(dead)}")
        # the text format could not write back an empty name or one with whitespace. The
        # joined names split back into themselves iff none is, since `str.split()` drops
        # an empty name and splits at any whitespace; one by one only to name the first
        names = [*ids, *self.sites]  # distinct names only, so the cost is not per phase
        if " ".join(names).split() != names:
            bad = next(name for name in names if name.split() != [name])
            raise ValueError(f"name {bad!r} is empty or contains whitespace")

    def _first_appearances(self) -> dict[str, None]:
        """Every route site, in first-appearance order across the routes: one pass over all slots."""
        return dict.fromkeys(chain.from_iterable(c.route.sites for c in self.carriers))

    @classmethod
    def from_routes(
        cls,
        routes: Iterable[tuple[str, Sequence[str]]],
        mode: str = IDS,
        sites: Sequence[str] = (),
    ) -> "RouteSet":
        # a tuple built from a list is allocated at its exact size; one built
        # from a generator is over-allocated and shrunk, which leaves the
        # free lists of other tuple sizes filling between full collections
        carriers = tuple([Carrier(cid, Route(tuple(r))) for cid, r in routes])
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
    phase i, and `domains[c]` holds each index of `routes[c]` once, in
    first-appearance order. `company[c][i]` lists, in carrier order, every
    other carrier d that stands on that site at some instant ≡ i (mod p_c):
    those with a phase j ≡ i (mod gcd(p_c, p_d)) on the same site. The
    carriers on c's site at instant t are thus c and the d in
    `company[c][t mod p_c]` whose route is at that site at t. `mates[c]`
    holds the ids, in carrier order, of every d that `company[c]` lists at
    some phase: the carriers c ever meets, its meeting-graph neighbours,
    named as a `Ride`'s `past` names them. The tables hold O(k·Σp) entries,
    none in proportion to the lcm of the periods.

    For the instants the agent rides alone, `quiet[c][i]` counts the phases
    from i on, up to p_c, whose `company` is empty: 0 where phase i lists
    company. It holds O(Σp) entries.

    `company`, `quiet` and `mates` are the engine's skip hints, not its
    stopping rule: a listed carrier may stand elsewhere at a given instant.
    A lone ride that passes every one of its carrier's `mates` needs no
    company check; any other jumps each quiet stretch, checks only the
    listed carriers at the other phases, and stops where one of them
    actually stands on the site.

    The rest are per-carrier lookups every run needs, laid out once here:
    each carrier's `period`, its id in `ids` and the `index` back from it,
    and in `alone` the arrival set `{id}` of an instant it has no company.
    The schedule holds no site names.
    """

    routes: tuple[tuple[int, ...], ...]
    domains: tuple[tuple[int, ...], ...]
    company: tuple[tuple[tuple[int, ...], ...], ...]
    quiet: tuple[tuple[int, ...], ...]
    mates: tuple[tuple[str, ...], ...]
    periods: tuple[int, ...]
    ids: tuple[str, ...]
    index: dict[str, int] = field(hash=False)  # unhashable, so left out of the hash
    alone: tuple[frozenset[str], ...]


def _build_schedule(routeset: RouteSet) -> Schedule:
    idx = {s: i for i, s in enumerate(routeset.sites)}
    ids = [c.id for c in routeset.carriers]
    routes = tuple(tuple(idx[s] for s in c.route.sites) for c in routeset.carriers)
    domains = tuple(tuple(dict.fromkeys(r)) for r in routes)
    sets = [set(r) for r in domains]
    classes: dict[tuple[int, int], set[int]] = {}  # (d, g) -> {site·g + phase mod g} of d's route
    company, mates = [], []
    for c, (r, here) in enumerate(zip(routes, sets)):
        p = len(r)
        rows: list[list[int]] = [[] for _ in r]
        near = []  # the ids of the carriers listed at some phase, in carrier order
        keyed: dict[int, dict[int, list[int]]] = {}  # g -> {site·g + phase mod g: c's phases}
        for d, (other, there) in enumerate(zip(routes, sets)):  # each phase lists d in order
            if d == c or here.isdisjoint(there):
                continue
            g = math.gcd(p, len(other))
            phases = keyed.get(g)
            if phases is None:
                phases = keyed[g] = {}
                for i, s in enumerate(r):
                    phases.setdefault(s * g + i % g, []).append(i)
            if (d, g) not in classes:
                classes[d, g] = {x * g + j % g for j, x in enumerate(other)}
            shared = phases.keys() & classes[d, g]
            if shared:
                near.append(ids[d])
            for key in shared:
                for i in phases[key]:
                    rows[i].append(d)
        company.append(tuple(map(tuple, rows)))
        mates.append(tuple(near))
    quiet = []
    for row in company:
        p = len(row)
        listed = list(compress(range(p), row))
        if not listed:
            quiet.append((p,) * p)
            continue
        # each quiet stretch counts down to the listed phase that ends it; the list runs
        # on past p to the first listed phase, where the stretch that wraps ends
        first = listed[0]
        left = [0] * (p + first)
        for a, b in zip(listed, listed[1:] + [p + first]):
            left[a + 1:b] = range(b - a - 1, 0, -1)
        quiet.append(tuple(left[p:] + left[first:p]))
    return Schedule(
        routes, domains, tuple(company), tuple(quiet), tuple(mates),
        periods=tuple(map(len, routes)),
        ids=tuple(ids),
        index={cid: c for c, cid in enumerate(ids)},
        alone=tuple(frozenset((cid,)) for cid in ids),
    )


def _simple_edges(route: Route) -> set[tuple[str, str]] | None:
    """The route's directed edges if it is simple, else None.

    p distinct edges mean none is traversed at two phases; a self-loop is
    looked up once per site of the domain, not once per phase.
    """
    s, dom = route.sites, route.domain
    edges = set(zip(s, s[1:] + s[:1]))
    return edges if len(edges) == len(s) and edges.isdisjoint(zip(dom, dom)) else None


def is_simple(route: Route) -> bool:
    """No self-loops and no directed edge traversed at two distinct phases.

    A ring (p = d, every site once) repeats no edge, and has a self-loop only
    when p = 1, so only a route that visits some site twice gets the edge scan.
    """
    if route.period == len(route.domain):
        return route.period > 1
    return _simple_edges(route) is not None


def is_irredundant(route: Route) -> bool:
    """Simple, and the route's edge graph is a single cycle or a tree tour.

    Rings traverse each undirected edge once; tree tours traverse each
    undirected edge exactly once per direction (period 2(d-1) over d sites).
    Either way no undirected edge is repeated in the same direction, which
    caps the period at 2(n-1). A simple route whose edge set equals its
    reverse pairs its p directed edges into p/2 undirected ones, so at
    p = 2(d-1) those are the d-1 edges of a tree.

    A ring is irredundant iff it is simple, which `is_simple` answers with no
    edge scan, so only a tree tour gets one.
    """
    d, p = len(route.domain), route.period
    if p == d:
        return is_simple(route)
    if p != 2 * (d - 1):  # the O(1) period shape before the edge scan
        return False
    edges, s = _simple_edges(route), route.sites
    return edges is not None and edges.issuperset(zip(s[1:] + s[:1], s))  # each edge once per direction


def is_homogeneous(routeset: RouteSet) -> bool:
    periods = {c.route.period for c in routeset.carriers}
    return len(periods) == 1


def _meets(a: Route, b: Route) -> bool:
    """Do the two routes ever stand on one site at one instant?

    Phase i of one route and phase j of the other coincide at some instant iff
    i ≡ j (mod g), g the gcd of the periods: the pair meets iff, for some
    residue r, the phases ≡ r of both routes share a site. Routes that share no
    site at all never meet, and one test of their cached site sets says so;
    with coprime periods (g = 1) the one residue holds every phase, so routes
    that share a site meet, and no residue is sliced.
    """
    if a.domain.isdisjoint(b.domain):
        return False
    x, y = a.sites, b.sites
    g = math.gcd(len(x), len(y))
    if g == 1:
        return True
    for r in range(g):  # a plain loop: a generator per pair costs more than most scans
        if not set(x[r::g]).isdisjoint(y[r::g]):
            return True
    return False


def build_meeting_graph(routeset: RouteSet) -> dict[str, frozenset[str]]:
    """Map each carrier id, in carrier order, to the ids of the carriers it
    ever meets; `_meets` judges each unordered pair once."""
    cs = routeset.carriers
    mates: dict[str, set[str]] = {c.id: set() for c in cs}
    for i, a in enumerate(cs):
        for b in cs[i + 1:]:
            if _meets(a.route, b.route):
                mates[a.id].add(b.id)
                mates[b.id].add(a.id)
    return {c: frozenset(m) for c, m in mates.items()}


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

