from __future__ import annotations

import dataclasses
import math
import pickle
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import pvgraph
from pvgraph import core
from pvgraph import (
    ANONYMOUS,
    IDS,
    Carrier,
    HitchARide,
    Route,
    RouteSet,
    build_meeting_graph,
    exact_feasible,
    carriers_at,
    is_concrete_cover,
    is_feasible,
    is_homogeneous,
    is_irredundant,
    is_simple,
    min_moves,
    run,
)
from pvgraph.engine import Trace, TimedEdge
from pvgraph.errors import InconsistentWalk, ParameterViolation, UnreachableSite

from helpers import drawn_systems, rs_of


def test_position_wraps_modulo_period():
    r = Route(("a", "b", "c"))
    assert [r.at(t) for t in range(7)] == ["a", "b", "c", "a", "b", "c", "a"]
    assert r.at(300) == "a"


def test_route_domain_and_period():
    r = Route(("a", "b", "a", "c"))
    assert r.period == 4
    assert r.domain == {"a", "b", "c"}
    assert repr(Route(("a",))) == "Route(sites=('a',))"


@settings(max_examples=200, deadline=None)
@given(sites=st.lists(st.sampled_from("abcdef"), min_size=1, max_size=12),
       other=st.lists(st.sampled_from("uvwxyz"), min_size=1, max_size=12))
def test_route_domain_is_a_cached_property_outside_equality_hash_and_repr(sites, other):
    r = Route(tuple(sites))
    assert "domain" not in vars(r)  # not built at construction
    assert r.domain == frozenset(sites) and isinstance(r.domain, frozenset)
    assert r.domain is r.domain  # built once, then kept
    assert repr(r) == f"Route(sites={tuple(sites)!r})"
    twin = Route(tuple(sites))
    object.__setattr__(twin, "domain", frozenset(other))  # a stale set must not change identity
    assert twin == r and hash(twin) == hash(r) and repr(twin) == repr(r)
    same = dataclasses.replace(r)  # a copy builds its own set, not the original's
    assert "domain" not in vars(same) and same.domain == r.domain and same.domain is not r.domain
    moved = dataclasses.replace(r, sites=tuple(other))
    assert moved.domain == frozenset(other)
    back = pickle.loads(pickle.dumps(r))
    assert back == r and back.domain == r.domain
    # routes that are only ridden and searched never build the set; both stand on sites[0] at t=0
    rs = rs_of(sites, [sites[0], *other])
    assert run(rs, HitchARide(rs.max_period), "c0").covers(rs)
    assert min_moves(rs, "c0") is not None
    assert all("domain" not in vars(c.route) for c in rs.carriers)


@pytest.mark.parametrize("empty", [(), [], (s for s in [])], ids=["tuple", "list", "generator"])
def test_empty_route_rejected(empty):
    with pytest.raises(ValueError, match="at least one site"):
        Route(empty)


def test_carriers_at_collects_colocated():
    rs = rs_of(["a", "b"], ["a", "c"], ["x", "c"])
    assert carriers_at(rs, 0, "a") == {"c0", "c1"}
    assert carriers_at(rs, 1, "c") == {"c1", "c2"}
    assert carriers_at(rs, 2, "a") == {"c0", "c1"}
    assert carriers_at(rs, 0, "b") == frozenset()


def test_sites_default_to_first_appearance_order():
    rs = rs_of(["b", "a"], ["c", "a"])
    assert rs.sites == ("b", "a", "c")
    assert rs.n == 3 and rs.k == 2


def test_declared_universe_must_cover_routes():
    with pytest.raises(ValueError):
        RouteSet.from_routes([("c0", ["a", "b"])], IDS, ("a",))


def test_foreign_route_sites_are_named_in_first_appearance_order():
    with pytest.raises(ValueError) as ei:
        RouteSet.from_routes([("c0", ["a", "q", "b", "p"]), ("c1", ["z", "a", "q"])], IDS, ("a", "b"))
    assert str(ei.value) == "route sites missing from declared universe: ['q', 'p', 'z']"


def test_dead_sites_are_named_in_declared_order():
    with pytest.raises(UnreachableSite) as ei:
        RouteSet.from_routes([("c0", ["b"]), ("c1", ["d", "b"])], IDS, ("z", "b", "a", "d", "c"))
    assert str(ei.value) == "site(s) on no route: z, a, c"


def test_declared_universe_is_checked_in_linear_time():
    sites = tuple(f"s{i}" for i in range(10_000))
    t0 = time.perf_counter()
    rs = RouteSet.from_routes([("c0", sites)], IDS, sites)
    assert time.perf_counter() - t0 < 1.0
    assert rs.n == 10_000


def test_dead_declared_site_rejected():
    with pytest.raises(UnreachableSite):
        RouteSet.from_routes([("c0", ["a"])], IDS, ("a", "ghost"))


def test_duplicate_carrier_ids_rejected():
    with pytest.raises(ValueError):
        RouteSet.from_routes([("c0", ["a"]), ("c0", ["b", "a"])], IDS)


@pytest.mark.parametrize("build,message", [
    (lambda: RouteSet((), IDS), "need at least one carrier"),
    (lambda: RouteSet((Carrier("c0", Route(("a",))),), "both"), "unknown mode 'both'"),
    (lambda: RouteSet.from_routes([("c0", ["a", "b"])], IDS, ("a", "b", "a")),
     "site universe contains duplicates"),
], ids=["no-carriers", "unknown-mode", "duplicate-sites"])
def test_a_malformed_system_is_rejected_by_name(build, message):
    with pytest.raises(ValueError) as ei:
        build()
    assert str(ei.value) == message


@pytest.mark.parametrize("routes", [
    [("c 0", ["a"])],
    [("", ["a"])],
    [("c0", ["a", "b c"])],
    [("c0", ["a", ""])],
    [("c0", ["a\tb"])],
])
def test_names_the_text_format_cannot_hold_rejected(routes):
    with pytest.raises(ValueError):
        RouteSet.from_routes(routes, IDS)


#: Every character `str.split()` splits at; none lies above U+3000.
WHITESPACE = "".join(c for c in map(chr, range(0x3001)) if c.isspace())


def names():
    """Names, some empty and some with one whitespace character at the start, middle or end."""
    word = st.text("ab", max_size=2)
    return st.just("") | st.text("ab", min_size=1, max_size=3) | st.tuples(
        word, st.sampled_from(WHITESPACE), word).map("".join)


@settings(max_examples=300, deadline=None)
@given(ids=st.lists(names(), min_size=1, max_size=3, unique=True),
       sites=st.lists(names(), min_size=1, max_size=4, unique=True), declared=st.booleans())
def test_names_are_rejected_exactly_where_one_fails_the_per_name_rule(ids, sites, declared):
    # the reference rule, one name at a time: a name must split into itself alone
    bad = [name for name in (*ids, *sites) if name.split() != [name]]
    routes = [(cid, sites) for cid in ids]  # every carrier rides every site: none is dead
    if not bad:
        assert RouteSet.from_routes(routes, IDS, sites if declared else ()).sites == tuple(sites)
        return
    with pytest.raises(ValueError) as ei:
        RouteSet.from_routes(routes, IDS, sites if declared else ())
    assert type(ei.value) is ValueError
    assert str(ei.value) == f"name {bad[0]!r} is empty or contains whitespace"


def test_unknown_carrier_is_a_parameter_violation():
    rs = rs_of(["a", "b"], ["a", "c"])
    with pytest.raises(ParameterViolation, match="no carrier 'nope'"):
        rs.carrier("nope")


def test_simple_route_predicate():
    assert is_simple(Route(("a", "b", "c")))
    assert not is_simple(Route(("a", "a", "b")))  # self-loop
    assert not is_simple(Route(("a", "b", "a", "b")))  # a->b twice
    # same edge in both directions is fine
    assert is_simple(Route(("a", "b")))


def test_irredundant_ring_and_tree_tour():
    assert is_irredundant(Route(("a", "b", "c")))  # simple cycle
    assert is_irredundant(Route(("a", "b", "c", "b")))  # path tour a-b-c
    assert is_irredundant(Route(("a", "b")))
    # simple but revisits an undirected edge only one way: b appears twice
    # with fresh forward edges, so the tour is longer than any tree allows
    assert not is_irredundant(Route(("a", "b", "c", "a", "d", "e")))
    # star tour visited out of tree order is still irredundant
    assert is_irredundant(Route(("a", "b", "a", "c")))
    # the period shape holds, but a self-loop still fails the edge scan
    assert not is_irredundant(Route(("a",)))  # p = d = 1
    assert not is_irredundant(Route(("a", "a", "b", "c")))  # p = 2(d − 1) = 4


def test_irredundant_period_never_exceeds_tree_tour():
    for sites in [("a", "b", "c"), ("a", "b", "c", "b"), ("a", "b", "a", "c")]:
        r = Route(sites)
        if is_irredundant(r):
            assert r.period <= 2 * (len(r.domain) - 1)


def _reference_is_simple(route: Route) -> bool:
    """The validators as first written, edge lists and all: the brute-force reference."""
    s = route.sites
    edges = list(zip(s, s[1:] + s[:1]))
    if any(a == b for a, b in edges):
        return False
    return len(set(edges)) == len(edges)


def _reference_is_irredundant(route: Route) -> bool:
    if not _reference_is_simple(route):
        return False
    d = len(route.domain)
    p = route.period
    s = route.sites
    edges = set(zip(s, s[1:] + s[:1]))
    undirected = {frozenset(e) for e in edges}
    if p == d:
        return True
    return p == 2 * (d - 1) and len(undirected) == d - 1 and all((b, a) in edges for a, b in edges)


@st.composite
def tree_tours(draw):
    """A depth-first tour of a random tree on up to 6 sites, rotated and maybe swapped once."""
    d = draw(st.integers(1, 6))
    parent = [None] + [draw(st.integers(0, i - 1)) for i in range(1, d)]
    tour = []

    def visit(v):
        tour.append("abcdef"[v])
        for child in range(d):
            if parent[child] == v:
                visit(child)
                tour.append("abcdef"[v])

    visit(0)
    tour = tour[:-1] or tour
    shift = draw(st.integers(0, len(tour) - 1))
    tour = tour[shift:] + tour[:shift]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, len(tour) - 1)), draw(st.integers(0, len(tour) - 1))
        tour[i], tour[j] = tour[j], tour[i]
    return tour


@settings(max_examples=500, deadline=None)
@given(sites=st.one_of(
    st.lists(st.sampled_from("abcdef"), min_size=1, max_size=14),
    st.permutations("abcdef").flatmap(lambda ring: st.integers(1, 6).map(lambda d: ring[:d])),
    tree_tours(),
))
def test_route_validators_match_the_reference(sites):
    r = Route(tuple(sites))
    assert is_simple(r) == _reference_is_simple(r)
    assert is_irredundant(r) == _reference_is_irredundant(r)


def test_irredundant_tests_the_period_shape_before_the_edge_scan(monkeypatch):
    route = pvgraph.make_instance("siho", 12, 3).routeset.carriers[0].route
    assert is_simple(route) and route.period not in (len(route.domain), 2 * (len(route.domain) - 1))
    calls = []
    scan = core._simple_edges
    monkeypatch.setattr(core, "_simple_edges", lambda r: calls.append(r) or scan(r))
    assert not is_irredundant(route)
    assert calls == []
    # a ring repeats no edge, so neither predicate scans it; only the tree tour is scanned
    assert is_irredundant(Route(("a", "b", "c"))) and is_simple(Route(("a", "b", "c")))
    assert not is_simple(Route(("a",)))  # p = d = 1: a self-loop
    assert calls == []
    assert is_irredundant(Route(("a", "b", "c", "b")))
    assert calls == [Route(("a", "b", "c", "b"))]


def test_homogeneity():
    assert is_homogeneous(rs_of(["a", "b"], ["b", "a"]))
    assert not is_homogeneous(rs_of(["a", "b"], ["a", "b", "c"]))


def test_meeting_graph_edge_is_symmetric():
    rs = rs_of(["a", "b"], ["a", "c"])
    assert build_meeting_graph(rs) == {"c0": {"c1"}, "c1": {"c0"}}


def test_meeting_graph_no_meeting_despite_shared_sites():
    # same two sites, opposite phase: never co-located
    rs = rs_of(["a", "b"], ["b", "a"])
    mg = build_meeting_graph(rs)
    assert mg == {"c0": frozenset(), "c1": frozenset()}
    assert [component(mg, c) for c in mg] == [{"c0"}, {"c1"}]


def test_meeting_graph_heterogeneous_recurrence():
    rs = rs_of(["a", "b"], ["a", "b", "c"])
    assert build_meeting_graph(rs) == {"c0": {"c1"}, "c1": {"c0"}}
    assert scanned_meetings(rs, "c0", "c1") == (("a", 0), ("b", 1))


def scanned_meetings(rs: RouteSet, a: str, b: str) -> tuple[tuple[str, int], ...]:
    """Reference: every (site, t) the pair shares, walking one joint period instant by instant."""
    ra, rb = rs.carrier(a).route, rs.carrier(b).route
    lcm = math.lcm(ra.period, rb.period)
    return tuple((ra.at(t), t) for t in range(lcm) if ra.at(t) == rb.at(t))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_meeting_graph_matches_joint_period_scan(data):
    rs = data.draw(drawn_systems(5, 3, 12, shared=True), label="system")
    with pytest.MonkeyPatch.context() as mp:
        mg, judged = scanned_pairs(rs, mp, build_meeting_graph)
    # the keys in carrier order, and each unordered pair judged by `_meets` exactly once
    ids = [c.id for c in rs.carriers]
    assert list(mg) == ids
    assert sorted(map(sorted, judged)) == [[i, j] for i in range(rs.k) for j in range(i + 1, rs.k)]
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    scans = {(a, b): scanned_meetings(rs, a, b) for a, b in pairs}
    for (a, b), meets in scans.items():
        assert (b in mg[a]) == (a in mg[b]) == bool(meets)
        # one period: a pair meets exactly where its routes agree phase by phase
        if is_homogeneous(rs):
            x, y = rs.carrier(a).route.sites, rs.carrier(b).route.sites
            assert meets == tuple((s, i) for i, (s, o) in enumerate(zip(x, y)) if s == o)
    assert is_feasible(rs) == exact_feasible(rs)
    # the schedule: integer routes, and per phase the carriers a scan finds there
    sched = rs.schedule
    assert [tuple(rs.sites[x] for x in r) for r in sched.routes] == [c.route.sites for c in rs.carriers]
    assert sched.domains == tuple(tuple(dict.fromkeys(r)) for r in sched.routes)
    # each carrier's mates are its meeting-graph neighbours, in carrier order
    assert sched.mates == tuple(tuple(b for b in ids if b in mg[a]) for a in ids)
    # the per-carrier lookups each run reads; a run's segments share each route's own tuple
    assert sched.ids == tuple(ids) and sched.index == {a: c for c, a in enumerate(ids)}
    assert sched.periods == tuple(c.route.period for c in rs.carriers)
    segments = run(rs, HitchARide(rs.max_period), ids[0]).steps.segments
    assert segments and all(cycle is rs.carrier(cid).route.sites for cid, cycle, _, _ in segments)
    assert sched.alone == tuple(frozenset((a,)) for a in ids)
    for c, a in enumerate(ids):
        p = rs.carrier(a).route.period
        phases = {b: {t % p for _, t in scanned_meetings(rs, a, b)} for b in ids if b != a}
        assert sched.company[c] == tuple(
            tuple(d for d, b in enumerate(ids) if b != a and i in phases[b]) for i in range(p)
        )
    assert_quiet_counts_the_phases_without_company(sched)


def assert_quiet_counts_the_phases_without_company(sched) -> None:
    """Reference: `Schedule.quiet` counts the phases from each phase on, up to one
    period, whose company is empty."""
    for row, quiet in zip(sched.company, sched.quiet, strict=True):
        p = len(row)
        assert quiet == tuple(next((j for j in range(p) if row[(i + j) % p]), p) for i in range(p))


@pytest.mark.parametrize("spec", [("siho", 40, 5), ("sihe", 48, 5)])
def test_quiet_counts_the_phases_without_company_on_long_routes(spec):
    # periods 935 (siho) and 160 and 161 (sihe), with company at some phases only
    sched = pvgraph.make_instance(*spec).routeset.schedule
    assert all(any(row) and not all(row) for row in sched.company)
    assert_quiet_counts_the_phases_without_company(sched)


def reference_company(rs: RouteSet) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Reference: `Schedule.company` by a scan of every holder of each phase's site, O(k²·p)."""
    idx = {s: i for i, s in enumerate(rs.sites)}
    routes = [[idx[s] for s in c.route.sites] for c in rs.carriers]
    holders = [[] for _ in rs.sites]  # carriers whose route holds the site
    for d, r in enumerate(routes):
        for s in set(r):
            holders[s].append(d)
    company = []
    for c, r in enumerate(routes):
        p = len(r)
        row = []
        for i, s in enumerate(r):
            mates = []
            for d in holders[s]:
                g = math.gcd(p, len(routes[d]))
                if d != c and any(routes[d][j] == s for j in range(i % g, len(routes[d]), g)):
                    mates.append(d)
            row.append(tuple(mates))
        company.append(tuple(row))
    return tuple(company)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_schedule_company_matches_a_scan_of_every_holder(data):
    # up to 6 carriers, on one shared period or on periods of their own
    rs = data.draw(drawn_systems(6, 6, 8, shared=True), label="system")
    assert rs.schedule.company == reference_company(rs)


def test_feasibility_past_a_joint_period_of_2_to_the_32():
    pa, pb = 65537, 65536  # coprime, lcm just above 2^32
    rs = rs_of([f"s{i % 3}" for i in range(pa)], [f"s{i % 2}" for i in range(pb)])
    t0 = time.perf_counter()
    assert is_feasible(rs)
    assert time.perf_counter() - t0 < 1.0
    assert build_meeting_graph(rs) == {"c0": {"c1"}, "c1": {"c0"}}


def test_import_needs_no_numpy():
    src = Path(pvgraph.__file__).resolve().parents[1]
    code = f"import sys; sys.path.insert(0, {str(src)!r}); sys.modules['numpy'] = None; import pvgraph"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, encoding="utf-8", timeout=60)
    assert done.returncode == 0, done.stderr


def test_feasibility_needs_component_wide_coverage():
    # c0 and c1 meet and together cover everything
    assert is_feasible(rs_of(["a", "b"], ["a", "c"]))
    # c2 is isolated and misses sites a, b
    assert not is_feasible(rs_of(["a", "b"], ["a", "c"], ["c", "d"]))
    # two disconnected carriers, each covering everything alone, stay feasible
    assert is_feasible(rs_of(["a", "b"], ["b", "a"]))
    # single carrier covering its whole universe
    assert is_feasible(rs_of(["a", "b", "c"]))


def component(mg: dict[str, frozenset[str]], root: str) -> set[str]:
    """Reference: the carriers reachable from root over the meeting-graph mapping."""
    comp, frontier = {root}, [root]
    while frontier:
        fresh = mg[frontier.pop()] - comp
        comp |= fresh
        frontier += fresh
    return comp


def component_rule(rs: RouteSet) -> bool:
    """Reference: every component of the full, all-pairs meeting graph covers the universe."""
    mg = build_meeting_graph(rs)
    return all(set().union(*(rs.carrier(c).route.domain for c in component(mg, root))) == set(rs.sites)
               for root in mg)


def scanned_pairs(rs: RouteSet, monkeypatch, scan=is_feasible) -> tuple[object, list[frozenset[int]]]:
    """`scan` (by default `is_feasible`) on rs, and the carrier pairs it handed to `_meets`, in order."""
    index = {id(c.route): i for i, c in enumerate(rs.carriers)}
    pairs, meets = [], core._meets
    monkeypatch.setattr(core, "_meets", lambda a, b: pairs.append(frozenset((index[id(a)], index[id(b)])))
                        or meets(a, b))
    return scan(rs), pairs


@st.composite
def chained_systems(draw):
    """Up to 6 carriers of one period, linked in a drawn order: consecutive ones share a site.

    Linked carrier order[j] and order[j + 1] both stand on `mj` at phase j, so with
    order (0, 2, 1) c0 meets only c2 and c2 meets c1. A link may be left out, and
    every other slot is a private site or one of two shared ones, which may add
    meetings or cover a cut-off carrier's sites.
    """
    k = draw(st.integers(1, 6))
    p = draw(st.integers(max(1, k - 1), k + 2))
    order = draw(st.permutations(range(k)))
    linked = [draw(st.booleans()) for _ in range(k - 1)]
    routes = [[None] * p for _ in range(k)]
    for j, on in enumerate(linked):
        if on:
            routes[order[j]][j] = routes[order[j + 1]][j] = f"m{j}"
    for c, route in enumerate(routes):
        for t, site in enumerate(route):
            if site is None:
                route[t] = draw(st.sampled_from([f"c{c}.{t}", "a", "b"]))
    return rs_of(*routes)


@settings(max_examples=300, deadline=None)
@given(rs=st.one_of(chained_systems(), drawn_systems(5, 6, 8, shared=True)))
def test_feasibility_matches_the_component_rule(rs):
    with pytest.MonkeyPatch.context() as mp:
        feasible, pairs = scanned_pairs(rs, mp)
    assert feasible == component_rule(rs)
    # no pair scanned twice, so never more scans than the k(k−1)/2 of a full scan
    assert len(set(pairs)) == len(pairs) <= rs.k * (rs.k - 1) // 2


def test_feasibility_takes_no_residue_slice_for_routes_sharing_no_site(monkeypatch):
    # thm3's routes share only some of their sites: each pair that shares none is settled
    # by one test of the two site sets, before the gcd that sizes the residue slices
    rs = pvgraph.make_instance("thm3", 58, 9, 51).routeset
    gcds = []
    monkeypatch.setattr(core, "math", SimpleNamespace(gcd=lambda a, b: gcds.append((a, b)) or math.gcd(a, b)))
    feasible, pairs = scanned_pairs(rs, monkeypatch)
    domains = [c.route.domain for c in rs.carriers]
    sharing = [pair for pair in pairs if not domains[min(pair)].isdisjoint(domains[max(pair)])]
    assert feasible and 0 < len(sharing) < len(pairs)
    assert len(gcds) == len(sharing)


class Slices(tuple):
    """A route's sites that record, in `taken`, every slice made of them."""

    def __getitem__(self, i):
        if isinstance(i, slice):
            self.taken.append(i)
        return super().__getitem__(i)


def test_a_coprime_pair_sharing_a_site_meets_with_no_residue_slice():
    # sihe(48,5) has periods 160 and 161: with coprime periods every phase of one route
    # coincides with every phase of the other, so sharing a site settles the pair
    rs = pvgraph.make_instance("sihe", 48, 5).routeset
    routes = []
    for c in rs.carriers:
        route = Route(c.route.sites)
        object.__setattr__(route, "sites", Slices(route.sites))
        route.sites.taken = []
        routes.append(route)
    coprime = [(a, b) for i, a in enumerate(routes) for b in routes[i + 1:]
               if math.gcd(a.period, b.period) == 1 and not a.domain.isdisjoint(b.domain)]
    assert len(coprime) == 4
    for a, b in coprime:
        assert core._meets(a, b)
        assert a.sites.taken == b.sites.taken == []
    # two routes of period 161 share sites but never meet: only the residue scan says so
    assert not core._meets(routes[1], routes[2]) and routes[1].sites.taken


def test_feasibility_grows_a_chain_through_its_middle(monkeypatch):
    # c0 meets only c2 and c2 meets c1: c1 joins c0's component through c2
    rs = rs_of(["m", "x0"], ["y1", "n"], ["m", "n"])
    assert build_meeting_graph(rs) == {"c0": {"c2"}, "c1": {"c2"}, "c2": {"c0", "c1"}}
    # cut the chain's last link: c1 alone misses sites, and the sweep says so
    assert not is_feasible(rs_of(["m", "x0"], ["n", "y1"], ["m", "n"]))
    feasible, pairs = scanned_pairs(rs, monkeypatch)
    assert feasible and pairs == [{0, 1}, {0, 2}, {2, 1}]


def test_feasibility_scans_a_hub_in_k_minus_1_pairs(monkeypatch):
    rs = pvgraph.make_instance("thm8", 13, 6).routeset
    feasible, pairs = scanned_pairs(rs, monkeypatch)
    assert feasible and rs.k == 6 and len(pairs) == rs.k - 1 == 5


def test_concrete_cover_accepts_a_lawful_walk():
    rs = rs_of(["a", "b"], ["a", "c"])
    walk = Trace("c0", (
        TimedEdge(0, "c1", "a", "c"),   # switch at the t=0 meeting on a
        TimedEdge(1, "c1", "c", "a"),
        TimedEdge(2, "c0", "a", "b"),   # back onto c0 at t=2
    ), True)
    assert is_concrete_cover(rs, walk)


def test_concrete_cover_false_when_sites_remain():
    rs = rs_of(["a", "b"], ["a", "c"])
    walk = Trace("c0", (TimedEdge(0, "c0", "a", "b"),), True)
    assert not is_concrete_cover(rs, walk)


def test_concrete_cover_rejects_unactivated_edge():
    rs = rs_of(["a", "b"], ["a", "c"])
    walk = Trace("c0", (TimedEdge(0, "c0", "a", "c"),), True)
    with pytest.raises(InconsistentWalk):
        is_concrete_cover(rs, walk)


def test_concrete_cover_rejects_discontinuous_switch():
    rs = rs_of(["a", "b"], ["a", "c"])
    # both steps activated, but the agent ends step 0 on b, not c
    walk = Trace("c0", (
        TimedEdge(0, "c0", "a", "b"),
        TimedEdge(1, "c1", "c", "a"),
    ), True)
    with pytest.raises(InconsistentWalk):
        is_concrete_cover(rs, walk)


def test_concrete_cover_rejects_teleport_switch():
    rs = rs_of(["a", "b"], ["c", "d"])
    walk = Trace("c0", (
        TimedEdge(0, "c0", "a", "b"),
        TimedEdge(1, "c1", "d", "c"),  # carriers never met
    ), True)
    with pytest.raises(InconsistentWalk):
        is_concrete_cover(rs, walk)


@pytest.mark.parametrize("start,step_carrier", [("zz", "c0"), ("c0", "zz")])
def test_concrete_cover_rejects_unknown_carriers(start, step_carrier):
    rs = rs_of(["a", "b"], ["a", "c"])
    walk = Trace(start, (TimedEdge(0, step_carrier, "a", "b"),), True)
    with pytest.raises(InconsistentWalk, match="zz"):
        is_concrete_cover(rs, walk)


def test_anonymous_mode_flag_carried():
    rs = rs_of(["a", "b"], mode=ANONYMOUS)
    assert rs.mode == ANONYMOUS
