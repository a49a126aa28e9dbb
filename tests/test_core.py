from __future__ import annotations

import math
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pvgraph
from pvgraph import (
    ANONYMOUS,
    IDS,
    Route,
    RouteSet,
    Witness,
    build_meeting_graph,
    exact_feasible,
    carriers_at,
    is_concrete_cover,
    is_feasible,
    is_homogeneous,
    is_irredundant,
    is_simple,
    position,
)
from pvgraph.core import Carrier
from pvgraph.engine import Trace, TimedEdge
from pvgraph.errors import InconsistentWalk, ParameterViolation, UnreachableSite


def rs_of(*routes: list[str], mode: str = IDS) -> RouteSet:
    return RouteSet.from_routes(
        [(f"c{i}", r) for i, r in enumerate(routes)], mode
    )


def test_position_wraps_modulo_period():
    c = Carrier("c0", Route(("a", "b", "c")))
    assert [position(c, t) for t in range(7)] == ["a", "b", "c", "a", "b", "c", "a"]
    assert position(c, 300) == "a"


def test_route_domain_and_period():
    r = Route(("a", "b", "a", "c"))
    assert r.period == 4
    assert r.domain == {"a", "b", "c"}


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


def test_unknown_carrier_is_a_parameter_violation():
    with pytest.raises(ParameterViolation, match="nope"):
        rs_of(["a"]).carrier("nope")


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


def test_irredundant_period_never_exceeds_tree_tour():
    for sites in [("a", "b", "c"), ("a", "b", "c", "b"), ("a", "b", "a", "c")]:
        r = Route(sites)
        if is_irredundant(r):
            assert r.period <= 2 * (len(r.domain) - 1)


def test_homogeneity():
    assert is_homogeneous(rs_of(["a", "b"], ["b", "a"]))
    assert not is_homogeneous(rs_of(["a", "b"], ["a", "b", "c"]))


def test_meeting_graph_witnesses():
    rs = rs_of(["a", "b"], ["a", "c"])
    mg = build_meeting_graph(rs)
    assert mg.has_edge("c0", "c1")
    (w,) = mg.witnesses("c0", "c1")
    assert (w.site, w.phase, w.recurrence) == ("a", 0, 2)
    assert mg.witnesses("c1", "c0") == mg.witnesses("c0", "c1")


def test_meeting_graph_no_meeting_despite_shared_sites():
    # same two sites, opposite phase: never co-located
    rs = rs_of(["a", "b"], ["b", "a"])
    mg = build_meeting_graph(rs)
    assert not mg.has_edge("c0", "c1")
    assert mg.components() == [frozenset({"c0"}), frozenset({"c1"})]


def test_meeting_graph_heterogeneous_recurrence():
    rs = rs_of(["a", "b"], ["a", "b", "c"])
    mg = build_meeting_graph(rs)
    ws = mg.witnesses("c0", "c1")
    assert all(w.recurrence == 6 for w in ws)
    assert {(w.site, w.phase) for w in ws} == {("a", 0), ("b", 1)}


def scanned_witnesses(rs: RouteSet, a: str, b: str) -> tuple[Witness, ...]:
    """Reference: walk both routes over one joint period, instant by instant."""
    ra, rb = rs.carrier(a).route, rs.carrier(b).route
    lcm = math.lcm(ra.period, rb.period)
    return tuple(Witness(ra.at(t), t, lcm) for t in range(lcm) if ra.at(t) == rb.at(t))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_meeting_graph_matches_joint_period_scan(data):
    n = data.draw(st.integers(1, 5), label="n")
    k = data.draw(st.integers(1, 3), label="k")
    routes = [
        data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12), label=f"c{i}")
        for i in range(k)
    ]
    rs = rs_of(*[[f"s{x}" for x in r] for r in routes])
    mg = build_meeting_graph(rs)
    ids = [c.id for c in rs.carriers]
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    scans = {(a, b): scanned_witnesses(rs, a, b) for a, b in pairs}
    assert mg.edges() == [e for e in pairs if scans[e]]
    for (a, b), ws in scans.items():
        assert mg.has_edge(a, b) == mg.has_edge(b, a) == bool(ws)
        assert mg.witnesses(a, b) == mg.witnesses(b, a) == ws
    assert is_feasible(rs) == exact_feasible(rs)


def test_feasibility_past_a_joint_period_of_2_to_the_32():
    pa, pb = 65537, 65536  # coprime, lcm just above 2^32
    rs = rs_of([f"s{i % 3}" for i in range(pa)], [f"s{i % 2}" for i in range(pb)])
    t0 = time.perf_counter()
    assert is_feasible(rs)
    assert time.perf_counter() - t0 < 1.0
    assert build_meeting_graph(rs).edges() == [("c0", "c1")]


def test_import_needs_no_numpy():
    src = Path(pvgraph.__file__).resolve().parents[1]
    code = f"import sys; sys.path.insert(0, {str(src)!r}); sys.modules['numpy'] = None; import pvgraph"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
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


def test_concrete_cover_accepts_a_lawful_walk():
    rs = rs_of(["a", "b"], ["a", "c"])
    walk = Trace("c0", (
        TimedEdge(0, "c1", "a", "c"),   # switch at the t=0 meeting on a
        TimedEdge(1, "c1", "c", "a"),
        TimedEdge(2, "c0", "a", "b"),   # back onto c0 at t=2
    ), True, ("a", "c", "b"))
    assert is_concrete_cover(rs, walk)


def test_concrete_cover_false_when_sites_remain():
    rs = rs_of(["a", "b"], ["a", "c"])
    walk = Trace("c0", (TimedEdge(0, "c0", "a", "b"),), True, ("a", "b"))
    assert not is_concrete_cover(rs, walk)


def test_concrete_cover_rejects_unactivated_edge():
    rs = rs_of(["a", "b"], ["a", "c"])
    walk = Trace("c0", (TimedEdge(0, "c0", "a", "c"),), True, ("a", "c"))
    with pytest.raises(InconsistentWalk):
        is_concrete_cover(rs, walk)


def test_concrete_cover_rejects_discontinuous_switch():
    rs = rs_of(["a", "b"], ["a", "c"])
    # both steps activated, but the agent ends step 0 on b, not c
    walk = Trace("c0", (
        TimedEdge(0, "c0", "a", "b"),
        TimedEdge(1, "c1", "c", "a"),
    ), True, ("a", "b", "c"))
    with pytest.raises(InconsistentWalk):
        is_concrete_cover(rs, walk)


def test_concrete_cover_rejects_teleport_switch():
    rs = rs_of(["a", "b"], ["c", "d"])
    walk = Trace("c0", (
        TimedEdge(0, "c0", "a", "b"),
        TimedEdge(1, "c1", "d", "c"),  # carriers never met
    ), True, ("a", "b", "d", "c"))
    with pytest.raises(InconsistentWalk):
        is_concrete_cover(rs, walk)


@pytest.mark.parametrize("start,step_carrier", [("zz", "c0"), ("c0", "zz")])
def test_concrete_cover_rejects_unknown_carriers(start, step_carrier):
    rs = rs_of(["a", "b"], ["a", "c"])
    walk = Trace(start, (TimedEdge(0, step_carrier, "a", "b"),), True, ("a", "b"))
    with pytest.raises(InconsistentWalk, match="zz"):
        is_concrete_cover(rs, walk)


def test_anonymous_mode_flag_carried():
    rs = rs_of(["a", "b"], mode=ANONYMOUS)
    assert rs.mode == ANONYMOUS
