from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from pvgraph import (
    ANONYMOUS,
    BoundReport,
    IDS,
    Instance,
    ParameterViolation,
    RouteSet,
    StateSpaceTooLarge,
    audit,
    exact_feasible,
    is_feasible,
    make_instance,
    min_moves,
)
from pvgraph.instances import random_routeset_raw
from pvgraph.oracle import DEFAULT_STATE_CAP, _per_start, race

from helpers import drawn_systems, rs_of


def layered_min_moves(routeset: RouteSet, start_carrier: str) -> int | None:
    """The reference optimum: breadth-first search, one layer per move.

    It stores every (site, t mod L, visited-mask) state it reaches, forced or
    not, and steps all carriers once per layer.
    """
    n = routeset.n
    L = math.lcm(*(c.route.period for c in routeset.carriers))
    index = {s: i for i, s in enumerate(routeset.sites)}
    routes = [[index[s] for s in c.route.sites] for c in routeset.carriers]
    full = (1 << n) - 1
    site = index[routeset.carrier(start_carrier).route.at(0)]
    mask = 1 << site
    if mask == full:
        return 0
    seen = {site << n | mask}
    frontier = [(site, mask)]
    t = 0
    while frontier:
        hops: dict[int, set[int]] = {}  # where each site's carriers are one step later
        for r in routes:
            hops.setdefault(r[t % len(r)], set()).add(r[(t + 1) % len(r)])
        t += 1
        base = t % L * n
        nxt = []
        for site, mask in frontier:
            for s1 in hops[site]:
                m1 = mask | 1 << s1
                if m1 == full:
                    return t
                key = (base + s1) << n | m1
                if key not in seen:
                    seen.add(key)
                    nxt.append((s1, m1))
        frontier = nxt
    return None


def test_two_site_loop_needs_one_move():
    assert min_moves(rs_of(["a", "b"]), "c0") == 1


def test_single_site_needs_nothing():
    assert min_moves(rs_of(["a"]), "c0") == 0


def test_switching_is_counted_as_a_move():
    rs = rs_of(["a", "b"], ["a", "c"])
    assert min_moves(rs, "c0") == 3  # e.g. ride to c, back to a, hop to b


def test_unreachable_site_gives_none():
    rs = rs_of(["a", "b"], ["c"])  # never meet; b unreachable from c1
    assert min_moves(rs, "c1") is None
    assert min_moves(rs, "c0") is None
    # a carrier on the right parity bridges the gap: wait on c, hop at t=1,
    # land on a exactly when c0 is there, finish on b
    bridged = rs_of(["a", "b"], ["c"], ["a", "c"])
    assert min_moves(bridged, "c1") == 3


def test_duplicate_of_a_carrier_never_hurts():
    rs = rs_of(["a", "b", "c", "d"])
    twin = rs_of(["a", "b", "c", "d"], ["a", "b", "c", "d"])
    assert min_moves(twin, "c0") == min_moves(rs, "c0")


def test_state_cap_enforced():
    # the cap counts the choice states stored plus the instants walked on
    # forced rides; this search costs more than 20 of them
    inst = make_instance("thm3", 12, 4, 6)
    with pytest.raises(StateSpaceTooLarge) as ei:
        min_moves(inst.routeset, inst.start, state_cap=20)
    assert ei.value.cap == 20
    assert ei.value.size > 20
    assert min_moves(inst.routeset, inst.start) == 19


def test_a_ride_that_never_branches_is_refused_at_the_cap():
    # three carriers on disjoint sites never share one, so the one ride that
    # leaves the start state never reaches a choice instant; the lcm of the
    # periods is about 10^9, and the walk stops at the cap rather than riding
    # on towards it
    rs = rs_of(*([f"{name}{i}" for i in range(p)] for name, p in (("a", 997), ("b", 991), ("c", 983))))
    assert math.lcm(997, 991, 983) > 10 ** 8
    with pytest.raises(StateSpaceTooLarge) as ei:
        min_moves(rs, "c0", state_cap=500)
    assert ei.value.cap == 500
    assert ei.value.size > 500
    with pytest.raises(StateSpaceTooLarge):
        min_moves(rs, "c0")


def test_a_zero_cap_refuses_the_start_state():
    # the start is the first stored choice state, so no search fits in a cap of 0
    inst = make_instance("thm3", 12, 4, 6)
    with pytest.raises(StateSpaceTooLarge) as ei:
        min_moves(inst.routeset, inst.start, state_cap=0)
    assert (ei.value.size, ei.value.cap) == (1, 0)
    # a one-site system is covered at the start, before any state is stored
    assert min_moves(rs_of(["a"]), "c0", state_cap=0) == 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_cap_never_changes_an_answer(data):
    # a capped search gives the uncapped optimum or refuses past its cap
    n = data.draw(st.integers(1, 7), label="n")
    k = data.draw(st.integers(1, 4), label="k")
    p = data.draw(st.integers(max(1, -(-n // k)), 7), label="p_max")
    rs = random_routeset_raw(n, k, p, data.draw(st.integers(0, 2 ** 30), label="seed"))
    start = data.draw(st.sampled_from([c.id for c in rs.carriers]), label="start")
    optimum = min_moves(rs, start)
    for cap in (0, data.draw(st.integers(0, 60), label="cap")):
        try:
            assert min_moves(rs, start, cap) == optimum, cap
        except StateSpaceTooLarge as e:
            assert e.size > cap and e.cap == cap, (e.size, e.cap, cap)


def test_a_cover_completed_partway_through_a_ride_is_timed_exactly():
    # the carriers part only on a, at t = 5, 15, 25, ...; from c1's start the
    # agent boards c0 there and sees e, the last site, 4 moves into a ride
    # that runs on to t = 15
    rs = rs_of(["a", "b", "c", "d", "e"], ["f", "a"])
    assert min_moves(rs, "c1") == layered_min_moves(rs, "c1") == 9
    assert min_moves(rs, "c0") == layered_min_moves(rs, "c0") == 6


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_choice_search_matches_the_layered_search(data):
    # mixed periods, up to five carriers; carriers that never meet leave
    # some starts uncoverable, and both searches must then say None
    rs = data.draw(drawn_systems(7, 5, 7), label="system")
    for c in rs.carriers:
        assert min_moves(rs, c.id) == layered_min_moves(rs, c.id), c.id


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_optima_past_the_lcm_match_the_layered_search(data):
    # with periods of at most 3, often one for all routes, the lcm is at most 6 and
    # about one optimum in eight exceeds it: states then come round a lap later, and
    # each must have been laid down at its earliest time; the searches behind audit
    # and exact_feasible agree with lone ones
    rs = data.draw(drawn_systems(7, 5, 3, shared=True), label="system")
    alone = {c.id: min_moves(rs, c.id) for c in rs.carriers}
    assert alone == {c.id: layered_min_moves(rs, c.id) for c in rs.carriers}
    assert dict(_per_start(rs, DEFAULT_STATE_CAP)) == alone
    uncoverable = None in alone.values()
    assert exact_feasible(rs) == (not uncoverable)
    start = data.draw(st.sampled_from(list(alone)), label="start")
    report = audit(Instance("random", (("n", rs.n), ("k", rs.k)), rs, None, start))
    assert report.oracle_optimum == alone[start]
    assert report.oracle_max_over_starts == (None if uncoverable else max(alone.values()))


@pytest.mark.parametrize("point", [
    ("thm3", 16, 5, 4), ("thm3", 12, 4, 6), ("thm4", 15, 4, 7), ("thm7", 15, 7),
    ("thm8", 13, 6), ("siho", 20, 3), ("sihe", 36, 4),
])
def test_choice_search_matches_the_layered_search_on_family_points(point):
    rs = make_instance(*point).routeset
    for c in rs.carriers:
        assert min_moves(rs, c.id) == layered_min_moves(rs, c.id), c.id


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_no_strategy_beats_the_optimum(data):
    n = data.draw(st.integers(1, 7), label="n")
    k = data.draw(st.integers(1, 4), label="k")
    p = data.draw(st.integers(max(1, -(-n // k)), 7), label="p_max")
    rs = random_routeset_raw(n, k, p, data.draw(st.integers(0, 2 ** 30), label="seed"))
    for c in rs.carriers:
        opt = min_moves(rs, c.id)
        if opt is None:
            continue
        for name, trace in race(rs, c.id).items():
            if trace.halted and trace.covers(rs):
                assert trace.moves >= opt, (name, c.id, trace.moves, opt)


def test_exact_feasible_quantifies_over_starts():
    rs = rs_of(["a", "b"], ["c"])
    assert not exact_feasible(rs)
    assert exact_feasible(rs_of(["a", "b"], ["a", "c"]))
    # agreement with the meeting-graph checker on these
    assert exact_feasible(rs_of(["a", "b"], ["a", "c"])) == is_feasible(
        rs_of(["a", "b"], ["a", "c"])
    )


def test_audit_reports_family_instance():
    inst = make_instance("thm7", 8, 3)
    report = audit(inst)
    assert report.family == "thm7_circ_homo"
    assert report.parameters == {"n": 8, "k": 3}
    assert report.theoretical_lower_bound == 16
    assert report.oracle_optimum == 25
    assert report.oracle_max_over_starts == 25
    assert set(report.strategy_moves) == {"hitch", "guess"}
    assert all(m >= 25 for m in report.strategy_moves.values())
    assert not report.violation()
    assert report.notes == []


@pytest.fixture
def search_calls(monkeypatch):
    """The start carriers of every search `audit` and `exact_feasible` make, in order."""
    import pvgraph.oracle as oracle

    calls = []
    search = oracle._search

    def counted(rs, start, state_cap, rides):
        calls.append(start)
        return search(rs, start, state_cap, rides)

    monkeypatch.setattr(oracle, "_search", counted)
    return calls


def test_audit_searches_each_start_once(search_calls):
    report = audit(make_instance("thm8", 13, 3))
    assert search_calls == ["c0", "c1", "c2"]
    assert report.oracle_optimum == 62 and report.oracle_max_over_starts == 62


def test_thm8_13_6_audit_reports_its_bound_defect():
    # ROADMAP item 1: the attached bound exceeds the optimum from the pinned start
    report = audit(make_instance("thm8", 13, 6))
    assert (report.theoretical_lower_bound, report.oracle_optimum, report.oracle_max_over_starts) == (
        106, 104, 104
    )
    assert report.strategy_moves == {"hitch": 381, "guess": 104} and report.violation()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: thm8(13,6) has bound 106 over optimum 104")
def test_thm8_13_6_bound_is_at_most_its_optimum():
    report = audit(make_instance("thm8", 13, 6))
    assert report.theoretical_lower_bound <= report.oracle_optimum


def test_audit_searches_a_shared_start_site_once(search_calls):
    # all seven carriers of the hub family start on x0
    report = audit(make_instance("thm7", 15, 7))
    assert search_calls == ["c0"]
    assert report.oracle_max_over_starts == report.oracle_optimum == 104


def test_exact_feasible_stops_at_the_first_uncoverable_site(search_calls):
    # c0 never reaches c, and c1 never leaves it
    assert not exact_feasible(rs_of(["a", "b"], ["c"]))
    assert search_calls == ["c0"]


def test_exact_feasible_searches_each_start_site_once(search_calls):
    # c0 and c1 never meet; c2 meets c0 on a and c1 on c, and starts beside c0
    rs = rs_of(["a", "b"], ["b", "c"], ["a", "c"])
    assert exact_feasible(rs) and is_feasible(rs)
    assert search_calls == ["c0", "c1"]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_per_site_search_matches_a_search_from_every_carrier(data):
    n = data.draw(st.integers(1, 6), label="n")
    k = data.draw(st.integers(1, 4), label="k")
    p = data.draw(st.integers(max(1, -(-n // k)), 6), label="p_max")
    raw = random_routeset_raw(n, k, p, data.draw(st.integers(0, 2 ** 30), label="seed"))
    routes = [(c.id, c.route.sites) for c in raw.carriers]
    if data.draw(st.booleans(), label="twin"):
        # a copy of some carrier, placed anywhere, shares its start site
        twin = data.draw(st.sampled_from(routes), label="copied")
        routes.insert(data.draw(st.integers(0, k), label="at"), (f"c{k}", twin[1]))
    rs = RouteSet.from_routes(routes, data.draw(st.sampled_from([IDS, ANONYMOUS])), raw.sites)
    inst = Instance(  # as `pvg oracle` builds it
        family="random",
        params=(("n", rs.n), ("k", rs.k), ("p", rs.max_period)),
        routeset=rs,
        bound=None,
        start=data.draw(st.sampled_from([c.id for c in rs.carriers]), label="start"),
    )
    plain = {c.id: min_moves(rs, c.id) for c in rs.carriers}
    report = audit(inst)
    uncoverable = None in plain.values()
    assert report.oracle_optimum == plain[inst.start]
    assert report.oracle_max_over_starts == (None if uncoverable else max(plain.values()))
    assert ("some start carrier cannot cover the system" in report.notes) == uncoverable
    assert exact_feasible(rs) == (not uncoverable)


REFUSED = "refused"


def capped(search, cap: int):
    """`search()`, or REFUSED where it refuses, which it may only do past `cap`."""
    try:
        return search()
    except StateSpaceTooLarge as e:
        assert e.size > cap and e.cap == cap, (e.size, e.cap, cap)
        return REFUSED


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_searches_sharing_one_ride_table_answer_as_searches_of_their_own(data):
    # the searches behind one audit share their forced rides: wherever a shared and a
    # lone search both answer they agree, every refusal lies past its cap, and the
    # carriers' order moves no optimum
    rs = data.draw(drawn_systems(7, 5, 7), label="system")
    cap = data.draw(st.integers(0, 400) | st.just(DEFAULT_STATE_CAP), label="cap")
    start = data.draw(st.sampled_from([c.id for c in rs.carriers]), label="start")
    order = data.draw(st.permutations(rs.carriers), label="order")
    shuffled = RouteSet.from_routes([(c.id, c.route.sites) for c in order], rs.mode, rs.sites)
    optima = []  # for each carrier order: carrier id -> optimum, wherever a search answered
    for system in (rs, shuffled):
        alone = {c.id: capped(lambda: min_moves(system, c.id, cap), cap) for c in system.carriers}
        shared = {}

        def collect():  # keeps the starts answered before a refusal
            for cid, opt in _per_start(system, cap):
                shared[cid] = opt

        capped(collect, cap)
        known = {cid: opt for cid, opt in alone.items() if opt is not REFUSED}
        assert all(known[cid] == opt for cid, opt in shared.items() if cid in known), (alone, shared)
        known.update(shared)
        feasible = capped(lambda: exact_feasible(system, cap), cap)
        if feasible is not REFUSED:
            assert feasible == (None not in known.values()), (feasible, known)
        inst = Instance("random", (("n", system.n), ("k", system.k)), system, None, start)
        report = capped(lambda: audit(inst, cap), cap)
        if report is not REFUSED:  # then every start site answered
            assert report.oracle_optimum == known[start]
            everywhere = None if None in known.values() else max(known.values())
            assert report.oracle_max_over_starts == everywhere, (report, known)
        optima.append(known)
    assert all(optima[0][cid] == optima[1][cid] for cid in optima[0].keys() & optima[1].keys())


def least_cap(search) -> int:
    """The least state cap under which `search(cap)` answers; a search that fits
    in a cap fits in every larger one, since the cap only decides where it stops."""
    lo, hi = 0, DEFAULT_STATE_CAP
    while lo < hi:
        mid = (lo + hi) // 2
        if capped(lambda: search(mid), mid) is REFUSED:
            lo = mid + 1
        else:
            hi = mid
    return lo


def test_a_search_is_charged_the_rides_another_search_walked():
    # thm8(13,3)'s three carriers start on three sites, and their searches share one
    # ride table; each pays for every ride it uses, so together they need the cap
    # that the costliest start needs alone, not less
    rs = make_instance("thm8", 13, 3).routeset
    alone = [least_cap(lambda cap: min_moves(rs, c.id, cap)) for c in rs.carriers]
    assert len(set(alone)) == 3
    assert least_cap(lambda cap: exact_feasible(rs, cap)) == max(alone)


def test_unknown_start_carrier_is_a_parameter_violation():
    rs = rs_of(["a", "b"])
    with pytest.raises(ParameterViolation, match="nope"):
        min_moves(rs, "nope")
    base = make_instance("thm7", 4, 2)
    with pytest.raises(ParameterViolation, match="nope"):
        audit(Instance(base.family, base.params, base.routeset, base.bound, "nope"))


def test_audit_flags_overclaimed_bound():
    base = make_instance("thm7", 4, 2)
    bogus = Instance(base.family, base.params, base.routeset, 10 ** 6, base.start)
    assert audit(bogus).violation()


def test_audit_json_shape():
    import json

    report = audit(make_instance("thm8", 7, 3))
    data = json.loads(report.to_json())
    assert list(data) == [
        "family", "parameters", "theoretical_lower_bound", "oracle_optimum",
        "oracle_max_over_starts", "strategy_moves", "notes", "violation",
    ]
    assert data["violation"] is False
    assert data["theoretical_lower_bound"] == 22
    assert data["oracle_optimum"] == 23


def test_bound_report_violation_logic():
    r = BoundReport("f", {}, 10, 12, 12)
    assert not r.violation()
    r.strategy_moves["h"] = 11  # cheaper than the proven optimum
    assert r.violation()
    assert BoundReport("f", {}, 13, 12, 12).violation()
    assert not BoundReport("f", {}, None, 12, 12).violation()
    assert not BoundReport("f", {}, 13, None, None).violation()
