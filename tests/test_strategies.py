from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from pvgraph import (
    GuessingRide,
    HitchARide,
    IDS,
    NotIdMode,
    RouteSet,
    build_meeting_graph,
    is_concrete_cover,
    is_homogeneous,
    make_instance,
    run,
)
from pvgraph.core import ANONYMOUS
from pvgraph.strategies import NoNewSiteTimeout, SiteRevisitHalt


def rs_of(*routes, mode=IDS):
    return RouteSet.from_routes([(f"c{i}", list(r)) for i, r in enumerate(routes)], mode)


def test_hitch_single_carrier_rides_exactly_b_moves():
    rs = rs_of(["a", "b", "c", "d"])
    tr = run(rs, HitchARide(4, homogeneous_known=True), "c0")
    assert tr.halted and tr.covers(rs)
    assert tr.moves == 4  # one full visit window, then home, then done


def test_hitch_works_in_anonymous_mode():
    rs = rs_of(["a", "b"], ["a", "c"], mode=ANONYMOUS)
    tr = run(rs, HitchARide(2, homogeneous_known=True), "c0")
    assert tr.halted and tr.covers(rs)


def test_hitch_respects_move_budget_across_family_corpus():
    for family, params in [
        ("thm3", (12, 4, 6)), ("thm4", (9, 3, 5)), ("siho", (8, 3)),
        ("thm7", (8, 3)), ("thm8", (13, 3)),
    ]:
        inst = make_instance(family, *params)
        rs = inst.routeset
        homog = is_homogeneous(rs)
        b = rs.max_period
        bprime = b if homog else b * b
        for c in rs.carriers:
            tr = run(rs, HitchARide(b, homogeneous_known=homog), c.id)
            assert tr.halted and tr.covers(rs), (family, c.id)
            assert tr.moves <= (3 * rs.k - 2) * bprime, (family, c.id, tr.moves)
            assert is_concrete_cover(rs, tr)


def test_hitch_with_loose_bound_still_covers():
    rs = rs_of(["a", "b"], ["a", "c"])
    tr = run(rs, HitchARide(7, homogeneous_known=True), "c0")  # B > p is allowed
    assert tr.halted and tr.covers(rs)
    assert tr.moves <= (3 * 2 - 2) * 7


def test_hitch_heterogeneous_squares_its_window():
    rs = rs_of(["a", "b"], ["b", "c", "a"])
    tr = run(rs, HitchARide(3), "c0")
    assert tr.halted and tr.covers(rs)
    assert tr.moves <= (3 * 2 - 2) * 9


def test_hitch_visits_every_meeting_neighbor():
    # the traversal is a spanning tree of the meeting graph: every carrier
    # adjacent to the start must be boarded at some point
    inst = make_instance("thm3", 12, 4, 6)
    rs = inst.routeset
    tr = run(rs, HitchARide(6, homogeneous_known=True), inst.start)
    boarded = {s.carrier for s in tr.steps}
    assert boarded >= build_meeting_graph(rs)[inst.start] | {inst.start}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_hitch_halts_before_the_move_limit_whatever_its_bound(data):
    # a seek waits for a carrier its own route meets again, and the root halts
    # once none it met is pending, so no run rides on until the limit cuts it off
    n = data.draw(st.integers(1, 8), label="n")
    k = data.draw(st.integers(1, 4), label="k")
    routes = [
        data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=7), label=f"c{i}")
        for i in range(k)
    ]
    rs = rs_of(*[[f"s{x}" for x in r] for r in routes], mode=ANONYMOUS)
    start = data.draw(st.sampled_from([c.id for c in rs.carriers]), label="start")
    bound = data.draw(st.integers(1, rs.max_period + 2), label="B")
    known = data.draw(st.booleans(), label="homogeneous_known")
    hitch = HitchARide(bound, homogeneous_known=known)
    tr = run(rs, hitch, start)
    assert tr.halted
    if bound >= rs.max_period and (is_homogeneous(rs) or not known):
        # an honest bound: the whole meeting-graph component, within (3k-2)B' moves
        mg, comp, frontier = build_meeting_graph(rs), {start}, [start]
        while frontier:  # grow start's component over the mapping
            fresh = mg[frontier.pop()] - comp
            comp |= fresh
            frontier += fresh
        assert {rs.carrier(start).route.at(0), *tr.steps.tos} == {s for c in comp for s in rs.carrier(c).route.domain}
        assert tr.moves <= hitch.move_bound(rs)


def test_guess_halts_the_instant_count_is_reached():
    rs = rs_of(["a", "b", "c"])
    tr = run(rs, GuessingRide(3), "c0")
    assert tr.halted and tr.covers(rs)
    assert len({"a", *tr.steps.tos}) == 3
    # the last move discovers the final site; no loitering afterwards
    assert tr.steps[-1].to_site not in {s.from_site for s in tr.steps}


def test_guess_zero_moves_when_start_site_is_everything():
    rs = rs_of(["only"])
    tr = run(rs, GuessingRide(1), "c0")
    assert tr.halted and tr.moves == 0 and tr.covers(rs)


def test_guess_requires_site_identities():
    rs = rs_of(["a", "b"], mode=ANONYMOUS)
    with pytest.raises(NotIdMode):
        run(rs, GuessingRide(2), "c0")


@pytest.mark.parametrize("make", [NoNewSiteTimeout, SiteRevisitHalt])
def test_site_counting_halts_require_site_identities(make):
    rs = rs_of(["a", "b"], mode=ANONYMOUS)
    with pytest.raises(NotIdMode):
        run(rs, make(2), "c0")


@pytest.mark.parametrize("make,message", [
    (lambda: HitchARide(0), "bound must be >= 1"),
    (lambda: GuessingRide(0), "n must be >= 1"),
], ids=["hitch-bound-0", "guess-n-0"])
def test_a_strategy_needs_positive_parameters(make, message):
    with pytest.raises(ValueError) as ei:
        make()
    assert str(ei.value) == message


def test_guess_respects_cost_budget_across_family_corpus():
    for family, params in [
        ("thm3", (9, 3, 5)), ("thm4", (9, 3, 5)), ("siho", (8, 3)),
        ("thm7", (8, 4)), ("thm8", (7, 3)),
    ]:
        inst = make_instance(family, *params)
        rs = inst.routeset
        p = rs.max_period
        cap = 12 * rs.k * (p if is_homogeneous(rs) else p * p)
        for c in rs.carriers:
            tr = run(rs, GuessingRide(rs.n), c.id)
            assert tr.halted and tr.covers(rs), (family, c.id)
            assert tr.moves < cap, (family, c.id, tr.moves, cap)


def test_strategies_are_single_use():
    # internal exploration state is keyed to one run; reuse would replay
    # half-built trees, so fresh runs must construct fresh instances
    rs = rs_of(["a", "b"], ["a", "c"])
    s = HitchARide(2, homogeneous_known=True)
    first = run(rs, s, "c0")
    again = run(rs, HitchARide(2, homogeneous_known=True), "c0")
    assert first.steps == again.steps
