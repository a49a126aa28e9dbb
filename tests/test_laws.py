"""Presentation-invariance laws: a system is its schedule, and its text is one
presentation of it, so answers must not depend on how the sites are named, how many
times each route is written out, at which phase the routes are written from, or in
which order the carriers are listed."""
from __future__ import annotations

from hypothesis import given, settings, strategies as st

from pvgraph import (
    ANONYMOUS,
    IDS,
    GuessingRide,
    HitchARide,
    RouteSet,
    Walk,
    exact_feasible,
    is_concrete_cover,
    is_feasible,
    is_homogeneous,
    min_moves,
    run,
)

from helpers import drawn_systems

#: Every run gets this move limit, so both presentations are cut off alike.
MOVE_LIMIT = 2000


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_renaming_the_sites_changes_no_answer(data):
    # the renamed universe is declared in a drawn order of its own, so the library's
    # site indices, and the order in which the search's queue breaks ties, change too
    rs = data.draw(drawn_systems(7, 5, 5, shared=True), label="system")
    renamed_as = dict(zip(rs.sites, data.draw(st.permutations(rs.sites), label="names")))
    universe = data.draw(st.permutations([renamed_as[s] for s in rs.sites]), label="universe")
    renamed = RouteSet.from_routes(
        [(c.id, [renamed_as[s] for s in c.route.sites]) for c in rs.carriers], IDS, universe
    )

    starts = [c.id for c in rs.carriers]
    assert [min_moves(renamed, c) for c in starts] == [min_moves(rs, c) for c in starts]
    assert is_feasible(renamed) == is_feasible(rs)
    assert exact_feasible(renamed) == exact_feasible(rs)

    start = data.draw(st.sampled_from(starts), label="start")
    guess, guess_renamed = (run(s, GuessingRide(s.n), start, MOVE_LIMIT) for s in (rs, renamed))
    assert guess_renamed.halted == guess.halted
    assert guess_renamed.steps == Walk(
        (c, tuple(renamed_as[s] for s in cycle), offset, moves)
        for c, cycle, offset, moves in guess.steps.segments
    )

    anonymous = [RouteSet(s.carriers, ANONYMOUS, s.sites) for s in (rs, renamed)]
    hitch = [run(s, HitchARide(s.max_period, is_homogeneous(s)), start, MOVE_LIMIT) for s in anonymous]
    assert hitch[1].moves == hitch[0].moves


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_unrolling_the_routes_changes_no_answer(data):
    # each route written 1 to 3 times over is the same schedule under a longer period
    rs = data.draw(drawn_systems(7, 5, 5, shared=True), label="system")
    times = data.draw(st.lists(st.integers(1, 3), min_size=rs.k, max_size=rs.k), label="times")
    unrolled = RouteSet.from_routes(
        [(c.id, c.route.sites * m) for c, m in zip(rs.carriers, times)], rs.mode, rs.sites
    )

    starts = [c.id for c in rs.carriers]
    assert [min_moves(unrolled, c) for c in starts] == [min_moves(rs, c) for c in starts]
    assert is_feasible(unrolled) == is_feasible(rs)
    assert exact_feasible(unrolled) == exact_feasible(rs)

    start = data.draw(st.sampled_from(starts), label="start")
    guess, guess_unrolled = (run(s, GuessingRide(s.n), start, MOVE_LIMIT) for s in (rs, unrolled))
    assert guess_unrolled.halted == guess.halted
    assert guess_unrolled.steps == guess.steps  # `Walk` equality compares steps, not segments


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rotating_every_route_by_one_shift_changes_no_feasibility(data):
    # every route started s phases on is the same schedule seen from instant s: the pairs meet
    # as before, and a walk from instant s can ride its carrier on to a whole joint period
    rs = data.draw(drawn_systems(7, 5, 5, shared=True), label="system")
    shift = data.draw(st.integers(0, 60), label="shift")  # up to the joint period of 3, 4 and 5
    rotated = RouteSet.from_routes(
        [(c.id, c.route.sites[shift % c.route.period:] + c.route.sites[:shift % c.route.period])
         for c in rs.carriers], rs.mode, rs.sites
    )

    assert is_feasible(rotated) == is_feasible(rs)
    assert exact_feasible(rotated) == exact_feasible(rs)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_reordering_the_carriers_keeps_feasibility_and_the_strategies_caps(data):
    # both strategies break ties by carrier id and list order, so their walks may change;
    # on a feasible system each still halts with a cover within its proved cap
    rs = data.draw(drawn_systems(7, 5, 5, shared=True), label="system")
    order = data.draw(st.permutations(rs.carriers), label="order")
    reordered = RouteSet(tuple(order), rs.mode, rs.sites)

    assert is_feasible(reordered) == is_feasible(rs)
    assert exact_feasible(reordered) == exact_feasible(rs)
    if not is_feasible(rs):
        return
    start = data.draw(st.sampled_from([c.id for c in rs.carriers]), label="start")
    p = rs.max_period
    per = p if is_homogeneous(rs) else p * p
    caps = {"hitch": (3 * rs.k - 2) * per, "guess": 12 * rs.k * per - 1}  # guess: under 12kP
    assert max(caps.values()) < MOVE_LIMIT  # a run the limit cuts off has passed its cap
    for s in (rs, reordered):
        for kind, strategy in (("hitch", HitchARide(p, is_homogeneous(s))), ("guess", GuessingRide(s.n))):
            tr = run(s, strategy, start, MOVE_LIMIT)
            assert tr.halted and is_concrete_cover(s, tr), (kind, tr)
            assert tr.moves <= caps[kind], (kind, tr.moves, caps)
