from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from pvgraph import (
    GuessingRide,
    HitchARide,
    NotIdMode,
    build_meeting_graph,
    default_move_limit,
    is_concrete_cover,
    is_homogeneous,
    make_instance,
    min_moves,
    run,
)
from pvgraph.core import ANONYMOUS
from pvgraph.strategies import NoNewSiteTimeout, SiteRevisitHalt

from helpers import counted, drawn_systems, rs_of, stars


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


@pytest.mark.parametrize("B", range(2, 9))
def test_hitch_covers_a_star_within_its_cap(B):
    # k = 14..22 and 32, where guess passes its 12kP cap on stars, and k = 62, where the
    # default move limit cuts guess off at B = 2
    for k in (2, 14, 15, 17, 22, 32, 62):
        rs = stars(k, B)
        tr = run(rs, HitchARide(B, homogeneous_known=True), "c0")
        assert tr.halted and tr.covers(rs), (k, B)
        assert tr.moves <= (3 * k - 2) * B, (k, B, tr.moves)


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
    rs = data.draw(drawn_systems(8, 4, 7, modes=(ANONYMOUS,)), label="system")
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


#: guess's runs from c0 on `stars(k, B)` (ROADMAP item 15): each halts with a cover,
#: but over criterion 3's cap of 12kB
GUESS_ON_STARS = [(22, 2, 545), (17, 3, 623), (15, 4, 727), (32, 4, 3_223)]


def test_a_star_is_covered_in_kb_minus_1_moves_at_best():
    # ROADMAP item 15: each carrier's leaves lie on its route alone, and it passes the hub
    # once every B moves, so a cover rides a whole lap on every carrier but the last
    searched = [(4, 2), (6, 3), (8, 4), (10, 5), (12, 2), (16, 3), (5, 5), (14, 4)]
    for k, B in searched:
        assert min_moves(stars(k, B), "c0") == k * B - 1, (k, B)
    # past about k = 20 the default cap refuses stars: these compare with kB − 1 alone.
    # Hitch halts one move past the optimum, back on the hub
    for k, B in [*searched, *((k, B) for k, B, _ in GUESS_ON_STARS), (62, 2)]:
        rs = stars(k, B)
        tr = run(rs, HitchARide(B, homogeneous_known=True), "c0")
        assert tr.halted and tr.covers(rs) and tr.moves == k * B, (k, B, tr.moves)
    for k, B, _ in GUESS_ON_STARS:
        rs = stars(k, B)
        tr = run(rs, GuessingRide(rs.n), "c0")
        assert tr.halted and tr.moves >= k * B - 1, (k, B, tr.moves)


@pytest.mark.parametrize("k,B,moves", GUESS_ON_STARS)
def test_guess_covers_a_star_in_its_recorded_moves(k, B, moves):
    rs = stars(k, B)
    tr = run(rs, GuessingRide(rs.n), "c0")
    assert tr.halted and tr.covers(rs)
    assert tr.moves == moves


@pytest.mark.xfail(strict=True, reason="ROADMAP item 15: guess exceeds criterion 3's 12kP on stars")
@pytest.mark.parametrize("k,B,moves", GUESS_ON_STARS)
def test_guess_covers_a_star_within_criterion_3s_cap(k, B, moves):
    rs = stars(k, B)
    tr = run(rs, GuessingRide(rs.n), "c0")
    assert tr.moves < 12 * k * B


def test_guess_on_the_63_site_star_is_cut_off_by_the_default_limit():
    # ROADMAP item 15: an honest run on a feasible homogeneous system, cut off
    rs = stars(62, 2)
    guess = GuessingRide(rs.n)
    assert default_move_limit(rs, guess) == 3_968
    tr = run(rs, guess, "c0")
    assert not tr.halted and not tr.covers(rs)
    assert tr.moves == 3_968


@pytest.mark.parametrize("spec,kind,moves,decides", [
    (("random", 40, 8, 30), "hitch", 6_558, 28),
    (("random", 40, 8, 30), "guess", 996, 28),
    (("thm7", 60, 10, None), "hitch", 1_000, 11),
    (("thm7", 60, 10, None), "guess", 1_050, 14),
])
def test_each_leg_is_one_decide(spec, kind, moves, decides):
    # a switch rides on, and guess stops only at its n-th site; with one-move switches
    # and a guess stop at each first visit, hitch made 40 and 20 decides here, guess 78 and 82
    inst = make_instance(*spec, seed=1)
    rs = inst.routeset
    if kind == "hitch":
        strategy = counted(HitchARide)(rs.max_period, homogeneous_known=is_homogeneous(rs))
    else:
        strategy = counted(GuessingRide)(rs.n)
    tr = run(rs, strategy, inst.start)
    assert tr.halted and tr.covers(rs)
    assert (tr.moves, strategy.calls) == (moves, decides)


def test_strategies_are_single_use():
    # internal exploration state is keyed to one run; reuse would replay
    # half-built trees, so fresh runs must construct fresh instances
    rs = rs_of(["a", "b"], ["a", "c"])
    s = HitchARide(2, homogeneous_known=True)
    first = run(rs, s, "c0")
    again = run(rs, HitchARide(2, homogeneous_known=True), "c0")
    assert first.steps == again.steps
