from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from pvgraph import (
    HALT,
    IDS,
    HitchARide,
    IllegalAction,
    Observation,
    ParameterViolation,
    Ride,
    RouteSet,
    Trace,
    TimedEdge,
    default_move_limit,
    gen_random_feasible,
    is_homogeneous,
    replay_check,
    run,
    summary_line,
    summary_record,
    trace_to_csv,
)
from pvgraph.core import ANONYMOUS


def rs_of(*routes, mode=IDS):
    return RouteSet.from_routes([(f"c{i}", list(r)) for i, r in enumerate(routes)], mode)


class Scripted:
    """Plays back a fixed action list, then halts."""

    name = "scripted"

    def __init__(self, actions):
        self.actions = list(actions)
        self.seen = []

    def decide(self, obs: Observation):
        self.seen.append(obs)
        return self.actions.pop(0) if self.actions else HALT


def test_first_observation_is_time_zero_with_arrivals():
    rs = rs_of(["a", "b"], ["a", "c"])
    s = Scripted([HALT])
    run(rs, s, "c0")
    first = s.seen[0]
    assert first.time == 0
    assert first.current_carrier == "c0"
    assert first.arriving_carriers == {"c0", "c1"}
    assert first.site_identity == "a"


def test_anonymous_mode_hides_site_identity():
    rs = rs_of(["a", "b"], mode=ANONYMOUS)
    s = Scripted([HALT])
    run(rs, s, "c0")
    assert s.seen[0].site_identity is None


def test_steps_are_indexed_by_time():
    rs = rs_of(["a", "b", "c"])
    tr = run(rs, Scripted([Ride("c0"), Ride("c0")]), "c0")
    assert tr.steps == (
        TimedEdge(0, "c0", "a", "b"),
        TimedEdge(1, "c0", "b", "c"),
    )
    assert tr.halted
    assert tr.moves == 2
    assert tr.visited_sites == ("a", "b", "c")


def test_switching_carriers_at_a_meeting():
    rs = rs_of(["a", "b"], ["a", "c"])
    tr = run(rs, Scripted([Ride("c1"), Ride("c1")]), "c0")
    assert tr.steps[0] == TimedEdge(0, "c1", "a", "c")
    assert tr.visited_sites == ("a", "c")


def test_boarding_absent_carrier_is_illegal():
    rs = rs_of(["a", "b"], ["c", "a"])
    with pytest.raises(IllegalAction):
        run(rs, Scripted([Ride("c1")]), "c0")  # c1 is on c at t=0


def test_boarding_unknown_carrier_is_illegal():
    rs = rs_of(["a", "b"])
    with pytest.raises(IllegalAction):
        run(rs, Scripted([Ride("ghost")]), "c0")


def test_non_action_return_is_illegal():
    rs = rs_of(["a", "b"])
    with pytest.raises(IllegalAction):
        run(rs, Scripted(["sideways"]), "c0")


def test_move_limit_tags_partial_trace():
    rs = rs_of(["a", "b"])

    class Forever:
        name = "forever"

        def decide(self, obs):
            return Ride("c0")

    tr = run(rs, Forever(), "c0", move_limit=5)
    assert tr.move_limit_exceeded
    assert not tr.halted
    assert tr.moves == 5


def test_default_move_limit_formula():
    rs = rs_of(["a", "b", "c"], ["a", "b"])
    assert default_move_limit(rs) == 16 * 2 * 9


def test_default_move_limit_admits_a_declared_bound():
    rs = rs_of(["a", "b", "c"], ["a", "d", "e"])
    hitch = HitchARide(20)  # proved cap (3k-2)*B^2 = 1600, far above 16*k*p^2 = 288
    assert default_move_limit(rs, hitch) == 1601
    assert default_move_limit(rs, HitchARide(3)) == 288
    tr = run(rs, HitchARide(20), "c0")
    assert tr.halted and not tr.move_limit_exceeded
    assert 288 < tr.moves <= 1600


def test_unknown_start_carrier_is_a_parameter_violation():
    with pytest.raises(ParameterViolation, match="nope"):
        run(rs_of(["a", "b"]), Scripted([]), "nope")


def test_trace_rejects_misnumbered_steps():
    with pytest.raises(ValueError):
        Trace("c0", (TimedEdge(3, "c0", "a", "b"),), True, ("a", "b"))


def test_csv_golden():
    rs = rs_of(["a", "b"], ["a", "c"])
    tr = run(rs, Scripted([Ride("c1"), Ride("c1"), Ride("c1")]), "c0")
    assert trace_to_csv(tr) == (
        "step,time,carrier,from,to,new_site\n"
        "0,0,c1,a,c,1\n"
        "1,1,c1,c,a,0\n"
        "2,2,c1,a,c,0\n"
    )


def test_summary_record_key_order_and_values():
    rs = rs_of(["a", "b"], ["a", "c"])
    tr = run(rs, Scripted([Ride("c1")]), "c0")
    rec = summary_record("toy", "scripted", rs, tr)
    assert list(rec) == ["instance", "strategy", "k", "n", "p", "moves", "halted", "covered"]
    assert rec == {
        "instance": "toy", "strategy": "scripted", "k": 2, "n": 3, "p": 2,
        "moves": 1, "halted": True, "covered": False,
    }
    assert json.loads(summary_line("toy", "scripted", rs, tr)) == rec


def test_replay_accepts_engine_output():
    rs = rs_of(["a", "b"], ["a", "c"])
    tr = run(rs, Scripted([Ride("c1"), Ride("c1"), Ride("c0")]), "c0")
    assert replay_check(rs, tr) == (True, None)


def test_replay_flags_first_bad_step():
    rs = rs_of(["a", "b"], ["a", "c"])
    tr = run(rs, Scripted([Ride("c1"), Ride("c1")]), "c0")
    doctored = Trace(
        tr.start_carrier,
        (tr.steps[0], TimedEdge(1, "c0", "c", "a")),  # c0 is on b at t=1
        tr.halted,
        tr.visited_sites,
    )
    assert replay_check(rs, doctored) == (False, 1)


def test_replay_flags_wrong_start_continuity():
    rs = rs_of(["a", "b"], ["a", "c"])
    bad = Trace("c0", (TimedEdge(0, "c1", "c", "a"),), True, ("a",))
    assert replay_check(rs, bad) == (False, 0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 10), k=st.integers(1, 4))
def test_hitch_traces_always_replay(seed, n, k):
    pmax = max(2, -(-n // k))
    rs = gen_random_feasible(n, k, pmax, seed)
    strat = HitchARide(rs.max_period, homogeneous_known=is_homogeneous(rs))
    tr = run(rs, strat, rs.carriers[0].id)
    assert tr.halted
    assert replay_check(rs, tr) == (True, None)


def test_replay_flags_unknown_carriers():
    rs = rs_of(["a", "b"], ["a", "c"])
    step = TimedEdge(0, "c0", "a", "b")
    assert replay_check(rs, Trace("zz", (step,), True, ("a", "b"))) == (False, 0)
    unknown = TimedEdge(1, "zz", "b", "a")
    assert replay_check(rs, Trace("c0", (step, unknown), True, ("a", "b"))) == (False, 1)


def test_trace_covers_the_universe_of_the_routeset():
    rs = rs_of(["a", "b"], ["a", "c"])
    tr = run(rs, Scripted([Ride("c1"), Ride("c1"), Ride("c0")]), "c0")
    assert tr.covers(rs)
    assert not run(rs, Scripted([Ride("c1")]), "c0").covers(rs)
