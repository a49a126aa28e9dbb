from __future__ import annotations

import copy
import csv
import dataclasses
import io
import json
import math
import pickle
import tracemalloc
from itertools import count
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pvgraph import (
    HALT,
    IDS,
    GuessingRide,
    HitchARide,
    IllegalAction,
    Observation,
    ParameterViolation,
    Ride,
    RouteSet,
    Trace,
    TimedEdge,
    Walk,
    carriers_at,
    default_move_limit,
    gen_random_feasible,
    is_concrete_cover,
    is_homogeneous,
    make_instance,
    replay_check,
    run,
    summary_line,
    summary_record,
    trace_to_csv,
)
import pvgraph.engine
from pvgraph.core import ANONYMOUS
from pvgraph.engine import _walk_fault


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


class RandomRider:
    """Boards a drawn member of each arrival set for `moves` moves, then halts."""

    def __init__(self, rng, moves):
        self.rng = rng
        self.left = moves
        self.seen = []

    def decide(self, obs: Observation):
        self.seen.append(obs)
        if self.left == 0:
            return HALT
        self.left -= 1
        return Ride(self.rng.choice(sorted(obs.arriving_carriers)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_arrivals_match_the_reference_scan(data):
    n = data.draw(st.integers(1, 6), label="n")
    k = data.draw(st.integers(1, 4), label="k")
    routes = [
        data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12), label=f"c{i}")
        for i in range(k)
    ]
    mode = data.draw(st.sampled_from([IDS, ANONYMOUS]), label="mode")
    rs = rs_of(*[[f"s{x}" for x in r] for r in routes], mode=mode)
    moves = math.lcm(*map(len, routes)) + 3  # every phase pairing, then some
    rider = RandomRider(data.draw(st.randoms(use_true_random=False)), moves)
    start = data.draw(st.sampled_from([c.id for c in rs.carriers]), label="start")
    tr = run(rs, rider, start, move_limit=moves + 1)
    assert tr.halted and tr.moves == moves
    assert replay_check(rs, tr) == (True, None)
    for obs in rider.seen:
        site = rs.carrier(obs.current_carrier).route.at(obs.time)
        assert obs.arriving_carriers == carriers_at(rs, obs.time, site)
        assert obs.site_identity == (site if mode == IDS else None)


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
    with pytest.raises(IllegalAction):
        run(rs, Scripted([("c0",)]), "c0")  # equal to Ride("c0"), but not a Ride


def _records():
    """One of each per-move record, and a trace, freshly built."""
    step = TimedEdge(0, "c0", "a", "b")
    return [
        Observation(0, "c0", frozenset({"c0", "c1"}), "a"),
        Ride("c1"),
        Ride("c1", 2),
        step,
        Trace("c0", (step,), True, ("a", "b")),
    ]


def test_records_are_immutable():
    for record in _records():
        names = record._fields if isinstance(record, tuple) else [
            f.name for f in dataclasses.fields(record)
        ]
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))


def test_records_with_equal_fields_are_equal_and_hash_alike():
    for a, b in zip(_records(), _records()):
        assert a is not b and a == b and hash(a) == hash(b)
    assert isinstance(Ride("c1"), Ride) and Ride("c1") == ("c1", 1) == Ride("c1", 1)
    assert Ride("c1", 2) == ("c1", 2) and Ride("c1", 2) != Ride("c1")
    assert Ride("c1") != Ride("c2") and HALT != Ride("c1")


def test_steps_and_traces_take_dataclass_replace():
    step = TimedEdge(0, "c0", "a", "b")
    assert dataclasses.replace(step, to_site="c") == TimedEdge(0, "c0", "a", "c")
    tr = Trace("c0", (step,), True, ("a", "b"))
    assert dataclasses.replace(tr, halted=False) == Trace("c0", (step,), False, ("a", "b"))
    with pytest.raises(ValueError):  # replace re-runs the step numbering check
        dataclasses.replace(tr, steps=(dataclasses.replace(step, time=1),))


def test_steps_are_slotted():
    assert not hasattr(TimedEdge(0, "c0", "a", "b"), "__dict__")


def _four_moves():
    rs = rs_of(["a", "b"], ["a", "c"])
    tr = run(rs, Scripted([Ride("c1"), Ride("c1"), Ride("c0"), Ride("c0")]), "c0")
    steps = (
        TimedEdge(0, "c1", "a", "c"),
        TimedEdge(1, "c1", "c", "a"),
        TimedEdge(2, "c0", "a", "b"),
        TimedEdge(3, "c0", "b", "a"),
    )
    return tr, steps


def test_walk_indexes_like_the_tuple_of_its_steps():
    tr, steps = _four_moves()
    walk = tr.steps
    assert isinstance(walk, Walk) and len(walk) == 4
    for i in range(-4, 4):
        assert walk[i] == steps[i]
    for i in (4, -5):
        with pytest.raises(IndexError):
            walk[i]
    cuts = [slice(None), slice(1, 3), slice(-2, None), slice(None, None, -2), slice(5, 9)]
    cuts += [slice(3, 0, -1), slice(None, 1, -1), slice(2, 2), slice(-1, -5, -3), slice(0, 4, 3)]
    for cut in cuts:
        assert walk[cut] == steps[cut]
    assert [type(s) for s in walk] == [TimedEdge] * 4 and tuple(walk) == steps
    with pytest.raises(AttributeError):
        walk.tos = ()


def test_walk_equals_and_hashes_like_its_steps():
    tr, steps = _four_moves()
    walk = tr.steps
    assert walk == steps and steps == walk and hash(walk) == hash(steps)
    columns = Walk.of(map(TimedEdge, count(), walk.carriers, walk.froms, walk.tos))
    assert walk == Walk.of(steps) == columns
    assert walk != steps[:3] and walk != Walk.of(steps[:3]) and walk != list(steps)
    back = Trace(tr.start_carrier, tuple(tr.steps), tr.halted, tr.visited_sites)
    assert isinstance(back.steps, Walk) and back == tr and hash(back) == hash(tr)
    assert copy.deepcopy(tr) == tr


def test_a_walk_slice_builds_the_steps_up_to_its_far_end_only(monkeypatch):
    rs = rs_of(["a", "b", "c"])
    walk = run(rs, Scripted([Ride("c0")] * 1000), "c0", move_limit=2000).steps
    assert len(walk) == 1000 and len(walk.segments) == 1
    built = []
    monkeypatch.setattr(pvgraph.engine, "TimedEdge", lambda *step: built.append(step) or step)
    assert walk[1:3] == ((1, "c0", "b", "c"), (2, "c0", "c", "a")) and len(built) == 3
    assert walk[4:0:-2] == ((4, "c0", "b", "c"), (2, "c0", "c", "a")) and len(built) == 8


def test_run_and_its_readers_build_no_step_objects(monkeypatch):
    def refuse(*args):
        raise AssertionError("a TimedEdge was built")

    inst = make_instance("thm7", 12, 4)
    rs = inst.routeset
    monkeypatch.setattr(pvgraph.engine, "TimedEdge", refuse)
    tr = run(rs, HitchARide(rs.max_period, homogeneous_known=is_homogeneous(rs)), inst.start)
    assert replay_check(rs, tr) == (True, None)
    assert is_concrete_cover(rs, tr) and tr.covers(rs)
    assert trace_to_csv(tr).count("\n") == tr.moves + 1


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
    with pytest.raises(ValueError, match="step 1 timed 0"):
        Walk.of([TimedEdge(0, "c0", "a", "b"), TimedEdge(0, "c0", "b", "a")])


def test_csv_golden():
    rs = rs_of(["a", "b"], ["a", "c"])
    tr = run(rs, Scripted([Ride("c1"), Ride("c1"), Ride("c1")]), "c0")
    assert trace_to_csv(tr) == (
        "step,time,carrier,from,to,new_site\n"
        "0,0,c1,a,c,1\n"
        "1,1,c1,c,a,0\n"
        "2,2,c1,a,c,0\n"
    )


def test_csv_is_built_without_a_list_of_rows():
    inst = make_instance("sihe", 40, 4)
    rs = inst.routeset
    tr = run(rs, HitchARide(rs.max_period, homogeneous_known=is_homogeneous(rs)), inst.start)
    assert tr.moves > 100_000
    tracemalloc.start()
    try:
        csv = trace_to_csv(tr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the finished string plus its blocks; one joined list of every row reads ~4.5x
    assert peak < 3 * len(csv), (peak, len(csv))


def reference_csv(trace: Trace) -> str:
    """`csv.writer` a row; a step is new iff its site is not the start's or an earlier arrival."""
    out = io.StringIO()
    out.write(pvgraph.engine.CSV_HEADER + "\n")
    rows = csv.writer(out, lineterminator="\n")
    seen = {trace.visited_sites[0]} if trace.visited_sites else set()
    walk = trace.steps
    for i, carrier, frm, to in zip(range(len(walk)), walk.carriers, walk.froms, walk.tos):
        rows.writerow([i, i, carrier, frm, to, 0 if to in seen else 1])
        seen.add(to)
    return out.getvalue()


@pytest.mark.parametrize("block", [10, pvgraph.engine.CSV_BLOCK])  # powers of ten
@pytest.mark.parametrize("span", ["short", "B-1", "B", "B+1", "2B+1"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_csv_matches_the_row_by_row_reference(block, span, data):
    kind = data.draw(
        st.sampled_from(["walk", "no moves", "revisits start", "no visited sites"]), label="kind"
    )
    lengths = {"short": None, "B-1": block - 1, "B": block, "B+1": block + 1, "2B+1": 2 * block + 1}
    m = lengths[span] if lengths[span] is not None else data.draw(st.integers(1, 30), label="m")
    if kind == "no moves":
        m = 0
    names = st.sampled_from([*"abcde", "a,b", 'q"t'])  # the last two must be quoted
    carrier_ids = st.sampled_from(["c0", "c1", "c2", "c{0}", "a}", "a{{b", "c{}", "a,b", 'q"t'])
    # a short drawn pattern of steps, lawful or not, repeated over the walk
    pattern = data.draw(
        # any non-whitespace token is a carrier id, so ids with format braces are drawn too
        st.lists(st.tuples(carrier_ids, names, names), min_size=1, max_size=8),
        label="pattern",
    )
    steps = [pattern[i % len(pattern)] for i in range(m)]
    carriers, froms, tos = [c for c, _, _ in steps], [f for _, f, _ in steps], [t for _, _, t in steps]
    # sites that first arrive late, some next to a block edge, some arriving twice
    edges = [i for i in range(m) if i % block in (0, 1, block - 1)]
    at = st.one_of(st.sampled_from(edges), st.integers(0, m - 1)) if m else st.nothing()
    for site in "xyz" if m else "":
        for _ in range(data.draw(st.integers(0, 2), label=f"arrivals at {site}")):
            tos[data.draw(at, label=f"{site} at")] = site
    start = data.draw(names, label="start site")
    if kind == "revisits start":
        for _ in range(data.draw(st.integers(1, 3), label="returns")):
            tos[data.draw(at, label="return at")] = start
    visited = () if kind == "no visited sites" else tuple(dict.fromkeys([start, *tos]))
    tr = Trace("c0", Walk.of(map(TimedEdge, count(), carriers, froms, tos)), False, visited)
    with mock.patch.object(pvgraph.engine, "CSV_BLOCK", block):
        assert trace_to_csv(tr).encode() == reference_csv(tr).encode()


def test_csv_writes_carrier_ids_with_format_braces_as_they_are():
    ids = ["c{0}", "a}", "a{{b", "c{}"]
    rs = RouteSet.from_routes(list(zip(ids, (["a", "b"], ["a", "c"], ["a", "d"], ["a", "e"]))), IDS)
    tr = run(rs, HitchARide(2, homogeneous_known=True), ids[0])
    assert set(tr.steps.carriers) == set(ids) and tr.covers(rs)
    assert trace_to_csv(tr) == reference_csv(tr)


def test_csv_quotes_names_that_hold_a_comma_or_a_quote():
    ids = ["c,1", 'q"t', "c2"]
    routes = (["a,b", 'x"y'], ["a,b", "s"], ['"', "s"])
    rs = RouteSet.from_routes(list(zip(ids, routes)), IDS)
    tr = run(rs, HitchARide(2, homogeneous_known=True), ids[0])
    assert set(tr.steps.carriers) == set(ids) and tr.covers(rs)
    text = trace_to_csv(tr)
    assert text == reference_csv(tr) and '"c,1","a,b","x""y",' in text
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == pvgraph.engine.CSV_HEADER.split(",") and len(rows) == tr.moves + 1
    assert all(len(row) == 6 for row in rows)
    steps = [(s.carrier, s.from_site, s.to_site) for s in tr.steps]
    assert [tuple(row[2:5]) for row in rows[1:]] == steps


@pytest.mark.parametrize("block", [10, 100])
def test_csv_step_numbers_cross_every_digit_count_of_the_block_prefix(block):
    # with 10 rows a block, the prefix runs "", "1", ..., "9", "10", ..., "99", "100", ...,
    # "999", "1000", ..., "1004"; with 100, the table entries after it are zero-padded ("07,")
    m = 10_050
    sites = "abcdefg"
    tos = [sites[(i * i) % 7] for i in range(m)]
    tos[9_995] = tos[10_000] = "x"  # a late first arrival, and a return to it, in block 1000
    froms = ["a", *tos[:-1]]
    carriers = [f"c{i % 3}" for i in range(m)]
    walk = Walk.of(map(TimedEdge, count(), carriers, froms, tos))
    tr = Trace("c0", walk, False, tuple(dict.fromkeys(["a", *tos])))
    with mock.patch.object(pvgraph.engine, "CSV_BLOCK", block):
        csv = trace_to_csv(tr)
    assert csv.encode() == reference_csv(tr).encode()
    rows = csv.splitlines()
    assert rows[91] == f"90,90,c0,{froms[90]},{tos[90]},0"
    assert rows[10_001].startswith("10000,10000,")
    assert rows[9_996].endswith(",x,1") and rows[10_001].endswith(",x,0")


def test_a_walk_holds_under_64_kib_whatever_its_moves():
    inst = make_instance("sihe", 40, 4)
    rs = inst.routeset
    rs.schedule  # built on first use; a cost of the system, not of the walk
    strategy = HitchARide(rs.max_period, homogeneous_known=is_homogeneous(rs))
    tracemalloc.start()
    try:
        tr = run(rs, strategy, inst.start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.moves == 103_055
    # a few ride segments sharing the routes' site tuples; three columns of names read ~3.3 MiB
    assert peak < 64 * 1024, peak
    inst = make_instance("sihe", 48, 5)
    rs = inst.routeset
    trace = run(rs, HitchARide(rs.max_period, homogeneous_known=is_homogeneous(rs)), inst.start)
    assert trace.moves > 250_000
    assert len(pickle.dumps(trace)) < 64 * 1024  # the columns pickled read ~1.5 MiB
    assert copy.deepcopy(trace) == trace


def test_a_hand_built_walk_holds_one_path_segment_a_ride():
    inst = make_instance("sihe", 40, 4)
    rs = inst.routeset
    tr = run(rs, HitchARide(rs.max_period, homogeneous_known=is_homogeneous(rs)), inst.start)
    steps = tuple(tr.steps)
    tracemalloc.start()
    try:
        walk = Walk.of(steps)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert walk == tr.steps and len(walk.segments) == len(tr.steps.segments)
    # one path tuple of site names a segment; a 4-tuple and a 2-tuple a step read ~136 B/move
    assert size < 16 * tr.moves, size / tr.moves


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


def test_replay_flags_a_tampered_step():
    inst = make_instance("thm7", 12, 4)
    rs = inst.routeset
    trace = run(rs, HitchARide(rs.max_period, homogeneous_known=is_homogeneous(rs)), inst.start)
    steps = list(trace.steps)
    wrong = next(site for site in rs.sites if site != steps[3].to_site)
    steps[3] = dataclasses.replace(steps[3], to_site=wrong)
    assert replay_check(rs, dataclasses.replace(trace, steps=tuple(steps))) == (False, 3)


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


class DecideOnly:
    """Passes on a strategy's actions one move at a time, so it is asked at every instant."""

    def __init__(self, inner):
        self.inner = inner

    def decide(self, obs: Observation):
        action = self.inner.decide(obs)
        return Ride(action.carrier) if isinstance(action, Ride) else action


class RideOn:
    """Rides its carrier forever, asking for `moves` moves at a time."""

    def __init__(self, moves=10**9):
        self.moves = moves
        self.asked = []  # the instants it was asked at

    def decide(self, obs: Observation):
        self.asked.append(obs.time)
        return Ride(obs.current_carrier, self.moves)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_long_rides_match_deciding_every_instant(data):
    n = data.draw(st.integers(1, 10), label="n")
    k = data.draw(st.integers(1, 4), label="k")
    shared = data.draw(st.none() | st.integers(1, 8), label="shared period")
    periods = [shared or data.draw(st.integers(1, 8), label=f"p{i}") for i in range(k)]
    routes = [
        data.draw(st.lists(st.integers(0, n - 1), min_size=p, max_size=p), label=f"c{i}")
        for i, p in enumerate(periods)
    ]
    mode = data.draw(st.sampled_from([IDS, ANONYMOUS]), label="mode")
    rs = rs_of(*[[f"s{x}" for x in r] for r in routes], mode=mode)
    start = data.draw(st.sampled_from([c.id for c in rs.carriers]), label="start")
    if mode == IDS and data.draw(st.booleans(), label="guess"):
        g0 = data.draw(st.integers(1, 12), label="g0")
        make = lambda: GuessingRide(rs.n, g0)
    else:
        # B < p may leave carriers unmet: such runs still halt, some without covering
        bound = data.draw(st.integers(1, rs.max_period + 2), label="B")
        known = data.draw(st.booleans(), label="homogeneous_known")
        make = lambda: HitchARide(bound, homogeneous_known=known)
    riding, deciding = make(), make()
    limit = default_move_limit(rs, riding)
    assert run(rs, riding, start, limit) == run(rs, DecideOnly(deciding), start, limit)
    assert vars(riding) == vars(deciding)


def test_a_skip_records_every_first_visit_it_crosses_in_order():
    rs = rs_of(["a", "b", "c", "d", "e"], ["a", "x"], mode=ANONYMOUS)
    rider = RideOn()
    tr = run(rs, rider, "c0", move_limit=12)
    # c1 is listed at phase 0 only, and stands on a at even instants: at t=5 it is on x,
    # so the ask at t=1 rides on past it, more than a lap, and stops at t=10 on a
    assert rider.asked == [0, 1, 10, 11]
    assert tr == run(rs, DecideOnly(RideOn()), "c0", move_limit=12)
    assert tr.visited_sites == ("a", "b", "c", "d", "e")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_lone_ride_stops_where_company_stands_and_nowhere_it_need_not(data):
    n = data.draw(st.integers(1, 6), label="n")
    k = data.draw(st.integers(1, 4), label="k")
    routes = [
        data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8), label=f"c{i}")
        for i in range(k)
    ]
    mode = data.draw(st.sampled_from([IDS, ANONYMOUS]), label="mode")
    rs = rs_of(*[[f"s{x}" for x in r] for r in routes], mode=mode)
    start = data.draw(st.sampled_from([c.id for c in rs.carriers]), label="start")
    limit = data.draw(st.integers(1, 80), label="limit")
    rider = RideOn()
    tr = run(rs, rider, start, move_limit=limit)
    assert tr == run(rs, DecideOnly(RideOn()), start, move_limit=limit)
    here = [rs.by_id[start].route.at(0), *tr.steps.tos]  # the agent's site at each instant
    met = [len(carriers_at(rs, u, here[u])) > 1 for u in range(tr.moves)]
    new = [u == 0 or here[u] not in here[:u] for u in range(tr.moves)]
    asked = set(rider.asked)
    assert rider.asked[0] == 0 and rider.asked == sorted(asked)
    assert all(u in asked for u in range(tr.moves) if met[u])  # asked wherever company stands
    for a, u in zip(rider.asked, [*rider.asked[1:], tr.moves]):
        # no ask it could have skipped: after company, company, an unseen site or the limit
        assert met[a] and u == a + 1 or u == tr.moves or met[u] or (mode == IDS and new[u]), (a, u)


def test_a_move_limit_inside_a_skip_cuts_the_same_partial_trace():
    rs = rs_of(["a", "b", "c", "d", "e"], mode=ANONYMOUS)
    rider = RideOn()
    tr = run(rs, rider, "c0", move_limit=7)
    assert rider.asked == [0]  # one lone ride, however many laps, cut to the limit
    assert tr.move_limit_exceeded and not tr.halted and tr.moves == 7
    assert tr == run(rs, DecideOnly(RideOn()), "c0", move_limit=7)


@pytest.mark.parametrize("moves", [0, -1, 2.5, "3", True])
def test_a_ride_of_other_than_a_positive_int_of_moves_is_illegal(moves):
    rs = rs_of(["a", "b", "c"], mode=ANONYMOUS)
    with pytest.raises(IllegalAction, match="moves"):
        run(rs, RideOn(moves), "c0", move_limit=10)


class DecideProxy:
    """Forwards only `decide`, as a timing wrapper does, and not `move_bound`."""

    def __init__(self, inner):
        self.inner = inner

    def decide(self, obs: Observation):
        return self.inner.decide(obs)


def counted(cls):
    """`cls` with a count of its `decide` calls."""

    class Counted(cls):
        calls = 0

        def decide(self, obs):
            self.calls += 1
            return super().decide(obs)

    return Counted


@pytest.mark.parametrize("kind", ["hitch", "guess"])
def test_a_wrapper_that_forwards_only_decide_keeps_the_long_rides(kind):
    inst = make_instance("sihe", 36, 4)
    rs = inst.routeset
    if kind == "hitch":
        make = lambda: counted(HitchARide)(rs.max_period, homogeneous_known=is_homogeneous(rs))
    else:
        make = lambda: counted(GuessingRide)(rs.n)
    bare, wrapped = make(), make()
    limit = default_move_limit(rs, bare)
    tr = run(rs, bare, inst.start, limit)
    assert tr.halted and tr.covers(rs)
    assert tr == run(rs, DecideProxy(wrapped), inst.start, limit)
    assert bare.calls == wrapped.calls < tr.moves / 100


def reference_fault(rs, trace):
    """`_walk_fault` checked step by step: the reference the whole-run comparisons keep to."""
    by_id = rs.by_id
    if trace.start_carrier not in by_id:
        return 0, f"no start carrier {trace.start_carrier!r}"
    here = by_id[trace.start_carrier].route.sites[0]
    for i, step in enumerate(trace.steps):
        c = by_id.get(step.carrier)
        if c is None:
            return i, f"step {i} rides unknown carrier {step.carrier!r}"
        if step.from_site != here:
            return i, f"step {i} departs {step.from_site} but the agent stands on {here}"
        if c.route.at(i) != here or c.route.at(i + 1) != step.to_site:
            return i, (f"step {i}: carrier {step.carrier} does not activate "
                       f"({step.from_site} -> {step.to_site}) at time {i}")
        here = step.to_site
    return None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_walk_faults_match_the_step_by_step_reference(data):
    n = data.draw(st.integers(1, 8), label="n")
    k = data.draw(st.integers(1, 3), label="k")
    routes = [
        data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6), label=f"c{i}")
        for i in range(k)
    ]
    rs = rs_of(*[[f"s{x}" for x in r] for r in routes])
    moves = data.draw(st.integers(0, 40), label="moves")
    start = data.draw(st.sampled_from([c.id for c in rs.carriers]), label="start")
    rider = RandomRider(data.draw(st.randoms(use_true_random=False)), moves)
    tr = run(rs, rider, start, move_limit=moves + 1)
    columns = {"carriers": list(tr.steps.carriers), "froms": list(tr.steps.froms),
               "tos": list(tr.steps.tos)}
    names = {"carriers": [c.id for c in rs.carriers] + ["ghost"],
             "froms": list(rs.sites) + ["nowhere"], "tos": list(rs.sites) + ["nowhere"]}
    for _ in range(data.draw(st.integers(0, 3), label="edits") if moves else 0):
        column = data.draw(st.sampled_from(sorted(columns)), label="column")
        at = data.draw(st.integers(0, moves - 1), label="at")
        columns[column][at] = data.draw(st.sampled_from(names[column]), label="to")
    start = data.draw(st.sampled_from([start, *names["carriers"]]), label="start carrier")
    edited = map(TimedEdge, count(), columns["carriers"], columns["froms"], columns["tos"])
    tampered = Trace(start, Walk.of(edited), tr.halted, tr.visited_sites)
    fault = reference_fault(rs, tampered)
    assert _walk_fault(rs, tampered) == fault
    # a lawful run-made walk is never sliced: each segment checks its first departure only
    scan = mock.Mock(wraps=pvgraph.engine._arc)
    with mock.patch.object(pvgraph.engine, "_arc", scan):
        assert _walk_fault(rs, tr) is None
    assert not scan.called
    assert replay_check(rs, tampered) == ((True, None) if fault is None else (False, fault[0]))


def steps_of(segments):
    """The steps of `segments`, decoded one by one: the reference for `Walk`'s own decoding."""
    steps, t = [], 0
    for cid, cycle, offset, moves in segments:
        for j in range(moves):
            q = len(cycle)
            steps.append(TimedEdge(t, cid, cycle[(offset + j) % q], cycle[(offset + j + 1) % q]))
            t += 1
    return tuple(steps)


def drawn_system(data, max_k=3, max_period=6):
    n = data.draw(st.integers(1, 8), label="n")
    k = data.draw(st.integers(1, max_k), label="k")
    routes = [
        data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=max_period), label=f"c{i}")
        for i in range(k)
    ]
    mode = data.draw(st.sampled_from([IDS, ANONYMOUS]), label="mode")
    return rs_of(*[[f"s{x}" for x in r] for r in routes], mode=mode)


def drawn_run(data, rs):
    """A run on `rs` by a random rider (short segments) or hitch (long ones)."""
    start = data.draw(st.sampled_from([c.id for c in rs.carriers]), label="start")
    if data.draw(st.booleans(), label="hitch"):
        bound = data.draw(st.integers(1, rs.max_period + 2), label="B")
        return run(rs, HitchARide(bound, homogeneous_known=is_homogeneous(rs)), start)
    moves = data.draw(st.integers(1, 40), label="moves")
    rider = RandomRider(data.draw(st.randoms(use_true_random=False)), moves)
    return run(rs, rider, start, move_limit=moves + 1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_segment_edits_are_judged_like_the_step_by_step_reference(data):
    rs = drawn_system(data)
    tr = drawn_run(data, rs)
    segments = list(tr.steps.segments)
    assert tuple(tr.steps) == steps_of(segments)
    if not segments:
        return
    at = data.draw(st.integers(0, len(segments) - 1), label="segment")
    cid, cycle, offset, moves = segments[at]
    q = len(cycle)
    edits = ["offset", "carrier", "ghost", "cycle", "head", "tail"]
    edit = data.draw(st.sampled_from(edits), label="edit")
    if edit == "offset":
        offset = (offset + data.draw(st.integers(1, q), label="shift")) % q
    elif edit == "carrier":  # another carrier whose route holds the site, ridden from its phase
        others = [c for c in rs.carriers if c.id != cid and cycle[offset] in c.route.domain]
        if others:
            other = data.draw(st.sampled_from(others), label="carrier")
            t = sum(s[3] for s in segments[:at])
            cid, cycle, offset = other.id, other.route.sites, t % other.route.period
        else:
            cid = "ghost"
    elif edit == "ghost":
        cid = "ghost"
    elif edit == "cycle":  # a foreign cycle of the same length
        sites = st.sampled_from([*rs.sites, "nowhere"])
        cycle = tuple(data.draw(st.lists(sites, min_size=q, max_size=q), label="cycle"))
    else:  # add or drop a move at the segment's first or last edge
        more = data.draw(st.booleans(), label="add")
        if edit == "head":
            offset = (offset + (-1 if more else 1)) % q
        moves += 1 if more else -1
    segments[at] = (cid, cycle, offset, moves)
    edited = Walk([s for s in segments if s[3]])
    assert tuple(edited) == steps_of(edited.segments)
    tampered = Trace(tr.start_carrier, edited, tr.halted, tr.visited_sites)
    fault = reference_fault(rs, tampered)
    assert _walk_fault(rs, tampered) == fault
    assert replay_check(rs, tampered) == ((True, None) if fault is None else (False, fault[0]))


def assert_the_two_forms_agree(rs, tr):
    walk = tr.steps
    hand = Walk.of(map(TimedEdge, count(), walk.carriers, walk.froms, walk.tos))
    assert walk == hand and hand == walk and hash(walk) == hash(hand)
    # one path segment a ride: a run switches carriers between its segments
    assert len(hand.segments) == len(walk.segments)
    assert all(offset == 0 and len(path) == moves + 1 for _, path, offset, moves in hand.segments)
    if walk:  # a step on the same carrier that departs elsewhere starts a segment of its own
        last = walk[-1]
        broken = Walk.of((*walk, TimedEdge(len(walk), last.carrier, "nowhere", last.to_site)))
        assert len(broken.segments) == len(walk.segments) + 1
    hand_built = Trace(tr.start_carrier, hand, tr.halted, tr.visited_sites)
    csv = trace_to_csv(tr).encode()
    assert csv == trace_to_csv(hand_built).encode() == reference_csv(tr).encode()
    assert is_concrete_cover(rs, tr) == is_concrete_cover(rs, hand_built)


@pytest.mark.parametrize("spec", [
    ("thm7", 12, 4), ("sihe", 36, 4), ("siho", 12, 3), ("thm8", 13, 3), ("thm4", 9, 3, 5),
    ("thm3", 10, 3, 5), ("random", 10, 3, 4),
])
@pytest.mark.parametrize("kind", ["hitch", "guess"])
def test_a_run_made_walk_and_its_hand_built_copy_agree_on_families(spec, kind):
    inst = make_instance(*spec)
    rs = inst.routeset
    if kind == "hitch":
        strategy = HitchARide(rs.max_period, homogeneous_known=is_homogeneous(rs))
    else:
        strategy = GuessingRide(rs.n)
    tr = run(rs, strategy, inst.start)
    assert len(tr.steps.segments) < tr.moves  # rides of more than one move merge
    assert_the_two_forms_agree(rs, tr)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_run_made_walk_and_its_hand_built_copy_agree(data):
    rs = drawn_system(data, max_k=4, max_period=8)
    assert_the_two_forms_agree(rs, drawn_run(data, rs))


@pytest.mark.parametrize("segment", [
    ("c0", ("a", "b"), 0, 0), ("c0", ("a", "b"), 2, 1), ("c0", ("a", "b"), -1, 1), ("c0", (), 0, 1),
])
def test_a_segment_makes_a_move_from_a_phase_of_its_cycle(segment):
    with pytest.raises(ValueError):
        Walk([segment])
