from __future__ import annotations

import copy
import csv
import dataclasses
import io
import math
import pickle
import subprocess
import sys
import textwrap
import tracemalloc
from itertools import count
from pathlib import Path
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
    summary_record,
    trace_to_csv,
)
import pvgraph.engine
from pvgraph.core import ANONYMOUS
from pvgraph.engine import _walk_fault

from helpers import counted, drawn_systems, rs_of


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
    rs = data.draw(drawn_systems(6, 4, 12, modes=(IDS, ANONYMOUS)), label="system")
    moves = math.lcm(*(c.route.period for c in rs.carriers)) + 3  # every phase pairing, then some
    rider = RandomRider(data.draw(st.randoms(use_true_random=False)), moves)
    start = data.draw(st.sampled_from([c.id for c in rs.carriers]), label="start")
    tr = run(rs, rider, start, move_limit=moves + 1)
    assert tr.halted and tr.moves == moves
    assert replay_check(rs, tr) == (True, None)
    here = [rs.by_id[start].route.at(0), *tr.steps.tos]
    for obs in rider.seen:
        site = rs.carrier(obs.current_carrier).route.at(obs.time)
        assert obs.arriving_carriers == carriers_at(rs, obs.time, site)
        assert obs.site_identity == (site if rs.mode == IDS else None)
        assert obs.sites_seen == (len(set(here[:obs.time + 1])) if rs.mode == IDS else None)


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
    assert tuple(tr.steps) == (
        TimedEdge(0, "c0", "a", "b"),
        TimedEdge(1, "c0", "b", "c"),
    )
    assert tr.halted
    assert tr.moves == 2
    assert tuple(dict.fromkeys(["a", *tr.steps.tos])) == ("a", "b", "c")


def test_switching_carriers_at_a_meeting():
    rs = rs_of(["a", "b"], ["a", "c"])
    tr = run(rs, Scripted([Ride("c1"), Ride("c1")]), "c0")
    assert tr.steps[0] == TimedEdge(0, "c1", "a", "c")
    assert tuple(dict.fromkeys(["a", *tr.steps.tos])) == ("a", "c")


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
        Trace("c0", (step,), True),
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
    # a ride's defaults: one move, no carrier passed, no site count to stop at
    assert isinstance(Ride("c1"), Ride) and Ride("c1") == ("c1", 1, frozenset(), 0) == Ride("c1", 1)
    assert Ride("c1", 2) == ("c1", 2, frozenset(), 0) and Ride("c1", 2) != Ride("c1")
    assert Observation(0, "c0", frozenset({"c0"}), None) == (0, "c0", {"c0"}, None, None)
    assert Ride("c1") != Ride("c2") and HALT != Ride("c1")


def test_steps_and_traces_take_dataclass_replace():
    step = TimedEdge(0, "c0", "a", "b")
    assert dataclasses.replace(step, to_site="c") == TimedEdge(0, "c0", "a", "c")
    tr = Trace("c0", (step,), True)
    assert dataclasses.replace(tr, halted=False) == Trace("c0", (step,), False)
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
    columns = Walk.of(map(TimedEdge, count(), walk.carriers, walk.froms, walk.tos))
    assert walk == Walk.of(steps) == columns and tuple(walk) == steps
    assert hash(walk) == hash(Walk.of(steps)) == hash(columns)
    assert walk != steps and steps != walk  # a walk never equals a tuple
    assert walk != Walk.of(steps[:3]) and walk != list(steps)
    back = Trace(tr.start_carrier, tuple(tr.steps), tr.halted)
    assert isinstance(back.steps, Walk) and back == tr and hash(back) == hash(tr)
    assert copy.deepcopy(tr) == tr


def test_a_walk_reprs_as_its_segments_without_building_steps(monkeypatch):
    tr, _ = _four_moves()
    walk = tr.steps
    assert repr(walk) == f"Walk({walk.segments!r})"
    assert eval(repr(walk), {"Walk": Walk}) == walk
    inst = make_instance("sihe", 48, 5)
    rs = inst.routeset
    trace = run(rs, HitchARide(rs.max_period, homogeneous_known=is_homogeneous(rs)), inst.start)
    assert trace.moves > 250_000

    def refuse(*args):
        raise AssertionError("a TimedEdge was built")

    monkeypatch.setattr(pvgraph.engine, "TimedEdge", refuse)
    # a TimedEdge repr for each of the 257,599 steps would read ~16 MiB
    assert len(repr(trace)) < 64 * 1024
    assert eval(repr(trace.steps), {"Walk": Walk}) == trace.steps
    assert hash(trace) == hash(copy.deepcopy(trace))


def test_a_slice_or_reversed_builds_each_step_once(monkeypatch):
    tr, steps = _four_moves()
    assert tuple(reversed(tr.steps)) == tuple(tr.steps)[::-1] == steps[::-1]
    rs = rs_of(["a", "b", "c"])
    walk = run(rs, Scripted([Ride("c0")] * 1000), "c0", move_limit=2000).steps
    assert len(walk) == 1000 and len(walk.segments) == 1
    assert tuple(reversed(walk)) == tuple(walk)[::-1]
    built = []
    monkeypatch.setattr(pvgraph.engine, "TimedEdge", lambda *step: built.append(step) or step)
    scan = mock.Mock(wraps=pvgraph.engine._arc)
    monkeypatch.setattr(pvgraph.engine, "_arc", scan)
    assert list(reversed(walk))[:2] == [(999, "c0", "a", "b"), (998, "c0", "c", "a")]
    # the one step stream: each segment's sites are sliced twice, not once a step
    assert len(built) == 1000 and scan.call_count == 2
    assert walk[4:0:-2] == ((4, "c0", "b", "c"), (2, "c0", "c", "a")) and len(built) == 2000


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


def _engine_calls(fn, *args, decide=None):
    """`fn(*args)`, and the Python-level calls it makes into `pvgraph.engine`
    (a generator's every resumption counts) and into the code `decide`."""
    calls = {"engine": 0, "decide": 0}

    def profile(frame, event, arg):
        if event == "call":
            if frame.f_code.co_filename == pvgraph.engine.__file__:
                calls["engine"] += 1
            elif frame.f_code is decide:
                calls["decide"] += 1

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        out = fn(*args)
    finally:
        sys.setprofile(before)
    return out, calls


@pytest.mark.parametrize("kind", ["hitch", "guess"])
def test_run_and_the_csv_make_no_python_call_per_checked_phase_or_row(kind):
    inst = make_instance("sihe", 36, 4)
    rs = inst.routeset
    rs.schedule  # built on first use; a cost of the system, not of the run
    if kind == "hitch":
        strategy = HitchARide(rs.max_period, homogeneous_known=is_homogeneous(rs))
    else:
        strategy = GuessingRide(rs.n)
    tr, calls = _engine_calls(run, rs, strategy, inst.start, decide=type(strategy).decide.__code__)
    # the company checks are plain loops: a few calls a decide, none a checked phase
    assert calls["decide"] > 0 and calls["engine"] <= 2 * calls["decide"] + 20, calls
    text = trace_to_csv(tr)  # fills the step tables, once a process
    again, calls = _engine_calls(trace_to_csv, tr)
    segments = tr.steps.segments
    blocks = -(-tr.moves // pvgraph.engine.CSV_BLOCK)
    pairs = {(cid, cycle) for cid, cycle, _, _ in segments}
    bound = 2 * len(segments) + blocks + 2 * len(pairs) + 10
    # a block's tails are one slice a ride it crosses; no call a move or a cycle phase
    assert again == text and bound < min(tr.moves, sum(len(cycle) for _, cycle in pairs))
    assert calls["engine"] <= bound, (calls, len(segments), blocks, len(pairs))


def test_move_limit_tags_partial_trace():
    rs = rs_of(["a", "b"])

    class Forever:
        name = "forever"

        def decide(self, obs):
            return Ride("c0")

    tr = run(rs, Forever(), "c0", move_limit=5)
    assert not tr.halted
    assert tr.moves == 5


def test_move_limit_must_be_positive():
    # an int >= 1: a float or a bool is refused before the first decide
    for limit in (0, -1, 2.5, True, "3"):
        with pytest.raises(ValueError, match="move_limit must be positive"):
            run(rs_of(["a", "b"], ["a", "c"]), HitchARide(2), "c0", limit)


def test_default_move_limit_formula():
    rs = rs_of(["a", "b", "c"], ["a", "b"])
    assert default_move_limit(rs) == 16 * 2 * 9


def test_default_move_limit_admits_a_declared_bound():
    rs = rs_of(["a", "b", "c"], ["a", "d", "e"])
    hitch = HitchARide(20)  # proved cap (3k-2)*B^2 = 1600, far above 16*k*p^2 = 288
    assert default_move_limit(rs, hitch) == 1601
    assert default_move_limit(rs, HitchARide(3)) == 288
    tr = run(rs, HitchARide(20), "c0")
    assert tr.halted
    assert 288 < tr.moves <= 1600


def test_unknown_start_carrier_is_a_parameter_violation():
    with pytest.raises(ParameterViolation, match="nope"):
        run(rs_of(["a", "b"]), Scripted([]), "nope")


def test_trace_rejects_misnumbered_steps():
    with pytest.raises(ValueError):
        Trace("c0", (TimedEdge(3, "c0", "a", "b"),), True)
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
    trace_to_csv(tr)  # fills the step tables, once a process
    tracemalloc.start()
    try:
        csv = trace_to_csv(tr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one string grown in place, plus one block's pieces; a list of the blocks joined at
    # the end reads ~2x, and one joined list of every row ~4.5x
    assert peak < 1.25 * len(csv), (peak, len(csv))


def test_a_first_csv_holds_its_tables_and_one_copy_of_itself():
    # a fresh interpreter: the tables are unbuilt and trace_to_csv's code is cold
    src = Path(pvgraph.__file__).resolve().parents[1]
    code = textwrap.dedent(f"""
        import sys, tracemalloc
        sys.path.insert(0, {str(src)!r})
        from pvgraph import HitchARide, is_homogeneous, make_instance, run, trace_to_csv
        inst = make_instance("sihe", 40, 4)
        rs = inst.routeset
        tr = run(rs, HitchARide(rs.max_period, homogeneous_known=is_homogeneous(rs)), inst.start)
        tracemalloc.start()
        csv = trace_to_csv(tr)
        size, peak = len(csv), tracemalloc.get_traced_memory()[1]
        del csv
        print(size, peak, tracemalloc.get_traced_memory()[0])
    """)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, encoding="utf-8", timeout=120)
    assert done.returncode == 0, done.stderr
    size, peak, held = map(int, done.stdout.split())
    mib = 2**20
    # what the process keeps: the step-and-time table and the zero-padded digits
    assert held <= 0.75 * mib, held
    # the tables, one block's pieces and the string grown in place even on a first call;
    # a `+=` that copies the string every block reads ~2x
    assert peak < 1.25 * size + 0.75 * mib, (peak, size, held)


def reference_csv(trace: Trace) -> str:
    """`csv.writer` a row; a step is new iff its site is not step 0's departure or an earlier arrival."""
    out = io.StringIO()
    out.write(pvgraph.engine.CSV_HEADER + "\n")
    rows = csv.writer(out, lineterminator="\n")
    walk = trace.steps
    seen = {walk.froms[0]} if walk else set()
    for i, carrier, frm, to in zip(range(len(walk)), walk.carriers, walk.froms, walk.tos):
        rows.writerow([i, i, carrier, frm, to, 0 if to in seen else 1])
        seen.add(to)
    return out.getvalue()


@pytest.mark.parametrize("block", [10, pvgraph.engine.CSV_BLOCK])  # powers of ten
@pytest.mark.parametrize("span", ["short", "B-1", "B", "B+1", "2B+1", "H-1", "H", "H+1", "H+B+1"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_csv_matches_the_row_by_row_reference(block, span, data):
    # blocks of B rows; the first H rows take their step and time from one table, the
    # rest a block prefix and digits: walks that end on either side of a block edge
    # below H and of H itself, and one that crosses a whole block past H
    heads = 3 * block
    kind = data.draw(
        st.sampled_from(["walk", "no moves", "revisits start"]), label="kind"
    )
    lengths = {
        "short": None, "B-1": block - 1, "B": block, "B+1": block + 1, "2B+1": 2 * block + 1,
        "H-1": heads - 1, "H": heads, "H+1": heads + 1, "H+B+1": heads + block + 1,
    }
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
    if kind == "revisits start":
        for _ in range(data.draw(st.integers(1, 3), label="returns")):
            tos[data.draw(at, label="return at")] = froms[0]
    tr = Trace("c0", Walk.of(map(TimedEdge, count(), carriers, froms, tos)), False)
    with mock.patch.multiple(pvgraph.engine, CSV_BLOCK=block, CSV_HEADS=heads):
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


def test_csv_quotes_names_that_hold_a_line_break():
    # csv.writer leaves a bare "\r" unquoted, so the rows are read back, not compared as bytes
    names = ["a\nb", "c\rd", "e\r\nf"]
    walk = Walk.of(TimedEdge(i, "c0", *pair) for i, pair in enumerate(
        [(names[0], "x"), ("x", names[1]), (names[1], names[2]), (names[2], "y")]
    ))
    tr = Trace("c0", walk, True)
    rows = list(csv.reader(io.StringIO(trace_to_csv(tr), newline="")))
    assert len(rows) == tr.moves + 1 and all(len(row) == 6 for row in rows)
    steps = [(s.carrier, s.from_site, s.to_site) for s in tr.steps]
    assert [tuple(row[2:5]) for row in rows[1:]] == steps


@pytest.mark.parametrize("block", [10, 100])
def test_csv_step_numbers_cross_every_digit_count_of_the_block_prefix(block):
    # the first 2 blocks take their step and time from one table; with 10 rows a block,
    # the prefix then runs "2", ..., "9", "10", ..., "99", "100", ..., "999", "1000", ...,
    # "1004"; with 100, the digit table entries after it are zero-padded ("07,")
    m = 10_050
    sites = "abcdefg"
    tos = [sites[(i * i) % 7] for i in range(m)]
    tos[9_995] = tos[10_000] = "x"  # a late first arrival, and a return to it, in block 1000
    froms = ["a", *tos[:-1]]
    carriers = [f"c{i % 3}" for i in range(m)]
    walk = Walk.of(map(TimedEdge, count(), carriers, froms, tos))
    tr = Trace("c0", walk, False)
    with mock.patch.multiple(pvgraph.engine, CSV_BLOCK=block, CSV_HEADS=2 * block):
        csv = trace_to_csv(tr)
    assert csv.encode() == reference_csv(tr).encode()
    rows = csv.splitlines()
    h = 2 * block  # the last row from the table, and the first after it
    assert rows[h].startswith(f"{h - 1},{h - 1},c") and rows[h + 1].startswith(f"{h},{h},c")
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
    bad = Trace("c0", (TimedEdge(0, "c1", "c", "a"),), True)
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
    assert replay_check(rs, Trace("zz", (step,), True)) == (False, 0)
    unknown = TimedEdge(1, "zz", "b", "a")
    assert replay_check(rs, Trace("c0", (step, unknown), True)) == (False, 1)


def test_trace_covers_the_universe_of_the_routeset():
    rs = rs_of(["a", "b"], ["a", "c"])
    tr = run(rs, Scripted([Ride("c1"), Ride("c1"), Ride("c0")]), "c0")
    assert tr.covers(rs)
    assert not run(rs, Scripted([Ride("c1")]), "c0").covers(rs)


def test_cover_and_the_csv_read_the_walk_alone():
    rs = rs_of(["a", "b"], ["a", "c"])
    tr = Trace("c0", (TimedEdge(0, "c0", "a", "b"),), True)  # lawful, but c is never seen
    assert replay_check(rs, tr) == (True, None)
    assert not tr.covers(rs) and not is_concrete_cover(rs, tr)
    with pytest.raises(ParameterViolation, match="zz"):
        Trace("zz", (), True).covers(rs)
    # a return to step 0's departure is not a new site
    there_and_back = Trace("c0", (TimedEdge(0, "c0", "a", "b"), TimedEdge(1, "c0", "b", "a")), True)
    assert trace_to_csv(there_and_back).splitlines()[1:] == ["0,0,c0,a,b,1", "1,1,c0,b,a,0"]


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
    rs = data.draw(drawn_systems(10, 4, 8, shared=True, modes=(IDS, ANONYMOUS)), label="system")
    start = data.draw(st.sampled_from([c.id for c in rs.carriers]), label="start")
    if rs.mode == IDS and data.draw(st.booleans(), label="guess"):
        make = lambda: GuessingRide(rs.n)
    else:
        # B < p may leave carriers unmet: such runs still halt, some without covering
        bound = data.draw(st.integers(1, rs.max_period + 2), label="B")
        known = data.draw(st.booleans(), label="homogeneous_known")
        make = lambda: HitchARide(bound, homogeneous_known=known)
    riding, deciding = make(), make()
    limit = default_move_limit(rs, riding)
    tr = run(rs, riding, start, limit)
    assert tr == run(rs, DecideOnly(deciding), start, limit)
    assert vars(riding) == vars(deciding)
    # the run stops only at a halt or at the limit
    assert tr.halted == (tr.moves < limit)
    # the first-visit pass against its definition, over the steps one at a time
    here = [rs.by_id[start].route.at(0), *tr.steps.tos]
    assert list(pvgraph.engine._first_visits(here[0], tr.steps)) == list(dict.fromkeys(here))
    assert trace_to_csv(tr) == reference_csv(tr)
    # blocks of 10 rows after the first 20: rides start mid-cycle and lap short cycles
    # across block edges
    with mock.patch.multiple(pvgraph.engine, CSV_BLOCK=10, CSV_HEADS=20):
        assert trace_to_csv(tr) == reference_csv(tr)
    assert tr.covers(rs) == is_concrete_cover(rs, tr) == (set(here) == set(rs.sites))


def test_a_skip_records_every_first_visit_it_crosses_in_order():
    rs = rs_of(["a", "b", "c", "d", "e"], ["a", "x"], mode=ANONYMOUS)
    rider = RideOn()
    tr = run(rs, rider, "c0", move_limit=12)
    # c1 is listed at phase 0 only, and stands on a at even instants: at t=5 it is on x,
    # so the ask at t=0, with c1 on a, rides on past it, more than a lap, and stops at
    # t=10 on a; the ask there rides on to the limit
    assert rider.asked == [0, 10]
    assert tr == run(rs, DecideOnly(RideOn()), "c0", move_limit=12)
    assert tuple(dict.fromkeys(["a", *tr.steps.tos])) == ("a", "b", "c", "d", "e")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_lone_ride_stops_where_company_stands_and_nowhere_it_need_not(data):
    rs = data.draw(drawn_systems(6, 4, 8, modes=(IDS, ANONYMOUS)), label="system")
    start = data.draw(st.sampled_from([c.id for c in rs.carriers]), label="start")
    limit = data.draw(st.integers(1, 80), label="limit")
    rider = RideOn()
    tr = run(rs, rider, start, move_limit=limit)
    assert tr == run(rs, DecideOnly(RideOn()), start, move_limit=limit)
    here = [rs.by_id[start].route.at(0), *tr.steps.tos]  # the agent's site at each instant
    met = [len(carriers_at(rs, u, here[u])) > 1 for u in range(tr.moves)]
    asked = set(rider.asked)
    assert rider.asked[0] == 0 and rider.asked == sorted(asked)
    assert all(u in asked for u in range(tr.moves) if met[u])  # asked wherever company stands
    for a, u in zip(rider.asked, [*rider.asked[1:], tr.moves]):
        # no ask it could have skipped: the next stands on company or the limit, and a
        # ride that names no site count passes unseen sites
        assert u == tr.moves or met[u], (a, u)


class RidePast:
    """Rides its carrier on, or switches to another arriving one, each ride
    drawing its moves (often past the limit), the carriers it passes and the
    site count it stops at, often one to three sites on; `rides` holds each
    ask's `(observation, carrier, moves, past, sites)`."""

    def __init__(self, rng, ids):
        self.rng, self.ids = rng, ids
        self.rides = []

    def decide(self, obs: Observation):
        rng = self.rng
        cid = rng.choice(sorted(obs.arriving_carriers)) if rng.random() < 0.5 else obs.current_carrier
        moves = rng.randint(1, 12) if rng.random() < 0.5 else 10**9
        past = frozenset(x for x in self.ids if rng.random() < 0.5)
        sites = max(0, (obs.sites_seen or 0) + rng.randint(-1, 3)) if rng.random() < 0.7 else 0
        self.rides.append((obs, cid, moves, past, sites))
        return Ride(cid, moves, past, sites)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_ride_stops_at_its_first_due_instant(data):
    rs = data.draw(drawn_systems(6, 4, 8, modes=(IDS, ANONYMOUS)), label="system")
    ids = [c.id for c in rs.carriers]
    start = data.draw(st.sampled_from(ids), label="start")
    limit = data.draw(st.integers(1, 80), label="limit")
    rider = RidePast(data.draw(st.randoms(use_true_random=False), label="rng"), ids)
    tr = run(rs, rider, start, move_limit=limit)
    assert replay_check(rs, tr) == (True, None)
    assert not tr.halted and tr.moves == limit
    here = [rs.by_id[start].route.at(0), *tr.steps.tos]  # the agent's site at each instant
    count = [len(set(here[:u + 1])) for u in range(tr.moves + 1)]  # distinct sites stood on
    carriers = tr.steps.carriers
    asked = [obs.time for obs, *_ in rider.rides]
    assert asked[0] == 0
    for (obs, cid, moves, past, sites), u in zip(rider.rides, [*asked[1:], tr.moves]):
        a = obs.time
        assert obs.sites_seen == (count[a] if rs.mode == IDS else None)
        assert set(carriers[a:u]) == {cid}  # a switch is the ride's first move
        # each ride stops at its first instant where a carrier other than its own that it
        # does not pass stands, or, with site names, where the walk first stands on its
        # `sites`-th distinct site; else after its moves or at the limit
        due = [v for v in range(a + 1, min(a + moves, tr.moves))
               if any(x != cid and x not in past for x in carriers_at(rs, v, here[v]))
               or (rs.mode == IDS and count[v] == sites > count[v - 1])]
        assert u == min([*due, a + moves, tr.moves]), (a, u, cid, moves, past, sites)


class Rows(tuple):
    """A carrier's `company` row that counts, in `reads`, the phases read from it."""

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


class RidePassing:
    """Rides its carrier on for good, passing the carriers `past`;
    `asked` holds the instants it was asked at."""

    def __init__(self, past):
        self.past = past
        self.asked = []

    def decide(self, obs: Observation):
        self.asked.append(obs.time)
        return Ride(obs.current_carrier, 10**9, self.past, 0)


def test_a_lone_ride_that_passes_every_mate_reads_no_company_row():
    # c1 rides c0's route in step, and c2 stands with c0 at the odd phases: c0 has
    # company at every phase. c3 never meets c0, so a ride past c1 and c2 cannot stop
    routes = ("abcdef", "abcdef", "xbydzf", "qr")
    rs = rs_of(*routes)
    sched = rs.schedule
    assert sched.mates[0] == ("c1", "c2") and all(sched.company[0])
    # a row is read once a decide, to name the company there, and on a ride that does
    # not pass every mate, once a phase ridden: past c1 alone, c2 stops it at each odd instant
    for past, asked, reads in [({"c1", "c2"}, [0], 1), ({"c1"}, [0, *range(1, 50, 2)], 26 + 49)]:
        rows = tuple(map(Rows, sched.company))
        for row in rows:
            row.reads = 0
        rs.__dict__["schedule"] = dataclasses.replace(sched, company=rows)  # the cached table
        rider = RidePassing(frozenset(past))
        tr = run(rs, rider, "c0", move_limit=50)
        assert tr == run(rs_of(*routes), DecideOnly(RideOn()), "c0", 50)
        assert rider.asked == asked
        assert sum(row.reads for row in rows) == reads


def test_a_move_limit_inside_a_skip_cuts_the_same_partial_trace():
    rs = rs_of(["a", "b", "c", "d", "e"], mode=ANONYMOUS)
    rider = RideOn()
    tr = run(rs, rider, "c0", move_limit=7)
    assert rider.asked == [0]  # one lone ride, however many laps, cut to the limit
    assert not tr.halted and tr.moves == 7
    assert tr == run(rs, DecideOnly(RideOn()), "c0", move_limit=7)


@pytest.mark.parametrize("moves", [0, -1, 2.5, "3", True])
def test_a_ride_of_other_than_a_positive_int_of_moves_is_illegal(moves):
    rs = rs_of(["a", "b", "c"], mode=ANONYMOUS)
    with pytest.raises(IllegalAction, match="moves"):
        run(rs, RideOn(moves), "c0", move_limit=10)


@pytest.mark.parametrize("sites", [True, False, 1.0, -1, "2", None])
def test_a_ride_to_other_than_a_count_of_sites_is_illegal(sites):
    rs = rs_of(["a", "b", "c"])
    with pytest.raises(IllegalAction, match="sites"):
        run(rs, Scripted([Ride("c0", 5, frozenset(), sites)]), "c0", move_limit=10)
    # a one-move ride is checked too
    with pytest.raises(IllegalAction, match="sites"):
        run(rs, Scripted([Ride("c0", 1, frozenset(), sites)]), "c0", move_limit=10)


@pytest.mark.parametrize("past", [("c1",), ["c1"], "c1", None])
def test_a_lone_ride_past_other_than_a_set_of_ids_is_illegal(past):
    rs = rs_of(["a", "b", "c"], ["a", "x"], mode=ANONYMOUS)
    with pytest.raises(IllegalAction, match="past"):
        run(rs, Scripted([Ride("c0", 5, past)]), "c0", move_limit=10)
    # a one-move ride is checked too: every ride stops by one rule
    with pytest.raises(IllegalAction, match="past"):
        run(rs, Scripted([Ride("c0", 1, past)]), "c0", move_limit=10)
    # a set is as good as a frozenset
    assert run(rs, Scripted([Ride("c0", 5, {"c1"})]), "c0", move_limit=10).moves == 5
    assert run(rs, Scripted([Ride("c0", 1, {"c1"})]), "c0", move_limit=1).moves == 1


class DecideProxy:
    """Forwards only `decide`, as a timing wrapper does, and not `move_bound`."""

    def __init__(self, inner):
        self.inner = inner

    def decide(self, obs: Observation):
        return self.inner.decide(obs)


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


@pytest.mark.parametrize("spec", [("sihe", 36, 4, None), ("random", 40, 8, 30)])
def test_hitch_rides_alike_with_and_without_site_names(spec):
    inst = make_instance(*spec, seed=1)
    rs = inst.routeset
    anonymous = RouteSet(rs.carriers, ANONYMOUS, rs.sites)
    make = lambda: counted(HitchARide)(rs.max_period, homogeneous_known=is_homogeneous(rs))
    named, blind = make(), make()
    tr = run(rs, named, inst.start)
    assert tr.halted and tr == run(anonymous, blind, inst.start)
    # hitch never reads a site name, so its rides pass unseen sites: the same asks
    assert named.calls == blind.calls
    if spec[0] == "random":  # guess stops only at its n-th site, and passes the carriers it knows
        guess = counted(GuessingRide)(rs.n)
        assert run(rs, guess, inst.start).halted and guess.calls < 100


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
    rs = data.draw(drawn_systems(8, 3, 6), label="system")
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
    tampered = Trace(start, Walk.of(edited), tr.halted)
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
    rs = data.draw(drawn_systems(8, 3, 6, modes=(IDS, ANONYMOUS)), label="system")
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
    tampered = Trace(tr.start_carrier, edited, tr.halted)
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
    hand_built = Trace(tr.start_carrier, hand, tr.halted)
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
    rs = data.draw(drawn_systems(8, 4, 8, modes=(IDS, ANONYMOUS)), label="system")
    assert_the_two_forms_agree(rs, drawn_run(data, rs))


@pytest.mark.parametrize("segment", [
    ("c0", ("a", "b"), 0, 0), ("c0", ("a", "b"), 2, 1), ("c0", ("a", "b"), -1, 1), ("c0", (), 0, 1),
])
def test_a_segment_makes_a_move_from_a_phase_of_its_cycle(segment):
    with pytest.raises(ValueError):
        Walk([segment])
