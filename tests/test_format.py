from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from pvgraph import IDS, ParseError, RouteSet, dumps, gen_random_feasible, loads
from pvgraph.fileformat import read_bound_comment

GOLDEN = """pvg 1
mode ids
sites 3 a b c
carrier c0 : a b
carrier c1 : a c
"""


def test_golden_round_trip_is_byte_exact():
    rs = loads(GOLDEN)
    assert dumps(rs) == GOLDEN
    assert rs.sites == ("a", "b", "c")
    assert rs.mode == IDS
    assert [c.id for c in rs.carriers] == ["c0", "c1"]
    assert rs.carrier("c1").route.sites == ("a", "c")


def test_comments_and_blank_lines_ignored():
    text = "# preamble\n\npvg 1\nmode anonymous\n# two sites\nsites 2 a b\n\ncarrier z : b a\n# trailing\n"
    rs = loads(text)
    assert rs.mode == "anonymous"
    assert rs.carrier("z").route.sites == ("b", "a")


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as ei:
        loads("pvg 2\n")
    assert ei.value.line == 1 and ei.value.column == 1
    assert "line 1, column 1" in str(ei.value)


def test_bad_mode_line():
    with pytest.raises(ParseError) as ei:
        loads("pvg 1\nmode nope\nsites 1 a\ncarrier c : a\n")
    assert ei.value.line == 2


def test_sites_count_mismatch():
    with pytest.raises(ParseError) as ei:
        loads("pvg 1\nmode ids\nsites 3 a b\ncarrier c : a\n")
    assert ei.value.line == 3


def test_duplicate_site_rejected():
    with pytest.raises(ParseError) as ei:
        loads("pvg 1\nmode ids\nsites 2 a a\ncarrier c : a\n")
    assert ei.value.line == 3


def test_carrier_line_needs_colon():
    with pytest.raises(ParseError) as ei:
        loads("pvg 1\nmode ids\nsites 1 a\ncarrier c a\n")
    assert ei.value.line == 4


def test_unknown_site_in_route_names_its_column():
    with pytest.raises(ParseError) as ei:
        loads("pvg 1\nmode ids\nsites 2 a b\ncarrier c : a zz\n")
    assert ei.value.line == 4
    assert ei.value.column > 1
    assert "zz" in str(ei.value)


def test_duplicate_carrier_id():
    with pytest.raises(ParseError) as ei:
        loads("pvg 1\nmode ids\nsites 2 a b\ncarrier c : a\ncarrier c : b a\n")
    assert ei.value.line == 5


def test_empty_route_rejected():
    with pytest.raises(ParseError):
        loads("pvg 1\nmode ids\nsites 1 a\ncarrier c :\n")


def test_missing_carriers_rejected():
    with pytest.raises(ParseError):
        loads("pvg 1\nmode ids\nsites 1 a\n")


def test_truncated_file():
    with pytest.raises(ParseError):
        loads("pvg 1\nmode ids\n")
    with pytest.raises(ParseError):
        loads("")


def test_read_bound_comment():
    assert read_bound_comment(GOLDEN + "# bound 42\n") == 42
    assert read_bound_comment(GOLDEN) is None


def test_dump_round_trips(tmp_path):
    from pvgraph import dump, load

    rs = loads(GOLDEN)
    path = tmp_path / "g.pvg"
    dump(rs, path)
    assert path.read_text() == dumps(rs)
    assert load(path) == rs


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 9),
    k=st.integers(1, 4),
)
def test_round_trip_preserves_any_system(seed, n, k):
    pmax = max(2, -(-n // k))
    rs = gen_random_feasible(n, k, pmax, seed)
    back = loads(dumps(rs))
    assert back.sites == rs.sites
    assert back.mode == rs.mode
    assert [(c.id, c.route.sites) for c in back.carriers] == [
        (c.id, c.route.sites) for c in rs.carriers
    ]


@settings(max_examples=200, deadline=None)
@given(
    ids=st.lists(st.text(max_size=4), min_size=1, max_size=3, unique=True),
    names=st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True),
)
def test_every_constructible_system_round_trips(ids, names):
    try:
        rs = RouteSet.from_routes([(cid, names) for cid in ids], IDS)
    except ValueError:
        return
    assert loads(dumps(rs)) == rs
