from __future__ import annotations

import ast
import re

import pytest
from hypothesis import given, settings, strategies as st

from pvgraph import IDS, ParseError, RouteSet, dumps, gen_random_feasible, loads
from pvgraph.errors import UnreachableSite
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


def test_a_site_count_below_one_names_its_line_and_column():
    with pytest.raises(ParseError) as ei:
        loads("pvg 1\nmode ids\nsites 0\ncarrier c0 : a\n")
    assert str(ei.value) == "line 3, column 7: site count must be positive"


def test_unknown_route_site_names_its_line_and_column():
    with pytest.raises(ParseError) as ei:
        loads("pvg 1\nmode ids\nsites 2 a b\ncarrier c0 : a b ghost\n")
    assert str(ei.value) == "line 4, column 18: unknown site 'ghost'"
    assert (ei.value.line, ei.value.column) == (4, 18)


def test_an_unknown_site_wins_over_a_later_malformed_line():
    text = "pvg 1\nmode ids\nsites 2 a b\ncarrier c0 : a ghost\ncarrier c1 : b\ncarrier c2 a\n"
    with pytest.raises(ParseError) as ei:
        loads(text)
    assert str(ei.value) == "line 4, column 16: unknown site 'ghost'"
    # on one line, the line's own shape is judged first
    with pytest.raises(ParseError, match="line 4, column 1: expected 'carrier'"):
        loads("pvg 1\nmode ids\nsites 1 a\ncarier c0 : ghost\ncarrier c0 : zz\n")


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


def test_read_bound_comment_skips_a_bound_that_is_not_an_integer():
    assert read_bound_comment("# bound x\n# bound 7\n") == 7


def test_dump_round_trips(tmp_path):
    from pvgraph import dump, load

    rs = loads(GOLDEN)
    path = tmp_path / "g.pvg"
    dump(rs, path)
    assert path.read_text(encoding="utf-8") == dumps(rs)
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


#: Messages that quote an input token, and the quoted token.
QUOTED = re.compile(
    r"(?:unknown mode|site count|duplicate site|found|duplicate carrier|unknown site) "
    r"('(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\")"
)
SKELETON = [["pvg", "1"], ["mode", "ids"], ["sites", "3", "a", "b", "c"],
            ["carrier", "c0", ":", "a", "b"], ["carrier", "c1", ":", "c", "a"]]
WORDS = ["pvg", "1", "3", "-1", "x", "mode", "ids", "anonymous", "sites", "carrier",
         ":", "a", "b", "c", "c0", "c1", "#", "é", "'", '"', "a'b\"c"]
SEPARATORS = [" ", "  ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]


@st.composite
def edited_files(draw):
    """The skeleton with tokens replaced, inserted or dropped, joined by mixed whitespace."""
    lines = [list(toks) for toks in SKELETON]
    for _ in range(draw(st.integers(0, 4))):
        toks = lines[draw(st.integers(0, len(lines) - 1))]
        at = draw(st.integers(0, len(toks)))
        op = draw(st.sampled_from(["replace", "insert", "drop"]))
        if op == "insert" or not toks[at:]:
            toks.insert(at, draw(st.sampled_from(WORDS)))
        elif op == "replace":
            toks[at] = draw(st.sampled_from(WORDS))
        else:
            del toks[at]
    out = []
    for toks in lines:
        seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(toks) + 1, max_size=len(toks) + 1))
        out.append(seps[0] + "".join(t + s for t, s in zip(toks, seps[1:])))
    return "\n".join(out)


@settings(max_examples=200, deadline=None)
@given(text=edited_files())
def test_a_quoted_token_is_where_the_error_points(text):
    try:
        loads(text)
    except ParseError as exc:
        quoted = QUOTED.search(str(exc))
        if quoted is None:
            return
        token = ast.literal_eval(quoted.group(1))
        line = text.split("\n")[exc.line - 1]
        col = exc.column - 1
        assert line[col:col + len(token)] == token
        assert col == 0 or line[col - 1].isspace()
        assert col + len(token) == len(line) or line[col + len(token)].isspace()
    except UnreachableSite:
        pass
