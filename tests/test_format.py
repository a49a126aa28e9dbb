from __future__ import annotations

import ast
import re

import pytest
from hypothesis import given, settings, strategies as st

from pvgraph import IDS, ParseError, RouteSet, dumps, errors, gen_random_feasible, loads
from pvgraph.errors import PVGraphError, UnreachableSite
from pvgraph.fileformat import read_bound_comment

from cli_cases import REJECTED_FILES

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


def rejected_test(row):
    """A test that `loads` refuses `row.text` with the row's error type, position and message."""

    def test():
        with pytest.raises(PVGraphError) as ei:
            loads(row.text)
        err = ei.value
        assert type(err) is getattr(errors, row.error)
        assert (err.line, err.column) == row.at if row.at else not hasattr(err, "line")
        assert str(err) == row.whole

    test.__name__ = f"test_{row.name}"
    return test


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


# one test a row, named after it, as `tests/test_cli.py` names its cases: a row that took
# the place of a hand-written test keeps that test's name; no two share one
REJECTED_TESTS = {f"test_{row.name}": rejected_test(row) for row in REJECTED_FILES}
assert len(REJECTED_TESTS) == len(REJECTED_FILES) and not REJECTED_TESTS.keys() & globals().keys()
globals().update(REJECTED_TESTS)
