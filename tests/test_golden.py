"""Golden outputs: instance bytes, `pvg bench` tables, audit reports, traces
and parse outcomes.

Every expected value here was recorded from the package before the refactor
it guards: the family table (instances, bench tables, audit reports), the
generators that slice site lists (corner instances), the engine's integer
schedule (traces) and the parser that splits lines with `str.split` (the
outcomes of mutated files: each system, or each error with its line and
column). A refactor must reproduce them byte for byte.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import pytest

from pvgraph import ANONYMOUS, FAMILIES, RouteSet, audit, dumps, loads, make_instance, trace_to_csv
from pvgraph.cli import main
from pvgraph.errors import PVGraphError
from pvgraph.oracle import race

#: Several legal points per family, in the order they are hashed.
GRID = [
    ("thm3", 9, 3, 5), ("thm3", 12, 4, 6), ("thm3", 20, 5, 8), ("thm3", 30, 6, 12),
    ("thm4", 9, 3, 5), ("thm4", 11, 3, 6), ("thm4", 20, 4, 10), ("thm4", 30, 5, 12),
    ("siho", 5, 2, None), ("siho", 8, 3, None), ("siho", 20, 3, None), ("siho", 40, 5, None),
    ("sihe", 36, 4, None), ("sihe", 40, 4, None), ("sihe", 48, 5, None), ("sihe", 60, 8, None),
    ("thm7", 4, 2, None), ("thm7", 8, 3, None), ("thm7", 20, 5, None), ("thm7", 60, 10, None),
    ("thm8", 7, 3, None), ("thm8", 13, 3, None), ("thm8", 20, 4, None), ("thm8", 60, 6, None),
]
GRID_SHA256 = "8d36a0400ab2176554f0fb5d4d39dc7460a2b127eb333e81cf0d7014a2209544"

LONG_NAMES = {
    "thm3": "thm3_arb_homo",
    "thm4": "thm4_arb_hetero",
    "siho": "siho_simple_homo",
    "sihe": "sihe_simple_hetero",
    "thm7": "thm7_circ_homo",
    "thm8": "thm8_circ_hetero",
    "random": "random",
}


def _random_points():
    """Seeds 0-49; odd seeds take the default period cap, even ones an explicit one."""
    for seed in range(50):
        n, k = 6 + seed % 7, 2 + seed % 3
        yield ("random", n, k, None if seed % 2 else -(-n // k) + 1, seed)


def _instances_sha256(points) -> str:
    h = hashlib.sha256()
    for point in points:
        inst = make_instance(*point)
        h.update(f"{inst.family} {inst.params} {inst.bound} {inst.start}\n".encode())
        h.update(dumps(inst.routeset).encode())
    return h.hexdigest()


def test_instances_are_byte_identical():
    assert _instances_sha256([*GRID, *_random_points()]) == GRID_SHA256


#: Points the grid misses: thm8 with odd n-k, thm7 at k = n/2, siho and sihe
#: with many carriers, and hub-and-spoke systems whose last group takes a
#: remainder. Recorded before the generators were rewritten to slice site lists.
CORNERS = [
    ("thm8", 8, 3), ("thm8", 10, 3), ("thm8", 21, 4),
    ("thm7", 8, 4), ("thm7", 60, 30),
    ("siho", 30, 13), ("siho", 60, 29),
    ("sihe", 54, 7),
    ("thm3", 14, 4, 6), ("thm4", 13, 4, 7),
]
CORNERS_SHA256 = "bf21a54cb25893504f20f41080b9597da299401ab5c3394abb7757b89a42d740"


def test_corner_instances_are_byte_identical():
    assert _instances_sha256(CORNERS) == CORNERS_SHA256


@pytest.mark.parametrize("short,long_name", sorted(LONG_NAMES.items()))
def test_short_and_long_family_names_give_equal_instances(short, long_name):
    assert FAMILIES[short].long_name == long_name
    point = next(pt[1:] for pt in [*GRID, *_random_points()] if pt[0] == short)
    assert make_instance(short, *point) == make_instance(long_name, *point)


HEADER = "family,n,k,p,bound,oracle(opt),hitch_moves,guess_moves\n"
SWEEPS = [
    (
        ["--family", "thm8", "--n", "7", "8", "13", "--k", "3"],
        "thm8,7,3,4,22,23,69,23\nthm8,8,3,5,26,29,93,29\nthm8,13,3,7,61,62,228,62\n",
    ),
    (
        ["--family", "thm7", "--n", "8", "10", "12", "--k", "2", "3", "4"],
        "thm7,8,2,12,8,18,24,18\nthm7,8,3,10,16,25,30,35\nthm7,8,4,8,24,28,32,44\n"
        "thm7,10,2,16,10,24,32,24\nthm7,10,3,14,20,35,42,49\nthm7,10,4,12,30,42,48,54\n"
        "thm7,12,2,20,12,30,40,30\nthm7,12,3,18,24,45,54,63\nthm7,12,4,16,36,56,64,72\n",
    ),
    (
        ["--family", "thm4", "--n", "9", "12", "--k", "3", "--p", "5", "6", "7"],
        "thm4,9,3,5,22,43,122,43\nthm4,9,3,6,32,63,182,63\nthm4,9,3,7,44,87,254,87\n"
        "thm4,12,3,5,24,43,122,43\nthm4,12,3,6,34,63,182,63\nthm4,12,3,7,46,87,254,87\n",
    ),
    (
        ["--family", "siho", "--n", "8", "10", "12", "--k", "2", "3"],
        "siho,8,2,22,43,43,44,43\nsiho,8,3,9,25,26,27,26\nsiho,10,2,44,87,87,88,87\n"
        "siho,10,3,23,67,68,69,68\nsiho,12,2,46,89,91,92,91\nsiho,12,3,45,133,134,135,134\n",
    ),
    (
        ["--family", "random", "--n", "6", "8", "--k", "2", "3", "--p", "4", "--seed", "1"],
        "random,6,2,4,,16,59,18\nrandom,6,3,4,,6,59,6\nrandom,8,2,4,,8,14,8\n"
        "random,8,3,4,,10,99,10\n",
    ),
]


@pytest.mark.parametrize("argv,rows", SWEEPS, ids=[s[0][1] for s in SWEEPS])
def test_bench_tables_are_byte_identical(capsys, argv, rows):
    assert main(["bench", *argv]) == 0
    captured = capsys.readouterr()
    assert captured.out == HEADER + rows
    assert captured.err == ""


def test_bench_accepts_a_long_family_name(capsys):
    argv, rows = SWEEPS[0]
    assert main(["bench", "--family", "thm8_circ_hetero", *argv[2:]]) == 0
    assert capsys.readouterr().out == HEADER + rows


AUDITS = {
    ("thm3", 12, 4, 6): '{"family": "thm3_arb_homo", "parameters": {"n": 12, "k": 4, "p": 6}, '
    '"theoretical_lower_bound": 18, "oracle_optimum": 19, "oracle_max_over_starts": 23, '
    '"strategy_moves": {"hitch": 26, "guess": 31}, "notes": [], "violation": false}',
    ("thm8", 13, 3): '{"family": "thm8_circ_hetero", "parameters": {"n": 13, "k": 3}, '
    '"theoretical_lower_bound": 61, "oracle_optimum": 62, "oracle_max_over_starts": 62, '
    '"strategy_moves": {"hitch": 228, "guess": 62}, "notes": [], "violation": false}',
}


@pytest.mark.parametrize("point", sorted(AUDITS))
def test_audit_reports_are_byte_identical(point):
    assert audit(make_instance(*point)).to_json() == AUDITS[point]


#: Default hitch and guess runs (`race`) whose CSV traces are pinned: each
#: family's smallest legal point, ten random systems, and an anonymous thm7
#: copy (hitch only). Recorded before the engine read the integer schedule.
TRACE_POINTS = {
    **{name: [(name, *fam.smallest)] for name, fam in FAMILIES.items() if fam.smallest},
    "random": list(_random_points())[:10],
}


def _traces_sha256(instances) -> str:
    h = hashlib.sha256()
    for inst in instances:
        for name, trace in race(inst.routeset, inst.start).items():
            h.update(f"{name} {inst.params}\n".encode())
            h.update(trace_to_csv(trace).encode())
    return h.hexdigest()


TRACES_SHA256 = {
    "anonymous thm7": "a080f5d32c7edf5ab48e1308fb407fd35238ad3378e6f4e0523400e89d23ae9c",
    "random": "89ce12c41ed08f85008ec107db49fb2d23faf67ea91b3122b8203ec7e8815d52",
    "sihe": "79d5b3cf8102979315e1248dea6b2e6de90780cb6c91585cad9e5f197b81b8c7",
    "siho": "5dd4ba93cebfdcb92ff0df1ed2baf0ad4abaa62ccac45e5b49fb71f71e322d7e",
    "thm3": "50cc5f231b76fffe42870a628ea8f1ea5b0dc3b5ea8d1774f89cec36e024ff4f",
    "thm4": "8851f8b4a232fa485b6dbd295b3ff58a594bbf846427745c85c2eef168efe412",
    "thm7": "b5cc081532887b86bf0d95c1ea96da4715956a704248106519d3b7136c3d973f",
    "thm8": "799a818dabd8173700ea7a00bd424bcdc19f50dbe4f206199ce436428b1099b3",
}


@pytest.mark.parametrize("family", sorted(TRACE_POINTS))
def test_traces_are_byte_identical(family):
    instances = [make_instance(*point) for point in TRACE_POINTS[family]]
    assert _traces_sha256(instances) == TRACES_SHA256[family]


def test_anonymous_traces_are_byte_identical():
    inst = make_instance("thm7", 20, 5)
    rs = inst.routeset
    anonymous = replace(inst, routeset=RouteSet(rs.carriers, ANONYMOUS, rs.sites))
    assert _traces_sha256([anonymous]) == TRACES_SHA256["anonymous thm7"]


#: Family files whose seeded mutations pin the parser's outcomes, and the
#: material a mutation inserts: keywords, numbers, comment and line breaks,
#: and whitespace other than the space (tab, CR, VT, FS, NEL, NBSP).
PARSE_SOURCES = [("thm3", 9, 3, 5), ("thm4", 9, 3, 5), ("siho", 8, 3), ("thm7", 8, 3), ("thm8", 7, 3)]
PARSE_POOL = [
    "pvg", "1", "2", "0", "-3", "07", "x", "mode", "ids", "anonymous", "sites", "carrier",
    ":", "#", "# bound 3", "\n", "\n\n", "é", "\t", "\r", "\x0b", "\x1c", "\x85", "\xa0", " ",
]
PARSE_MUTATIONS = 2000
PARSE_SHA256 = "1df41666be1835f9f64acaf98f914ba09fa79e18e791c1ac58c1d86d52808a55"


def _mutate(text: str, rng) -> str:
    """One to three edits: insert a token, delete a span, swap or copy a line."""
    names = text.split()
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["insert", "delete", "swap", "copy"])
        if kind == "insert":
            tok = rng.choice([*PARSE_POOL, *names])
            at = rng.randrange(len(text) + 1)
            text = text[:at] + rng.choice(["", " "]) + tok + rng.choice(["", " "]) + text[at:]
        elif kind == "delete" and text:
            at = rng.randrange(len(text))
            text = text[:at] + text[at + rng.randint(1, rng.choice([12, 120])):]
        else:
            lines = text.split("\n")
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            if kind == "swap":
                lines[i], lines[j] = lines[j], lines[i]
            else:
                lines.insert(j, lines[i])
            text = "\n".join(lines)
    return text


def _parse_outcome(text: str) -> str:
    """The dumped system, or the error's type and message (line and column included)."""
    try:
        return dumps(loads(text))
    except (PVGraphError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_parse_outcomes_of_mutated_files_are_identical():
    sources = [dumps(make_instance(*point).routeset) for point in PARSE_SOURCES]
    h = hashlib.sha256()
    for seed in range(PARSE_MUTATIONS):
        rng = random.Random(seed)
        h.update(_parse_outcome(_mutate(sources[seed % len(sources)], rng)).encode())
        h.update(b"\0")
    assert h.hexdigest() == PARSE_SHA256
