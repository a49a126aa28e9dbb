"""Golden outputs: instance bytes, `pvg bench` tables and audit reports.

Every expected value here was recorded from the package before the family
table replaced the per-family dispatch; a refactor must reproduce them
byte for byte.
"""
from __future__ import annotations

import hashlib

import pytest

from pvgraph import FAMILIES, audit, dumps, make_instance
from pvgraph.cli import main

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


def test_instances_are_byte_identical():
    h = hashlib.sha256()
    for point in [*GRID, *_random_points()]:
        inst = make_instance(*point)
        h.update(f"{inst.family} {inst.params} {inst.bound} {inst.start}\n".encode())
        h.update(dumps(inst.routeset).encode())
    assert h.hexdigest() == GRID_SHA256


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
