"""The `pvg` command-line cases: each run's inputs, argv, exit code and pins, in one table.

Two drivers run `CASES` through `check`. Tier-1 (`tests/test_cli.py`) runs each case
in-process through `pvgraph.cli.main`, as the test `test_<name>`. Run as a script,

    python tests/cli_cases.py

this module runs each case as a subprocess of the `pvg` found on PATH, the installed
console entry point, then names every case that failed and exits 1. It imports only the
standard library, so it runs from any directory. Every case builds its own inputs in a
fresh directory, so any one case runs alone.

To pin a new behaviour, append a `Case` to `CASES`; both drivers pick it up.
"""
from __future__ import annotations

import csv
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Made:
    """An input file made by a `pvg` run of `argv`, which must exit 0.

    The file is the run's `-o` file, or with `field` one field of its JSON stdout. With
    `swap`, the one line `swap[0]` of that text is replaced by `swap[1]`.
    """

    argv: str
    field: str | None = None
    swap: tuple[str, str] | None = None


@dataclass(frozen=True)
class Case:
    """One `pvg` run and what it must show.

    `inputs` maps a file name to its literal text or to a `Made` run. `subset` holds keys
    and values the JSON object on stdout must have; `lines` is stdout's exact lines (`()`:
    stdout is empty); `err` holds substrings of stderr, which is empty when `err` is;
    `sha256` maps a file the run writes to its digest. Every `explore ... -o` CSV also
    passes `check_csv`.
    """

    name: str
    argv: str
    code: int = 0
    inputs: dict[str, str | Made] = field(default_factory=dict)
    subset: dict | None = None
    lines: tuple[str, ...] | None = None
    err: tuple[str, ...] = ()
    sha256: dict[str, str] = field(default_factory=dict)


CSV_HEADER = ["step", "time", "carrier", "from", "to", "new_site"]

RINGS = {"t.pvg": Made("generate --family thm8 --n 13 --k 3 --emit-bound")}
RANDOM = {"r.pvg": Made("generate --family random --n 40 --k 8 --p 30 --seed 1")}
SIHE36 = {"sihe36.pvg": Made("generate --family sihe --n 36 --k 4")}
ANONYMOUS = {"anon.pvg": Made("generate --family thm7 --n 12 --k 4", swap=("mode ids", "mode anonymous"))}
HUB = {"hub.pvg": Made("generate --family thm7 --n 15 --k 7 --emit-bound")}

THM7_8_3 = (
    "pvg 1",
    "mode ids",
    "sites 8 x0 x1 x2 x3 x4 y1 y2 y3",
    "carrier c0 : x0 x1 x2 x3 x4 y1 x4 x3 x2 x1",
    "carrier c1 : x0 x2 x3 x4 x1 y2 x1 x4 x3 x2",
    "carrier c2 : x0 x3 x4 x1 x2 y3 x2 x1 x4 x3",
)
# hitch never reads a site name: it writes these bytes with or without them
RINGS_HITCH_CSV = "2e7ae2b579c1d30c1a20c21de2ee0997ba1a8fcf10b3de3052ea65f70045cda6"
SWEEP_HEADER = "family,n,k,p,bound,oracle(opt),hitch_moves,guess_moves"
SEVEN_SITES = "pvg 1\nmode ids\nsites 7 x0 x1 x2 x3 x4 x5 x6\ncarrier c0 : x0 x1 x2 x3 x4 x5 x6\n"


def report(n, k, mode, max_period, homogeneous, simple, irredundant, feasible=True):
    """The whole JSON report of `pvg validate`."""
    return {"n": n, "k": k, "mode": mode, "max_period": max_period, "homogeneous": homogeneous,
            "all_simple": simple, "all_irredundant": irredundant, "feasible": feasible}


def covered(moves, **more):
    """The fields of an explore summary whose run covered and halted after `moves` moves."""
    return {"moves": moves, "halted": True, "covered": True, **more}


CASES = [
    # generate
    Case("generate_to_stdout", "generate --family thm7 --n 8 --k 3", lines=THM7_8_3),
    Case("generate_accepts_long_family_names", "generate --family thm7_circ_homo --n 8 --k 3", lines=THM7_8_3),
    Case("generate_emit_bound", "generate --family thm8 --n 13 --k 3 --emit-bound", lines=(
        "pvg 1",
        "mode ids",
        "sites 13 x0 x1 x2 x3 x4 x5 y1 y2 y3 y4 y5 z1 z2",
        "carrier c0 : x0 y1 y2 y3 y4 y5",
        "carrier c1 : x1 x2 x3 x4 x5 x0 z1",
        "carrier c2 : x2 x3 x4 x5 x0 x1 z2",
        "# bound 61",
    )),
    Case("generate_emit_bound_on_a_family_without_one_exits_2",
         "generate --family random --n 6 --k 2 --emit-bound",
         code=2, lines=(), err=("this family carries no bound to emit",)),
    Case("generate_rejects_bad_parameters", "generate --family thm3 --n 8 --k 3 --p 4",
         code=2, lines=(), err=("constraint violated: n >= 9",)),
    Case("generate_rejects_a_p_its_family_does_not_take", "generate --family thm7 --n 8 --k 3 --p 99",
         code=2, lines=(), err=("thm7 takes no p",)),
    Case("generate_unknown_family_is_usage_error", "generate --family thmX --n 5 --k 2",
         code=2, lines=(), err=("argument --family: invalid choice: 'thmX'",)),
    Case("generate_random_is_reproducible", "generate --family random --n 9 --k 3 --p 4 --seed 11", lines=(
        "pvg 1",
        "mode ids",
        "sites 9 s0 s1 s2 s3 s4 s5 s6 s7 s8",
        "carrier c0 : s8 s3 s2 s0 s0",
        "carrier c1 : s4 s6 s8 s7 s0",
        "carrier c2 : s5 s1 s1 s8 s0",
    )),
    # validate
    Case("validate_reports_structure", "validate --in s.pvg",
         inputs={"s.pvg": Made("generate --family siho --n 8 --k 3")},
         subset=report(8, 3, "ids", 9, True, True, False)),
    # thm8's routes are rings: simple and irredundant from the period shape alone
    Case("validate_rings", "validate --in t.pvg", inputs=RINGS,
         subset=report(13, 3, "ids", 7, False, True, True)),
    # irredundance tests the period shape before the edge scan: siho's simple routes fail
    # the shape, the hub's tree tours pass it and the scan
    Case("validate_simple_routes_that_are_not_tree_tours", "validate --in siho.pvg",
         inputs={"siho.pvg": Made("generate --family siho --n 12 --k 3")},
         subset=report(12, 3, "ids", 45, True, True, False)),
    Case("validate_hub", "validate --in hub.pvg", inputs=HUB,
         subset=report(15, 7, "ids", 16, True, True, True)),
    # thm7(28,14)'s 14 routes are tree tours, each checked for its reverse edges in one
    # set test; feasibility settles thm3(58,9,51)'s pairs that share no site by their
    # site sets alone
    Case("validate_tree_tours", "validate --in tours.pvg",
         inputs={"tours.pvg": Made("generate --family thm7 --n 28 --k 14")},
         subset=report(28, 14, "ids", 28, True, True, True)),
    Case("validate_carriers_apart", "validate --in apart.pvg",
         inputs={"apart.pvg": Made("generate --family thm3 --n 58 --k 9 --p 51")},
         subset=report(58, 9, "ids", 51, True, False, False)),
    # a thm1 forge's G', written to a file, reads back and validates
    Case("validate_forged_gprime", "validate --in gprime.pvg",
         inputs={"gprime.pvg": Made("forge --thm 1 --strategy no-new-carrier --n 6 --k 3", field="gprime")},
         subset=report(6, 3, "anonymous", 11, True, False, False)),
    Case("validate_parse_error_exits_5", "validate --in bad.pvg", inputs={"bad.pvg": "pvg 9\n"},
         code=5, lines=(), err=("line 1, column 1: expected header 'pvg 1'",)),
    Case("validate_dead_site_exits_5", "validate --in dead.pvg",
         inputs={"dead.pvg": "pvg 1\nmode ids\nsites 2 a ghost\ncarrier c0 : a\n"},
         code=5, lines=(), err=("site(s) on no route: ghost",)),
    # an error names the line and column of its token
    Case("validate_route_site_outside_the_universe_exits_5", "validate --in ghost.pvg",
         inputs={"ghost.pvg": "pvg 1\nmode ids\nsites 2 a b\ncarrier c0 : a b ghost\n"},
         code=5, lines=(), err=("line 4, column 18: unknown site 'ghost'",)),
    Case("validate_site_count_below_one_exits_5", "validate --in none.pvg",
         inputs={"none.pvg": "pvg 1\nmode ids\nsites 0\ncarrier c0 : a\n"},
         code=5, lines=(), err=("line 3, column 7: site count must be positive",)),
    Case("missing_input_file_exits_2", "validate --in no/such/file.pvg",
         code=2, lines=(), err=("No such file or directory: 'no/such/file.pvg'",)),
    # explore
    Case("explore_hitch_covers_the_rings", "explore --in t.pvg --strategy hitch -o walk.csv", inputs=RINGS,
         subset=covered(228, n=13), sha256={"walk.csv": RINGS_HITCH_CSV}),
    Case("explore_hitch_writes_the_same_csv_without_site_names",
         "explore --in t.pvg --strategy hitch -o walk.csv",
         inputs={"t.pvg": Made(RINGS["t.pvg"].argv, swap=("mode ids", "mode anonymous"))},
         subset=covered(228, n=13), sha256={"walk.csv": RINGS_HITCH_CSV}),
    Case("explore_guess_exits_0", "explore --in t.pvg --strategy guess -o guess.csv", inputs=RINGS,
         subset=covered(62, n=13)),
    Case("explore_uncovered_halt_exits_1", "explore --in t.pvg --strategy hitch --bound 1", inputs=RINGS,
         code=1, subset={"moves": 1, "halted": True, "covered": False}),
    Case("explore_move_limit_exits_3", "explore --in t.pvg --strategy hitch --move-limit 5 -o cut.csv",
         inputs=RINGS, code=3, subset={"moves": 5, "halted": False, "covered": False}),
    Case("explore_move_limit_below_one_exits_2", "explore --in t.pvg --strategy hitch --move-limit 0",
         inputs=RINGS, code=2, lines=(), err=("move_limit must be positive",)),
    Case("explore_unknown_start_exits_2", "explore --in t.pvg --strategy hitch --start zz", inputs=RINGS,
         code=2, lines=(), err=("no carrier 'zz'",)),
    Case("explore_hitch_with_a_loose_bound_is_not_cut_off", "explore --in loose.pvg --strategy hitch --bound 20",
         inputs={"loose.pvg": "pvg 1\nmode ids\nsites 5 a b c d e\ncarrier c0 : a b c\ncarrier c1 : a d e\n"},
         subset=covered(804)),
    Case("explore_hitch_covers_an_anonymous_system", "explore --in anon.pvg --strategy hitch -o anon.csv",
         inputs=ANONYMOUS, subset=covered(1024, n=12)),
    Case("explore_guess_on_anonymous_exits_4", "explore --in anon.pvg --strategy guess", inputs=ANONYMOUS,
         code=4, lines=(), err=("this strategy needs site identities",)),
    # a mid-size random system, where hitch decides most often
    Case("explore_hitch_writes_the_pinned_csv_on_random_40_8_30", "explore --in r.pvg --strategy hitch -o r.csv",
         inputs=RANDOM, subset=covered(6558),
         sha256={"r.csv": "26a4a23c6b780b243603b1224f181f2d08bd8662d99b0c8bd5ccb79a24889347"}),
    Case("explore_guess_writes_the_pinned_csv_on_random_40_8_30", "explore --in r.pvg --strategy guess -o r.csv",
         inputs=RANDOM, subset=covered(996),
         sha256={"r.csv": "2b08f5665a10951387dfeb4790bd72e1804198f8b9a9960030823651542ef194"}),
    # long rides over many 1,000-row blocks; hitch's CSV crosses the 10,000-row edge of the
    # step-and-time table
    Case("explore_hitch_writes_the_pinned_csv_on_sihe_36_4", "explore --in sihe36.pvg --strategy hitch -o s.csv",
         inputs=SIHE36, subset=covered(16559, n=36),
         sha256={"s.csv": "5f63a34487891ea3dd7a44c31d0667f0c172072458d7375a9673226b4b7d51b9"}),
    Case("explore_guess_writes_the_pinned_csv_on_sihe_36_4", "explore --in sihe36.pvg --strategy guess -o s.csv",
         inputs=SIHE36, subset=covered(6252, n=36),
         sha256={"s.csv": "a30f81358b9c90aed80e3d2101707d1bdcb9eb56a7ba33a00f7b31a4a3ac9a5a"}),
    # rows depart where the row before arrived across long segments' borders
    Case("explore_hitch_on_sihe_40_4", "explore --in sihe.pvg --strategy hitch -o sihe.csv",
         inputs={"sihe.pvg": Made("generate --family sihe --n 40 --k 4")}, subset=covered(103055, n=40)),
    # names may hold a comma or a quote: the CSV quotes them
    Case("explore_quotes_names_in_the_csv", "explore --in names.pvg --strategy hitch -o names.csv",
         inputs={"names.pvg": 'pvg 1\nmode ids\nsites 4 a,b x"y s "\n'
                              'carrier c,1 : a,b x"y\ncarrier q"t : a,b s\ncarrier c2 : " s\n'},
         subset=covered(14, n=4),
         sha256={"names.csv": "7078758736d7471661164dc15bc50f86c71594fd083e19019f928055592a9c0f"}),
    # oracle
    Case("oracle_reads_bound_comment_and_passes", "oracle --in t7.pvg",
         inputs={"t7.pvg": Made("generate --family thm8 --n 7 --k 3 --emit-bound")},
         subset={"theoretical_lower_bound": 22, "oracle_optimum": 23, "violation": False}),
    # thm8(13,3)'s three carriers start on three sites, and their searches share one ride table
    Case("oracle_rings", "oracle --in t.pvg", inputs=RINGS,
         subset={"oracle_optimum": 62, "oracle_max_over_starts": 62, "violation": False}),
    Case("oracle_flags_violation_with_exit_1", "oracle --in v.pvg",
         inputs={"v.pvg": "pvg 1\nmode ids\nsites 4 x0 x1 y1 y2\n"
                          "carrier c0 : x0 x1 y1 x1\ncarrier c1 : x0 x1 y2 x1\n# bound 9999\n"},
         code=1, subset={"oracle_optimum": 6, "violation": True}),
    Case("oracle_start_override", "oracle --in o.pvg --start c3",
         inputs={"o.pvg": Made("generate --family thm3 --n 12 --k 4 --p 6")}, subset={"oracle_optimum": 19}),
    Case("oracle_unknown_start_exits_2", "oracle --in t.pvg --start zz", inputs=RINGS,
         code=2, lines=(), err=("no carrier 'zz'",)),
    # start c0 alone needs a state cap of 144
    Case("oracle_state_cap_exits_2", "oracle --in t.pvg --state-cap 100", inputs=RINGS,
         code=2, lines=(), err=("exceeds cap 100",)),
    # every carrier of the hub family starts on one site: one search serves them all
    Case("oracle_hub", "oracle --in hub.pvg", inputs=HUB,
         subset={"oracle_optimum": 104, "oracle_max_over_starts": 104, "violation": False}),
    # criterion 5's real-size points, at the default state cap
    Case("oracle_thm4_60_10_40", "oracle --in big.pvg",
         inputs={"big.pvg": Made("generate --family thm4 --n 60 --k 10 --p 40 --emit-bound")},
         subset={"oracle_optimum": 14050, "violation": False}),
    Case("oracle_sihe_48_5", "oracle --in sihe48.pvg",
         inputs={"sihe48.pvg": Made("generate --family sihe --n 48 --k 5 --emit-bound")},
         subset={"oracle_optimum": 103196, "violation": False}),
    # bench
    Case("bench_table_layout", "bench --family thm8 --n 7 8 13 --k 3", lines=(
        SWEEP_HEADER,
        "thm8,7,3,4,22,23,69,23",
        "thm8,8,3,5,26,29,93,29",
        "thm8,13,3,7,61,62,228,62",
    )),
    Case("bench_illegal_point_leaves_blank_row", "bench --family thm8 --n 6 7 --k 3",
         lines=(SWEEP_HEADER, "thm8,6,3,,,,,", "thm8,7,3,4,22,23,69,23"),
         err=("bench thm8 n=6 k=3 p=None: n-k = 3 leaves no coprime pair with r >= 2",)),
    Case("bench_oracle_cell_blank_beyond_cap", "bench --family thm8 --n 7 --k 3 --state-cap 10",
         lines=(SWEEP_HEADER, "thm8,7,3,4,22,,69,23")),
    Case("bench_audits_a_simple_route_family_at_real_size", "bench --family siho --n 20 --k 3",
         lines=(SWEEP_HEADER, "siho,20,3,161,479,482,483,482")),
    Case("bench_requires_p_for_parameterized_families", "bench --family thm3 --n 9 --k 3",
         code=2, lines=(), err=("thm3 needs --p",)),
    Case("bench_takes_no_p_for_a_family_without_one", "bench --family thm7 --n 8 --k 3 --p 5",
         code=2, lines=(), err=("thm7 takes no --p",)),
    Case("bench_deterministic", "bench --family thm3 --n 9 12 --k 3 4 --p 5 6", lines=(
        SWEEP_HEADER,
        "thm3,9,3,5,10,10,16,15",
        "thm3,9,3,6,11,12,19,18",
        "thm3,9,4,5,,,,",
        "thm3,9,4,6,,,,",
        "thm3,12,3,5,,,,",
        "thm3,12,3,6,12,12,19,18",
        "thm3,12,4,5,16,16,22,36",
        "thm3,12,4,6,18,19,26,31",
    ), err=(
        "bench thm3 n=9 k=4 p=5: constraint violated: 3 <= k <= n/3\n"
        "bench thm3 n=9 k=4 p=6: constraint violated: 3 <= k <= n/3\n"
        "bench thm3 n=12 k=3 p=5: constraint violated: p >= max(k-1, ceil(n/(k-1)))\n",
    )),
    # forge
    Case("forge_verdict_true_exits_0", "forge --thm 1 --strategy fixed-step --n 5 --k 2", subset={
        "verdict": True,
        "gprime": "pvg 1\nmode anonymous\nsites 5 x0 x1 x2 x3 x4\n"
                  "carrier c0 : x0 x1 x2 x3 x3 x0 x1 x2 x3 x3 x0 x1 x2 x3 x3 x0 x4 x0 x1 x2 x3 x4 x0 x1 x2 x3 x4 x0\n"
                  "carrier c1 : x0 x1 x2 x3 x3 x0 x1 x2 x3 x3 x0 x1 x2 x3 x3 x0 x4 x0 x1 x2 x3 x4 x0 x1 x2 x3 x4 x0\n",
    }),
    Case("forge_thm2_emits_extended_system", "forge --thm 2 --strategy no-new-site --n 4 --k 2", subset={
        "verdict": True,
        "gprime": "pvg 1\nmode ids\nsites 5 x0 x1 x2 x3 x4\n"
                  "carrier c0 : x0 x1 x2 x3 x0 x1 x2 x3 x0 x1 x2 x4\n"
                  "carrier c1 : x0 x1 x2 x3 x0 x1 x2 x3 x0 x1 x2 x4\n",
    }),
    # FixedStepHalt(5) sees 6 of 7 sites on G itself: G' is G, and the verdict holds
    Case("forge_thm2_target_halting_short_on_g_exits_0", "forge --thm 2 --strategy fixed-step --n 7 --k 1",
         subset={"verdict": True, "g": SEVEN_SITES, "gprime": SEVEN_SITES}),
    # the exit code StrategyDidNotHalt carries
    Case("forge_target_cut_off_by_the_move_limit_exits_3",
         "forge --thm 1 --strategy fixed-step --n 6 --k 3 --move-limit 2",
         code=3, lines=(), err=("still riding after 2 moves",)),
    Case("forge_unknown_strategy_exits_2", "forge --thm 1 --strategy nope --n 5 --k 2",
         code=2, lines=(), err=("pick one of: fixed-step, no-new-carrier, ride-legs",)),
]


def check(case: Case, pvg, where: Path) -> None:
    """Build `case`'s inputs in `where`, run it through `pvg`, and assert its pins.

    `pvg(argv)` runs the program in the directory `where` and returns its exit code,
    stdout and stderr.
    """
    for name, source in case.inputs.items():
        if isinstance(source, Made):
            argv = source.argv.split()
            code, out, err = pvg(argv if source.field else [*argv, "-o", name])
            assert code == 0, f"input {name}: exit {code}: {err}"
            text = json.loads(out)[source.field] if source.field else (where / name).read_text(encoding="utf-8")
            if source.swap:
                lines = text.split("\n")
                lines[lines.index(source.swap[0])] = source.swap[1]
                text = "\n".join(lines)
        else:
            text = source
        (where / name).write_text(text, encoding="utf-8")
    argv = case.argv.split()
    code, out, err = pvg(argv)
    assert code == case.code, f"exit {code}, not {case.code}: {err}"
    if case.subset is not None:
        got = json.loads(out)
        assert {key: got.get(key, "<missing>") for key in case.subset} == case.subset, got
    if case.lines is not None:
        assert out.splitlines() == list(case.lines), out
    if case.err:
        assert all(part in err for part in case.err), err
    else:
        assert err == "", err
    for name, digest in case.sha256.items():
        assert hashlib.sha256((where / name).read_bytes()).hexdigest() == digest, name
    if argv[0] == "explore" and "-o" in argv:
        check_csv(where / argv[argv.index("-o") + 1], json.loads(out))


def check_csv(path: Path, summary: dict) -> None:
    """What every `pvg explore -o` CSV shows of the run `summary` describes.

    One header and one row per move, six fields a row; row i is step i at time i and
    departs where row i−1 arrived; a covering run flags n − 1 first arrivals.
    """
    with open(path, encoding="utf-8", newline="") as f:
        header, *rows = csv.reader(f)
    assert header == CSV_HEADER, header
    assert len(rows) == summary["moves"], (len(rows), summary)
    assert all(len(row) == 6 for row in rows), "a row without six fields"
    assert all(row[0] == row[1] == str(i) for i, row in enumerate(rows)), "a row not numbered by its index"
    assert all(row[3] == prev[4] for prev, row in zip(rows, rows[1:])), "a row departs where the last did not arrive"
    assert all(row[5] in ("0", "1") for row in rows), "a new_site flag not 0 or 1"
    if summary["covered"]:
        assert sum(row[5] == "1" for row in rows) == summary["n"] - 1, summary


def main() -> int:
    """Run every case through the `pvg` on PATH; exit 1 after naming each that failed."""
    if not __debug__:
        print("the checks are asserts: run without -O", file=sys.stderr)
        return 1
    exe = shutil.which("pvg")
    if exe is None:
        print("no pvg on PATH: install the package first", file=sys.stderr)
        return 1
    failed = []
    for case in CASES:
        runs = []
        with tempfile.TemporaryDirectory() as where:
            def pvg(argv):
                done = subprocess.run([exe, *argv], cwd=where, capture_output=True, encoding="utf-8", timeout=300)
                runs.append(done)
                return done.returncode, done.stdout, done.stderr

            try:
                check(case, pvg, Path(where))
            except Exception as exc:  # every case runs, whatever one of them raises
                failed.append(case.name)
                print(f"FAIL {case.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                for done in runs[-1:]:
                    print(f"  last run: pvg {' '.join(done.args[1:])}\n  exit {done.returncode}, stderr: {done.stderr}",
                          file=sys.stderr)
    print(f"{len(CASES) - len(failed)} of {len(CASES)} cases pass through {exe}")
    if failed:
        print("failed: " + " ".join(failed), file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
