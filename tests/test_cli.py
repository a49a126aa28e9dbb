from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pvgraph
from pvgraph import HitchARide, Trace, Walk, loads, run, trace_to_csv
from cli_cases import CASES, check
from helpers import cli_runner


def case_test(case):
    """A test that runs `case` through `cli.main` in its own directory."""

    def test(tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        check(case, cli_runner(capsys), tmp_path)

    test.__name__ = f"test_{case.name}"
    return test


def test_the_cases_exit_with_every_documented_code():
    assert {case.code for case in CASES} == {0, 1, 2, 3, 4, 5}  # README's exit codes


def test_explore_hitch_covers_and_exits_0(tmp_path, capsys):
    pvg = cli_runner(capsys)
    path, csv_path = tmp_path / "inst.pvg", tmp_path / "walk.csv"
    assert pvg(["generate", "--family", "thm7", "--n", "8", "--k", "3", "-o", str(path)])[0] == 0
    code, out, _ = pvg(["explore", "--in", str(path), "--strategy", "hitch", "--homogeneous-known", "-o", str(csv_path)])
    assert code == 0
    rec = json.loads(out)
    assert list(rec) == ["instance", "strategy", "k", "n", "p", "moves", "halted", "covered"]
    assert rec["halted"] is True and rec["covered"] is True
    csv = csv_path.read_text(encoding="utf-8").splitlines()
    assert csv[0] == "step,time,carrier,from,to,new_site"
    assert len(csv) == rec["moves"] + 1
    # the same bytes as the library's writer on the same run
    rs = loads(path.read_text(encoding="utf-8"))
    trace = run(rs, HitchARide(rs.max_period, homogeneous_known=True), rs.carriers[0].id)
    assert csv_path.read_bytes() == trace_to_csv(trace).encode()
    assert sum(int(row.rsplit(",", 1)[1]) for row in csv[1:]) == len({rs.carriers[0].route.at(0), *trace.steps.tos}) - 1


def test_explore_writes_its_csv_without_a_second_copy(tmp_path, capsys):
    pvg = cli_runner(capsys)
    path, csv_path = tmp_path / "inst.pvg", tmp_path / "walk.csv"
    assert pvg(["generate", "--family", "sihe", "--n", "40", "--k", "4", "-o", str(path)])[0] == 0
    # a walk one row past the step-and-time table
    walk = Walk([("c0", ("a", "b"), 0, pvgraph.engine.CSV_HEADS + 1)])
    trace_to_csv(Trace("c0", walk, False))  # fills the step tables, once a process
    tracemalloc.start()
    try:
        code, _, err = pvg(["explore", "--in", str(path), "--strategy", "hitch", "-o", str(csv_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, err
    size = csv_path.stat().st_size
    assert size > 2_000_000
    # the CSV string grown in place and written in slices; an encoded copy of the whole reads ~2x
    assert peak < 1.25 * size, (peak, size)


def test_validate_reports_feasibility_past_a_joint_period_of_2_to_the_32(tmp_path, capsys):
    path = tmp_path / "wide.pvg"
    a = " ".join(["a", "b"] * 32768 + ["a"])  # period 65537
    b = " ".join(["a", "b"] * 32768)  # period 65536
    path.write_text(
        f"pvg 1\nmode ids\nsites 2 a b\ncarrier c0 : {a}\ncarrier c1 : {b}\n", encoding="utf-8"
    )
    code, out, _ = cli_runner(capsys)(["validate", "--in", str(path)])
    assert code == 0
    assert json.loads(out)["feasible"] is True


def test_bench_leaves_the_cell_of_a_strategy_that_fails_to_cover_empty(capsys, monkeypatch):
    import pvgraph.cli as cli

    race = cli.race

    def hitch_halts_at_once(rs, start):
        traces = race(rs, start)
        traces["hitch"] = Trace(start, [], True)  # halted, having seen only its start site
        return traces

    monkeypatch.setattr(cli, "race", hitch_halts_at_once)
    code, out, err = cli_runner(capsys)(["bench", "--family", "thm8", "--n", "7", "--k", "3"])
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[:6] == ["thm8", "7", "3", "4", "22", "23"]
    assert row[6] == "" and row[7] != ""
    assert err == "bench thm8 n=7 k=3 p=None: hitch failed to cover\n"


def run_in_c_locale(*argv):
    """`pvg` in a fresh interpreter whose default encoding is ASCII."""
    src = str(Path(pvgraph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
    code = "import sys; from pvgraph.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, encoding="utf-8", timeout=60)


def test_files_are_utf8_whatever_the_locale(tmp_path):
    path = tmp_path / "u.pvg"
    path.write_bytes("pvg 1\nmode ids\nsites 2 é b\ncarrier c : é b\n# bound 1\n".encode())
    done = run_in_c_locale("oracle", "--in", str(path))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["oracle_optimum"] == 1
    out = tmp_path / "walk.csv"
    done = run_in_c_locale("explore", "--in", str(path), "--strategy", "hitch", "-o", str(out))
    assert done.returncode == 0, done.stderr
    assert "é" in out.read_text(encoding="utf-8")


def test_undecodable_input_is_a_parse_error_at_its_line(tmp_path):
    path = tmp_path / "bad.pvg"
    path.write_bytes(b"pvg 1\r\nmode ids\nsites 2 a b\ncarrier c : a \xff b\n")
    done = run_in_c_locale("validate", "--in", str(path))
    assert done.returncode == 5
    assert done.stderr.strip() == "line 4, column 15: byte 0xff is not valid UTF-8"


# one test a case, named after it: `-k` picks one case alone, and a case that took the
# place of a hand-written test keeps that test's name; no two share one
CASE_TESTS = {f"test_{case.name}": case_test(case) for case in CASES}
assert len(CASE_TESTS) == len(CASES) and not CASE_TESTS.keys() & globals().keys()
globals().update(CASE_TESTS)
