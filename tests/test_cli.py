from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pvgraph
from pvgraph import HitchARide, loads, run, trace_to_csv
from pvgraph.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_file(tmp_path, capsys, *argv):
    path = tmp_path / "inst.pvg"
    code, _, err = run_cli(capsys, "generate", *argv, "-o", str(path))
    assert code == 0, err
    return path


def test_generate_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "generate", "--family", "thm7", "--n", "8", "--k", "3")
    assert code == 0
    rs = loads(out)
    assert all(c.route.period == 10 for c in rs.carriers)
    assert rs.n == 8 and rs.k == 3


def test_generate_accepts_long_family_names(capsys):
    code, out, _ = run_cli(capsys, "generate", "--family", "thm7_circ_homo", "--n", "8", "--k", "3")
    assert code == 0


def test_generate_emit_bound(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "--family", "thm8", "--n", "13", "--k", "3", "--emit-bound")
    text = path.read_text(encoding="utf-8")
    assert text.rstrip().endswith("# bound 61")


def test_generate_emit_bound_on_a_family_without_one_exits_2(capsys):
    code, out, err = run_cli(capsys, "generate", "--family", "random", "--n", "6", "--k", "2", "--emit-bound")
    assert code == 2
    assert out == "" and "no bound" in err


def test_generate_rejects_bad_parameters(capsys):
    code, _, err = run_cli(capsys, "generate", "--family", "thm3", "--n", "8", "--k", "3", "--p", "4")
    assert code == 2
    assert "n >= 9" in err
    code, _, err = run_cli(capsys, "generate", "--family", "thm7", "--n", "8", "--k", "3", "--p", "99")
    assert code == 2
    assert "takes no p" in err


def test_generate_unknown_family_is_usage_error(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["generate", "--family", "thmX", "--n", "5", "--k", "2"])
    assert ei.value.code == 2


def test_generate_random_is_reproducible(capsys):
    args = ["generate", "--family", "random", "--n", "9", "--k", "3", "--p", "4", "--seed", "11"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_validate_reports_structure(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "--family", "siho", "--n", "8", "--k", "3")
    code, out, _ = run_cli(capsys, "validate", "--in", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["n"] == 8 and rep["k"] == 3
    assert rep["homogeneous"] is True
    assert rep["all_simple"] is True
    assert rep["feasible"] is True


def test_validate_reports_feasibility_past_a_joint_period_of_2_to_the_32(tmp_path, capsys):
    path = tmp_path / "wide.pvg"
    a = " ".join(["a", "b"] * 32768 + ["a"])  # period 65537
    b = " ".join(["a", "b"] * 32768)  # period 65536
    path.write_text(
        f"pvg 1\nmode ids\nsites 2 a b\ncarrier c0 : {a}\ncarrier c1 : {b}\n", encoding="utf-8"
    )
    code, out, _ = run_cli(capsys, "validate", "--in", str(path))
    assert code == 0
    assert json.loads(out)["feasible"] is True


def test_validate_parse_error_exits_5(tmp_path, capsys):
    bad = tmp_path / "bad.pvg"
    bad.write_text("pvg 9\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "validate", "--in", str(bad))
    assert code == 5
    assert "line 1" in err


def test_validate_dead_site_exits_5(tmp_path, capsys):
    bad = tmp_path / "dead.pvg"
    bad.write_text("pvg 1\nmode ids\nsites 2 a ghost\ncarrier c0 : a\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "validate", "--in", str(bad))
    assert code == 5


def test_explore_hitch_covers_and_exits_0(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "--family", "thm7", "--n", "8", "--k", "3")
    csv_path = tmp_path / "walk.csv"
    code, out, _ = run_cli(
        capsys, "explore", "--in", str(path), "--strategy", "hitch",
        "--homogeneous-known", "-o", str(csv_path),
    )
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


def test_explore_guess_exits_0(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "--family", "thm8", "--n", "7", "--k", "3")
    code, out, _ = run_cli(capsys, "explore", "--in", str(path), "--strategy", "guess")
    assert code == 0
    assert json.loads(out)["covered"] is True


def test_explore_move_limit_exits_3(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "--family", "thm7", "--n", "8", "--k", "3")
    code, out, _ = run_cli(
        capsys, "explore", "--in", str(path), "--strategy", "hitch", "--move-limit", "3"
    )
    assert code == 3
    assert json.loads(out)["moves"] == 3


def test_explore_hitch_with_a_loose_bound_is_not_cut_off(tmp_path, capsys):
    path = tmp_path / "loose.pvg"
    path.write_text(
        "pvg 1\nmode ids\nsites 5 a b c d e\ncarrier c0 : a b c\ncarrier c1 : a d e\n", encoding="utf-8"
    )
    code, out, _ = run_cli(capsys, "explore", "--in", str(path), "--strategy", "hitch", "--bound", "20")
    assert code == 0
    assert json.loads(out)["moves"] > 16 * 2 * 3**2


def test_explore_guess_on_anonymous_exits_4(tmp_path, capsys):
    anon = tmp_path / "anon.pvg"
    anon.write_text("pvg 1\nmode anonymous\nsites 2 a b\ncarrier c0 : a b\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "explore", "--in", str(anon), "--strategy", "guess")
    assert code == 4


def test_explore_unknown_start_exits_2(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "--family", "thm7", "--n", "8", "--k", "3")
    code, _, _ = run_cli(capsys, "explore", "--in", str(path), "--strategy", "hitch", "--start", "zz")
    assert code == 2


def test_oracle_reads_bound_comment_and_passes(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "--family", "thm8", "--n", "7", "--k", "3", "--emit-bound")
    code, out, _ = run_cli(capsys, "oracle", "--in", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["theoretical_lower_bound"] == 22
    assert rep["oracle_optimum"] == 23
    assert rep["violation"] is False


def test_oracle_flags_violation_with_exit_1(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "--family", "thm7", "--n", "4", "--k", "2")
    text = path.read_text(encoding="utf-8") + "# bound 9999\n"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run_cli(capsys, "oracle", "--in", str(path))
    assert code == 1
    assert json.loads(out)["violation"] is True


def test_oracle_start_override(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "--family", "thm3", "--n", "12", "--k", "4", "--p", "6")
    code, out, _ = run_cli(capsys, "oracle", "--in", str(path), "--start", "c3")
    assert code == 0
    assert json.loads(out)["oracle_optimum"] == 19


def test_oracle_unknown_start_exits_2(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "--family", "thm8", "--n", "7", "--k", "3")
    code, _, err = run_cli(capsys, "oracle", "--in", str(path), "--start", "zz")
    assert code == 2
    assert "zz" in err


def test_oracle_state_cap_exits_2(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "--family", "thm8", "--n", "13", "--k", "3")
    code, _, err = run_cli(capsys, "oracle", "--in", str(path), "--state-cap", "100")
    assert code == 2
    assert "state" in err.lower() or "cap" in err.lower()


def test_bench_table_layout(capsys):
    code, out, err = run_cli(capsys, "bench", "--family", "thm8", "--n", "7", "8", "13", "--k", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,n,k,p,bound,oracle(opt),hitch_moves,guess_moves"
    rows = [l.split(",") for l in lines[1:]]
    assert [(r[0], r[1], r[2], r[3], r[4], r[5]) for r in rows] == [
        ("thm8", "7", "3", "4", "22", "23"),
        ("thm8", "8", "3", "5", "26", "29"),
        ("thm8", "13", "3", "7", "61", "62"),
    ]
    for r in rows:
        assert int(r[6]) >= int(r[5])  # hitch can't beat the optimum
        assert int(r[7]) >= int(r[5])


def test_bench_illegal_point_leaves_blank_row(capsys):
    code, out, err = run_cli(capsys, "bench", "--family", "thm8", "--n", "6", "7", "--k", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].startswith("thm8,6,3,")
    assert lines[1].endswith(",,,")  # nothing computable for this point
    assert "n=6" in err
    assert lines[2].split(",")[4] == "22"  # the sweep carried on


def test_bench_oracle_cell_blank_beyond_cap(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--family", "thm8", "--n", "7", "--k", "3", "--state-cap", "10"
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[5] == ""  # oracle skipped
    assert row[6] != "" and row[7] != ""  # strategies still measured


def test_bench_audits_a_simple_route_family_at_real_size(capsys):
    code, out, err = run_cli(capsys, "bench", "--family", "siho", "--n", "20", "--k", "3")
    assert code == 0, err
    row = out.strip().splitlines()[1].split(",")
    assert row[4:6] == ["479", "482"]  # bound, oracle(opt)


def test_bench_requires_p_for_parameterized_families(capsys):
    code, _, err = run_cli(capsys, "bench", "--family", "thm3", "--n", "9", "--k", "3")
    assert code == 2
    assert "--p" in err
    code, out, err = run_cli(capsys, "bench", "--family", "thm7", "--n", "8", "--k", "3", "--p", "5")
    assert code == 2
    assert "takes no --p" in err and out == ""


def test_bench_deterministic(capsys):
    args = ["bench", "--family", "thm3", "--n", "9", "12", "--k", "3", "4", "--p", "5", "6"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 1 + 2 * 2 * 2


def test_forge_verdict_true_exits_0(capsys):
    code, out, _ = run_cli(
        capsys, "forge", "--thm", "1", "--strategy", "fixed-step", "--n", "5", "--k", "2"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] is True
    assert loads(rep["gprime"]).mode == "anonymous"


def test_forge_thm2_emits_extended_system(capsys):
    code, out, _ = run_cli(
        capsys, "forge", "--thm", "2", "--strategy", "no-new-site", "--n", "4", "--k", "2"
    )
    assert code == 0
    rep = json.loads(out)
    assert loads(rep["gprime"]).n == 5


def test_forge_thm2_target_halting_short_on_g_exits_0(capsys):
    # FixedStepHalt(5) sees 6 of 7 sites on G itself: G' is G, and the verdict holds
    code, out, err = run_cli(
        capsys, "forge", "--thm", "2", "--strategy", "fixed-step", "--n", "7", "--k", "1"
    )
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["verdict"] is True and rep["g"] == rep["gprime"]


def test_forge_target_cut_off_by_the_move_limit_exits_3(capsys):
    code, out, err = run_cli(
        capsys, "forge", "--thm", "1", "--strategy", "fixed-step", "--n", "6", "--k", "3", "--move-limit", "2"
    )
    assert code == 3
    assert out == "" and "still riding after 2 moves" in err


def test_forge_unknown_strategy_exits_2(capsys):
    code, _, err = run_cli(capsys, "forge", "--thm", "1", "--strategy", "nope", "--n", "5", "--k", "2")
    assert code == 2
    assert "fixed-step" in err


def test_missing_input_file_exits_2(capsys):
    code, _, _ = run_cli(capsys, "validate", "--in", "no/such/file.pvg")
    assert code == 2


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
