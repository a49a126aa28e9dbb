"""The benchmark's own tests.

    python3 -m pytest -q bench/selftest.py

They check that failed ops are counted, that the documented bound defects are
listed apart from them, that tracing changes no output, that
the seed changes only the random inputs, that the stored corpus follows its
rules, and that the benchmark refuses to run without the program.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import pvgraph  # noqa: E402

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _ops(workload: str, seed: int, tmp_path: Path, labels: tuple[str, ...] = ()) -> list:
    ops = workloads.make_ops(workload, seed, tmp_path)
    return [op for op in ops if not labels or op.label.startswith(labels)]


def _comparable(out):
    """An op's outputs without the wall-clock time ride ops carry."""
    if isinstance(out, tuple) and isinstance(out[-1], float):
        return out[:-1]
    return out


def test_tampered_trace_is_a_failed_op(monkeypatch, tmp_path):
    real_run = pvgraph.run

    def tampered_run(rs, strategy, start, move_limit=None):
        trace = real_run(rs, strategy, start, move_limit)
        steps = list(trace.steps)
        wrong = next(site for site in rs.sites if site != steps[3].to_site)
        steps[3] = dataclasses.replace(steps[3], to_site=wrong)
        return dataclasses.replace(trace, steps=tuple(steps))

    ops = _ops("ride", 1, tmp_path, ("hitch thm7", "guess thm3"))
    assert run.run_passes(ops, 0, 1).failures == {}
    monkeypatch.setattr(pvgraph, "run", tampered_run)
    res = run.run_passes(ops, 0, 1)
    assert set(res.failures) == {op.label for op in ops}
    assert all(reason == "replay_check rejects step 3" for reason, _ in res.failures.values())


def test_wrong_feasibility_answer_is_a_failed_op(monkeypatch, tmp_path):
    real = pvgraph.is_feasible
    audit = _ops("audit", 1, tmp_path, ("feasibility",))[:10]
    build = _ops("build", 1, tmp_path, ("build thm8", "wide"))
    assert run.run_passes(audit + build, 0, 1).failures == {}
    monkeypatch.setattr(pvgraph, "is_feasible", lambda rs: not real(rs))
    res = run.run_passes(audit + build, 0, 1)
    assert set(res.failures) == {op.label for op in audit + build}
    assert res.attempted == len(audit + build)


def test_raising_op_is_a_failed_op(monkeypatch, tmp_path):
    ops = _ops("audit", 1, tmp_path, ("audit thm7(8,3)",))

    def refuse(*args, **kwargs):
        raise pvgraph.StateSpaceTooLarge(1, 0)

    monkeypatch.setattr(pvgraph, "audit", refuse)
    res = run.run_passes(ops, 0, 1)
    assert res.failures == {"audit thm7(8,3)": ["raised StateSpaceTooLarge: state space 1 exceeds cap 0", 1]}


def test_known_bound_defects_are_listed_not_failed(monkeypatch, tmp_path):
    ops = _ops("audit", 1, tmp_path, ("audit thm3(10,3,5)", "audit thm8(13,6)", "audit thm8(13,3)"))
    res = run.run_passes(ops, 0, 1)
    assert res.failures == {}
    assert set(res.known) == {"audit thm3(10,3,5)", "audit thm8(13,6)"}
    assert all(reason.startswith("bound ") for reason, _ in res.known.values())
    # the same violation on a point not in the documented list is a failed op
    monkeypatch.setattr(workloads, "KNOWN_BOUND_DEFECTS", set())
    res = run.run_passes(ops, 0, 1)
    assert res.known == {} and set(res.failures) == {"audit thm3(10,3,5)", "audit thm8(13,6)"}


def test_traced_and_untraced_outputs_match(tmp_path):
    picks = {
        "ride": ("hitch thm8", "guess thm4", "hitch random", "hitch anonymous"),
        "audit": ("audit thm3(10,3,5)", "audit siho", "pvg bench", "feasibility"),
        "build": ("build sihe(36", "build thm3", "build thm8", "wide random(60,4) periods [1600"),
    }
    for workload, labels in picks.items():
        plain = []
        run.run_passes(_ops(workload, 3, tmp_path, labels), 0, 1, outputs=plain)
        tracer = spans.Tracer()
        traced = []
        with tracer.active():
            tracer.segment("setup")
            ops = _ops(workload, 3, tmp_path, labels)
            run.run_passes(ops, 0, 1, tracer, outputs=traced)
        assert [_comparable(o) for o in plain] == [_comparable(o) for o in traced], workload
        assert tracer.spans, workload
    # the wrappers are gone again
    assert not hasattr(pvgraph.run, "__wrapped__")


def test_spans_nest_and_self_times_add_up(tmp_path):
    tracer = spans.Tracer()
    with tracer.active():
        tracer.segment("setup")
        ops = _ops("audit", 1, tmp_path, ("audit thm8(13,3)",))
        run.run_passes(ops, 0, 1, tracer)
    audit_span = next(s for s in tracer.spans if s[1] == "audit")
    children = [s for s in tracer.spans if s[4] == audit_span[0]]
    assert {s[1] for s in children} == {"min_moves", "run"}
    assert abs(audit_span[8] - sum(s[7] for s in children)) < 1e-9
    stats = tracer.stats[0]
    assert stats["oracle.calls"] == 4 and stats["strategies.hitch.decides"] > 0


def test_seed_changes_only_random_inputs(tmp_path):
    for workload, random_labels in (
        ("ride", ("hitch random", "guess random")),
        ("audit", ("feasibility", "pvg bench --family random")),
        ("build", ("wide",)),
    ):
        a, b = _ops(workload, 1, tmp_path), _ops(workload, 2, tmp_path)
        fixed = [i for i, op in enumerate(a) if not op.label.startswith(random_labels)]
        assert [a[i].label for i in fixed] == [b[i].label for i in fixed]
        assert len(fixed) < len(a)
    for periods in corpus.WIDE_PERIODS[:2]:
        one, again, other = (workloads.wide_routeset(periods, s) for s in (1, 1, 2))
        assert one == again and one != other
        assert [c.route.period for c in other.carriers] == periods
    # the seeded system's walk changes with the seed and repeats for a seed
    def csv(seed, label):
        (op,) = _ops("ride", seed, tmp_path, (label,))
        return op.call()[2]

    assert csv(1, "guess random") == csv(1, "guess random") != csv(2, "guess random")
    assert csv(1, "guess thm7") == csv(2, "guess thm7")


def test_tail_percentile_leaves_ten_ops_beyond():
    for n in (51, 286 * 2, 683 * 2, 11, 1000):
        q = run.tail_percentile(n)
        values = list(range(n))
        assert n - 1 - run.percentile(values, q) >= 10
        assert n - 1 - run.percentile(values, q + 1) < 10


def test_scaling_removes_a_uniform_slowdown():
    res = run.Passes()
    res.latencies = [0.010, 0.200, 0.030, 0.600]  # two ops; the second pass runs 3x slower
    res.refs = [[0.004, 0.005, 0.003], [0.012, 0.011, 0.013]]
    scaled = run.scaled_latencies(res, 2)
    speed = run.REF_S / 0.004
    assert [[round(x / speed, 12) for x in lat] for lat in scaled] == [[0.01, 0.01], [0.2, 0.2]]


def test_stored_corpus_follows_its_rules():
    assert corpus.derive(pvgraph) == corpus.load()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [*cmd, "--workload", "ride", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
