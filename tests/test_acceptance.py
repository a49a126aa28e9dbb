"""Acceptance gate: one verdict line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as
they happen. Every criterion prints exactly one line:

    ACCEPTANCE <i> PASS — <detail>

and fails its test (with the same line, FAIL) if the property does not hold
at the stated tolerance.
"""
from __future__ import annotations

import itertools
import math
import random
import time

import pytest

from pvgraph import (
    GuessingRide,
    HitchARide,
    IDS,
    RouteSet,
    build_meeting_graph,
    exact_feasible,
    forge_thm1,
    forge_thm2,
    gen_random_feasible,
    gen_sihe,
    gen_siho,
    is_concrete_cover,
    is_feasible,
    is_homogeneous,
    is_simple,
    make_instance,
    min_moves,
    run,
)
from pvgraph.cli import THM1_TARGETS, THM2_TARGETS, main
from pvgraph.errors import NoSuitablePrime, ParameterViolation
from pvgraph.instances import (
    FAMILIES,
    random_routeset_raw,
    sihe_params,
    siho_params,
)


def _verdict(idx: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {idx} {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {idx}: {detail}"


def _corpus_instances() -> list[tuple[str, RouteSet]]:
    """200 seeded feasible systems (n<=12, k<=5, p<=10) plus every family
    at its smallest legal parameter point."""
    out = []
    for seed in range(200):
        rng = random.Random(seed * 977 + 13)
        k = rng.randint(1, 5)
        if k == 1:
            n = rng.randint(2, 10)
            pmax = rng.randint(n, 10)  # lone carrier: no repair, p <= 10
        else:
            n = rng.randint(2, 12)
            pmax = rng.randint(-(-n // k), 9)  # repair may add 1, p <= 10
        rs = gen_random_feasible(n, k, pmax, seed)
        assert is_feasible(rs) and rs.max_period <= 10
        out.append((f"random[{seed}]", rs))
    for fam in FAMILIES.values():
        if fam.smallest is not None:
            out.append((fam.long_name, make_instance(fam.name, *fam.smallest).routeset))
    return out


@pytest.fixture(scope="module")
def corpus():
    return _corpus_instances()


@pytest.fixture(scope="module")
def hitch_runs(corpus):
    t0 = time.perf_counter()
    results = []
    for label, rs in corpus:
        homog = is_homogeneous(rs)
        b = rs.max_period
        trace = run(rs, HitchARide(b, homogeneous_known=homog), rs.carriers[0].id)
        results.append((label, rs, trace, b if homog else b * b))
    return results, time.perf_counter() - t0


def test_criterion_1_hitch_explores_everything(hitch_runs):
    results, elapsed = hitch_runs
    bad = [
        label
        for label, rs, trace, _ in results
        if not (trace.halted and is_concrete_cover(rs, trace))
    ]
    ok = not bad and elapsed < 10.0
    _verdict(
        1, ok,
        f"hitch halted with a concrete cover on {len(results) - len(bad)}/"
        f"{len(results)} instances in {elapsed:.2f}s"
        + (f"; failures: {bad[:5]}" if bad else ""),
    )


def test_criterion_2_hitch_move_bound(hitch_runs):
    results, _ = hitch_runs
    worst = 0.0
    bad = []
    for label, rs, trace, bprime in results:
        cap = (3 * rs.k - 2) * bprime
        worst = max(worst, trace.moves / cap)
        if trace.moves > cap:
            bad.append((label, trace.moves, cap))
    _verdict(
        2, not bad,
        f"moves <= (3k-2)B' on {len(results)} runs, worst ratio {worst:.3f}"
        + (f"; violations: {bad[:5]}" if bad else ""),
    )


def test_criterion_3_guessing_ride(corpus):
    bad = []
    worst = 0.0
    for label, rs in corpus:
        p = rs.max_period
        cap = 12 * rs.k * (p if is_homogeneous(rs) else p * p)
        trace = run(rs, GuessingRide(rs.n), rs.carriers[0].id)
        covered = {rs.carriers[0].route.at(0), *trace.steps.tos} == set(rs.sites)
        worst = max(worst, trace.moves / cap)
        if not (trace.halted and covered and trace.moves < cap):
            bad.append((label, trace.halted, covered, trace.moves, cap))
    _verdict(
        3, not bad,
        f"guessing ride covered and halted under 12kP on {len(corpus)} instances, "
        f"worst ratio {worst:.3f}" + (f"; violations: {bad[:5]}" if bad else ""),
    )


def test_criterion_4_thm3_audit():
    inst = make_instance("thm3", 12, 4, 6)
    t0 = time.perf_counter()
    opt = min_moves(inst.routeset, inst.start)
    elapsed = time.perf_counter() - t0
    ok = opt is not None and opt >= 18 and inst.bound == 18 and elapsed < 5.0
    _verdict(
        4, ok,
        f"thm3(12,4,6): optimum from {inst.start} is {opt} >= 18 ({elapsed:.2f}s)",
    )


def test_criterion_5_remaining_audits(tmp_path):
    points = [("thm4", dict(n=9, k=3, p=5), 22), ("thm7", dict(n=8, k=3), 16),
              ("thm8", dict(n=13, k=3), 61),
              # real sizes, all six constructions
              ("siho", dict(n=20, k=3), 479), ("siho", dict(n=24, k=4), 1375),
              ("sihe", dict(n=36, k=4), 4183), ("thm8", dict(n=30, k=4), 477),
              ("thm7", dict(n=20, k=5), 80), ("thm4", dict(n=15, k=4, p=7), 87),
              ("thm3", dict(n=18, k=4, p=8), 24),
              ("thm4", dict(n=60, k=10, p=40), 12485), ("sihe", dict(n=48, k=5), 77437)]
    details = []
    ok = True
    for family, kw, floor in points:
        inst = make_instance(family, **kw)
        t0 = time.perf_counter()
        opt = min_moves(inst.routeset, inst.start)
        elapsed = time.perf_counter() - t0
        good = opt is not None and opt >= floor and inst.bound == floor and elapsed < 30.0
        ok &= good
        details.append(f"{family}: {opt} >= {floor} ({elapsed:.1f}s)")
    # the command-line audit agrees and signals soundness via its exit code
    path = tmp_path / "audit.pvg"
    assert main(["generate", "--family", "thm8", "--n", "13", "--k", "3",
                 "--emit-bound", "-o", str(path)]) == 0
    cli_code = main(["oracle", "--in", str(path)])
    ok &= cli_code == 0
    _verdict(5, ok, "; ".join(details) + f"; cli exit {cli_code}")


def test_criterion_6_simple_route_families():
    siho_pts = sihe_pts = 0
    bad = []
    for n in range(4, 61):
        for k in range(2, n // 2 + 1):
            try:
                rs = gen_siho(n, k)
            except (NoSuitablePrime, ParameterViolation):
                continue
            siho_pts += 1
            _, nbar, p = siho_params(n, k)
            if not all(is_simple(c.route) and c.route.period == p for c in rs.carriers):
                bad.append(("siho-shape", n, k))
                continue
            # every pair shares the corridor, so every pair meets
            if any(len(mates) != k - 1 for mates in build_meeting_graph(rs).values()):
                bad.append(("siho-edges", n, k))
            # one period, so carriers meet exactly where their routes agree phase by phase
            for i, col in enumerate(zip(*(c.route.sites for c in rs.carriers))):
                if len(set(col)) < k:
                    met = {x for x in col if col.count(x) > 1}
                    if i >= nbar or not all(x.startswith("z") for x in met):
                        bad.append(("siho-meeting", n, k, i, sorted(met)))
    for n in range(36, 61):
        for k in range(4, n // 6 - 1):
            try:
                rs = gen_sihe(n, k)
            except (NoSuitablePrime, ParameterViolation):
                continue
            sihe_pts += 1
            _, _, q, p = sihe_params(n, k)
            periods = [c.route.period for c in rs.carriers]
            if periods != [q] + [p] * (k - 1) or math.gcd(q, p) != 1 or not all(
                is_simple(c.route) for c in rs.carriers
            ):
                bad.append(("sihe-shape", n, k))
                continue
            mg = build_meeting_graph(rs)
            hub = rs.carrier("c0").route.domain
            for i in range(1, k):
                # coprime periods: every phase pair coincides, so hub and spoke
                # meet on each site they share, and only there
                spoke = rs.carrier(f"c{i}").route.domain
                if hub & spoke != {f"z{i}"} or f"c{i}" not in mg["c0"]:
                    bad.append(("sihe-star", n, k, i))
                for j in range(i + 1, k):
                    if f"c{j}" in mg[f"c{i}"]:
                        bad.append(("sihe-extra-edge", n, k, i, j))
    _verdict(
        6, not bad,
        f"{siho_pts} homogeneous and {sihe_pts} heterogeneous parameter points "
        f"keep simple routes, exact periods, and confined meetings"
        + (f"; failures: {bad[:5]}" if bad else ""),
    )


def test_criterion_7_feasibility_equivalence():
    checked = agree = 0
    for n in range(1, 5):
        sites = tuple(f"s{i}" for i in range(n))
        pool = [
            r
            for p in range(1, 4)
            for r in itertools.product(sites, repeat=p)
        ]
        for k in (1, 2):
            for combo in itertools.product(pool, repeat=k):
                if set().union(*map(set, combo)) != set(sites):
                    continue  # dead site: not a valid system
                rs = RouteSet.from_routes(
                    [(f"c{i}", list(r)) for i, r in enumerate(combo)], IDS, sites
                )
                checked += 1
                agree += is_feasible(rs) == exact_feasible(rs)
    exhaustive = (checked, agree)
    for seed in range(500):
        rng = random.Random(seed * 31 + 7)
        k = rng.randint(1, 4)
        n = rng.randint(1, 10)
        lo = max(1, -(-n // k))
        rs = random_routeset_raw(n, k, rng.randint(lo, max(lo, 8)), seed)
        checked += 1
        agree += is_feasible(rs) == exact_feasible(rs)
    _verdict(
        7, agree == checked,
        f"is_feasible matched the exhaustive search on {agree}/{checked} systems "
        f"({exhaustive[0]} enumerated, 500 random)",
    )


def test_criterion_8_impossibility_forges():
    outcomes = []
    ok = True
    for name, factory in THM1_TARGETS.items():
        _, _, verdict = forge_thm1(factory, 6, 3)
        ok &= verdict
        outcomes.append(f"thm1/{name}={verdict}")
    for name, factory in THM2_TARGETS.items():
        _, _, verdict = forge_thm2(factory, 6, 3)
        ok &= verdict
        outcomes.append(f"thm2/{name}={verdict}")
    _verdict(8, ok, ", ".join(outcomes))


def test_criterion_9_neighborhood_completeness(corpus):
    windows = 0
    bad = []
    for label, rs in corpus:
        b = rs.max_period
        bprime = b if is_homogeneous(rs) else b * b
        mg = build_meeting_graph(rs)
        horizon = b + bprime
        # who stands where, for the whole window sweep
        at: list[dict[str, set[str]]] = [{} for _ in range(horizon)]
        for c in rs.carriers:
            for t in range(horizon):
                at[t].setdefault(c.route.at(t), set()).add(c.id)
        for c in rs.carriers:
            need = mg[c.id]
            for t0 in range(b):
                windows += 1
                seen: set[str] = set()
                for t in range(t0, t0 + bprime):
                    seen |= at[t][c.route.at(t)]
                if not seen >= need:
                    bad.append((label, c.id, t0, sorted(need - seen)))
    _verdict(
        9, not bad,
        f"riding any carrier for B' steps met all its meeting-graph neighbors "
        f"in {windows} windows" + (f"; failures: {bad[:3]}" if bad else ""),
    )
