from __future__ import annotations

import pytest

from pvgraph import StrategyDidNotHalt, dumps, exact_feasible, forge_thm1, forge_thm2, is_feasible, loads
from pvgraph.cli import THM1_TARGETS, THM2_TARGETS
from pvgraph.strategies import FixedStepHalt


def test_thm1_splice_walkthrough():
    # strategy covers x0,x1,x2 in two moves and halts; the forge duplicates
    # the post-discovery stretch with the last site masked out
    g, gprime, verdict = forge_thm1(lambda n, k: FixedStepHalt(2), 3, 1)
    assert verdict
    assert g.carrier("c0").route.sites == ("x0", "x1", "x2")
    assert gprime.carrier("c0").route.sites == ("x0", "x1", "x1", "x2")
    assert gprime.sites == g.sites  # same universe, one site now dodged


def test_thm1_identical_arrival_streams():
    # all carriers ride the same cycle, so the decoy is invisible: the
    # replayed walk stops one site short of the full universe
    g, gprime, verdict = forge_thm1(lambda n, k: FixedStepHalt(3 * 5), 5, 2)
    assert verdict
    from pvgraph import run

    retrace = run(gprime, FixedStepHalt(15), gprime.carriers[0].id)
    assert retrace.halted
    assert {gprime.carriers[0].route.at(0), *retrace.steps.tos} != set(gprime.sites)


def test_thm1_strategy_failing_outright_needs_no_splice():
    g, gprime, verdict = forge_thm1(lambda n, k: FixedStepHalt(1), 3, 1)
    assert verdict
    assert gprime is g  # already misses sites on the original


def test_thm1_all_registered_targets_fall():
    for name, factory in THM1_TARGETS.items():
        for n, k in [(4, 1), (6, 3)]:
            _, _, verdict = forge_thm1(factory, n, k)
            assert verdict, (name, n, k)


def test_thm2_appends_a_phantom_site():
    g, gprime, verdict = forge_thm2(lambda k: FixedStepHalt(4), 3, 1)
    assert verdict
    assert gprime.n == 4
    assert gprime.sites[-1] == "x3"
    route = gprime.carrier("c0").route.sites
    assert route[-1] == "x3"
    # the replayed prefix equals the recorded walk
    assert route[:5] == ("x0", "x1", "x2", "x0", "x1")


def test_thm2_degenerate_single_site():
    _, gprime, verdict = forge_thm2(lambda k: FixedStepHalt(2), 1, 1)
    assert verdict
    assert gprime.n == 2


@pytest.mark.parametrize("n, k", [(7, 1), (12, 1), (12, 2)])
def test_thm2_target_halting_short_on_g_needs_no_splice(n, k):
    # 5k steps on one n-cycle miss a site of G itself: G' is G, and the verdict holds
    g, gprime, verdict = forge_thm2(lambda k: FixedStepHalt(5 * k), n, k)
    assert verdict
    assert gprime is g


def test_forge_invariants_over_the_target_grid():
    # every registered target of both theorems, n 3..12 and k 1..5: 300 forges
    for thm, forge, targets in ((1, forge_thm1, THM1_TARGETS), (2, forge_thm2, THM2_TARGETS)):
        for name, factory in targets.items():
            for n in range(3, 13):
                for k in range(1, 6):
                    point = (thm, name, n, k)
                    g, gprime, verdict = forge(factory, n, k)
                    assert verdict, point
                    if thm == 1:
                        assert gprime.sites == g.sites, point
                    else:
                        assert gprime is g or gprime.sites == (*g.sites, f"x{n}"), point
                    assert loads(dumps(gprime)) == gprime, point
                    assert is_feasible(gprime) == exact_feasible(gprime), point


def test_thm2_all_registered_targets_fall():
    for name, factory in THM2_TARGETS.items():
        for n, k in [(1, 1), (5, 2), (8, 3)]:
            _, _, verdict = forge_thm2(factory, n, k)
            assert verdict, (name, n, k)


def test_forge_raises_when_strategy_never_halts():
    class Stubborn:
        name = "stubborn"

        def decide(self, obs):
            from pvgraph import Ride

            return Ride(obs.current_carrier)

    with pytest.raises(StrategyDidNotHalt):
        forge_thm1(lambda n, k: Stubborn(), 4, 1, move_limit=50)
    with pytest.raises(StrategyDidNotHalt):
        forge_thm2(lambda k: Stubborn(), 4, 1, move_limit=50)
