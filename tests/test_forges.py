from __future__ import annotations

import pytest

from pvgraph import StrategyDidNotHalt, forge_thm1, forge_thm2
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
