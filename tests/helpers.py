"""Builders shared by the test modules."""
from __future__ import annotations

from hypothesis import strategies as st

from pvgraph import IDS, RouteSet
from pvgraph.cli import main


def rs_of(*routes, mode=IDS):
    """A route set whose carriers c0, c1, ... ride `routes` in order."""
    return RouteSet.from_routes([(f"c{i}", list(r)) for i, r in enumerate(routes)], mode)


def stars(k, B):
    """k carriers of period B, each on the hub site `o` at phase 0 and on B−1 leaves of its own.

    Homogeneous and feasible, over n = 1 + k(B−1) sites.
    """
    return rs_of(*[["o", *(f"l{c}.{j}" for j in range(1, B))] for c in range(k)])


def cli_runner(capsys):
    """`pvg` in this process: called with an argv, it returns (exit code, stdout, stderr)."""

    def pvg(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    return pvg


def counted(cls):
    """`cls` with a count of its `decide` calls."""

    class Counted(cls):
        calls = 0

        def decide(self, obs):
            self.calls += 1
            return super().decide(obs)

    return Counted


@st.composite
def drawn_systems(draw, n, k, period, shared=False, modes=(IDS,)):
    """Up to `k` carriers on routes of 1 to `period` slots over sites s0..s{m-1}, m ≤ `n`.

    With `shared`, one period of 1 to `period` may be drawn for every route: independent
    lengths rarely coincide, and one period is a case of its own. The mode is drawn
    from `modes`.
    """
    m, count = draw(st.integers(1, n)), draw(st.integers(1, k))
    lo, hi = 1, period
    if shared:
        p = draw(st.none() | st.integers(1, period))
        if p is not None:
            lo = hi = p
    routes = [draw(st.lists(st.integers(0, m - 1), min_size=lo, max_size=hi)) for _ in range(count)]
    return rs_of(*[[f"s{x}" for x in r] for r in routes], mode=draw(st.sampled_from(modes)))
