"""Builders shared by the test modules."""
from __future__ import annotations

from pvgraph import IDS, RouteSet


def rs_of(*routes, mode=IDS):
    """A route set whose carriers c0, c1, ... ride `routes` in order."""
    return RouteSet.from_routes([(f"c{i}", list(r)) for i, r in enumerate(routes)], mode)
