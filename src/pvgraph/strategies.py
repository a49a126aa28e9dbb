"""Exploration strategies.

Two real algorithms live here. The first explores anonymous systems knowing
only an upper bound B on the periods: it grows a tree over the carriers,
riding each for a fixed window long enough to meet every neighbor. The second
knows the site count n (and needs site identities) but no period bound: it
runs traversal attempts with a per-leg step budget that doubles until the
budget is ample, stopping the instant n distinct sites have been seen.

The tail of the module holds deliberately naive halting heuristics; they halt
on schedules that ignore the periods, which is exactly what the forge
constructions exploit.
"""
from __future__ import annotations

from .core import RouteSet
from .engine import HALT, Action, Observation, Ride
from .errors import NotIdMode

# ---------------------------------------------------------------------------
# tree-growing exploration under a known period bound


class HitchARide:
    """Anonymous exploration with a period bound B.

    Grows a spanning tree of the meeting graph in two modes. A visit rides a
    newly reached carrier for B' moves (B if the system is known homogeneous,
    else B*B), long enough to meet every carrier it ever meets, since a pair
    sharing a site does so once per lcm of their periods; carriers first met
    on a visit become its pending children. A seek then rides that carrier
    on, B' moves a stop, until a pending child shares its site, to visit it,
    or, with no child left, its parent does. The root with no child left
    halts: a carrier hands the agent back only when none it met is pending,
    so by then none is pending anywhere. With B >= max period on a coverable
    system this covers the meeting-graph component within (3k-2)*B' moves.

    It never reads a site name, so its rides stop at no site count
    (`sites=0`). A visit, boarding included, passes every carrier already
    visited or pending, whose company it would not record; a seek passes
    those less its targets, or less its parent once no target is left.
    """

    def __init__(self, bound: int, homogeneous_known: bool = False):
        if bound < 1:
            raise ValueError("bound must be >= 1")
        self.bound = bound
        self.homogeneous_known = homogeneous_known
        self.visit_len = bound if homogeneous_known else bound * bound
        self._parent: dict[str, str | None] = {}  # every carrier visited so far
        self._nbrs: dict[str, set[str]] = {}  # carriers each visit met first
        self._met: frozenset[str] = frozenset()  # visited or pending; rebuilt only as it grows
        # (carrier, end): `end` is the instant its visit ends, None while seeking
        self._state: tuple[str, int | None] | None = None

    def move_bound(self, routeset: RouteSet) -> int:
        """(3k-2)*B': the proved cap on its moves when B bounds every period."""
        return (3 * routeset.k - 2) * self.visit_len

    def decide(self, obs: Observation) -> Action:
        if self._state is None:
            self._met = frozenset((obs.current_carrier,))
            self._enter(None, obs.current_carrier, obs.time)
        c, end = self._state
        if end is None:
            return self._dispatch(c, obs)
        # record first meetings; seeks deliberately don't, so every pending
        # carrier is charged to exactly one visit (tree edges)
        met = obs.arriving_carriers - self._met
        if met:
            self._met |= met
            self._nbrs[c] |= met
        if obs.time < end:
            return Ride(c, end - obs.time, self._met, 0)
        return self._dispatch(c, obs)

    def _enter(self, parent: str | None, c: str, t: int) -> None:
        self._parent[c] = parent
        self._nbrs[c] = set()
        self._state = (c, t + self.visit_len)

    def _dispatch(self, c: str, obs: Observation) -> Action:
        """Pick the next leg for carrier c, whose visit is over (agent is on c's site)."""
        targets = self._nbrs[c] - self._parent.keys()  # met on c's visit, not yet visited
        here = targets & obs.arriving_carriers
        if here:
            child = min(here)
            self._enter(c, child, obs.time)
            return Ride(child, self.visit_len, self._met, 0)  # the switch is the visit's first move
        if not targets:
            par = self._parent[c]
            if par is None:
                return HALT  # the root: no carrier is pending anywhere
            if par in obs.arriving_carriers:
                return self._dispatch(par, obs)  # collapse multi-hop returns
        # seek: only c's own route guarantees meeting the carrier it waits for;
        # it passes every carrier met but those it waits for
        self._state = (c, None)
        return Ride(c, self.visit_len, self._met - (targets or {par}), 0)


# ---------------------------------------------------------------------------
# guessed-budget exploration knowing n and site identities


class GuessingRide:
    """Exploration with known site count n, site ids, and no period bound.

    Runs depth-first traversal attempts where each riding leg spends at most
    `guess` moves, n at first. A leg that runs dry away from the root
    backtracks toward its parent; rediscovering anything unexpected, or
    running dry again, scraps the attempt: the guess doubles and the
    traversal restarts from wherever the agent is; the sites seen carry
    over. Halts the instant the walk has stood on n distinct sites, which it
    reads from `Observation.sites_seen`.

    Its rides, boarding a child or the parent included, pass the carriers
    known this attempt, less the parent while backtracking. They stop only
    at the n-th site (`sites=n`), where the run halts: no other first visit
    changes its answer.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.guess = n
        self._known: frozenset[str] = frozenset()  # carriers seen this attempt
        self._parent: dict[str, str] = {}  # every carrier boarded this attempt but its root
        self._state: tuple[str, str, int] | None = None  # (mode, carrier, instant the leg began)

    def decide(self, obs: Observation) -> Action:
        if obs.site_identity is None:
            raise NotIdMode("this strategy needs site identities")
        if obs.sites_seen >= self.n:
            return HALT
        t = obs.time
        if self._state is None:
            self._restart(obs.current_carrier, t)
        # transitions that consume no move loop back here; a ride spends the
        # rest of the leg's budget, a move per instant
        while True:
            mode, c, leg = self._state
            spent = t - leg
            if mode == "explore":
                fresh = obs.arriving_carriers - self._known
                if fresh:
                    child = min(fresh)
                    self._known |= {child}  # only the boarded one is recorded
                    self._parent[child] = c
                    self._state = ("explore", child, t)
                    return Ride(child, self.guess, self._known, self.n)
                if spent < self.guess:
                    return Ride(c, self.guess - spent, self._known, self.n)
                if c not in self._parent:
                    self._restart(c, t)  # budget spent at the root: bigger guess
                    continue
                self._state = ("backtrack", c, t)
                continue
            # backtrack: parent first, then anything new, then exhaustion
            par = self._parent[c]
            if par in obs.arriving_carriers:
                self._state = ("explore", par, t)
                return Ride(par, self.guess, self._known, self.n)
            if obs.arriving_carriers - self._known or spent >= self.guess:
                self._restart(c, t)
                continue
            return Ride(c, self.guess - spent, self._known - {par}, self.n)

    def _restart(self, root: str, t: int) -> None:
        if self._state is not None:
            self.guess *= 2
        self._known = frozenset((root,))
        self._parent = {}
        self._state = ("explore", root, t)


# ---------------------------------------------------------------------------
# naive halting heuristics (forge targets)


class FixedStepHalt:
    """Rides its start carrier for a fixed number of moves, then halts."""

    def __init__(self, moves: int):
        self.left = moves

    def decide(self, obs: Observation) -> Action:
        if self.left <= 0:
            return HALT
        self.left -= 1
        return Ride(obs.current_carrier)


class NoNewCarrierTimeout:
    """Halts once `window` consecutive moves pass without a new carrier id."""

    def __init__(self, window: int):
        self.window = window
        self.quiet = 0
        self.known: set[str] = set()

    def decide(self, obs: Observation) -> Action:
        if obs.arriving_carriers - self.known:
            self.known |= obs.arriving_carriers
            self.quiet = 0
        else:
            self.quiet += 1
        if self.quiet > self.window:
            return HALT
        return Ride(obs.current_carrier)


class RideLegsHalt:
    """Rides fixed-length legs, hopping to an unridden carrier between legs."""

    def __init__(self, leg_len: int, legs: int):
        self.leg_len = leg_len
        self.legs_left = legs
        self.step = 0
        self.ridden: set[str] = set()

    def decide(self, obs: Observation) -> Action:
        self.ridden.add(obs.current_carrier)
        if self.step == self.leg_len:
            self.step = 0
            self.legs_left -= 1
            if self.legs_left <= 0:
                return HALT
            new = sorted(obs.arriving_carriers - self.ridden)
            if new:
                self.step = 1
                return Ride(new[0])
        self.step += 1
        return Ride(obs.current_carrier)


class NoNewSiteTimeout:
    """Halts once `window` consecutive moves show no first-seen site."""

    def __init__(self, window: int):
        self.window = window
        self.quiet = 0
        self.seen: set[str] = set()

    def decide(self, obs: Observation) -> Action:
        if obs.site_identity is None:
            raise NotIdMode("needs site identities")
        if obs.site_identity in self.seen:
            self.quiet += 1
        else:
            self.seen.add(obs.site_identity)
            self.quiet = 0
        if self.quiet > self.window:
            return HALT
        return Ride(obs.current_carrier)


class SiteRevisitHalt:
    """Halts once any single site has been observed `times` times."""

    def __init__(self, times: int):
        self.times = times
        self.counts: dict[str, int] = {}

    def decide(self, obs: Observation) -> Action:
        if obs.site_identity is None:
            raise NotIdMode("needs site identities")
        c = self.counts.get(obs.site_identity, 0) + 1
        self.counts[obs.site_identity] = c
        if c >= self.times:
            return HALT
        return Ride(obs.current_carrier)
