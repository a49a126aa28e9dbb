"""Instance generators: hard families, random systems, and adversarial forges.

Each hard family realizes a worst-case construction with a proved lower bound
on the moves any explorer needs; the generator attaches that bound, freshly
evaluated from the family's formula. The two forges run a halting strategy,
then rebuild the system so the very same strategy provably halts too early —
a mechanized counterexample factory.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .core import ANONYMOUS, IDS, RouteSet, is_feasible
from .engine import Strategy, Trace, run
from .errors import (
    NoCoprimePair,
    NoSuitablePrime,
    ParameterViolation,
    StrategyDidNotHalt,
)

@dataclass(frozen=True)
class Instance:
    """A generated system plus its pedigree: family, parameters, bound, start.

    `start` is the carrier the family's adversary argument pins the agent to;
    audits measure the optimum from there.
    """

    family: str
    params: tuple[tuple[str, int], ...]
    routeset: RouteSet
    bound: int | None
    start: str

    @property
    def param_dict(self) -> dict[str, int]:
        return dict(self.params)


def _require(cond: bool, constraint: str) -> None:
    if not cond:
        raise ParameterViolation(f"constraint violated: {constraint}")


def _max_prime_below(limit: int) -> int | None:
    """Largest prime strictly below `limit` (trial division; sizes are tiny)."""
    for cand in range(limit - 1, 1, -1):
        f = 2
        while f * f <= cand and cand % f:
            f += 1
        if f * f > cand:
            return cand
    return None


def _slow_spoke(anchor: str, others: Sequence[str], anchor_phase: int, p: int) -> list[str]:
    """Period-p route with `anchor` exactly at phase anchor_phase.

    The remaining sites fill the other p-1 phases, front-loaded with repeats
    of the first one so the final distinct site lands as late as possible —
    an explorer boarding at the anchor learns nothing new until it has ridden
    nearly a full period.
    """
    order = [anchor] + [others[0]] * (p - len(others)) + list(others[1:])
    cut = p - anchor_phase % p
    return order[cut:] + order[:cut]


def _group_sizes(total: int, groups: int) -> list[int]:
    """Equal groups of floor size; the remainder lands in the last group."""
    base, rem = divmod(total, groups)
    return [base] * (groups - 1) + [base + rem]


def _spoke_sites(first: int, sizes: Sequence[int]) -> list[list[str]]:
    """The non-anchor sites s{i}_1.. of each group, groups numbered from `first`."""
    return [[f"s{i}_{j}" for j in range(1, size)] for i, size in enumerate(sizes, first)]


# ---------------------------------------------------------------------------
# hub-and-spoke families (arbitrary routes)


def gen_thm3(n: int, k: int, p: int) -> RouteSet:
    """Homogeneous hub-and-spoke system forcing ~(k-2)p moves.

    k-1 spoke carriers each own a site group; spoke i holds its anchor x_i
    only at phases ≡ i (mod p). The hub cycles x_0,x_1,... so it meets spoke
    i exactly when both stand on x_i. An explorer must ride nearly a full
    period inside every spoke and wait a full period between transfers.
    """
    _require(n >= 9, "n >= 9")
    _require(3 <= k <= n / 3, "3 <= k <= n/3")
    _require(p >= max(k - 1, -(-n // (k - 1))), "p >= max(k-1, ceil(n/(k-1)))")
    base, rem = divmod(n, k - 1)
    _require(p >= base + rem, "p >= floor(n/(k-1)) + n mod (k-1) (largest group must fit one period)")
    xs = [f"x{i}" for i in range(k - 1)]
    ss = _spoke_sites(0, _group_sizes(n, k - 1))
    routes = [(f"c{i}", _slow_spoke(xs[i], ss[i], i, p)) for i in range(k - 1)]
    routes.append((f"c{k-1}", [xs[j % (k - 1)] for j in range(p)]))
    return RouteSet.from_routes(routes, IDS, tuple(xs + sum(ss, [])))


def thm3_bound(n: int, k: int, p: int) -> int:
    """The paper's (k-2)(p+1) + floor(n/(k-1)), less one when n = p(k-1).

    Every group is then full, so the hub has already shown the last spoke's
    anchor and the last group costs p-1 moves, not p (an erratum).
    """
    bound = (k - 2) * (p + 1) + n // (k - 1)
    return bound - 1 if n == p * (k - 1) else bound


def gen_thm4(n: int, k: int, p: int) -> RouteSet:
    """Heterogeneous variant: the hub has period p-1, spokes period p.

    Coprime periods make each hub/spoke rendezvous recur only every p(p-1)
    steps, so every transfer costs up to a full product period.
    """
    _require(n >= 9, "n >= 9")
    _require(3 <= k <= n / 3, "3 <= k <= n/3")
    _require(p >= max(k - 1, -(-n // k)), "p >= max(k-1, ceil(n/k))")
    _require(p >= k + 2, "p >= k+2 (hub period p-1 must fit a0, k-1 anchors, and a1)")
    base, rem = divmod(n - 2, k - 1)
    _require(p >= base + rem, "p >= floor((n-2)/(k-1)) + (n-2) mod (k-1)")
    anchors = ["a0", "a1"]
    xs = [f"x{i}" for i in range(1, k)]
    ss = _spoke_sites(1, _group_sizes(n - 2, k - 1))
    routes = [("c0", anchors[:1] + xs + anchors[1:] * (p - 1 - k))]
    routes += [(f"c{i}", _slow_spoke(xs[i - 1], ss[i - 1], i, p)) for i in range(1, k)]
    return RouteSet.from_routes(routes, IDS, tuple(anchors + xs + sum(ss, [])))


def thm4_bound(n: int, k: int, p: int) -> int:
    return (k - 2) * (p - 1) * p + (n - 2) // (k - 1) - 1


# ---------------------------------------------------------------------------
# simple-route families built on a prime stride table


def _stride_row(names: list[str], i: int) -> list[str]:
    # carrier i's m*m-long walk over the m names x_0..x_{m-1}: block s steps by
    # stride s+1; with m prime, rows of two distinct carriers never align, so
    # carriers collide only where the construction wants. Entry r of block s is
    # x_{(i + (s+1)*r) % m}: a stride-(s+1) slice of the names repeated past m*m
    m = len(names)
    a, j = names * (m + 1), i % m
    row = []
    for d in range(1, m + 1):
        row += a[j : j + d * m : d]
    return row


def gen_siho(n: int, k: int) -> RouteSet:
    """Homogeneous system of simple routes that still costs ~k*p moves.

    All carriers share a common corridor z_1..z_nbar, then diverge into
    per-carrier stride walks over x_0..x_{m-1} (m the largest prime below
    n-k), each ending at a private terminal y_i. Meetings happen only inside
    the corridor, so reaching every terminal forces near-full periods.
    """
    _require(n >= 4, "n >= 4")
    _require(2 <= k <= n / 2, "2 <= k <= n/2")
    m, nbar, _ = siho_params(n, k)
    _require(k <= m, "k <= largest prime below n-k")
    zs = [f"z{l}" for l in range(1, nbar + 1)]
    xs = [f"x{i}" for i in range(m)]
    ys = [f"y{i}" for i in range(1, k + 1)]
    routes = []
    for i in range(1, k + 1):
        walk = _stride_row(xs, i)[1 : m * m - m + 1]
        routes.append((f"c{i-1}", zs + walk + [ys[i - 1]]))
    return RouteSet.from_routes(routes, IDS, tuple(zs + xs + ys))


def siho_params(n: int, k: int) -> tuple[int, int, int]:
    """(m, nbar, p) for the corridor construction."""
    m = _max_prime_below(n - k)
    if m is None:
        raise NoSuitablePrime(f"no prime below n-k = {n - k}")
    nbar = n - m - k
    return m, nbar, m * m - m + 1 + nbar


def siho_bound(n: int, k: int) -> int:
    m, nbar, p = siho_params(n, k)
    return k * p - nbar


def gen_sihe(n: int, k: int) -> RouteSet:
    """Heterogeneous simple routes: coprime periods q and q+1, star meetings.

    Carrier c_0 (period q) meets each other carrier (period q+1) at a single
    private site z_i whose rendezvous recurs only every q(q+1) steps; all
    other fragments are arranged so no other pair of carriers ever collides.
    """
    _require(n >= 36, "n >= 36")
    _require(4 <= k <= n / 6 - 2, "4 <= k <= n/6 - 2")
    m, nbar, _, _ = sihe_params(n, k)
    _require(k <= m, "k <= chosen prime")
    ceil_h = (nbar + 1) // 2
    big = m * m - m
    xs = [f"x{j}" for j in range(m)]
    ys = [f"y{j}" for j in range(m)]
    ws = [f"w{l}" for l in range(1, nbar + 1)]
    us = [f"u{i}" for i in range(1, k)]
    vs = [f"v{l}" for l in range(1, k - 1)]
    zs = [f"z{l}" for l in range(1, k)]

    # c0: x-stride walk, first half of the w corridor, then the z contact row
    alpha0 = _stride_row(xs, 0)[1 : big - ceil_h + 1]
    routes = [("c0", alpha0 + ws[:ceil_h] + zs)]
    for i in range(1, k):
        # a y-stride walk cut in two around the second half of the corridor
        row = _stride_row(ys, i)
        cut = big - nbar // 2 - i + 2
        # z_i meets c0; slot o != i holds v_{(o-i) mod (k-1)}, an index never 0
        zeta = [us[i - 1]] + [
            zs[i - 1] if o == i else vs[(o - i) % (k - 1) - 1] for o in range(1, k)
        ]
        routes.append((f"c{i}", row[1:cut] + ws[ceil_h:] + row[cut : cut + i - 1] + zeta))
    return RouteSet.from_routes(routes, IDS, tuple(xs + ys + ws + us + vs + zs))


def sihe_params(n: int, k: int) -> tuple[int, int, int, int]:
    """(m, nbar, q, p): prime, corridor width, and the two periods."""
    m = _max_prime_below((n - 3 * k - 4) // 2 + 1)
    if m is None:
        raise NoSuitablePrime(f"no prime at or below (n-3k-4)/2 = {(n - 3*k - 4) // 2}")
    nbar = n - (3 * k - 4) - 2 * m
    q = m * m - m + k - 1
    return m, nbar, q, q + 1


def sihe_bound(n: int, k: int) -> int:
    _, _, _, p = sihe_params(n, k)
    return (k - 2) * p * (p - 1) + p - k + 1


# ---------------------------------------------------------------------------
# circular-route families


def gen_thm7(n: int, k: int) -> RouteSet:
    """Homogeneous rings-on-a-spine: all carriers meet only at x_0.

    Carrier i walks out the spine x_i..x_{n-k-1}, loops through the low spine
    to its private tip y_i, and retraces — a closed tree walk of period
    2(n-k) whose only simultaneous co-location across carriers is x_0 at
    times ≡ 0.
    """
    _require(n >= 4, "n >= 4")
    _require(2 <= k <= n / 2, "2 <= k <= n/2")
    xs = [f"x{j}" for j in range(n - k)]
    ys = [f"y{i}" for i in range(1, k + 1)]
    routes = []
    for i in range(1, k + 1):
        out, low = xs[i:], xs[1:i]
        path = out + low + [ys[i - 1]] + low[::-1] + out[::-1]
        routes.append((f"c{i-1}", xs[:1] + path))
    return RouteSet.from_routes(routes, IDS, tuple(xs + ys))


def thm7_bound(n: int, k: int) -> int:
    return n * (k - 1)


def thm8_periods(n: int, k: int) -> tuple[int, int]:
    """Coprime (r, q) with r < q and q + r = n - k + 3.

    Even n-k: consecutive integers. Odd n-k: the two closest odd numbers
    around (n-k+3)/2 whose gap (2 or 4) shares no odd factor.
    """
    total = n - k + 3
    if (n - k) % 2 == 0:
        r, q = (n - k) // 2 + 1, (n - k) // 2 + 2
    elif total % 4 == 0:
        r, q = total // 2 - 1, total // 2 + 1
    else:
        r, q = total // 2 - 2, total // 2 + 2
    if r < 2:
        raise NoCoprimePair(f"n-k = {n - k} leaves no coprime pair with r >= 2")
    assert math.gcd(r, q) == 1 and r < q
    return r, q


def gen_thm8(n: int, k: int) -> RouteSet:
    """Heterogeneous rings: one short ring (period r) and k-1 long rings
    (period q, coprime to r), all sharing exactly the site x_0. Long ring i
    is the x-cycle rotated by i with a private tail site z_i, so long rings
    never collide with each other and meet the short ring only every qr steps.
    """
    _require(k >= 3, "k >= 3 (the bound formula needs the k-2 relay term)")
    r, q = thm8_periods(n, k)
    _require(q >= k + 1, "q >= k+1 (each long ring needs a distinct rotation)")
    xs = [f"x{j}" for j in range(q - 1)]
    ys = [f"y{l}" for l in range(1, r)]
    zs = [f"z{i}" for i in range(1, k)]
    routes = [("c0", xs[:1] + ys)]
    # i < k <= q-1, so each rotation is distinct
    routes += [(f"c{i}", xs[i:] + xs[:i] + [zs[i - 1]]) for i in range(1, k)]
    return RouteSet.from_routes(routes, IDS, tuple(xs + ys + zs))


def thm8_bound(n: int, k: int) -> int:
    r, q = thm8_periods(n, k)
    return (k - 2) * (q * r + r) + r + q


# ---------------------------------------------------------------------------
# random systems


def gen_random_feasible(n: int, k: int, p_max: int, seed: int) -> RouteSet:
    """Seeded random system, repaired to be coverable from everywhere.

    Draws `random_routeset_raw(n, k, p_max, seed)`. If its meeting structure
    leaves some carrier short, every route gets the first site appended: all
    periods then share the residue -1, so every pair provably meets there.
    """
    _require(n >= 1 and k >= 1, "n, k >= 1")
    _require(p_max >= 1, "p_max >= 1")
    rs = random_routeset_raw(n, k, p_max, seed)
    if k > 1 and not is_feasible(rs):
        rs = RouteSet.from_routes(
            [(c.id, c.route.sites + rs.sites[:1]) for c in rs.carriers], IDS, rs.sites
        )
    return rs


def random_routeset_raw(n: int, k: int, p_max: int, seed: int) -> RouteSet:
    """Unrepaired sampler: coverage enforced, feasibility left to chance.

    Coverage is guaranteed by scattering all n sites across the route slots.
    """
    _require(k * p_max >= n, "k * p_max >= n (enough slots to place every site)")
    rng = random.Random(seed)
    sites = [f"s{i}" for i in range(n)]
    periods = [rng.randint(1, p_max) for _ in range(k)]
    i = 0
    while sum(periods) < n:  # deterministic bump until every site can fit
        periods[i % k] = min(p_max, periods[i % k] + (n - sum(periods)))
        i += 1
    routes = [[rng.choice(sites) for _ in range(p)] for p in periods]
    slots = [(ci, j) for ci, p in enumerate(periods) for j in range(p)]
    rng.shuffle(slots)
    for s, (ci, j) in zip(sites, slots):
        routes[ci][j] = s
    return RouteSet.from_routes(
        [(f"c{ci}", r) for ci, r in enumerate(routes)], IDS, tuple(sites)
    )


# ---------------------------------------------------------------------------
# the family table


@dataclass(frozen=True)
class Family:
    """One family: how to build it, its proved bound and the start it pins.

    `generate` and `bound` take the parameters named in `params`, in that
    order; `defaults` fills an unset parameter from n. `start` is the index,
    in the generated system's carriers, of the carrier the bound argument
    parks the agent on. `smallest` is the smallest point the constraints
    admit, in `params` order.
    """

    name: str
    long_name: str
    params: tuple[str, ...]
    generate: Callable[..., RouteSet]
    bound: Callable[..., int] | None
    start: int
    smallest: tuple[int, ...] | None
    defaults: Mapping[str, Callable[[int], int]] = field(default_factory=dict)

    def needs(self, param: str) -> bool:
        """Is `param` one the caller must give?"""
        return param in self.params and param not in self.defaults


FAMILIES = {f.name: f for f in (
    # the adversary parks the agent on the hub, the last carrier
    Family("thm3", "thm3_arb_homo", ("n", "k", "p"), gen_thm3, thm3_bound, -1, (9, 3, 5)),
    Family("thm4", "thm4_arb_hetero", ("n", "k", "p"), gen_thm4, thm4_bound, 0, (9, 3, 5)),
    Family("siho", "siho_simple_homo", ("n", "k"), gen_siho, siho_bound, 0, (5, 2)),
    Family("sihe", "sihe_simple_hetero", ("n", "k"), gen_sihe, sihe_bound, 0, (36, 4)),
    Family("thm7", "thm7_circ_homo", ("n", "k"), gen_thm7, thm7_bound, 0, (4, 2)),
    Family("thm8", "thm8_circ_hetero", ("n", "k"), gen_thm8, thm8_bound, 0, (7, 3)),
    # no worst case, so no bound and no smallest point to pin
    Family("random", "random", ("n", "k", "p", "seed"), gen_random_feasible, None, 0,
           None, {"p": lambda n: max(2, n), "seed": lambda n: 0}),
)}


def get_family(name: str) -> Family:
    """The table row of a short or long family name."""
    for fam in FAMILIES.values():
        if name in (fam.name, fam.long_name):
            return fam
    raise ParameterViolation(f"unknown family {name!r}")


def make_instance(
    family: str,
    n: int,
    k: int,
    p: int | None = None,
    seed: int | None = None,
) -> Instance:
    """Build a family instance with its bound and designated start attached.

    A `p` the family does not take is a ParameterViolation. `seed` is
    accepted for every family and ignored by the deterministic ones, so one
    call can build any family.
    """
    fam = get_family(family)
    if p is not None and "p" not in fam.params:
        raise ParameterViolation(f"{fam.name} takes no p")
    given = {"n": n, "k": k, "p": p, "seed": seed}
    args = []
    for name in fam.params:
        if given[name] is None and fam.needs(name):
            raise ParameterViolation(f"{fam.name} needs {name}")
        args.append(fam.defaults[name](n) if given[name] is None else given[name])
    rs = fam.generate(*args)
    bound = None if fam.bound is None else fam.bound(*args)
    params = tuple(list(zip(fam.params, args)))  # exact size, as in RouteSet.from_routes
    return Instance(fam.long_name, params, rs, bound, rs.carriers[fam.start].id)


# ---------------------------------------------------------------------------
# impossibility forges


def _walk_nodes(rs: RouteSet, trace: Trace) -> list[str]:
    return [rs.carrier(trace.start_carrier).route.sites[0], *trace.steps.tos]


def _halting_run(rs: RouteSet, strategy: Strategy, move_limit: int | None) -> Trace:
    trace = run(rs, strategy, rs.carriers[0].id, move_limit)
    if not trace.halted:
        raise StrategyDidNotHalt(
            f"strategy still riding after {trace.moves} moves"
        )
    return trace


def forge_thm1(
    strategy_factory: Callable[[int, int], Strategy],
    n: int,
    k: int,
    move_limit: int | None = None,
) -> tuple[RouteSet, RouteSet, bool]:
    """Defeat a period-blind anonymous strategy.

    Run it on k identical cycles over n sites. Wherever it halted, splice a
    decoy segment into the route: the stretch ridden after discovering the
    (n-1)-th site is duplicated with the last-found site renamed to the
    second-to-last. Site-blind and fed identical carrier arrivals, the
    strategy replays its action sequence on the spliced system and halts on
    the decoy — one site short. Returns (G, G', verdict); verdict is True
    when the replay indeed halted without covering.
    """
    _require(n >= 3, "n >= 3")
    _require(k >= 1, "k >= 1")
    sites = [f"x{i}" for i in range(n)]
    g = RouteSet.from_routes(
        [(f"c{i}", list(sites)) for i in range(k)], ANONYMOUS, tuple(sites)
    )
    trace = _halting_run(g, strategy_factory(n, k), move_limit)
    nodes = _walk_nodes(g, trace)
    visited = list(dict.fromkeys(nodes))  # first-visit order
    if len(visited) < n:
        gprime = g  # already fails on G itself: nothing to splice
    else:
        last, second = visited[-1], visited[-2]
        t_pen = nodes.index(second)  # discovery instant of site n-2
        alpha = nodes[: t_pen + 1]
        beta = nodes[t_pen + 1 :]
        gamma = [second if s == last else s for s in beta]
        gprime = RouteSet.from_routes(
            [(f"c{i}", alpha + gamma + beta) for i in range(k)],
            ANONYMOUS,
            tuple(sites),
        )
    retrace = _halting_run(gprime, strategy_factory(n, k), move_limit)
    verdict = not retrace.covers(gprime)
    return g, gprime, verdict


def forge_thm2(
    strategy_factory: Callable[[int], Strategy],
    n: int,
    k: int,
    move_limit: int | None = None,
) -> tuple[RouteSet, RouteSet, bool]:
    """Defeat a size-blind strategy even with full site identities.

    Record the exact site sequence of its halting walk, then build a system
    whose route replays that sequence before reaching one extra site. The
    strategy sees the identical observation stream, halts on schedule, and
    never learns the extra site existed.
    """
    _require(n >= 1, "n >= 1")
    _require(k >= 1, "k >= 1")
    sites = [f"x{i}" for i in range(n)]
    g = RouteSet.from_routes(
        [(f"c{i}", list(sites)) for i in range(k)], IDS, tuple(sites)
    )
    trace = _halting_run(g, strategy_factory(k), move_limit)
    nodes = _walk_nodes(g, trace)
    extra = f"x{n}"
    gprime = RouteSet.from_routes(
        [(f"c{i}", nodes + [extra]) for i in range(k)], IDS, tuple(sites) + (extra,)
    )
    retrace = _halting_run(gprime, strategy_factory(k), move_limit)
    verdict = extra not in retrace.steps.tos
    return g, gprime, verdict
