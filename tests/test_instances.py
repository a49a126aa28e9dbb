from __future__ import annotations

from itertools import combinations

import pytest

from pvgraph import (
    NoCoprimePair,
    NoSuitablePrime,
    ParameterViolation,
    build_meeting_graph,
    dumps,
    gen_random_feasible,
    gen_sihe,
    gen_siho,
    gen_thm3,
    gen_thm7,
    gen_thm8,
    is_feasible,
    is_homogeneous,
    is_irredundant,
    is_simple,
    make_instance,
    min_moves,
)
from pvgraph.instances import (
    FAMILIES,
    _stride_row,
    random_routeset_raw,
    sihe_params,
    siho_params,
    thm8_periods,
)

# expected optima below were computed by an independent throwaway
# breadth-first search before this package existed, then frozen


@pytest.mark.parametrize(
    "family,params,bound,optimum",
    [
        ("thm3", (9, 3, 5), 10, 10),
        ("thm3", (12, 4, 6), 18, 19),
        ("thm4", (9, 3, 5), 22, 43),
        ("thm4", (11, 3, 6), 33, 63),
        ("siho", (5, 2), 7, 7),
        ("siho", (6, 2), 15, 15),
        ("siho", (8, 3), 25, 26),
        ("thm7", (4, 2), 4, 6),
        ("thm7", (8, 3), 16, 25),
        ("thm7", (8, 4), 24, 28),
        ("thm8", (7, 3), 22, 23),
        ("thm8", (9, 3), 33, 34),
        ("thm8", (13, 3), 61, 62),
    ],
)
def test_bound_and_frozen_optimum(family, params, bound, optimum):
    inst = make_instance(family, *params)
    assert inst.bound == bound
    assert min_moves(inst.routeset, inst.start) == optimum
    assert inst.bound <= optimum  # the whole point of the construction


#: The smallest point each family's constraints admit, and the start carrier
#: its bound argument pins there.
SMALLEST = {
    "thm3": ((9, 3, 5), "c2"),
    "thm4": ((9, 3, 5), "c0"),
    "siho": ((5, 2), "c0"),
    "sihe": ((36, 4), "c0"),
    "thm7": ((4, 2), "c0"),
    "thm8": ((7, 3), "c0"),
}


def test_every_family_feasible_at_smallest_legal():
    rows = {name: fam for name, fam in FAMILIES.items() if fam.smallest is not None}
    assert {name: fam.smallest for name, fam in rows.items()} == {
        name: point for name, (point, _) in SMALLEST.items()
    }
    for name, fam in rows.items():
        inst = make_instance(name, *fam.smallest)
        assert inst.family == fam.long_name
        assert is_feasible(inst.routeset), name
        assert inst.start == SMALLEST[name][1]
        assert inst.bound == fam.bound(*fam.smallest)


def test_thm3_shape():
    rs = gen_thm3(12, 4, 6)
    assert rs.n == 12 and rs.k == 4
    assert is_homogeneous(rs) and rs.max_period == 6
    # spoke i holds its anchor only at phases congruent to i
    for i in range(3):
        route = rs.carrier(f"c{i}").route
        assert [ph for ph in range(6) if route.at(ph) == f"x{i}"] == [i]
    # the hub cycles the anchors and nothing else
    hub = rs.carrier("c3").route
    assert set(hub.sites) == {"x0", "x1", "x2"}


def test_thm3_bound_holds_at_every_legal_point():
    """Every legal point with n <= 20 and p <= n+2, no exceptions.

    Where n = p(k-1) every group is full and the corrected bound is the
    optimum itself; the paper's formula is one above it there.
    """
    full = 0
    for n in range(9, 21):
        for k in range(3, n // 3 + 1):
            for p in range(k - 1, n + 3):
                try:
                    inst = make_instance("thm3", n, k, p)
                except ParameterViolation:
                    continue
                opt = min_moves(inst.routeset, inst.start)
                assert inst.bound <= opt, (n, k, p, inst.bound, opt)
                if n == p * (k - 1):
                    full += 1
                    assert inst.bound == opt == (k - 2) * (p + 1) + p - 1, (n, k, p)
    assert full == 11


def test_thm4_shape():
    rs = make_instance("thm4", 9, 3, 5).routeset
    hub = rs.carrier("c0").route
    assert hub.period == 4  # one less than the spokes
    assert all(rs.carrier(f"c{i}").route.period == 5 for i in (1, 2))
    assert hub.at(0) == "a0"
    assert not is_homogeneous(rs)


def test_thm7_route_golden():
    rs = gen_thm7(8, 3)
    assert rs.carrier("c0").route.sites == (
        "x0", "x1", "x2", "x3", "x4", "y1", "x4", "x3", "x2", "x1"
    )
    assert all(c.route.period == 10 for c in rs.carriers)
    assert all(is_irredundant(c.route) for c in rs.carriers)


def test_thm7_carriers_meet_only_at_origin():
    rs = gen_thm7(8, 3)
    pairs = list(combinations(rs.carriers, 2))
    assert build_meeting_graph(rs).edges() == [(a.id, b.id) for a, b in pairs]
    for a, b in pairs:
        # one period, so a pair meets exactly where its routes agree phase by phase
        assert {x for x, y in zip(a.route.sites, b.route.sites) if x == y} == {"x0"}


def test_thm8_periods_are_coprime_split():
    assert thm8_periods(13, 3) == (6, 7)
    assert thm8_periods(8, 3) == (3, 5)
    assert thm8_periods(10, 3) == (3, 7)
    assert thm8_periods(14, 4) == (6, 7)


def test_thm8_shape():
    rs = gen_thm8(13, 3)
    assert rs.carrier("c0").route.period == 6
    assert rs.carrier("c1").route.period == 7
    assert all(is_irredundant(c.route) for c in rs.carriers)
    # coprime periods: every phase pair coincides, so the pair meets on each shared site
    assert rs.carrier("c0").route.domain & rs.carrier("c1").route.domain == {"x0"}
    assert build_meeting_graph(rs).has_edge("c0", "c1")


def test_siho_params_and_stride_layout():
    assert siho_params(20, 3) == (13, 4, 161)
    rs = gen_siho(8, 3)
    m, nbar, p = siho_params(8, 3)
    assert all(c.route.period == p for c in rs.carriers)
    # common corridor prefix
    for c in rs.carriers:
        assert c.route.sites[:nbar] == tuple(f"z{l}" for l in range(1, nbar + 1))
    # private terminal
    assert {c.route.sites[-1] for c in rs.carriers} == {"y1", "y2", "y3"}


@pytest.mark.parametrize("m", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_stride_rows_follow_the_formula(m):
    for i in range(m + 3):
        assert _stride_row(list(range(m)), i) == [(i + (s + 1) * r) % m for s in range(m) for r in range(m)]


def test_sihe_params():
    assert sihe_params(36, 4) == (7, 14, 45, 46)
    assert sihe_params(40, 4) == (11, 10, 113, 114)
    assert sihe_params(60, 8) == (13, 14, 163, 164)


def test_preconditions_rejected():
    with pytest.raises(ParameterViolation):
        gen_thm3(8, 3, 4)  # n too small
    with pytest.raises(ParameterViolation):
        gen_thm3(9, 3, 4)  # p below ceil(n/(k-1))
    with pytest.raises(ParameterViolation):
        gen_thm3(17, 4, 6)  # remainder lump outgrows one period
    with pytest.raises(ParameterViolation):
        make_instance("thm4", 9, 3, 4)  # hub period cannot hold its row
    with pytest.raises(NoSuitablePrime):
        gen_siho(4, 2)
    with pytest.raises(ParameterViolation):
        gen_sihe(35, 4)
    with pytest.raises(ParameterViolation):
        gen_thm8(11, 2)  # relay term vanishes below three carriers
    with pytest.raises(NoCoprimePair):
        gen_thm8(6, 3)
    with pytest.raises(ParameterViolation):
        make_instance("thm3", 12, 4)  # p is mandatory here
    with pytest.raises(ParameterViolation, match="takes no p"):
        make_instance("thm7", 8, 3, 5)  # thm7 has no period parameter
    assert make_instance("thm7", 8, 3, seed=5) == make_instance("thm7", 8, 3)
    with pytest.raises(ParameterViolation):
        make_instance("nonsense", 5, 2)


def test_random_generation_is_deterministic():
    a = dumps(gen_random_feasible(9, 3, 5, 41))
    b = dumps(gen_random_feasible(9, 3, 5, 41))
    c = dumps(gen_random_feasible(9, 3, 5, 42))
    assert a == b
    assert a != c


def test_random_generation_is_always_feasible():
    for seed in range(60):
        rs = gen_random_feasible(8, 3, 4, seed)
        assert is_feasible(rs)
        assert rs.n == 8 and rs.k == 3
        assert rs.max_period <= 5  # repair may add one slot


def test_random_repair_fixes_an_infeasible_draw():
    hit = False
    for seed in range(300):
        raw = random_routeset_raw(8, 3, 4, seed)
        if not is_feasible(raw):
            repaired = gen_random_feasible(8, 3, 4, seed)
            assert is_feasible(repaired)
            hit = True
            break
    assert hit, "corpus never produced an infeasible raw draw"


def test_random_rejects_unplaceable_universe():
    with pytest.raises(ParameterViolation):
        gen_random_feasible(10, 2, 4, 0)  # 2*4 slots < 10 sites
