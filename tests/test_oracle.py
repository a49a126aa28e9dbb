from __future__ import annotations

import pytest

from pvgraph import (
    BoundReport,
    IDS,
    Instance,
    ParameterViolation,
    RouteSet,
    StateSpaceTooLarge,
    audit,
    exact_feasible,
    is_feasible,
    make_instance,
    min_moves,
)


def rs_of(*routes):
    return RouteSet.from_routes([(f"c{i}", list(r)) for i, r in enumerate(routes)], IDS)


def test_two_site_loop_needs_one_move():
    assert min_moves(rs_of(["a", "b"]), "c0") == 1


def test_single_site_needs_nothing():
    assert min_moves(rs_of(["a"]), "c0") == 0


def test_switching_is_counted_as_a_move():
    rs = rs_of(["a", "b"], ["a", "c"])
    assert min_moves(rs, "c0") == 3  # e.g. ride to c, back to a, hop to b


def test_unreachable_site_gives_none():
    rs = rs_of(["a", "b"], ["c"])  # never meet; b unreachable from c1
    assert min_moves(rs, "c1") is None
    assert min_moves(rs, "c0") is None
    # a carrier on the right parity bridges the gap: wait on c, hop at t=1,
    # land on a exactly when c0 is there, finish on b
    bridged = rs_of(["a", "b"], ["c"], ["a", "c"])
    assert min_moves(bridged, "c1") == 3


def test_duplicate_of_a_carrier_never_hurts():
    rs = rs_of(["a", "b", "c", "d"])
    twin = rs_of(["a", "b", "c", "d"], ["a", "b", "c", "d"])
    assert min_moves(twin, "c0") == min_moves(rs, "c0")


def test_state_cap_enforced():
    inst = make_instance("thm3", 12, 4, 6)
    with pytest.raises(StateSpaceTooLarge) as ei:
        min_moves(inst.routeset, inst.start, state_cap=1000)
    assert ei.value.cap == 1000
    assert ei.value.size > 1000


def test_state_cap_from_environment(monkeypatch):
    rs = rs_of(["a", "b", "c"])
    monkeypatch.setenv("PVG_STATE_CAP", "2")
    with pytest.raises(StateSpaceTooLarge):
        min_moves(rs, "c0")
    monkeypatch.setenv("PVG_STATE_CAP", "100")
    assert min_moves(rs, "c0") == 2


def test_exact_feasible_quantifies_over_starts():
    rs = rs_of(["a", "b"], ["c"])
    assert not exact_feasible(rs)
    assert exact_feasible(rs_of(["a", "b"], ["a", "c"]))
    # agreement with the meeting-graph checker on these
    assert exact_feasible(rs_of(["a", "b"], ["a", "c"])) == is_feasible(
        rs_of(["a", "b"], ["a", "c"])
    )


def test_audit_reports_family_instance():
    inst = make_instance("thm7", 8, 3)
    report = audit(inst)
    assert report.family == "thm7_circ_homo"
    assert report.parameters == {"n": 8, "k": 3}
    assert report.theoretical_lower_bound == 16
    assert report.oracle_optimum == 25
    assert report.oracle_max_over_starts == 25
    assert set(report.strategy_moves) == {"hitch", "guess"}
    assert all(m >= 25 for m in report.strategy_moves.values())
    assert not report.violation()
    assert report.notes == []


def test_audit_searches_each_start_once(monkeypatch):
    import pvgraph.oracle as oracle

    calls = []
    search = oracle.min_moves

    def counted(rs, start, state_cap=None):
        calls.append(start)
        return search(rs, start, state_cap)

    monkeypatch.setattr(oracle, "min_moves", counted)
    report = audit(make_instance("thm8", 13, 3))
    assert calls == ["c0", "c1", "c2"]
    assert report.oracle_optimum == 62 and report.oracle_max_over_starts == 62


def test_unknown_start_carrier_is_a_parameter_violation():
    rs = rs_of(["a", "b"])
    with pytest.raises(ParameterViolation, match="nope"):
        min_moves(rs, "nope")
    base = make_instance("thm7", 4, 2)
    with pytest.raises(ParameterViolation, match="nope"):
        audit(Instance(base.family, base.params, base.routeset, base.bound, "nope"))


def test_audit_flags_overclaimed_bound():
    base = make_instance("thm7", 4, 2)
    bogus = Instance(base.family, base.params, base.routeset, 10 ** 6, base.start)
    assert audit(bogus).violation()


def test_audit_json_shape():
    import json

    report = audit(make_instance("thm8", 7, 3))
    data = json.loads(report.to_json())
    assert list(data) == [
        "family", "parameters", "theoretical_lower_bound", "oracle_optimum",
        "oracle_max_over_starts", "strategy_moves", "notes", "violation",
    ]
    assert data["violation"] is False
    assert data["theoretical_lower_bound"] == 22
    assert data["oracle_optimum"] == 23


def test_bound_report_violation_logic():
    r = BoundReport("f", {}, 10, 12, 12)
    assert not r.violation()
    r.strategy_moves["h"] = 11  # cheaper than the proven optimum
    assert r.violation()
    assert BoundReport("f", {}, 13, 12, 12).violation()
    assert not BoundReport("f", {}, None, 12, 12).violation()
    assert not BoundReport("f", {}, 13, None, None).violation()
