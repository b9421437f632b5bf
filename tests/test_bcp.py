import logging
import math
import re
import time

import pytest

from rdarp import bcp, oracle
from rdarp.fixtures import benchmark_like_instance, random_instance
from rdarp.instance import edarp_transform, preprocess
from rdarp.master import ColumnPool, column_generation, pareto_front, seed_pool

INF = math.inf


def test_single_request_optimal_at_root():
    inst = preprocess(random_instance(0, n=1, fleet_size=1))
    rep = bcp.solve(inst, "cost")
    assert rep.status == "Optimal"
    assert rep.nodes_explored == 1
    assert rep.gap == 0.0
    expected = inst.t(0, 1) + inst.t(1, 2) + inst.t(2, 3)
    assert rep.objective == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("seed", [3, 7, 13, 21])
def test_all_regimes_match_brute_force(seed):
    inst0 = random_instance(seed, n=3, fleet_size=2)
    inst = preprocess(inst0)
    for mode, kw, bf_kw in (
        ("cost", {}, {}),
        ("risk", {}, {"objective": "risk"}),
        ("cost", {"eps_risk": 10.0}, {"eps_risk": 10.0}),
    ):
        rep = bcp.solve(inst, mode, bcp.SolveOptions(**kw))
        bf = oracle.brute_force_solve(inst0, **bf_kw)
        if bf.status == "Infeasible":
            assert rep.status == "Infeasible"
        else:
            assert rep.status == "Optimal"
            assert rep.objective == pytest.approx(bf.objective, abs=1e-5)


def test_incumbent_invariants():
    inst0 = random_instance(5, n=4, fleet_size=2)
    inst = preprocess(inst0)
    rep = bcp.solve(inst, "cost", bcp.SolveOptions(eps_risk=14.0))
    if rep.status != "Optimal":
        pytest.skip("instance infeasible under this cap")
    covered = []
    for r in rep.routes:
        oracle.validate_route(inst, r)
        covered.extend(r.requests)
        assert all(h <= 14.0 + 1e-6 for h in r.exposure.values())
    assert sorted(covered) == list(inst.pickups())
    assert len(rep.routes) <= inst.fleet_size


def test_determinism():
    inst = preprocess(random_instance(9, n=3, fleet_size=2))
    reps = [bcp.solve(inst, "cost", bcp.SolveOptions(eps_risk=12.0)) for _ in range(2)]
    a, b = reps
    assert a.objective == b.objective
    assert a.nodes_explored == b.nodes_explored
    assert [r.sequence for r in a.routes] == [r.sequence for r in b.routes]


def test_each_node_logs_one_progress_line_at_debug(caplog):
    inst = preprocess(random_instance(41, n=4, fleet_size=2))
    with caplog.at_level(logging.INFO, logger="rdarp.bcp"):
        quiet = bcp.solve(inst, "cost")
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="rdarp.bcp"):
        rep = bcp.solve(inst, "cost")
    assert rep.nodes_explored == quiet.nodes_explored == 3
    lines = [r.getMessage() for r in caplog.records]
    assert all(r.name == "rdarp.bcp" and r.levelno == logging.DEBUG for r in caplog.records)
    assert len(lines) == rep.nodes_explored
    pattern = re.compile(r"node depth=(\d+) bound=(\S+) incumbent=(\S+) gap=(\S+) open=(\d+) "
                         r"columns=(\d+) elapsed=([0-9.]+)s")
    fields = [pattern.fullmatch(line).groups() for line in lines]
    assert [int(f[0]) for f in fields] == [0, 1, 1]
    assert float(fields[-1][2]) == pytest.approx(rep.objective)
    assert float(fields[-1][3]) == 0.0
    assert int(fields[-1][5]) == rep.columns
    elapsed = [float(f[6]) for f in fields]
    assert elapsed == sorted(elapsed)


def test_branching_bounds_monotone():
    # find an instance that actually branches and check children tighten
    from rdarp.master import ColumnPool, column_generation, seed_pool

    import itertools

    for seed in range(30):
        inst = preprocess(random_instance(seed, n=4, fleet_size=2))
        pool = ColumnPool(inst)
        if seed_pool(pool, inst):
            continue
        res = column_generation(inst, pool, "cost", eps_risk=9.0)
        if res.status != "Optimal" or res.solution.integral:
            continue
        counter = itertools.count(100)
        root = bcp.BranchNode(0, 0, res.bound)
        children = bcp.branch(root, res.solution, counter)
        assert children is not None
        for child in children:
            child_res = column_generation(
                inst, pool, "cost", eps_risk=9.0, extra_rows=child.rows,
                banned=child.banned,
            )
            if child_res.status == "Optimal":
                assert child_res.bound >= res.bound - 1e-6
        return
    pytest.skip("no fractional root found in the sampled seeds")


def test_restriction_record_fixes_barred_pool_columns():
    # the bans alone bind the master: pool columns that use a banned arc get
    # no value, though they were priced before the ban existed
    from rdarp.master import column_generation, seed_pool

    inst = preprocess(random_instance(5, n=4, fleet_size=2))
    pool = ColumnPool(inst)
    assert seed_pool(pool, inst) == []
    root = column_generation(inst, pool, "cost")
    assert root.status == "Optimal"
    col, _ = max(root.solution.columns_used, key=lambda item: item[1])
    banned = col.arcs()[1]  # an arc between two request nodes
    res = column_generation(inst, pool, "cost", banned=frozenset({banned}))
    assert res.status == "Optimal"
    assert all(banned not in used.arcs() for used, _ in res.solution.columns_used)
    fresh = ColumnPool(inst)
    seed_pool(fresh, inst)
    alone = column_generation(inst, fresh, "cost", banned=frozenset({banned}))
    assert res.bound == pytest.approx(alone.bound, abs=1e-6)
    assert res.bound >= root.bound - 1e-6


def test_vehicle_branch_rule_floor_ceil():
    import itertools

    from rdarp.master import MasterSolution
    from rdarp.pricing import DualValues

    col = oracle.Route((0, 1, 3, 5), (0.0, 1.0, 2.0, 3.0), 3.0, {1: 0.0}, 0.0)
    col2 = oracle.Route((0, 2, 4, 5), (0.0, 1.0, 2.0, 3.0), 3.0, {2: 0.0}, 0.0)
    msol = MasterSolution(objective=3.0, duals=DualValues(), artificial_total=0.0,
                          columns_used=[(col, 1.25), (col2, 1.25)])
    node = bcp.BranchNode(0, 0, 0.0)
    left, right = bcp.branch(node, msol, itertools.count(1))
    assert left.rows[-1].sense == "<=" and left.rows[-1].rhs == 2.0
    assert right.rows[-1].sense == ">=" and right.rows[-1].rhs == 3.0


def test_arc_branch_rule_bans_the_most_fractional_arc():
    import itertools

    from rdarp.master import MasterSolution
    from rdarp.pricing import DualValues

    def route(seq):
        return oracle.Route(seq, tuple(float(k) for k in range(len(seq))), 5.0,
                            {1: 0.0, 2: 0.0}, 0.0)

    # one vehicle in all; flows (0,1) 0.7, (2,1) 0.3, (2,3) 0.2, (2,4) 0.5, ...
    msol = MasterSolution(objective=5.0, duals=DualValues(), artificial_total=0.0,
                          columns_used=[(route((0, 1, 2, 4, 3, 5)), 0.5),
                                        (route((0, 1, 2, 3, 4, 5)), 0.2),
                                        (route((0, 2, 1, 3, 4, 5)), 0.3)])
    assert msol.vehicle_count() == pytest.approx(1.0) and not msol.integral
    kept = bcp.ExtraRow("veh<= 1", "<=", 1.0, route_constant=1.0)
    node = bcp.BranchNode(1, 0, 0.0, rows=(kept,),
                          banned=frozenset({(1, 4)}))
    banned, forced = bcp.branch(node, msol, itertools.count(1))
    assert banned.rows == (kept,)
    assert banned.banned == frozenset({(1, 4), (2, 4)})
    assert forced.rows[:-1] == (kept,)
    row = forced.rows[-1]
    assert (row.name, row.sense, row.rhs, row.arc_coefs, row.route_constant) == (
        "arc(2,4)>=1", ">=", 1.0, (((2, 4), 1.0),), 0.0)
    assert forced.banned == node.banned


@pytest.mark.parametrize("cap", ["eps_risk", "eps_cost", "eps_dt"])
def test_negative_cap_raises_before_any_lp(cap, monkeypatch):
    from rdarp import master

    def no_lp(*args, **kwargs):
        raise AssertionError("a master LP was built")

    monkeypatch.setattr(master, "build_rlmp", no_lp)
    inst = preprocess(random_instance(0, n=2, fleet_size=1))
    pool = ColumnPool(inst)
    with pytest.raises(ValueError, match=cap):
        bcp.solve(inst, "cost", bcp.SolveOptions(**{cap: -1.0}), pool=pool)
    assert len(pool) == 0


@pytest.mark.parametrize("mode, edarp, cap", [
    ("cost", False, "eps_cost"),  # a cost cap binds only the risk objective
    ("risk", False, "eps_risk"),  # the risk objective takes no exposure cap
    ("risk", True, "eps_dt"),     # nor a detour-rate cap
    ("cost", True, "eps_risk"),   # an EDARP instance caps detour rates
    ("cost", False, "eps_dt"),    # only an EDARP instance has detour rates
])
def test_a_cap_the_solve_would_not_enforce_raises_before_any_lp(mode, edarp, cap, monkeypatch):
    from rdarp import master

    def no_lp(*args, **kwargs):
        raise AssertionError("a master LP was built")

    monkeypatch.setattr(master, "build_rlmp", no_lp)
    inst = random_instance(0, n=2, fleet_size=1)
    inst = preprocess(edarp_transform(inst) if edarp else inst)
    assert bcp.enforced_cap(inst, mode) != cap
    pool = ColumnPool(inst)
    with pytest.raises(ValueError, match=f"not {cap}="):
        bcp.solve(inst, mode, bcp.SolveOptions(**{cap: 1.0}), pool=pool)
    assert len(pool) == 0


@pytest.mark.parametrize("limit", [-1.0, math.nan], ids=["negative", "nan"])
def test_a_bad_time_limit_raises_before_any_lp(limit, monkeypatch):
    # a NaN deadline never passes, so the limit would be silently ignored
    from rdarp import master

    def no_lp(*args, **kwargs):
        raise AssertionError("a master LP was built")

    monkeypatch.setattr(master, "build_rlmp", no_lp)
    inst = preprocess(random_instance(0, n=2, fleet_size=1))
    pool = ColumnPool(inst)
    with pytest.raises(ValueError, match="time_limit"):
        bcp.solve(inst, "cost", bcp.SolveOptions(time_limit=limit), pool=pool)
    assert len(pool) == 0


def test_time_limit_holds_on_the_wall_clock():
    """Pricing is not interrupted, so a limit is checked between column
    generation iterations; the overrun stays within 10% + 1 s."""
    inst = preprocess(benchmark_like_instance(1, n=22, fleet_size=2))
    start = time.perf_counter()
    rep = bcp.solve(inst, "cost", bcp.SolveOptions(time_limit=2.0))
    elapsed = time.perf_counter() - start
    assert rep.status == "TimeLimit"
    assert elapsed <= 1.1 * 2.0 + 1.0


def test_infeasible_instance_reports_root():
    from dataclasses import replace

    from tests.test_oracle import corridor_instance

    inst0 = replace(corridor_instance(), fleet_size=1,
                    late=(100.0, 3.0, 3.0, 100.0, 100.0, 100.0))
    inst = preprocess(inst0)
    rep = bcp.solve(inst, "cost", bcp.SolveOptions(eps_risk=0.5))
    assert rep.status == "Infeasible"
    assert rep.infeasible_at_root


def test_edarp_solve_detour_caps():
    inst0 = edarp_transform(random_instance(12, n=3, fleet_size=2, window=45.0))
    inst = preprocess(inst0)
    for eps in (2.0, 4.0):
        rep = bcp.solve(inst, "cost", bcp.SolveOptions(eps_dt=eps))
        bf = oracle.brute_force_solve(inst0, eps_risk=eps)
        if bf.status == "Infeasible":
            assert rep.status == "Infeasible"
            continue
        assert rep.objective == pytest.approx(bf.objective, abs=1e-5)
        for r in rep.routes:
            for i, h in r.exposure.items():
                assert h / inst.detour_weight[i - 1] <= eps + 1e-6


def test_a_cap_enforced_route_by_route_closes_the_root():
    """Pricing emits no route over the cap and the master uses none, so the
    root bound of this capped solve is the optimum. The master's cap rows
    alone hold the cap only on average over the routes, a weaker bound."""
    inst = preprocess(benchmark_like_instance(4, n=10, fleet_size=3))
    pool = ColumnPool(inst)
    seed_pool(pool, inst)
    root = column_generation(inst, pool, "cost", eps_risk=2.0)
    rep = bcp.solve(inst, "cost", bcp.SolveOptions(eps_risk=2.0))
    assert rep.status == "Optimal"
    assert rep.objective == pytest.approx(172.19218, abs=1e-5)
    assert root.bound == pytest.approx(rep.objective, abs=1e-6)
    assert rep.nodes_explored == 1
    oracle.validate_solution(inst, rep.routes, 2.0)


def _check_time_limited(inst, rep, full):
    """A solve cut by its time limit certifies nothing it did not prove."""
    if rep.status == "Optimal":
        assert rep.objective == pytest.approx(full.objective, abs=1e-6)
    assert rep.bound <= full.objective + 1e-6
    if rep.routes:
        oracle.validate_solution(inst, rep.routes, INF)


def test_root_time_limit_keeps_the_root_open():
    inst = preprocess(random_instance(0, n=2, fleet_size=2))
    full = bcp.solve(inst, "cost")
    rep = bcp.solve(inst, "cost", bcp.SolveOptions(time_limit=0.0))
    _check_time_limited(inst, rep, full)
    assert rep.status == "TimeLimit" and rep.bound == -INF


@pytest.mark.parametrize("timed_out_call", [2, 3])
def test_child_time_limit_keeps_the_child_open(monkeypatch, timed_out_call):
    """The root branches into two children. The child whose column
    generation times out stays open with its parent's bound."""
    inst = preprocess(random_instance(41, n=4, fleet_size=2))
    full = bcp.solve(inst, "cost")
    real = bcp.column_generation
    results = []

    def timed(*args, **kwargs):
        if len(results) + 1 == timed_out_call:
            kwargs["deadline"] = 0.0  # already past: stops after one master solve
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(bcp, "column_generation", timed)
    rep = bcp.solve(inst, "cost")
    assert len(results) == 3 and rep.nodes_explored == 3
    assert results[timed_out_call - 1].status == "TimeLimit"
    _check_time_limited(inst, rep, full)
    assert rep.bound <= results[0].bound + 1e-9
    assert rep.status == "TimeLimit"
    if timed_out_call == 3:
        # the timed-out child's master is integral and artificial-free at
        # the optimum, so it is the incumbent although the child stays open
        assert math.isfinite(rep.objective)
        assert rep.objective == pytest.approx(full.objective, abs=1e-6)
        assert full.objective == pytest.approx(123.196, abs=1e-3)


def test_pareto_sweep_with_a_shared_pool_branches_past_tolerance_dust():
    """With one pool shared by every solve of the sweep, the 8th solve (risk
    mode at the last cost) reaches a master whose λ miss the integrality
    tolerance by dust while every arc flow meets it. That master is integral
    for the tree: its routes are the incumbent, and the front is the one
    fresh pools give."""
    inst = preprocess(benchmark_like_instance(3, n=10, fleet_size=3))
    pool = ColumnPool(inst)

    def solve_fn(mode, eps_risk, eps_cost, time_limit):
        return bcp.solve(inst, mode, bcp.SolveOptions(
            eps_risk=eps_risk, eps_cost=eps_cost, time_limit=time_limit), pool=pool)

    points = pareto_front(solve_fn, step=0.01)
    assert all(p.certified for p in points)
    front = [(p.cost, p.max_risk) for p in points]
    expected = [(195.661, 12.87), (199.099, 10.7697), (206.256, 7.2026), (208.819, 0.0)]
    assert len(front) == len(expected)
    for (cost, risk), (cost_ref, risk_ref) in zip(front, expected):
        assert cost == pytest.approx(cost_ref, abs=1e-3)
        assert risk == pytest.approx(risk_ref, abs=1e-4)
