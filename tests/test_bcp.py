import logging
import math
import re
import time

import pytest

from rdarp import bcp, oracle
from rdarp.fixtures import benchmark_like_instance, random_instance
from rdarp.instance import RDARP, Instance, edarp_transform, euclidean_matrix, preprocess
from rdarp.master import ColumnPool, column_generation, seed_pool

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
        res = column_generation(inst, pool, 9.0)
        if res.status != "Optimal" or res.solution.integral:
            continue
        counter = itertools.count(100)
        root = bcp.BranchNode(0, 0, res.bound)
        children = bcp.branch(root, res.solution, counter)
        assert children is not None
        for child in children:
            child_res = column_generation(inst, pool, 9.0, extra_rows=child.rows,
                                          banned=child.banned)
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
    root = column_generation(inst, pool)
    assert root.status == "Optimal"
    col, _ = max(root.solution.columns_used, key=lambda item: item[1])
    banned = col.arcs()[1]  # an arc between two request nodes
    res = column_generation(inst, pool, banned=frozenset({banned}))
    assert res.status == "Optimal"
    assert all(banned not in used.arcs() for used, _ in res.solution.columns_used)
    fresh = ColumnPool(inst)
    seed_pool(fresh, inst)
    alone = column_generation(inst, fresh, banned=frozenset({banned}))
    assert res.bound == pytest.approx(alone.bound, abs=1e-6)
    assert res.bound >= root.bound - 1e-6


def test_vehicle_branch_rule_floor_ceil():
    import itertools

    from rdarp.master import MasterSolution

    col = oracle.Route((0, 1, 3, 5), (0.0, 1.0, 2.0, 3.0), 3.0, {1: 0.0}, 0.0)
    col2 = oracle.Route((0, 2, 4, 5), (0.0, 1.0, 2.0, 3.0), 3.0, {2: 0.0}, 0.0)
    msol = MasterSolution(objective=3.0, artificial_total=0.0,
                          columns_used=[(col, 1.25), (col2, 1.25)])
    node = bcp.BranchNode(0, 0, 0.0)
    left, right = bcp.branch(node, msol, itertools.count(1))
    assert left.rows[-1].sense == "<=" and left.rows[-1].rhs == 2.0
    assert right.rows[-1].sense == ">=" and right.rows[-1].rhs == 3.0


def test_arc_branch_rule_bans_the_most_fractional_arc():
    import itertools

    from rdarp.master import MasterSolution

    def route(seq):
        return oracle.Route(seq, tuple(float(k) for k in range(len(seq))), 5.0,
                            {1: 0.0, 2: 0.0}, 0.0)

    # one vehicle in all; flows (0,1) 0.7, (2,1) 0.3, (2,3) 0.2, (2,4) 0.5, ...
    msol = MasterSolution(objective=5.0, artificial_total=0.0,
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


@pytest.fixture
def nothing_may_run(monkeypatch):
    """Fail the test if the solve seeds its pool or builds a master LP."""
    from rdarp import master

    def refuse(*args, **kwargs):
        raise AssertionError("the solve ran before it raised")

    monkeypatch.setattr(bcp, "seed_pool", refuse)
    monkeypatch.setattr(master, "build_rlmp", refuse)


@pytest.mark.parametrize("cap", ["eps_risk", "eps_cost", "eps_dt"])
def test_negative_cap_raises_before_any_lp(cap, nothing_may_run):
    inst = preprocess(random_instance(0, n=2, fleet_size=1))
    with pytest.raises(ValueError, match=cap):
        bcp.solve(inst, "cost", bcp.SolveOptions(**{cap: -1.0}))


@pytest.mark.parametrize("mode, edarp, cap", [
    ("cost", False, "eps_cost"),  # a cost cap binds only the risk objective
    ("risk", False, "eps_risk"),  # the risk objective takes no exposure cap
    ("risk", True, "eps_dt"),     # nor a detour-rate cap
    ("cost", True, "eps_risk"),   # an EDARP instance caps detour rates
    ("cost", False, "eps_dt"),    # only an EDARP instance has detour rates
])
def test_a_cap_the_solve_would_not_enforce_raises_before_any_lp(mode, edarp, cap,
                                                               nothing_may_run):
    inst = random_instance(0, n=2, fleet_size=1)
    inst = preprocess(edarp_transform(inst) if edarp else inst)
    assert bcp.enforced_cap(inst, mode) != cap
    with pytest.raises(ValueError, match=f"not {cap}="):
        bcp.solve(inst, mode, bcp.SolveOptions(**{cap: 1.0}))


def test_certify_risk_in_a_risk_solve_raises_before_any_lp(nothing_may_run):
    # a risk solve has no cost optimum whose peak a certification could lower
    inst = preprocess(random_instance(0, n=2, fleet_size=1))
    with pytest.raises(ValueError, match="certify_risk"):
        bcp.solve(inst, "risk", bcp.SolveOptions(certify_risk=True))


@pytest.mark.parametrize("limit", [-1.0, math.nan], ids=["negative", "nan"])
def test_a_bad_time_limit_raises_before_any_lp(limit, nothing_may_run):
    # a NaN deadline never passes, so the limit would be silently ignored
    inst = preprocess(random_instance(0, n=2, fleet_size=1))
    with pytest.raises(ValueError, match="time_limit"):
        bcp.solve(inst, "cost", bcp.SolveOptions(time_limit=limit))
    with pytest.raises(ValueError, match="time_limit"):
        bcp.pareto_front(inst, 1.0, time_limit=limit)


def test_time_limit_holds_on_the_wall_clock():
    """A limit is checked between column generation iterations and inside
    each pricing run; the overrun stays within 10% + 1 s."""
    for limit in (2.0, 5.0):
        inst = preprocess(benchmark_like_instance(1, n=22, fleet_size=2))
        start = time.perf_counter()
        rep = bcp.solve(inst, "cost", bcp.SolveOptions(time_limit=limit))
        elapsed = time.perf_counter() - start
        assert rep.status == "TimeLimit", limit
        assert elapsed <= 1.1 * limit + 1.0, limit


def test_an_exact_run_cut_by_the_deadline_certifies_nothing(monkeypatch):
    """When the clock runs out during the exact run, column generation
    returns ``TimeLimit`` with a bound of -inf, not ``Optimal`` or
    ``Infeasible``, whatever the truncated run returned."""
    from rdarp import master

    inst = preprocess(benchmark_like_instance(0, n=14, fleet_size=3))
    pool = ColumnPool(inst)
    seed_pool(pool, inst)
    real = master.solve_pricing
    exact_runs = []

    def pricing(*args, heuristic, deadline, **kwargs):
        if heuristic:
            return []  # leave every round to the exact run
        while time.perf_counter() <= deadline:
            time.sleep(0.01)
        exact_runs.append(real(*args, heuristic=heuristic, deadline=deadline, **kwargs))
        return exact_runs[-1]

    monkeypatch.setattr(master, "solve_pricing", pricing)
    res = column_generation(inst, pool, deadline=time.perf_counter() + 0.1)
    assert exact_runs
    assert res.status == "TimeLimit" and res.bound == -INF


def test_infeasible_instance_reports_root():
    from dataclasses import replace

    from tests.test_oracle import corridor_instance

    inst0 = replace(corridor_instance(), fleet_size=1,
                    late=(100.0, 3.0, 3.0, 100.0, 100.0, 100.0))
    inst = preprocess(inst0)
    rep = bcp.solve(inst, "cost", bcp.SolveOptions(eps_risk=0.5))
    assert rep.status == "Infeasible"
    assert rep.nodes_explored <= 1


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
    root = column_generation(inst, pool, 2.0)
    rep = bcp.solve(inst, "cost", bcp.SolveOptions(eps_risk=2.0))
    assert rep.status == "Optimal"
    assert rep.objective == pytest.approx(172.19218, abs=1e-5)
    assert root.bound == pytest.approx(rep.objective, abs=1e-6)
    assert rep.nodes_explored == 1
    oracle.validate_solution(inst, rep.routes, 2.0)


def _count_separations(monkeypatch) -> list:
    """The cuts each ``cuts.separate_all`` call of the solve returns."""
    found = []
    original = bcp.cuts_mod.separate_all

    def counted(*args, **kwargs):
        found.append(original(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(bcp.cuts_mod, "separate_all", counted)
    return found


def test_an_integral_root_is_not_separated(monkeypatch):
    calls = _count_separations(monkeypatch)
    rep = bcp.solve(preprocess(benchmark_like_instance(0, n=14, fleet_size=3)), "cost")
    assert (rep.status, rep.nodes_explored, rep.cuts) == ("Optimal", 1, 0)
    assert rep.objective == pytest.approx(209.99090940409204, rel=1e-12)
    assert calls == []


def test_a_fractional_root_is_still_separated(monkeypatch):
    # a rounded capacity cut closes this root; without it the tree takes 3 nodes
    calls = _count_separations(monkeypatch)
    inst = preprocess(edarp_transform(random_instance(2, n=6, fleet_size=2, window=90)))
    rep = bcp.solve(inst, "cost", bcp.SolveOptions(eps_dt=1.6))
    assert (rep.status, rep.nodes_explored) == ("Optimal", 1)
    assert rep.objective == pytest.approx(141.45349605230467, rel=1e-12)
    assert calls and rep.cuts >= 1


def test_no_cut_is_violated_at_an_integral_root():
    """Why the root cut loop skips an integral root: a converged master is
    free of artificials, so its λ = 1 columns are a feasible integer
    solution, and no valid inequality cuts that off. The cap of 0 is the
    first step of the risk objective's sweep."""
    from rdarp import cuts

    integral = 0
    for seed in range(50):
        base = random_instance(seed, n=2 + seed % 3, fleet_size=1 + seed % 2)
        edarp = edarp_transform(base)
        for inst0, caps in ((base, {}), (base, {"eps_risk": 0.0}),
                            (edarp, {"eps_dt": 2.0}), (edarp, {"eps_dt": 4.0})):
            inst = preprocess(inst0)
            pool = ColumnPool(inst)
            if seed_pool(pool, inst):
                continue
            cap = inst.measure_cap(caps.get("eps_risk", INF), caps.get("eps_dt", INF))
            res = column_generation(inst, pool, cap)
            if res.status != "Optimal" or not res.solution.integral:
                continue
            integral += 1
            flows = res.solution.arc_flows()
            violated = [c.name for c in cuts.separate_all(flows, inst)
                        if c.violation(flows) > cuts.VIOLATION_TOL]
            assert violated == [], (seed, caps)
    assert integral >= 150


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


def test_the_pareto_front_is_one_sweep(monkeypatch):
    """Each point costs one tree, and the tree that ends a point starts the
    next: no second, certifying sweep runs per point."""
    inst = preprocess(benchmark_like_instance(3, n=10, fleet_size=3))
    caps = []
    real = bcp._min_cost

    def min_cost(inst_, cap, *args, **kwargs):
        caps.append(cap)
        return real(inst_, cap, *args, **kwargs)

    monkeypatch.setattr(bcp, "_min_cost", min_cost)
    points, complete = bcp.pareto_front(inst, step=0.01)
    assert complete
    front = [(p.cost, p.max_risk) for p in points]
    expected = [(195.661, 12.87), (199.099, 10.7697), (206.256, 7.2026), (208.819, 0.0)]
    assert len(front) == len(expected)
    for (cost, risk), (cost_ref, risk_ref) in zip(front, expected):
        assert cost == pytest.approx(cost_ref, abs=1e-3)
        assert risk == pytest.approx(risk_ref, abs=1e-4)
    assert len(caps) <= len(points) + 1
    assert caps == sorted(caps, reverse=True)


def test_a_timed_out_refining_tree_leaves_an_incomplete_front(monkeypatch):
    """The sweep of ``_sweep_instance`` runs three one-node trees: uncapped,
    at the first point's peak less δ (it costs more, so it starts the
    second point) and at the second point's peak less δ (nothing). When the
    third tree times out, the first point is the whole front, which is
    reported incomplete."""
    inst = _sweep_instance()
    full, complete = bcp.pareto_front(inst, step=0.01)
    assert complete and len(full) == 2
    real = bcp.column_generation
    results = []

    def timed(*args, **kwargs):
        if len(results) == 2:
            kwargs["deadline"] = 0.0  # already past: stops after one master solve
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(bcp, "column_generation", timed)
    points, complete = bcp.pareto_front(inst, step=0.01)
    assert len(results) == 3 and results[-1].status == "TimeLimit"
    assert not complete
    assert [(p.eps_risk, p.cost, p.max_risk) for p in points] == \
        [(full[0].eps_risk, full[0].cost, full[0].max_risk)]


def _battery_bases():
    """The base instances of the c3 battery."""
    for seed in range(50):
        yield seed, random_instance(seed, n=2 + seed % 3, fleet_size=1 + seed % 2)


@pytest.mark.parametrize("regime", ["edarp", "budget"])
def test_risk_objective_matches_brute_force_on_the_battery(regime):
    """The sweep's minimum peak equals the brute force's: on the EDARP
    instances uncapped, on the RDARP ones within a budget of 1.05 times the
    minimum cost."""
    compared = 0
    for seed, base in _battery_bases():
        kw = {}
        if regime == "edarp":
            base = edarp_transform(base)
        else:
            cheapest = oracle.brute_force_solve(base)
            if cheapest.status != "Optimal":
                continue
            kw = {"eps_cost": 1.05 * cheapest.objective}
        rep = bcp.solve(preprocess(base), "risk", bcp.SolveOptions(**kw))
        bf = oracle.brute_force_solve(base, objective="risk", **kw)
        assert rep.status == bf.status, seed
        if bf.status == "Optimal":
            assert rep.objective == pytest.approx(bf.objective, abs=1e-5), seed
            assert sum(r.cost for r in rep.routes) <= kw.get("eps_cost", INF) + 1e-6, seed
            compared += 1
    assert compared >= 40


def test_certify_risk_matches_brute_force_on_the_battery():
    """On the four cost regimes of the c3 battery, a certified cost solve
    has the brute force's minimum cost, and its routes, all of that cost,
    have the brute force's least peak among the solutions of that cost."""
    compared = 0
    for seed, base in _battery_bases():
        edarp = edarp_transform(base)
        risk_ref = oracle.brute_force_solve(base, objective="risk")
        tight = risk_ref.objective + 2.0 if risk_ref.status == "Optimal" else 8.0
        for inst0, kw, cap in ((base, {}, INF), (base, {"eps_risk": tight}, tight),
                               (edarp, {"eps_dt": 2.0}, 2.0), (edarp, {"eps_dt": 4.0}, 4.0)):
            inst = preprocess(inst0)
            rep = bcp.solve(inst, "cost", bcp.SolveOptions(certify_risk=True, **kw))
            cheapest = oracle.brute_force_solve(inst0, eps_risk=cap)
            assert rep.status == cheapest.status, (seed, kw)
            if cheapest.status != "Optimal":
                continue
            assert rep.objective == pytest.approx(cheapest.objective, abs=1e-6), (seed, kw)
            assert sum(r.cost for r in rep.routes) <= rep.objective + 2e-6, (seed, kw)
            oracle.validate_solution(inst, rep.routes, cap)
            least = oracle.brute_force_solve(inst0, eps_risk=cap, objective="risk",
                                             eps_cost=rep.objective + 2e-6)
            assert oracle.peak_measure(inst, rep.routes) == pytest.approx(
                least.objective, abs=1e-5), (seed, kw)
            compared += 1
    assert compared >= 150


def test_certify_risk_breaks_a_cost_tie_by_peak():
    """Three riders share one pick-up point and one drop-off point. A
    vehicle of capacity 2 serves them in two trips at the same cost,
    whichever two ride together, but the pair sets the peak. The plain cost
    solve pairs the two riskiest riders; the certified one pairs the two
    least risky, the brute force's least peak at that cost."""
    n, risks = 3, (0.9, 0.7, 0.5)
    pts = [(0.0, 0.0)] + [(10.0, 0.0)] * n + [(20.0, 0.0)] * n + [(0.0, 0.0)]
    inst0 = Instance(
        n=n, fleet_size=2, capacity=2.0, q_max=INF,
        service=(0.0,) + (1.0,) * (2 * n) + (0.0,),
        load=(0.0,) + (1.0,) * n + (-1.0,) * n + (0.0,),
        risk=(0.0,) + risks + tuple(-r for r in risks) + (0.0,),
        early=(0.0,) * len(pts), late=(240.0,) * len(pts), travel=euclidean_matrix(pts),
        max_ride=(60.0,) * n, mode=RDARP, coords=tuple(pts), name="cost-tie")
    inst0.validate()
    inst = preprocess(inst0)
    plain = bcp.solve(inst, "cost")
    rep = bcp.solve(inst, "cost", bcp.SolveOptions(certify_risk=True))
    assert rep.status == plain.status == "Optimal"
    assert rep.objective == plain.objective == pytest.approx(60.0)
    assert sum(r.cost for r in rep.routes) == pytest.approx(60.0, abs=1e-9)
    least = oracle.brute_force_solve(inst0, objective="risk", eps_cost=rep.objective + 2e-6)
    assert least.objective == pytest.approx(7.7)
    assert oracle.peak_measure(inst, rep.routes) == pytest.approx(least.objective, abs=1e-5)
    assert oracle.peak_measure(inst, plain.routes) == pytest.approx(9.9)


def _sweep_instance():
    # one vehicle: the sweep solves at the floor 0 (no solution), uncapped,
    # at 7.671 and at 3.072 (no solution), one node each
    return preprocess(random_instance(9, n=4, fleet_size=1))


def test_one_risk_solve_is_one_call_of_solve(monkeypatch):
    """The sweep's steps call ``_min_cost``, never the module attribute
    ``bcp.solve``, which tracers wrap to count a solve and its nodes."""
    inst = _sweep_instance()
    calls, caps = [], []
    real_solve, real_min_cost = bcp.solve, bcp._min_cost

    def solve(*args, **kwargs):
        calls.append(args[1])
        return real_solve(*args, **kwargs)

    def min_cost(inst_, cap, *args, **kwargs):
        caps.append(cap)
        return real_min_cost(inst_, cap, *args, **kwargs)

    monkeypatch.setattr(bcp, "solve", solve)
    monkeypatch.setattr(bcp, "_min_cost", min_cost)
    rep = bcp.solve(inst, "risk")
    assert calls == ["risk"]
    assert len(caps) == 4 and caps[:2] == [0.0, INF]
    assert rep.status == "Optimal"
    assert rep.objective == pytest.approx(3.0717, abs=1e-4)
    assert rep.nodes_explored == 4


def test_one_certified_solve_is_one_call_of_solve(monkeypatch):
    """A certified cost solve runs the cost tree and its refining trees
    through ``_min_cost`` inside one call of ``bcp.solve``, over one pool:
    here the uncapped tree, then one at its peak less δ that finds no
    routes of its cost."""
    inst = _sweep_instance()
    plain = bcp.solve(inst, "cost")
    calls, caps = [], []
    real_solve, real_min_cost = bcp.solve, bcp._min_cost

    def solve(*args, **kwargs):
        calls.append(args[1])
        return real_solve(*args, **kwargs)

    def min_cost(inst_, cap, *args, **kwargs):
        caps.append(cap)
        return real_min_cost(inst_, cap, *args, **kwargs)

    monkeypatch.setattr(bcp, "solve", solve)
    monkeypatch.setattr(bcp, "_min_cost", min_cost)
    rep = bcp.solve(inst, "cost", bcp.SolveOptions(certify_risk=True))
    assert calls == ["cost"]
    assert caps == [INF, pytest.approx(7.671, abs=1e-3)]
    assert rep.status == "Optimal" and rep.objective == plain.objective
    assert rep.nodes_explored == 2


def test_risk_time_limit_reports_the_floor_as_bound():
    inst = _sweep_instance()
    full = bcp.solve(inst, "risk")
    rep = bcp.solve(inst, "risk", bcp.SolveOptions(time_limit=0.0))
    _check_time_limited(inst, rep, full)
    assert rep.status == "TimeLimit" and rep.bound == 0.0


@pytest.mark.parametrize("timed_out_call", [2, 3])
def test_a_timed_out_sweep_step_ends_the_sweep(monkeypatch, timed_out_call):
    """The column generation of the uncapped step (call 2) or of the first
    capped one (call 3) times out: the sweep stops there, reports
    ``TimeLimit`` with the floor as bound, and keeps the last point found."""
    inst = _sweep_instance()
    full = bcp.solve(inst, "risk")
    real = bcp.column_generation
    results = []

    def timed(*args, **kwargs):
        if len(results) + 1 == timed_out_call:
            kwargs["deadline"] = 0.0  # already past: stops after one master solve
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(bcp, "column_generation", timed)
    rep = bcp.solve(inst, "risk")
    assert len(results) == timed_out_call
    assert results[-1].status == "TimeLimit"
    _check_time_limited(inst, rep, full)
    assert rep.status == "TimeLimit" and rep.bound == 0.0
    if timed_out_call == 3:
        # the uncapped step's point stands
        assert rep.objective == pytest.approx(7.671, abs=1e-3)


def test_the_sweep_resolution_is_inside_the_benchmark_tolerance():
    """δ, the risk certificate's resolution, stays below the 1e-5 within
    which the benchmark compares answers, on every battery instance."""
    for seed in range(100):
        base = random_instance(seed, n=2 + seed % 3, fleet_size=1 + seed % 2)
        for inst0 in (base, edarp_transform(base)):
            _, delta = bcp._floor_and_resolution(preprocess(inst0))
            assert 0.0 < delta <= 6.3e-6 + 1e-12, seed
