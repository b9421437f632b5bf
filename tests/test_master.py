import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from rdarp import bcp, lp, master, oracle
from rdarp.errors import RouteInfeasible
from rdarp.fixtures import benchmark_like_instance, random_instance
from rdarp.instance import edarp_transform, preprocess
from rdarp.lp import solve_lp
from rdarp.master import (
    ARTIFICIAL_TOL,
    ColumnPool,
    ExtraRow,
    OPTIMAL_STATUS,
    INFEASIBLE_STATUS,
    RestrictedMaster,
    _insertion_routes,
    big_cost,
    build_rlmp,
    column_generation,
    seed_pool,
)
from rdarp.pricing import DualValues, solve_pricing

INF = math.inf


def value(sol, name):
    return float(sol.x[sol.var_names.index(name)])


def make_column(inst, seq):
    route, reason = oracle.replay_route(inst, seq)
    assert route is not None, reason
    return route


def test_pool_rejects_duplicates_and_validates(two_rider_chain):
    pool = ColumnPool(two_rider_chain)
    col = make_column(two_rider_chain, (0, 1, 2, 3, 4, 5))
    assert pool.add(col)
    assert not pool.add(col)
    broken = replace(col, schedule=tuple(t + 500 for t in col.schedule))
    with pytest.raises(RouteInfeasible):
        ColumnPool(two_rider_chain).add(broken)


def test_rlmp_single_feasible_column(two_rider_chain):
    pool = ColumnPool(two_rider_chain)
    pool.add(make_column(two_rider_chain, (0, 1, 2, 3, 4, 5)))
    sol = solve_lp(build_rlmp(pool, two_rider_chain).model)
    assert sol.status == "Optimal"
    assert value(sol, "l0") == pytest.approx(1.0)
    assert all(value(sol, f"art{i}") == pytest.approx(0.0) for i in (1, 2))


def test_rlmp_empty_pool_uses_artificials(two_rider_chain):
    pool = ColumnPool(two_rider_chain)
    pool.add(make_column(two_rider_chain, (0, 1, 3, 5)))  # covers request 1 only
    sol = solve_lp(build_rlmp(pool, two_rider_chain).model)
    assert value(sol, "art2") == pytest.approx(1.0)
    assert sol.objective >= big_cost(two_rider_chain)


def test_rlmp_infinite_cap_omits_risk_rows(two_rider_chain):
    """The master has no per-request cap rows, capped or not: the cap holds
    route by route through the fixed columns. Its rows are the partitioning
    rows and the fleet row."""
    pool = ColumnPool(two_rider_chain)
    pool.add(make_column(two_rider_chain, (0, 1, 2, 3, 4, 5)))
    for cap in (INF, 10.0):
        rmaster = build_rlmp(pool, two_rider_chain, cap)
        assert rmaster.model.row_names == ["part1", "part2", "fleet"]
    assert rmaster.cap == 10.0


def test_rlmp_fixes_over_cap_columns_in_cost_mode_only(two_rider_chain):
    pool = ColumnPool(two_rider_chain)
    shared = make_column(two_rider_chain, (0, 1, 2, 3, 4, 5))
    pool.add(shared)
    pool.add(make_column(two_rider_chain, (0, 1, 3, 5)))
    cap = max(shared.exposure.values()) / 2
    rmaster = build_rlmp(pool, two_rider_chain, cap)
    assert [rmaster.model.ub[j] for j in rmaster.lam] == [0.0, INF]
    rmaster = build_rlmp(pool, two_rider_chain)
    assert [rmaster.model.ub[j] for j in rmaster.lam] == [INF, INF]


def test_cg_single_request_converges_in_one_round(monkeypatch):
    inst = preprocess(random_instance(0, n=1, fleet_size=1))
    pool = ColumnPool(inst)
    assert seed_pool(pool, inst) == []
    real_pricing = master.solve_pricing
    heuristic = []  # per pricing run; each round starts with one heuristic run

    def pricing(*args, **kwargs):
        heuristic.append(kwargs["heuristic"])
        return real_pricing(*args, **kwargs)

    monkeypatch.setattr(master, "solve_pricing", pricing)
    res = column_generation(inst, pool)
    assert res.status == OPTIMAL_STATUS
    assert heuristic.count(True) <= 2
    assert len(res.solution.columns_used) == 1


def test_cg_matches_brute_force_when_integral():
    inst0 = random_instance(4, n=2, fleet_size=2)
    inst = preprocess(inst0)
    pool = ColumnPool(inst)
    seed_pool(pool, inst)
    res = column_generation(inst, pool)
    assert res.status == OPTIMAL_STATUS
    bf = oracle.brute_force_solve(inst0)
    if res.solution.integral:
        assert res.bound == pytest.approx(bf.objective, abs=1e-6)
    else:
        assert res.bound <= bf.objective + 1e-6


def _record_master_lps(monkeypatch) -> list[tuple[bool, float]]:
    """Patch the LP layer to record, for every master LP, whether its
    artificials were free when it was solved and their total value."""
    real = lp.solve_lp_warm
    lps = []

    def solve(model, warm):
        sol, warm = real(model, warm)
        arts = [j for j, name in enumerate(model.var_names) if name.startswith(("art", "xart"))]
        lps.append((all(model.ub[j] == INF for j in arts), float(sum(sol.x[v] for v in arts))))
        return sol, warm

    monkeypatch.setattr(lp, "solve_lp_warm", solve)
    return lps


def test_cg_detects_infeasibility_with_tight_cap(monkeypatch):
    """Pick-up deadlines force both riders onboard together, so every
    covering has peak exposure at least 1.0 and a cap below that is
    infeasible. Column generation says so only after an exact pricing run
    adds nothing while every master still needs its artificials."""
    from tests.test_oracle import corridor_instance

    inst0 = replace(
        corridor_instance(), fleet_size=1,
        late=(100.0, 3.0, 3.0, 100.0, 100.0, 100.0),
    )
    bf = oracle.brute_force_solve(inst0, eps_risk=0.5)
    assert bf.status == "Infeasible"
    assert oracle.brute_force_solve(inst0, eps_risk=1.5).status == "Optimal"
    inst = preprocess(inst0)
    pool = ColumnPool(inst)
    seed_pool(pool, inst)
    lps = _record_master_lps(monkeypatch)
    real_pricing = master.solve_pricing
    calls = []  # (heuristic, pool size when pricing returned)

    def pricing(*args, **kwargs):
        cols = real_pricing(*args, **kwargs)
        calls.append((kwargs["heuristic"], len(pool)))
        return cols

    monkeypatch.setattr(master, "solve_pricing", pricing)
    res = column_generation(inst, pool, 0.5)
    assert res.status == INFEASIBLE_STATUS
    assert lps and all(free and total > ARTIFICIAL_TOL for free, total in lps)
    assert calls[-1] == (False, len(pool))
    pool2 = ColumnPool(inst)
    seed_pool(pool2, inst)
    assert column_generation(inst, pool2, 1.5).status == OPTIMAL_STATUS


def test_artificials_are_fixed_from_the_first_feasible_master_on(interlaced, monkeypatch):
    """From an empty pool the first master needs its artificials. The first
    LP without them fixes them at zero, and they stay fixed for every later
    LP of the node."""
    inst, _ = interlaced
    pool = ColumnPool(inst)
    lps = _record_master_lps(monkeypatch)
    res = column_generation(inst, pool)
    assert res.status == OPTIMAL_STATUS
    assert res.bound == pytest.approx(oracle.brute_force_solve(inst).objective)
    first = next(k for k, (_, total) in enumerate(lps) if total <= ARTIFICIAL_TOL)
    assert 1 <= first < len(lps) - 1
    assert all(free and total > ARTIFICIAL_TOL for free, total in lps[:first])
    assert lps[first][0]
    assert not any(free for free, _ in lps[first + 1:])


def test_pricing_gets_the_masters_own_duals_once_it_is_feasible(monkeypatch):
    """The first masters of this root are feasible without artificials, but
    their degenerate bases keep artificials basic at zero, whose duals price
    every request at ``big_cost``. Once a master LP of a node is feasible,
    pricing must get duals of the master without artificials."""
    inst = preprocess(benchmark_like_instance(0, n=14, fleet_size=3))
    half_big = big_cost(inst) / 2
    real_cg, real_extract = bcp.column_generation, master.extract_duals
    feasible = []  # per node: whether one of its master LPs was feasible so far

    def cg(*args, **kwargs):
        feasible.append(False)
        return real_cg(*args, **kwargs)

    def extract(inst_, sol, extra_rows):
        arts = [j for j, name in enumerate(sol.var_names) if name.startswith(("art", "xart"))]
        feasible[-1] = feasible[-1] or float(sum(sol.x[v] for v in arts)) <= ARTIFICIAL_TOL
        return real_extract(inst_, sol, extra_rows)

    checked = []
    real_pricing = master.solve_pricing

    def pricing(inst_, duals, *args, **kwargs):
        if feasible[-1]:
            checked.append(max(abs(duals.mu), *map(abs, duals.pi.values())))
        return real_pricing(inst_, duals, *args, **kwargs)

    monkeypatch.setattr(bcp, "column_generation", cg)
    monkeypatch.setattr(master, "extract_duals", extract)
    monkeypatch.setattr(master, "solve_pricing", pricing)
    rep = bcp.solve(inst, "cost")
    assert rep.status == OPTIMAL_STATUS
    assert rep.objective == pytest.approx(209.99090940409206, abs=1e-9)
    assert checked and max(checked) < half_big
    assert rep.columns < 804


def _battery_instances():
    """The instances of the benchmark's battery, cost and equity mode."""
    for seed in range(50):
        base = preprocess(random_instance(seed, n=2 + seed % 3, fleet_size=1 + seed % 2))
        yield base
        yield preprocess(edarp_transform(base))


def _check_insertion_routes(inst):
    """The insertion routes are valid calibrated routes that serve each
    request at most once on at most ``fleet_size`` vehicles; returns the
    requests they serve."""
    seqs = _insertion_routes(inst)
    assert len(seqs) <= inst.fleet_size
    served = [v for seq in seqs for v in seq if inst.is_pickup(v)]
    assert len(served) == len(set(served))
    for seq in seqs:
        route, reason = oracle.replay_route(inst, seq)
        assert route is not None, reason
        oracle.validate_route(inst, route)
    return sorted(served)


def test_insertion_routes_cover_every_request_on_root_n14():
    inst = preprocess(benchmark_like_instance(0, n=14, fleet_size=3))
    assert _check_insertion_routes(inst) == list(inst.pickups())
    pool = ColumnPool(inst)
    assert seed_pool(pool, inst) == []
    # the round trips, then every insertion route (each serves several requests)
    assert [col.sequence for col in pool.columns[inst.n:]] == _insertion_routes(inst)


def test_insertion_routes_are_valid_on_battery_instances():
    covered = 0
    for inst in _battery_instances():
        covered += _check_insertion_routes(inst) == list(inst.pickups())
    assert covered > 0


def _stdout_at_hash_seeds(script: str) -> list[str]:
    """What ``script`` prints in a child process at ``PYTHONHASHSEED`` 0 and
    at 123."""
    src = str(Path(oracle.__file__).resolve().parent.parent)
    root = str(Path(__file__).resolve().parent.parent)
    outputs = []
    for hash_seed in ("0", "123"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, cwd=root, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    return outputs


def test_insertion_routes_do_not_depend_on_the_hash_seed():
    outputs = _stdout_at_hash_seeds(
        "from tests.test_master import _battery_instances\n"
        "from rdarp.fixtures import benchmark_like_instance\n"
        "from rdarp.instance import preprocess\n"
        "from rdarp.master import _insertion_routes\n"
        "print(_insertion_routes(preprocess(benchmark_like_instance(0, n=14, fleet_size=3))))\n"
        "for inst in _battery_instances():\n"
        "    print(_insertion_routes(inst))\n"
    )
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[0] == repr(_insertion_routes(
        preprocess(benchmark_like_instance(0, n=14, fleet_size=3))))


def test_a_whole_solve_does_not_depend_on_the_hash_seed():
    outputs = _stdout_at_hash_seeds(
        "from rdarp import bcp\n"
        "from rdarp.fixtures import benchmark_like_instance\n"
        "from rdarp.instance import preprocess\n"
        "rep = bcp.solve(preprocess(benchmark_like_instance(0, n=14, fleet_size=3)), 'cost')\n"
        "print(rep.status, repr(rep.objective), rep.columns)\n"
        "print([r.sequence for r in rep.routes])\n"
    )
    assert outputs[0] == outputs[1]
    status, objective, _ = outputs[0].split()[:3]
    assert status == OPTIMAL_STATUS
    assert float(objective) == pytest.approx(209.99090940409206, abs=1e-9)


def test_seed_pool_adds_no_insertion_route_when_a_round_trip_is_infeasible():
    inst = random_instance(0, n=3, fleet_size=1)
    # request 3 must be picked up at time 0, which no trip from the depot meets
    blocked = replace(inst, late=tuple(0.0 if k == 3 else v for k, v in enumerate(inst.late)))
    assert any(len(seq) > 4 for seq in _insertion_routes(blocked))
    pool = ColumnPool(blocked)
    assert seed_pool(pool, blocked) == [3]
    assert [col.sequence for col in pool.columns] == [(0, 1, 4, 7), (0, 2, 5, 7)]


def test_extra_row_coefficients(two_rider_chain):
    col = make_column(two_rider_chain, (0, 1, 2, 3, 4, 5))
    row = ExtraRow("veh", "<=", 2.0, route_constant=1.0)
    assert row.coefficient(col) == 1.0
    arc_row = ExtraRow("arc", ">=", 1.0, arc_coefs=(((1, 2), 1.0), ((4, 5), 2.0)))
    assert arc_row.coefficient(col) == pytest.approx(3.0)


def _row_coefficients(model):
    """Row name -> {variable name: coefficient}."""
    return {name: {model.var_names[j]: v for j, v in model.rows[r]}
            for r, name in enumerate(model.row_names)}


def test_appended_columns_match_a_fresh_build():
    inst = preprocess(random_instance(6, n=3, fleet_size=2))
    pool = ColumnPool(inst)
    seed_pool(pool, inst)
    extra = (
        ExtraRow("veh<= 2", "<=", 2.0, route_constant=1.0),
        ExtraRow("out>=1", ">=", 1.0, arc_coefs=(((1, 2), 1.0), ((2, 5), 2.0), ((3, 6), 1.0))),
    )
    # bars the second seed column, (0, 2, 2 + n, end)
    barred = frozenset({(2, 2 + inst.n)})
    args = (inst, 9.0, extra, barred)
    rmaster = RestrictedMaster(pool, *args)
    rmaster.solve()
    seeded = len(pool)
    duals = DualValues(pi={i: 300.0 for i in inst.pickups()})
    added = [c for c in solve_pricing(inst, duals, limit=40) if pool.add(c)]
    assert len(added) > 5
    rmaster.solve()
    model, fresh = rmaster.model, build_rlmp(pool, *args).model
    assert model.row_names == fresh.row_names
    coefs = _row_coefficients(model)
    appended = {f"l{k}" for k in range(seeded, len(pool))}
    for prefix in ("part", "fleet", "x0:", "x1:"):
        assert any(appended & set(row) for name, row in coefs.items() if name.startswith(prefix))
    assert coefs == _row_coefficients(fresh)
    assert {model.var_names[j]: (model.lb[j], model.ub[j], model.obj[j]) for j in range(model.n_vars)} \
        == {fresh.var_names[j]: (fresh.lb[j], fresh.ub[j], fresh.obj[j]) for j in range(fresh.n_vars)}
    fixed = {f"l{k}" for k, col in enumerate(pool.columns) if (2, 2 + inst.n) in col.arcs()}
    assert "l1" in fixed and fixed & appended
    assert {model.var_names[j] for j in range(model.n_vars) if model.ub[j] == 0.0} == fixed


def test_master_variable_order_is_pool_then_artificials_then_appended():
    """The simplex breaks pivot ties by variable index, so the master's
    variable order steers the pivots and the columns pricing finds. It is
    the λ of the pool at construction, the artificials of the partitioning
    rows and of the >= extra rows, then the λ of the columns added since,
    in pool order."""
    inst = preprocess(random_instance(6, n=3, fleet_size=2))
    pool = ColumnPool(inst)
    seed_pool(pool, inst)
    extra = (ExtraRow("veh<= 2", "<=", 2.0, route_constant=1.0),
             ExtraRow("out>=1", ">=", 1.0, arc_coefs=(((1, 2), 1.0),)))
    rmaster = RestrictedMaster(pool, inst, INF, extra, frozenset())
    seeded = len(pool)
    duals = DualValues(pi={i: 300.0 for i in inst.pickups()})
    assert [c for c in solve_pricing(inst, duals, limit=40) if pool.add(c)]
    rmaster.solve()
    assert rmaster.model.var_names == (
        [f"l{k}" for k in range(seeded)] + ["art1", "art2", "art3", "xart1"]
        + [f"l{k}" for k in range(seeded, len(pool))])


def _synthetic_master(*columns_used):
    """A master over ``(sequence, λ)`` pairs on two requests; only the
    sequences matter to ``MasterSolution.integral``."""
    return master.MasterSolution(0.0, 0.0, [
        (oracle.Route(seq, (0.0,) * len(seq), 0.0, {}, 0.0), lam) for seq, lam in columns_used])


def test_integral_master_with_lambda_dust_off_integrality():
    """λ that miss the integrality tolerance by dust, with every arc flow
    within it, make an integral master; fractional arc flows do not."""
    a, b, c = (0, 1, 3, 2, 4, 5), (0, 1, 3, 5), (0, 2, 4, 1, 3, 5)
    dust = _synthetic_master((a, 1 - 4e-7), (b, 1.2e-6), (c, 1 - 4e-7))
    assert not all(abs(v - round(v)) <= master.INTEGRALITY_TOL for _, v in dust.columns_used)
    assert dust.integral
    assert not _synthetic_master((a, 0.5), (c, 0.5)).integral


def test_detour_coefficient_uses_floor(two_rider_chain):
    from rdarp.instance import edarp_transform

    inst = edarp_transform(two_rider_chain)
    pool = ColumnPool(inst)
    pool.add(make_column(inst, (0, 1, 2, 3, 4, 5)))
    col = pool.columns[0]
    # ride time 15 over direct 5 gives rate 1 under the 15-minute floor
    onboard = col.schedule[3] - col.schedule[1]
    assert col.exposure[1] / inst.detour_weight[0] == pytest.approx(onboard / 15.0)


def test_pareto_front_on_corridor():
    from tests.test_oracle import corridor_instance

    inst0 = corridor_instance()
    inst = preprocess(inst0)

    points, complete = bcp.pareto_front(inst, step=0.25)
    assert complete
    assert [round(p.cost, 6) for p in points] == [5.0, 7.0]
    assert [round(p.max_risk, 6) for p in points] == [1.0, 0.0]
    # mutual non-domination
    for a in points:
        for b in points:
            if a is not b:
                assert not (a.cost <= b.cost and a.max_risk <= b.max_risk)


def test_pareto_front_on_corridor_reaches_the_floor_at_a_step_of_a_peak():
    # the first point's peak less the step is the floor (0), and a cap at
    # the floor still admits the zero-exposure point
    from tests.test_oracle import corridor_instance

    points, complete = bcp.pareto_front(preprocess(corridor_instance()), step=1.0)
    assert complete
    assert [round(p.cost, 6) for p in points] == [5.0, 7.0]
    assert [round(p.max_risk, 6) for p in points] == [1.0, 0.0]


def test_pareto_front_brute_force_equality():
    inst0 = random_instance(4, n=3, fleet_size=2)
    inst = preprocess(inst0)

    points, complete = bcp.pareto_front(inst, step=0.5)
    assert complete
    # exhaustive front: enumerate every solution, filter dominated
    all_solutions = []
    caps = sorted({round(p.max_risk, 6) for p in points} | {INF})
    for cap in caps:
        bf = oracle.brute_force_solve(inst0, eps_risk=cap)
        if bf.status != "Optimal":
            continue
        peak = max((h for r in bf.routes for h in r.exposure.values()), default=0.0)
        all_solutions.append((bf.objective, peak))
    front = []
    for c, h in sorted(set((round(c, 6), round(h, 6)) for c, h in all_solutions)):
        if not any(oc <= c + 1e-9 and oh <= h + 1e-9 and (oc < c - 1e-9 or oh < h - 1e-9)
                   for oc, oh in all_solutions):
            front.append((c, h))
    got = sorted((round(p.cost, 6), round(p.max_risk, 6)) for p in points)
    assert got == sorted(front)


def test_pareto_step_larger_than_range():
    from tests.test_oracle import corridor_instance

    inst = preprocess(corridor_instance())

    points, complete = bcp.pareto_front(inst, step=50.0)
    assert complete and 1 <= len(points) <= 2


def test_a_pareto_step_below_the_resolution_acts_as_it():
    # a cap less than δ below a point's peak admits the point's own routes
    # (``oracle.over_cap``), so such a step would find the point again
    from tests.test_oracle import corridor_instance

    inst = preprocess(corridor_instance())
    delta = bcp._floor_and_resolution(inst)[1]
    tiny, complete = bcp.pareto_front(inst, step=delta / 1000)
    at_delta, _ = bcp.pareto_front(inst, step=delta)
    assert complete
    assert [(p.eps_risk, p.cost, p.max_risk) for p in tiny] == \
        [(p.eps_risk, p.cost, p.max_risk) for p in at_delta]
    assert [round(p.cost, 6) for p in tiny] == [5.0, 7.0]


@pytest.mark.parametrize("step", [math.nan, 0.0, -0.5])
def test_pareto_rejects_a_step_that_is_not_positive(monkeypatch, step):
    from tests.test_oracle import corridor_instance

    calls = []

    def min_cost(*args, **kwargs):
        calls.append(args)
        return bcp.SolveReport(INFEASIBLE_STATUS, INF, INF, 0.0, [], 0, 0, 0)

    monkeypatch.setattr(bcp, "_min_cost", min_cost)
    with pytest.raises(ValueError):
        bcp.pareto_front(preprocess(corridor_instance()), step=step)
    assert calls == []


def test_monotone_cost_in_cap():
    inst0 = random_instance(8, n=3, fleet_size=2)
    inst = preprocess(inst0)
    prev = None
    for eps in (2.0, 4.0, 8.0, 16.0, INF):
        rep = bcp.solve(inst, "cost", bcp.SolveOptions(eps_risk=eps))
        if rep.status != "Optimal":
            continue
        if prev is not None:
            assert rep.objective <= prev + 1e-6
        prev = rep.objective
