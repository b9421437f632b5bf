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
    pareto_front,
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
    model, meta = build_rlmp(pool, two_rider_chain, "cost")
    sol = solve_lp(model)
    assert sol.status == "Optimal"
    assert value(sol, "l0") == pytest.approx(1.0)
    assert all(value(sol, f"art{i}") == pytest.approx(0.0) for i in (1, 2))


def test_rlmp_empty_pool_uses_artificials(two_rider_chain):
    pool = ColumnPool(two_rider_chain)
    pool.add(make_column(two_rider_chain, (0, 1, 3, 5)))  # covers request 1 only
    model, meta = build_rlmp(pool, two_rider_chain, "cost")
    sol = solve_lp(model)
    assert value(sol, "art2") == pytest.approx(1.0)
    assert sol.objective >= big_cost(two_rider_chain)


def test_rlmp_infinite_cap_omits_risk_rows(two_rider_chain):
    """Cost mode has no per-request cap rows, capped or not: the cap holds
    route by route through the fixed columns. The risk objective keeps one
    row per request under its peak."""
    pool = ColumnPool(two_rider_chain)
    pool.add(make_column(two_rider_chain, (0, 1, 2, 3, 4, 5)))
    for eps_risk in (INF, 10.0):
        model, meta = build_rlmp(pool, two_rider_chain, "cost", eps_risk=eps_risk)
        assert not any(key[0] == "risk" for key in meta["row"] if isinstance(key, tuple))
        assert all(not name.startswith("risk") for name in model.row_names)
    assert meta["cap"] == 10.0
    model, meta = build_rlmp(pool, two_rider_chain, "risk")
    assert [model.row_names[meta["row"][("risk", i)]] for i in (1, 2)] == ["risk1", "risk2"]


def test_rlmp_fixes_over_cap_columns_in_cost_mode_only(two_rider_chain):
    pool = ColumnPool(two_rider_chain)
    shared = make_column(two_rider_chain, (0, 1, 2, 3, 4, 5))
    pool.add(shared)
    pool.add(make_column(two_rider_chain, (0, 1, 3, 5)))
    cap = max(shared.exposure.values()) / 2
    model, meta = build_rlmp(pool, two_rider_chain, "cost", eps_risk=cap)
    assert [model.ub[j] for j in meta["lam"]] == [0.0, INF]
    model, meta = build_rlmp(pool, two_rider_chain, "risk", eps_cost=100.0)
    assert [model.ub[j] for j in meta["lam"]] == [INF, INF]


def test_cg_single_request_converges_in_one_round():
    inst = preprocess(random_instance(0, n=1, fleet_size=1))
    pool = ColumnPool(inst)
    assert seed_pool(pool, inst) == []
    res = column_generation(inst, pool, "cost")
    assert res.status == OPTIMAL_STATUS
    assert res.iterations <= 2
    assert len(res.solution.columns_used) == 1


def test_cg_matches_brute_force_when_integral():
    inst0 = random_instance(4, n=2, fleet_size=2)
    inst = preprocess(inst0)
    pool = ColumnPool(inst)
    seed_pool(pool, inst)
    res = column_generation(inst, pool, "cost")
    assert res.status == OPTIMAL_STATUS
    bf = oracle.brute_force_solve(inst0)
    if res.solution.integral:
        assert res.objective == pytest.approx(bf.objective, abs=1e-6)
    else:
        assert res.objective <= bf.objective + 1e-6


def _record_master_lps(monkeypatch) -> list[tuple[bool, float]]:
    """Patch the LP layer to record, for every master LP, whether its
    artificials were free when it was solved and their total value."""
    real = lp.solve_lp_warm
    lps = []

    def solve(model, warm):
        sol, warm = real(model, warm)
        arts = [j for j, name in enumerate(model.var_names) if name.startswith(("art", "xart"))]
        lps.append((all(model.ub[j] == INF for j in arts), float(sum(sol.x[arts]))))
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
    res = column_generation(inst, pool, "cost", eps_risk=0.5)
    assert res.status == INFEASIBLE_STATUS
    assert lps and all(free and total > ARTIFICIAL_TOL for free, total in lps)
    assert calls[-1] == (False, len(pool))
    pool2 = ColumnPool(inst)
    seed_pool(pool2, inst)
    assert column_generation(inst, pool2, "cost", eps_risk=1.5).status == OPTIMAL_STATUS


def test_artificials_are_fixed_from_the_first_feasible_master_on(interlaced, monkeypatch):
    """From an empty pool the first master needs its artificials. The first
    LP without them fixes them at zero, and they stay fixed for every later
    LP of the node."""
    inst, _ = interlaced
    pool = ColumnPool(inst)
    lps = _record_master_lps(monkeypatch)
    res = column_generation(inst, pool, "cost")
    assert res.status == OPTIMAL_STATUS
    assert res.objective == pytest.approx(oracle.brute_force_solve(inst).objective)
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

    def extract(inst_, sol, meta):
        arts = [*meta["art"].values(), *meta["xart"].values()]
        feasible[-1] = feasible[-1] or float(sum(sol.x[arts])) <= ARTIFICIAL_TOL
        return real_extract(inst_, sol, meta)

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


def test_edarp_risk_rows_bound_detour_rates():
    from rdarp.instance import edarp_transform

    inst = preprocess(edarp_transform(random_instance(4, n=2, window=60.0)))
    pool = ColumnPool(inst)
    seed_pool(pool, inst)
    # the detour-rate cap applies in EDARP; the exposure cap does not
    _, meta = build_rlmp(pool, inst, "cost", eps_risk=1.0, eps_dt=4.0)
    assert meta["cap"] == 4.0
    model, meta = build_rlmp(pool, inst, "risk", eps_cost=1000.0)
    for i in inst.pickups():
        r = meta["row"][("risk", i)]
        assert model.row_names[r] == f"risk{i}"
        assert (model.senses[r], model.rhs[r]) == ("<=", 0.0)
        # coefficient is exposure over the floored direct time, less the peak
        expected = {f"l{k}": col.exposure[i] / inst.detour_weight[i - 1]
                    for k, col in enumerate(pool.columns) if col.exposure.get(i)}
        assert expected
        expected["peak"] = -1.0
        assert {model.var_names[j]: v for j, v in model.rows[r]} == expected


def _row_coefficients(model):
    """Row name -> {variable name: coefficient}."""
    return {name: {model.var_names[j]: v for j, v in model.rows[r]}
            for r, name in enumerate(model.row_names)}


@pytest.mark.parametrize("mode, caps", [
    ("cost", {"eps_risk": 9.0}),
    ("risk", {"eps_cost": 400.0}),
])
def test_appended_columns_match_a_fresh_build(mode, caps):
    inst = preprocess(random_instance(6, n=3, fleet_size=2))
    pool = ColumnPool(inst)
    seed_pool(pool, inst)
    extra = (
        ExtraRow("veh<= 2", "<=", 2.0, route_constant=1.0),
        ExtraRow("out>=1", ">=", 1.0, arc_coefs=(((1, 2), 1.0), ((2, 5), 2.0), ((3, 6), 1.0))),
    )
    # bars the second seed column, (0, 2, 2 + n, end)
    barred = frozenset({(2, 2 + inst.n)})
    args = (inst, mode, caps.get("eps_risk", INF), caps.get("eps_cost", INF), INF,
            extra, barred)
    rmaster = RestrictedMaster(pool, *args)
    rmaster.solve()
    seeded = len(pool)
    duals = DualValues(pi={i: 300.0 for i in inst.pickups()})
    added = [c for c in solve_pricing(inst, duals, mode, limit=40) if pool.add(c)]
    assert len(added) > 5
    rmaster.solve()
    model, meta = rmaster.model, rmaster.meta
    fresh, fresh_meta = build_rlmp(pool, *args)
    assert meta["row"] == fresh_meta["row"]
    assert ("costcap" in fresh.row_names) == (mode == "risk")
    coefs = _row_coefficients(model)
    appended = {f"l{k}" for k in range(seeded, len(pool))}
    # the cost-mode cap rows would be implied, so only the risk objective has them
    assert any(name.startswith("risk") for name in coefs) == (mode == "risk")
    for prefix in ("part", "fleet", "x0:", "x1:") + (("risk",) if mode == "risk" else ()):
        assert any(appended & set(row) for name, row in coefs.items() if name.startswith(prefix))
    assert coefs == _row_coefficients(fresh)
    assert {model.var_names[j]: (model.lb[j], model.ub[j], model.obj[j]) for j in range(model.n_vars)} \
        == {fresh.var_names[j]: (fresh.lb[j], fresh.ub[j], fresh.obj[j]) for j in range(fresh.n_vars)}
    fixed = {f"l{k}" for k, col in enumerate(pool.columns) if (2, 2 + inst.n) in col.arcs()}
    assert "l1" in fixed and fixed & appended
    assert {model.var_names[j] for j in range(model.n_vars) if model.ub[j] == 0.0} == fixed


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

    def solve_fn(mode, eps_risk, eps_cost, time_limit):
        return bcp.solve(inst, mode, bcp.SolveOptions(
            eps_risk=eps_risk, eps_cost=eps_cost, time_limit=time_limit))

    points = pareto_front(solve_fn, step=0.25)
    assert [round(p.cost, 6) for p in points] == [5.0, 7.0]
    assert [round(p.max_risk, 6) for p in points] == [1.0, 0.0]
    # mutual non-domination
    for a in points:
        for b in points:
            if a is not b:
                assert not (a.cost <= b.cost and a.max_risk <= b.max_risk)


def test_pareto_front_brute_force_equality():
    inst0 = random_instance(4, n=3, fleet_size=2)
    inst = preprocess(inst0)

    def solve_fn(mode, eps_risk, eps_cost, time_limit):
        return bcp.solve(inst, mode, bcp.SolveOptions(
            eps_risk=eps_risk, eps_cost=eps_cost, time_limit=time_limit))

    points = pareto_front(solve_fn, step=0.5)
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

    def solve_fn(mode, eps_risk, eps_cost, time_limit):
        return bcp.solve(inst, mode, bcp.SolveOptions(
            eps_risk=eps_risk, eps_cost=eps_cost, time_limit=time_limit))

    points = pareto_front(solve_fn, step=50.0)
    assert 1 <= len(points) <= 2


@pytest.mark.parametrize("step", [math.nan, 0.0, -0.5])
def test_pareto_rejects_a_step_that_is_not_positive(step):
    calls = []

    def solve_fn(mode, eps_risk, eps_cost, time_limit):
        calls.append(mode)
        return bcp.SolveReport(INFEASIBLE_STATUS, INF, INF, 0.0, [], 0, 0, 0)

    with pytest.raises(ValueError):
        pareto_front(solve_fn, step=step)
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
