import itertools
import math
from dataclasses import replace

import pytest

from rdarp import calibration as cal
from rdarp.errors import RouteInfeasible
from rdarp.fixtures import random_instance
from rdarp.instance import edarp_transform, preprocess
from rdarp.oracle import (
    Route,
    brute_force_solve,
    exposure_from_schedule,
    feasible_routes,
    mmr_schedule,
    over_cap,
    peak_measure,
    replay_route,
    validate_route,
    validate_solution,
)
from tests.conftest import precedence_orderings

INF = math.inf


def test_two_rider_chain_exposures(two_rider_chain):
    # schedule 0,5,10,15,20,25: both riders overlap for one five-minute leg
    route = Route((0, 1, 2, 3, 4, 5), (0.0, 5.0, 10.0, 15.0, 20.0, 25.0),
                  25.0, {1: 5.0, 2: 5.0}, 20.0)
    bd = validate_route(two_rider_chain, route)
    assert bd.exposure[1] == pytest.approx(5.0)
    assert bd.exposure[2] == pytest.approx(5.0)
    assert bd.cumulative[-1] == pytest.approx(20.0)


def test_single_rider_no_exposure(two_rider_chain):
    route, _ = replay_route(two_rider_chain, (0, 1, 3, 5))
    assert route.exposure == {1: 0.0}


def test_wait_without_delay_keeps_departure_accrual(two_rider_chain):
    # a three-minute wait before the second pick-up, with the first pick-up
    # pinned: exposure starts at each rider's start of service, so both
    # riders still share exactly the five travel minutes
    inst = replace(
        two_rider_chain,
        early=(0.0, 5.0, 13.0, 0.0, 0.0, 0.0),
        late=(200.0, 5.0, 200.0, 200.0, 200.0, 200.0),
    )
    route, _ = replay_route(inst, (0, 1, 2, 3, 4, 5))
    assert route.schedule == (0.0, 5.0, 13.0, 18.0, 23.0, 28.0)
    assert route.exposure[1] == pytest.approx(5.0)
    assert route.exposure[2] == pytest.approx(5.0)
    bd = exposure_from_schedule(inst, route.sequence, route.schedule)
    assert bd.exposure == pytest.approx(route.exposure)


def test_validate_route_reports_both_sides(two_rider_chain):
    route = Route((0, 1, 2, 3, 4, 5), (0.0, 5.0, 10.0, 15.0, 20.0, 500.0),
                  25.0, {1: 5.0, 2: 5.0}, 20.0)
    with pytest.raises(RouteInfeasible) as err:
        validate_route(two_rider_chain, route)
    nodes = {v[0] for v in err.value.violations}
    assert 5 in nodes
    assert any(v[2] == 500.0 or v[3] == 500.0 for v in err.value.violations
               if v[0] == 5)


def test_validate_route_structure_errors(two_rider_chain):
    # drop-off before its pick-up
    with pytest.raises(RouteInfeasible):
        validate_route(two_rider_chain, Route((0, 3, 1, 2, 4, 5),
                                              (0, 5, 10, 15, 20, 25), 25.0, {}, 0.0))
    # pick-up without its drop-off
    with pytest.raises(RouteInfeasible):
        validate_route(two_rider_chain, Route((0, 1, 3, 2, 5),
                                              (0, 5, 10, 15, 20), 20.0, {}, 0.0))


def test_mmr_schedule_two_rider_floor(two_rider_chain):
    result = mmr_schedule(two_rider_chain, (0, 1, 2, 3, 4, 5))
    assert result is not None
    _, peak = result
    # no schedule can push simultaneous presence below the shared travel leg
    assert peak == pytest.approx(5.0, abs=1e-7)


def test_mmr_grid_search_bracket(two_rider_chain):
    # exhaustive delay grid at 0.1-minute resolution bounds the LP optimum
    inst = two_rider_chain
    seq = (0, 1, 2, 3, 4, 5)
    _, peak = mmr_schedule(inst, seq)
    best = INF
    for d1 in range(0, 100, 1):
        for d2 in range(0, 100, 1):
            t1 = 5.0 + d1 * 0.1
            t2 = max(t1 + 5.0, 10.0 + d2 * 0.1)
            t3, t4, t5 = t2 + 5, t2 + 10, t2 + 15
            if t4 - t1 > 100 or t4 - t2 > 100:
                continue
            h1 = max(0.0, min(t3, t4) - max(t1, t2))
            h2 = h1
            best = min(best, max(h1, h2))
    assert peak <= best + 1e-6
    route, _ = replay_route(inst, seq)
    assert max(route.exposure.values()) <= best + 1e-6


@pytest.mark.parametrize("seed", range(8))
def test_replay_matches_lp_peak_and_validates(seed):
    inst = random_instance(seed, n=3)
    for size in (1, 2, 3):
        for group in itertools.combinations(range(1, 4), size):
            for seq in precedence_orderings(inst, group):
                load = 0.0
                ok = True
                for node in seq:
                    load += inst.load[node]
                    if load > inst.capacity + 1e-9:
                        ok = False
                        break
                if not ok:
                    continue
                route, _ = replay_route(inst, seq)
                lp = mmr_schedule(inst, seq)
                assert (route is None) == (lp is None)
                if route is None:
                    continue
                validate_route(inst, route)
                assert max(route.exposure.values()) == pytest.approx(lp[1], abs=1e-6)


def test_exposure_double_counting_identity(two_rider_chain):
    route, _ = replay_route(two_rider_chain, (0, 1, 2, 3, 4, 5))
    bd = exposure_from_schedule(two_rider_chain, route.sequence, route.schedule)
    # sum of received exposures equals the ordered-pair overlap sum
    pos = {node: k for k, node in enumerate(route.sequence)}
    pair_total = 0.0
    for i in (1, 2):
        for j in (1, 2):
            if i == j:
                continue
            lo = max(route.schedule[pos[i]], route.schedule[pos[j]])
            hi = min(route.schedule[pos[i + 2]], route.schedule[pos[j + 2]])
            if hi > lo:
                pair_total += two_rider_chain.risk[j] * (hi - lo)
    assert sum(bd.exposure.values()) == pytest.approx(pair_total)


def test_q_accrual_consistency(two_rider_chain):
    route, _ = replay_route(two_rider_chain, (0, 1, 2, 3, 4, 5))
    bd = exposure_from_schedule(two_rider_chain, route.sequence, route.schedule)
    assert bd.cumulative[-1] == pytest.approx(route.q_terminal)
    assert all(b >= a - 1e-9 for a, b in zip(bd.cumulative, bd.cumulative[1:]))


def test_brute_force_single_request():
    inst = random_instance(0, n=1, fleet_size=1)
    res = brute_force_solve(inst)
    assert res.status == "Optimal"
    expected = inst.t(0, 1) + inst.t(1, 2) + inst.t(2, 3)
    assert res.objective == pytest.approx(expected)
    assert res.routes[0].sequence == (0, 1, 2, 3)


def test_brute_force_matches_manual_enumeration(two_rider_chain):
    res = brute_force_solve(two_rider_chain)
    # seven precedence-feasible options with a single vehicle; all cost the
    # same on a flat metric except the interleavings save one leg
    seqs = [
        (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 4, 5), (0, 1, 2, 4, 3, 5),
        (0, 2, 1, 3, 4, 5), (0, 2, 1, 4, 3, 5), (0, 2, 4, 1, 3, 5),
    ]
    best = min(sum(two_rider_chain.t(a, b) for a, b in zip(s[:-1], s[1:])) for s in seqs)
    assert res.objective == pytest.approx(best) == pytest.approx(25.0)


def corridor_instance():
    """Line geometry depot-p1-p2-d1-d2-depot' where sharing saves distance but
    costs one minute of mutual exposure."""
    from rdarp.instance import Instance, euclidean_matrix

    pts = ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0))
    return Instance(
        n=2, fleet_size=2, capacity=3, q_max=INF,
        service=(0.0,) * 6, load=(0, 1, 1, -1, -1, 0), risk=(0, 1, 1, -1, -1, 0),
        early=(0.0,) * 6, late=(100.0,) * 6,
        travel=euclidean_matrix(pts), max_ride=(50.0, 50.0), coords=pts,
    )


def test_brute_force_risk_cap_changes_regime():
    inst = corridor_instance()
    shared = brute_force_solve(inst)
    assert shared.objective == pytest.approx(5.0)
    assert max(max(r.exposure.values()) for r in shared.routes) == pytest.approx(1.0)
    # capping below the shared-ride exposure forces the no-overlap plan
    capped = brute_force_solve(inst, eps_risk=0.5)
    assert capped.status == "Optimal"
    assert capped.objective == pytest.approx(7.0)
    for r in capped.routes:
        assert all(h <= 0.5 + 1e-9 for h in r.exposure.values())


def test_brute_force_guard():
    inst = random_instance(0, n=3)
    object.__setattr__(inst, "n", 6)  # simulate an oversized call
    with pytest.raises(ValueError):
        brute_force_solve(inst)


def test_edarp_exposure_equals_onboard_duration():
    inst = edarp_transform(random_instance(6, n=3, window=50.0))
    for group in ((1, 2), (1, 2, 3)):
        for route in feasible_routes(inst, group):
            pos = {node: k for k, node in enumerate(route.sequence)}
            for i, h in route.exposure.items():
                onboard = route.schedule[pos[i + inst.n]] - route.schedule[pos[i]]
                assert h == pytest.approx(onboard, abs=1e-9)


def _enumerated_routes(inst, group):
    routes = (replay_route(inst, seq)[0] for seq in precedence_orderings(inst, group))
    return [r for r in routes if r is not None]


@pytest.mark.parametrize("regime", ["rdarp", "edarp", "q_max"])
def test_feasible_routes_match_enumeration(regime):
    # same routes, same order, same data as replaying every pairing- and
    # precedence-respecting permutation, for groups of one to four requests
    base = random_instance(0, n=4, fleet_size=2, window=120.0)
    if regime == "edarp":
        base = edarp_transform(base)
    groups = [g for size in (1, 2, 3, 4) for g in itertools.combinations(range(1, 5), size)]
    uncapped = len(list(feasible_routes(base, groups[-1])))
    if regime == "q_max":
        # a cumulative risk cap that rejects about half the four-request routes
        q_terminals = sorted(r.q_terminal for r in feasible_routes(base, groups[-1]))
        base = replace(base, q_max=q_terminals[len(q_terminals) // 2])
    total = 0
    for group in groups:
        expected = _enumerated_routes(base, group)
        got = list(feasible_routes(base, group))
        assert [r.sequence for r in got] == [r.sequence for r in expected]
        assert got == expected  # schedule, cost, exposure, q to the bit
        total += len(got)
    assert 0 < len(got) <= uncapped
    assert (len(got) < uncapped) == (regime == "q_max")
    assert total > 100


def test_brute_force_matches_benchmark_refs(monkeypatch):
    # the benchmark's correctness gate stores brute-force answers; a change
    # to the oracle that moves them must regenerate the references with it
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    refs = workloads.load_refs()
    solves = workloads.battery_solves(range(10), lambda seed, _base: refs[f"battery/{seed}/risk"])
    assert len(solves) == 50
    for s in solves:
        bf = brute_force_solve(s.base, eps_risk=s.cap, objective=s.mode)
        ref = refs[s.key]
        assert bf.status == ref["status"], s.key
        if ref["status"] == "Optimal":
            assert bf.objective == ref["objective"], s.key


def _corridor_routes(inst, *sequences):
    routes = [replay_route(inst, seq)[0] for seq in sequences]
    assert all(r is not None for r in routes)
    return routes


def _violations(inst, routes, cap=INF):
    with pytest.raises(RouteInfeasible) as err:
        validate_solution(inst, routes, cap)
    return err.value.violations


def test_validate_solution_accepts_a_feasible_plan():
    inst = corridor_instance()
    validate_solution(inst, _corridor_routes(inst, (0, 1, 2, 3, 4, 5)), cap=1.0)
    validate_solution(inst, _corridor_routes(inst, (0, 1, 3, 5), (0, 2, 4, 5)), cap=0.0)


def test_validate_solution_rejects_a_broken_route():
    inst = corridor_instance()
    (route,) = _corridor_routes(inst, (0, 1, 2, 3, 4, 5))
    late = Route(route.sequence, route.schedule[:-1] + (500.0,), route.cost,
                 route.exposure, route.q_terminal)
    assert (5, "time window", 500.0, 100.0) in _violations(inst, [late])


def test_validate_solution_rejects_missing_and_repeated_requests():
    inst = corridor_instance()
    missing = _violations(inst, _corridor_routes(inst, (0, 1, 3, 5)))
    assert missing == [(2, "times the request is served", 0, 1)]
    twice = _violations(inst, _corridor_routes(inst, (0, 1, 3, 5), (0, 1, 2, 3, 4, 5)))
    assert twice == [(1, "times the request is served", 2, 1)]


def test_validate_solution_rejects_an_unknown_request():
    inst = edarp_transform(corridor_instance())
    (route,) = _corridor_routes(inst, (0, 1, 2, 3, 4, 5))
    bogus = Route(route.sequence, route.schedule, route.cost,
                  {**route.exposure, 9: 0.0}, route.q_terminal)
    assert _violations(inst, [bogus], cap=1.0) == [
        (9, "exposure listed for a request off the route", 1, 0)]


def test_validate_solution_rejects_too_many_routes():
    inst = replace(corridor_instance(), fleet_size=1)
    routes = _corridor_routes(inst, (0, 1, 3, 5), (0, 2, 4, 5))
    assert _violations(inst, routes) == [(0, "routes exceed the fleet size", 2, 1)]


def test_validate_solution_rejects_a_broken_exposure_cap():
    inst = corridor_instance()
    routes = _corridor_routes(inst, (0, 1, 2, 3, 4, 5))
    assert routes[0].exposure == pytest.approx({1: 1.0, 2: 1.0})
    assert _violations(inst, routes, cap=0.5) == [
        (1, "exposure cap", routes[0].exposure[1], 0.5),
        (2, "exposure cap", routes[0].exposure[2], 0.5),
    ]


def test_validate_solution_caps_the_detour_rate_in_edarp():
    inst = edarp_transform(corridor_instance())
    routes = _corridor_routes(inst, (0, 1, 2, 3, 4, 5))
    h1 = routes[0].exposure[1]
    rate = h1 / inst.detour_weight[0]
    assert rate < 1.0 < h1  # a raw-exposure check would reject cap 1
    validate_solution(inst, routes, cap=1.0)
    violations = _violations(inst, routes, cap=rate / 2)
    assert (1, "detour rate cap", rate, rate / 2) in violations


def test_peak_measure_is_the_largest_rider_measure():
    inst = edarp_transform(corridor_instance())
    routes = _corridor_routes(inst, (0, 1, 2, 3, 4, 5))
    rates = [inst.exposure_measure(i, h) for r in routes for i, h in r.exposure.items()]
    assert peak_measure(inst, routes) == max(rates) > 0.0
    assert peak_measure(inst, []) == 0.0


def test_validate_solution_rejects_start_times_that_are_not_finite():
    # every window, arrival and ride check is a comparison that NaN fails
    inst = random_instance(4, n=3, fleet_size=2)
    routes = brute_force_solve(inst).routes
    validate_solution(inst, routes, cap=INF)
    blank = [replace(r, schedule=(math.nan,) * len(r.schedule)) for r in routes]
    for cap in (INF, 0.001):
        violations = _violations(inst, blank, cap)
        assert {v[1] for v in violations} == {"start time not finite"}
        assert len(violations) == sum(len(r.sequence) for r in routes)
    one = replace(routes[0], schedule=routes[0].schedule[:-1] + (math.inf,))
    assert _violations(inst, [one, *routes[1:]]) == [
        (inst.end_depot, "start time not finite", math.inf, 0)]


def test_over_cap_admits_the_validators_tolerance_and_no_more():
    inst = corridor_instance()
    (route,) = _corridor_routes(inst, (0, 1, 2, 3, 4, 5))
    h = route.exposure[1]
    slack = 1e-6 * (2.0 + sum(abs(inst.risk[i]) for i in route.exposure))
    assert over_cap(inst, route.exposure, INF) == []
    assert over_cap(inst, route.exposure, h) == []
    assert over_cap(inst, route.exposure, h - 0.9 * slack) == []
    assert over_cap(inst, route.exposure, h - 1.1 * slack) == [(1, h), (2, route.exposure[2])]
    validate_solution(inst, [route], cap=h - 0.9 * slack)
    assert len(_violations(inst, [route], cap=h - 1.1 * slack)) == 2
