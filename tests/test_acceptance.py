"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-2 exercise the classic benchmark files under data/cordeau/ and
skip with an explicit message when those files are absent (they are not
redistributable and this environment has no network); everything else is
self-contained. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import math
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from rdarp import bcp, cuts, master, oracle
from rdarp.cli import load_instance
from rdarp.fixtures import random_instance
from rdarp.instance import EDARP, edarp_transform, parse_realworld, emit_realworld, preprocess
from rdarp.master import ColumnPool, column_generation, seed_pool
from rdarp.pricing import DualValues, solve_pricing

INF = math.inf
ROOT = Path(__file__).resolve().parent.parent
CORDEAU = ROOT / "data" / "cordeau"

BENCHMARK_ROWS = [
    # instance, eps_risk, expected cost, expected peak risk
    ("a2-16", INF, 294.25, 19.00),
    ("a2-16", 30.0, 294.25, 19.00),
    ("a2-16", 15.0, 318.63, 13.13),
    ("a2-20", INF, 344.83, 15.33),
    ("a2-20", 30.0, 344.83, 15.33),
    ("a2-20", 15.0, 380.12, 12.69),
    ("a2-24", INF, 431.12, 36.57),
    ("a2-24", 30.0, 441.06, 17.75),
    ("a2-24", 15.0, 441.57, 13.72),
    ("a3-24", INF, 344.83, 20.01),
    ("a3-24", 30.0, 344.83, 20.01),
    ("a3-24", 15.0, 353.09, 14.74),
]


def _load_benchmark(name):
    path = CORDEAU / f"{name}.txt"
    if not path.exists():
        pytest.skip(
            f"benchmark file {path} not available in this offline environment; "
            "run scripts/fetch_benchmarks.py with network access to enable"
        )
    return preprocess(load_instance(str(path)))


def _certified_solve(inst, eps_risk, time_limit):
    rep = bcp.solve(inst, "cost", bcp.SolveOptions(eps_risk=eps_risk, time_limit=time_limit))
    if rep.status != "Optimal":
        return rep, None
    cross = bcp.solve(inst, "risk", bcp.SolveOptions(
        eps_cost=rep.objective + 1e-6, time_limit=time_limit))
    peak = cross.objective if cross.status == "Optimal" else None
    return rep, peak


@pytest.mark.parametrize("name,eps,cost,hbar", BENCHMARK_ROWS,
                         ids=[f"{n}-eps{'inf' if e == INF else int(e)}" for n, e, _, _ in BENCHMARK_ROWS])
def test_c1_benchmark_regression(name, eps, cost, hbar):
    inst = _load_benchmark(name)
    t0 = time.perf_counter()
    rep, peak = _certified_solve(inst, eps, time_limit=115.0)
    wall = time.perf_counter() - t0
    assert rep.status == "Optimal", rep.status
    assert rep.objective == pytest.approx(cost, abs=0.02)
    assert peak is not None and peak == pytest.approx(hbar, abs=0.02)
    assert wall <= 120.0, f"run took {wall:.1f}s"
    print(f"CRITERION 1 [{name} eps={eps}]: PASS cost={rep.objective:.2f} "
          f"peak={peak:.2f} wall={wall:.1f}s")


def test_c2_infeasibility_detection():
    inst = _load_benchmark("a3-30")
    t0 = time.perf_counter()
    rep = bcp.solve(inst, "cost", bcp.SolveOptions(eps_risk=15.0, time_limit=295.0))
    wall = time.perf_counter() - t0
    assert rep.status == "Infeasible"
    assert rep.nodes_explored <= 1
    assert wall <= 300.0
    print(f"CRITERION 2: PASS a3-30 eps=15 infeasible at root in {wall:.1f}s")


# ---------------------------------------------------------------------------
# criteria 3 and 4: oracle equivalence and column soundness
# ---------------------------------------------------------------------------

def _battery_instances():
    for seed in range(50):
        n = 2 + seed % 3
        k = 1 + seed % 2
        yield seed, random_instance(seed, n=n, fleet_size=k)


@pytest.fixture(scope="module")
def battery_results():
    recorded = []
    original = master.solve_pricing

    def recording_pricer(inst, duals, cap=INF, **kw):
        cols = original(inst, duals, cap, **kw)
        recorded.append((inst, tuple(cols)))
        return cols

    t0 = time.perf_counter()
    master.solve_pricing = recording_pricer
    comparisons = []
    try:
        for seed, base in _battery_instances():
            rdarp_inst = preprocess(base)
            edarp_base = edarp_transform(base)
            edarp_inst = preprocess(edarp_base)
            risk_ref = oracle.brute_force_solve(base, objective="risk")
            tight = risk_ref.objective + 2.0 if risk_ref.status == "Optimal" else 8.0
            regimes = [
                (rdarp_inst, base, "cost", {}, {}),
                (rdarp_inst, base, "cost", {"eps_risk": tight}, {"eps_risk": tight}),
                (rdarp_inst, base, "risk", {}, {"objective": "risk"}),
                (edarp_inst, edarp_base, "cost", {"eps_dt": 2.0}, {"eps_risk": 2.0}),
                (edarp_inst, edarp_base, "cost", {"eps_dt": 4.0}, {"eps_risk": 4.0}),
            ]
            for inst, inst0, mode, solver_kw, bf_kw in regimes:
                rep = bcp.solve(inst, mode, bcp.SolveOptions(**solver_kw))
                bf = oracle.brute_force_solve(inst0, **bf_kw)
                comparisons.append((seed, mode, solver_kw, rep, bf))
    finally:
        master.solve_pricing = original
    elapsed = time.perf_counter() - t0
    return comparisons, recorded, elapsed


def test_c3_oracle_equivalence(battery_results):
    comparisons, _, elapsed = battery_results
    assert len(comparisons) == 250
    for seed, mode, kw, rep, bf in comparisons:
        if bf.status == "Infeasible":
            assert rep.status == "Infeasible", (seed, mode, kw)
        else:
            assert rep.status == "Optimal", (seed, mode, kw, rep.status)
            assert rep.objective == pytest.approx(bf.objective, abs=1e-5), (seed, mode, kw)
    assert elapsed <= 60.0, f"battery took {elapsed:.1f}s"
    print(f"CRITERION 3: PASS 250 regime solves equal brute force (<=1e-5) in {elapsed:.1f}s")


def test_c4_column_soundness(battery_results):
    _, recorded, _ = battery_results
    checked = 0
    seen = set()
    for inst, cols in recorded:
        for col in cols:
            key = (id(inst), col.sequence)
            if key in seen:
                continue
            seen.add(key)
            route = oracle.Route(col.sequence, col.schedule, col.cost,
                                 col.exposure, col.q_terminal)
            oracle.validate_route(inst, route)
            lp = oracle.mmr_schedule(inst, col.sequence)
            assert lp is not None
            # the peak of the measure the caps bound: detour rate in EDARP
            weight = inst.detour_weight if inst.mode == EDARP else None
            peak = max((h / weight[i - 1] if weight else h
                        for i, h in col.exposure.items()), default=0.0)
            assert peak == pytest.approx(lp[1], abs=1e-6), (inst.name, col.sequence)
            checked += 1
    assert checked > 0
    print(f"CRITERION 4: PASS {checked} distinct emitted columns validate and "
          "match the min-peak schedule optimum (<=1e-6)")


# ---------------------------------------------------------------------------
# criterion 5: golden resource replay
# ---------------------------------------------------------------------------

def test_c5_resource_golden_replay():
    from rdarp import calibration as cal
    from tests.conftest import interlaced_instance

    golden = {
        1: (10.0, 20.0, {1: 20.0}, {1: 40.0}, {1: 10.0}),
        2: (20.0, 60.0, {1: 30.0, 2: 60.0}, {1: 40.0, 2: 100.0}, {1: 10.0, 2: 40.0}),
        4: (30.0, 40.0, {2: 40.0}, {2: 70.0}, {1: 10.0, 2: 10.0}),
        3: (40.0, 50.0, {2: 50.0, 3: 50.0}, {2: 70.0, 3: 90.0}, {1: 10.0, 2: 10.0, 3: 10.0}),
    }
    inst = interlaced_instance(60.0)
    st = cal.initial_state(inst)
    for j in (1, 2, 4, 3):
        st, reason = cal.extend(inst, st, j)
        assert st is not None, reason
        a, b, bo, dob, d = golden[j]
        assert st.a_cur == pytest.approx(a)
        assert st.b_cur == pytest.approx(b)
        assert dict(st.bo) == pytest.approx(bo)
        assert dict(st.do_b) == pytest.approx(dob)
        assert dict(st.d) == pytest.approx(d)
    final, _ = cal.extend(inst, st, 5)
    assert final.b_cur == pytest.approx(70.0)
    # rider 3 boards at the last node before 5: onboard time on that arc
    assert final.times[-1] - final.times[-2] == pytest.approx(10.0)
    inst65 = interlaced_instance(65.0)
    st = cal.initial_state(inst65)
    for j in (1, 2, 4, 3):
        st, _ = cal.extend(inst65, st, j)
    final65, _ = cal.extend(inst65, st, 5)
    assert final65.times[-1] - final65.times[-2] == pytest.approx(15.0)
    print("CRITERION 5: PASS interlaced-route resources and both delay cases "
          "(onboard 10.0 / 15.0) reproduce exactly")


def test_c6_exposure_unit_example(two_rider_chain):
    route, _ = oracle.replay_route(two_rider_chain, (0, 1, 2, 3, 4, 5))
    assert route.schedule[:5] == (0.0, 5.0, 10.0, 15.0, 20.0)
    assert route.exposure[1] == pytest.approx(5.0)
    assert route.exposure[2] == pytest.approx(5.0)
    print("CRITERION 6: PASS chained two-rider example yields H1 = H2 = 5")


# ---------------------------------------------------------------------------
# criterion 7: property suites
# ---------------------------------------------------------------------------

def test_c7a_dominance_preserves_minimum_reduced_cost():
    from tests.test_pricing import enumerate_min_rc

    rng = random.Random(77)
    trials = 0
    while trials < 100:
        seed = trials % 16
        inst = preprocess(random_instance(seed, n=2 + trials % 2))
        duals = DualValues(
            pi={i: rng.uniform(-10.0, 140.0) for i in inst.pickups()},
            mu=-rng.uniform(0.0, 6.0),
        )
        best = enumerate_min_rc(inst, duals)
        cols = solve_pricing(inst, duals, limit=1000)
        got = cols[0].reduced_cost if cols else 0.0
        want = best[0] if best and best[0] < -1e-6 else 0.0
        assert got == pytest.approx(want, abs=1e-6), (trials, seed)
        trials += 1
    print("CRITERION 7a: PASS dominance pruning preserves the minimum reduced "
          "cost on 100 random dual vectors")


def test_c7b_cuts_valid_on_integer_optimum():
    checked = 0
    for seed in range(12):
        inst0 = random_instance(seed, n=3, fleet_size=2)
        inst = preprocess(inst0)
        bf = oracle.brute_force_solve(inst0)
        if bf.status != "Optimal":
            continue
        opt_flows = {}
        for r in bf.routes:
            for a in r.arcs():
                opt_flows[a] = opt_flows.get(a, 0.0) + 1.0
        rng = random.Random(seed)
        frac = {a: v * rng.uniform(0.3, 0.8) for a, v in opt_flows.items()}
        extra_nodes = list(inst.pickups())
        frac[(extra_nodes[0], extra_nodes[-1])] = frac.get((extra_nodes[0], extra_nodes[-1]), 0.0) + 0.5
        for cut in cuts.separate_all(frac, inst):
            assert cut.violation(opt_flows) <= 1e-6, (seed, cut.name)
            checked += 1
    assert checked > 0
    print(f"CRITERION 7b: PASS {checked} separated cuts all satisfied by "
          "brute-force integer optima")


def test_c7c_root_bound_improves_with_cuts():
    # EDARP roots that are fractional at eps_dt = 1.6 and separate rounded
    # capacity cuts; the bounds before and after the cuts are pinned
    bounds = {2: (140.9531, 141.4535), 23: (200.7695, 201.5121)}
    for seed in (2, 23):
        base_inst = random_instance(seed, n=6 + seed % 2, fleet_size=2, window=90)
        inst = preprocess(edarp_transform(base_inst))
        pool = ColumnPool(inst)
        assert seed_pool(pool, inst) == []
        base = column_generation(inst, pool, 1.6)
        assert base.status == "Optimal" and not base.solution.integral
        flows = base.solution.arc_flows()
        violated = [c for c in cuts.separate_all(flows, inst)
                    if c.violation(flows) > cuts.VIOLATION_TOL]
        assert violated, seed
        after = column_generation(inst, pool, 1.6, extra_rows=tuple(violated))
        assert after.status == "Optimal"
        assert after.bound > base.bound + 0.1, seed
        assert (base.bound, after.bound) == pytest.approx(bounds[seed], abs=1e-4)
    print("CRITERION 7c: PASS rounded capacity cuts raise the root bound on "
          "both fractional EDARP roots")


def test_c7d_cost_monotone_in_risk_cap():
    swept = 0
    for seed in (4, 8, 15):
        inst0 = random_instance(seed, n=3, fleet_size=2)
        inst = preprocess(inst0)
        prev = None
        for eps in (3.0, 6.0, 12.0, 24.0, INF):
            rep = bcp.solve(inst, "cost", bcp.SolveOptions(eps_risk=eps))
            if rep.status != "Optimal":
                continue
            if prev is not None:
                assert rep.objective <= prev + 1e-6
            prev = rep.objective
            swept += 1
    assert swept >= 5
    print("CRITERION 7d: PASS optimal cost non-increasing across 5-point cap sweeps")


def test_c7e_pareto_points_certified():
    inst0 = random_instance(4, n=3, fleet_size=2)
    inst = preprocess(inst0)

    points, complete = bcp.pareto_front(inst, step=0.5)
    assert points and complete
    for a in points:
        for b in points:
            if a is not b:
                assert not (a.cost <= b.cost + 1e-9 and a.max_risk <= b.max_risk + 1e-9)
    for p in points:
        again_cost = bcp.solve(inst, "cost", bcp.SolveOptions(eps_risk=p.max_risk + 1e-6))
        assert again_cost.objective == pytest.approx(p.cost, abs=1e-5)
        again_risk = bcp.solve(inst, "risk", bcp.SolveOptions(eps_cost=p.cost + 1e-6))
        assert again_risk.objective == pytest.approx(p.max_risk, abs=1e-5)
    print(f"CRITERION 7e: PASS {len(points)} certified points mutually "
          "non-dominated and stable under both cross-solves")


def test_c7f_edarp_identity_and_weights():
    base = random_instance(6, n=3, fleet_size=2, window=45.0)
    inst = preprocess(edarp_transform(base))
    for i in inst.pickups():
        assert inst.detour_weight[i - 1] == max(15.0, inst.direct_time(i))
    duals = DualValues(pi={i: 200.0 for i in inst.pickups()})
    cols = solve_pricing(inst, duals, limit=300)
    assert cols
    for col in cols:
        pos = {node: k for k, node in enumerate(col.sequence)}
        for i, h in col.exposure.items():
            onboard = col.schedule[pos[i + inst.n]] - col.schedule[pos[i]]
            assert h == onboard  # exact identity, no tolerance
    print(f"CRITERION 7f: PASS {len(cols)} equity columns satisfy the onboard "
          "identity exactly; weights floor at 15")


def test_c8_realworld_roundtrip():
    fixtures = sorted((ROOT / "data" / "realworld").glob("*.json"))
    assert fixtures, "shipped fixtures missing"
    for path in fixtures:
        text = path.read_text()
        inst = parse_realworld(text)
        again = parse_realworld(emit_realworld(inst))
        assert again == inst
    readme = (ROOT / "README.md").read_text()
    assert "not acceptance-gated" in readme
    print(f"CRITERION 8: PASS {len(fixtures)} fixtures round-trip; external "
          "trip-log values documented as not acceptance-gated")
