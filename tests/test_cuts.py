import itertools
import math
import re

from types import SimpleNamespace

import numpy as np
import pytest

from rdarp import bcp, cuts, oracle
from rdarp.fixtures import benchmark_like_instance, random_instance
from rdarp.instance import preprocess
from rdarp.lp import GE, LE
from rdarp.master import ColumnPool, ExtraRow, build_rlmp, column_generation, extract_duals, seed_pool
from tests.conftest import precedence_orderings

INF = math.inf


def test_ipec_hand_built_fractional_point(two_rider_chain):
    # an infeasible two-arc path i -> j -> n+i (ride cap exceeded) carried by
    # 0.6 flow on each arc violates the tournament bound of one
    from dataclasses import replace

    # riding via node 2 takes 10 > cap 9; the direct trip (5) stays feasible
    inst = replace(two_rider_chain, max_ride=(9.0, 100.0))
    flows = {(1, 2): 0.6, (2, 3): 0.6}
    found = cuts.separate_ipec(flows, inst)
    assert found, "expected a violated infeasible-path cut"
    cut = found[0]
    assert cut.sense == LE
    arcs = dict(cut.arc_coefs)
    assert arcs.get((1, 2)) == 1.0 and arcs.get((2, 3)) == 1.0
    lhs = sum(flows.get(a, 0.0) * c for a, c in cut.arc_coefs)
    assert lhs > cut.rhs + 1e-4
    # ride-driven start-to-finish paths use the strengthened bound
    assert cut.name == f"{cuts.STRENGTHENED_IPEC}(1,2,3)"
    assert cut.rhs == pytest.approx(0.0)
    assert lhs == pytest.approx(1.2)


def test_ipec_none_on_integral_feasible_solution():
    inst0 = random_instance(4, n=3, fleet_size=2)
    inst = preprocess(inst0)
    bf = oracle.brute_force_solve(inst0)
    flows = {}
    for r in bf.routes:
        for a in r.arcs():
            flows[a] = flows.get(a, 0.0) + 1.0
    assert cuts.separate_ipec(flows, inst) == []
    assert cuts.separate_two_path(flows, inst) == []
    for c in cuts.separate_rounded_capacity(flows, inst):
        assert c.violation(flows) <= 1e-4


def test_ipec_empty_flows():
    inst = random_instance(0, n=2)
    assert cuts.separate_ipec({}, inst) == []


def test_two_path_capacity_forced(two_rider_chain):
    # pick-up deadlines force both riders onboard together while their
    # combined load exceeds capacity: no single trip serves the set
    from dataclasses import replace

    inst = replace(
        two_rider_chain,
        load=(0, 2.0, 2.0, -2.0, -2.0, 0),
        early=(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        late=(200.0, 11.0, 11.0, 200.0, 200.0, 200.0),
        capacity=3.0,
    )
    assert not cuts._single_vehicle_feasible(inst, frozenset({1, 2}))
    flows = {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (3, 4): 1.0, (4, 5): 1.0}
    found = cuts.separate_two_path(flows, inst)
    assert found
    assert all(c.sense == GE and c.rhs == 2.0 for c in found)
    # and every emitted cut is genuinely violated by this one-vehicle flow
    assert all(c.violation(flows) > cuts.VIOLATION_TOL for c in found)


def test_two_path_never_cuts_single_vehicle_servable(two_rider_chain):
    flows = {(1, 2): 0.4, (2, 3): 0.4}
    assert cuts.separate_two_path(flows, two_rider_chain) == []


def test_single_vehicle_feasible_matches_enumeration():
    # every request set of size <= 4: one trip serves it exactly when some
    # pairing/precedence ordering replays, with the cumulative risk cap lifted
    from dataclasses import replace

    bases = [random_instance(s, n=4, fleet_size=2) for s in (0, 1, 2)]
    bases += [benchmark_like_instance(3, n=5, fleet_size=2)]
    bases += [replace(bases[1], q_max=1.0)]  # a cap the answer must ignore
    infeasible = 0
    for base in bases:
        inst = preprocess(base)
        relaxed = replace(inst, q_max=INF)
        for size in range(1, 5):
            for group in itertools.combinations(inst.pickups(), size):
                expected = any(oracle.replay_route(relaxed, seq)[0] is not None
                               for seq in precedence_orderings(relaxed, group))
                assert cuts._single_vehicle_feasible(inst, frozenset(group)) == expected, group
                infeasible += not expected
    assert infeasible >= 10


def _all_pair_flows(inst, flow):
    return {(i, j): flow for i in range(1, 2 * inst.n + 1)
            for j in range(1, 2 * inst.n + 1) if i != j}


TWO_PATH_FIXTURES = [(seed, 3, flow) for seed in (1, 5, 9) for flow in (0.5, 0.1)]
TWO_PATH_FIXTURES += [(0, 4, 0.1), (1, 5, 0.1), (5, 5, 0.1)]


@pytest.mark.parametrize("seed,n,flow", TWO_PATH_FIXTURES)
def test_two_path_checks_each_request_set_once(seed, n, flow, monkeypatch):
    inst = preprocess(random_instance(seed, n=n, fleet_size=2))
    flows = _all_pair_flows(inst, flow)
    # each candidate set checked on its own, as a reference
    expected = []
    for node_set in cuts._candidate_sets(flows, inst):
        requests = frozenset(inst.request_of(v) for v in node_set)
        if (cuts._outflow(flows, node_set) < 2.0 - cuts.VIOLATION_TOL
                and not cuts._single_vehicle_feasible(inst, requests)):
            expected.append(f"{cuts.TWO_PATH}({','.join(map(str, sorted(node_set)))})")
    searches = []
    search = oracle.feasible_routes

    def counted(inst, group):
        searches.append(tuple(group))
        return search(inst, group)

    monkeypatch.setattr(oracle, "feasible_routes", counted)
    found = cuts.separate_two_path(flows, inst)
    assert [c.name for c in found] == expected[:cuts.MAX_CUTS_PER_ROUND]
    assert len(searches) == len(set(searches))
    assert [c for c in cuts.separate_all(flows, inst) if c.name.startswith(cuts.TWO_PATH)] == found


def test_two_path_rows_unchanged_on_a_fixture_with_cuts():
    inst = preprocess(random_instance(5, n=5, fleet_size=2))
    found = cuts.separate_two_path(_all_pair_flows(inst, 0.1), inst)
    assert [c.name for c in found] == [
        "TwoPath(2,3)", "TwoPath(2,8)", "TwoPath(3,7)", "TwoPath(4,5)",
        "TwoPath(4,10)", "TwoPath(5,9)", "TwoPath(7,8)", "TwoPath(9,10)"]
    for cut in found:
        nodes = {int(v) for v in cut.name[len(cuts.TWO_PATH) + 1:-1].split(",")}
        assert (cut.sense, cut.rhs, cut.arc_coefs) == (GE, 2.0, cuts.crossing_arcs(inst, nodes))


def test_rounded_capacity_rhs_formula():
    from dataclasses import replace

    inst = random_instance(0, n=3)
    load = list(inst.load)
    for i in (1, 2, 3):
        load[i], load[i + 3] = 2.0, -2.0
    inst = replace(inst, load=tuple(load), capacity=3.0)
    # S holding all drop-offs: predecessors are all three pick-ups, load 6
    node_set = frozenset({4, 5, 6})
    pred_load = 6.0
    assert math.ceil(pred_load / inst.capacity) == 2
    flows = {(4, 5): 1.0, (5, 6): 1.0, (6, 7): 1.0}
    found = [c for c in cuts.separate_rounded_capacity(flows, inst)
             if set(dict(c.arc_coefs)) and c.rhs >= 2.0]
    # the constructive growth may or may not visit exactly this set; check
    # the formula directly instead
    pred = [i for i in inst.pickups() if i not in node_set and (i + inst.n) in node_set]
    lo = max(1.0, math.ceil(sum(inst.load[i] for i in pred) / inst.capacity - 1e-9))
    assert lo == 2.0


def test_cut_validity_on_brute_force_optimum():
    for seed in (1, 5, 9):
        inst0 = random_instance(seed, n=3, fleet_size=2)
        inst = preprocess(inst0)
        bf = oracle.brute_force_solve(inst0)
        if bf.status != "Optimal":
            continue
        opt_flows = {}
        for r in bf.routes:
            for a in r.arcs():
                opt_flows[a] = opt_flows.get(a, 0.0) + 1.0
        # fabricate fractional flows to provoke cuts, then check the optimum
        # satisfies every emitted inequality
        frac = {a: 0.5 * v for a, v in opt_flows.items()}
        frac[(1, 2)] = frac.get((1, 2), 0.0) + 0.4
        for cut in cuts.separate_all(frac, inst):
            assert cut.violation(opt_flows) <= 1e-6, (seed, cut.name)


def _master_with_two_cuts():
    inst = preprocess(random_instance(0, n=2))
    pool = ColumnPool(inst)
    seed_pool(pool, inst)
    le_cut = ExtraRow("IPEC(1,2,3)", LE, 1.0, (((1, 2), 1.0), ((2, 3), 1.0)))
    ge_cut = ExtraRow("TwoPath(1,4)", GE, 2.0, (((1, 4), 1.0), ((4, 2), 2.0)))
    model, meta = build_rlmp(pool, inst, "cost", extra_rows=(le_cut, ge_cut))
    return inst, model, meta


def _solution_with_duals(model, meta, le_dual, ge_dual):
    duals = np.zeros(model.n_rows)
    duals[meta["row"][("x", 0)]] = le_dual
    duals[meta["row"][("x", 1)]] = ge_dual
    return SimpleNamespace(duals=duals)


def test_extract_duals_folds_cut_duals_into_arcs():
    inst, model, meta = _master_with_two_cuts()
    duals = extract_duals(inst, _solution_with_duals(model, meta, -2.0, 0.5), meta)
    assert duals.arc_adjust == pytest.approx({(1, 2): -2.0, (2, 3): -2.0, (1, 4): 0.5, (4, 2): 1.0})
    assert duals.mu == 0.0  # cuts carry no route constant


def test_extract_duals_clamps_wrong_sign_cut_duals():
    inst, model, meta = _master_with_two_cuts()
    duals = extract_duals(inst, _solution_with_duals(model, meta, 0.5, -0.5), meta)
    assert duals.arc_adjust == {}
    duals = extract_duals(inst, _solution_with_duals(model, meta, 0.5, 0.25), meta)
    assert duals.arc_adjust == pytest.approx({(1, 4): 0.25, (4, 2): 0.5})


def test_separated_cut_names_are_family_and_nodes():
    # a literal name: string hashing, randomized per process, plays no part
    name = re.compile(r"(IPEC|StrengthenedIPEC|TwoPath|RoundedCapacity)\((\d+(?:,\d+)*)\)")
    seen = set()
    for seed, flow in itertools.product((1, 5, 9), (0.5, 0.1)):
        inst = preprocess(random_instance(seed, n=3, fleet_size=2))
        flows = {(i, j): flow for i in range(1, 2 * inst.n + 1)
                 for j in range(1, 2 * inst.n + 1) if i != j}
        found = cuts.separate_all(flows, inst)
        assert len({c.name for c in found}) == len(found)
        for cut in found:
            match = name.fullmatch(cut.name)
            assert match, cut.name
            kind, nodes = match[1], tuple(int(v) for v in match[2].split(","))
            seen.add(kind)
            if kind in (cuts.IPEC, cuts.STRENGTHENED_IPEC):
                assert [a for a, _ in cut.arc_coefs] == list(zip(nodes[:-1], nodes[1:]))
            else:
                assert nodes == tuple(sorted(nodes))
                assert cut.arc_coefs == cuts.crossing_arcs(inst, set(nodes))
    assert seen == {cuts.IPEC, cuts.STRENGTHENED_IPEC, cuts.ROUNDED_CAPACITY}


def test_root_bound_never_decreases_with_cuts():
    for seed in (2, 6, 11):
        inst = preprocess(random_instance(seed, n=4, fleet_size=2))
        pool = ColumnPool(inst)
        seed_pool(pool, inst)
        base = column_generation(inst, pool, "cost", eps_risk=10.0)
        if base.status != "Optimal":
            continue
        flows = base.solution.arc_flows()
        violated = [c for c in cuts.separate_all(flows, inst)
                    if c.violation(flows) > cuts.VIOLATION_TOL]
        rows = tuple(violated)
        after = column_generation(inst, pool, "cost", eps_risk=10.0, extra_rows=rows)
        assert after.status == "Optimal"
        assert after.objective >= base.objective - 1e-6
