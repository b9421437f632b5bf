import itertools
import re

from types import SimpleNamespace

import numpy as np
import pytest

from rdarp import cuts, oracle
from rdarp.fixtures import random_instance
from rdarp.instance import edarp_transform, preprocess
from rdarp.lp import GE, LE
from rdarp.master import ColumnPool, ExtraRow, build_rlmp, column_generation, extract_duals, seed_pool


def _route_flows(routes):
    flows = {}
    for r in routes:
        for a in r.arcs():
            flows[a] = flows.get(a, 0.0) + 1.0
    return flows


def test_rounded_capacity_none_on_integral_feasible_solution():
    inst0 = random_instance(4, n=3, fleet_size=2)
    flows = _route_flows(oracle.brute_force_solve(inst0).routes)
    assert cuts.separate_all(flows, preprocess(inst0)) == []


def test_rounded_capacity_rhs_formula():
    from dataclasses import replace

    inst0 = random_instance(0, n=3)
    load = list(inst0.load)
    for i in (1, 2, 3):
        load[i], load[i + 3] = 2.0, -2.0
    inst0 = replace(inst0, load=tuple(load), capacity=3.0)
    inst = preprocess(inst0)
    # one vehicle chains the three drop-offs: each set of them is left once,
    # but the pick-ups of any two carry load 4 > capacity 3, so two trips
    # must come in and ceil(4 / 3) = ceil(6 / 3) = 2 leave
    flows = {(4, 5): 1.0, (5, 6): 1.0, (6, 7): 1.0}
    found = cuts.separate_all(flows, inst)
    assert [c.name for c in found] == [
        "RoundedCapacity(4,5)", "RoundedCapacity(4,5,6)", "RoundedCapacity(5,6)"]
    opt_flows = _route_flows(oracle.brute_force_solve(inst0).routes)
    for cut, nodes in zip(found, ({4, 5}, {4, 5, 6}, {5, 6})):
        assert (cut.sense, cut.rhs, cut.arc_coefs) == (GE, 2.0, cuts.crossing_arcs(inst, nodes))
        assert cut.violation(flows) == pytest.approx(1.0)
        assert cut.violation(opt_flows) <= 1e-6, cut.name


def test_cut_validity_on_brute_force_optimum():
    for seed in (1, 5, 9):
        inst0 = random_instance(seed, n=3, fleet_size=2)
        inst = preprocess(inst0)
        bf = oracle.brute_force_solve(inst0)
        if bf.status != "Optimal":
            continue
        opt_flows = _route_flows(bf.routes)
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
    le_cut = ExtraRow("le(1,2,3)", LE, 1.0, (((1, 2), 1.0), ((2, 3), 1.0)))
    ge_cut = ExtraRow("ge(1,4)", GE, 2.0, (((1, 4), 1.0), ((4, 2), 2.0)))
    return inst, build_rlmp(pool, inst, extra_rows=(le_cut, ge_cut))


def _solution_with_duals(rmaster, le_dual, ge_dual):
    """A solution whose only nonzero duals are those of the rows named after
    the two cuts."""
    names = rmaster.model.row_names
    duals = np.zeros(len(names))
    duals[names.index("x0:le(1,2,3)")] = le_dual
    duals[names.index("x1:ge(1,4)")] = ge_dual
    return SimpleNamespace(duals=duals)


def test_extract_duals_folds_cut_duals_into_arcs():
    inst, rmaster = _master_with_two_cuts()
    duals = extract_duals(inst, _solution_with_duals(rmaster, -2.0, 0.5), rmaster.extra)
    assert duals.arc_adjust == pytest.approx({(1, 2): -2.0, (2, 3): -2.0, (1, 4): 0.5, (4, 2): 1.0})
    assert duals.mu == 0.0  # cuts carry no route constant


def test_extract_duals_clamps_wrong_sign_cut_duals():
    inst, rmaster = _master_with_two_cuts()
    duals = extract_duals(inst, _solution_with_duals(rmaster, 0.5, -0.5), rmaster.extra)
    assert duals.arc_adjust == {}
    duals = extract_duals(inst, _solution_with_duals(rmaster, 0.5, 0.25), rmaster.extra)
    assert duals.arc_adjust == pytest.approx({(1, 4): 0.25, (4, 2): 0.5})


def test_separated_cut_names_are_family_and_nodes():
    # a literal name: string hashing, randomized per process, plays no part
    name = re.compile(r"RoundedCapacity\((\d+(?:,\d+)*)\)")
    found_any = False
    for seed, flow in itertools.product((1, 5, 9), (0.5, 0.1)):
        inst = preprocess(random_instance(seed, n=3, fleet_size=2))
        flows = {(i, j): flow for i in range(1, 2 * inst.n + 1)
                 for j in range(1, 2 * inst.n + 1) if i != j}
        found = cuts.separate_all(flows, inst)
        found_any |= bool(found)
        assert len({c.name for c in found}) == len(found)
        for cut in found:
            match = name.fullmatch(cut.name)
            assert match, cut.name
            nodes = tuple(int(v) for v in match[1].split(","))
            assert nodes == tuple(sorted(nodes))
            assert cut.arc_coefs == cuts.crossing_arcs(inst, set(nodes))
    assert found_any


def test_root_bound_never_decreases_with_cuts():
    # EDARP roots that are fractional at eps_dt = 1.6 and separate a rounded
    # capacity cut; the battery-sized cost roots are integral and separate none
    for seed in (2, 23):
        base_inst = random_instance(seed, n=6 + seed % 2, fleet_size=2, window=90)
        inst = preprocess(edarp_transform(base_inst))
        pool = ColumnPool(inst)
        seed_pool(pool, inst)
        base = column_generation(inst, pool, 1.6)
        assert base.status == "Optimal" and not base.solution.integral
        flows = base.solution.arc_flows()
        violated = [c for c in cuts.separate_all(flows, inst)
                    if c.violation(flows) > cuts.VIOLATION_TOL]
        assert violated, seed
        after = column_generation(inst, pool, 1.6, extra_rows=tuple(violated))
        assert after.status == "Optimal"
        assert after.bound > base.bound + 0.1, seed
