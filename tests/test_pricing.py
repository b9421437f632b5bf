import itertools
import json
import math
import random
from pathlib import Path

import pytest

from rdarp import calibration as cal
from rdarp._labeling_py import _Label, dominates
from rdarp.fixtures import random_instance
from rdarp.instance import edarp_transform, preprocess
from rdarp.oracle import Route, feasible_routes, mmr_schedule, validate_route
from rdarp.pricing import (
    Column,
    DualValues,
    PricingRestrictions,
    solve_pricing,
)
from tests.conftest import reached_states

INF = math.inf


def enumerate_min_rc(inst, duals, mode):
    """Exhaustive minimum reduced cost over all feasible routes."""
    best = None
    n = inst.n
    for size in range(1, n + 1):
        for group in itertools.combinations(range(1, n + 1), size):
            for route in feasible_routes(inst, group):
                seq = route.sequence
                if any(a in inst.banned_arcs for a in route.arcs()):
                    continue
                rc = -duals.mu
                for a, b in zip(seq[:-1], seq[1:]):
                    t = inst.t(a, b)
                    rc += (-duals.xi * t) if mode == "risk" else t
                    if inst.is_pickup(a):
                        rc -= duals.pi.get(a, 0.0)
                    rc -= duals.arc_adjust.get((a, b), 0.0)
                for i, h in route.exposure.items():
                    rc -= duals.rho.get(i, 0.0) * h
                if best is None or rc < best[0]:
                    best = (rc, seq)
    return best


def test_arc_reduced_cost_modes():
    """With no exposure duals a column's reduced cost is -mu plus the sum of
    its arc reduced costs: travel time (scaled by -xi in risk mode), minus
    the coverage dual on arcs leaving a pick-up, minus the folded arc dual.
    Eliminated arcs are never used, whatever their folded dual."""
    pre = preprocess(random_instance(0, n=2))
    banned = sorted(pre.banned_arcs)[0]
    d = pre.dropoff_of(1)
    for mode, xi in (("cost", 0.0), ("risk", -0.5)):
        duals = DualValues(pi={i: 100.0 for i in pre.pickups()}, mu=-3.0, xi=xi,
                           arc_adjust={banned: 1e6, (1, d): 2.5})
        cols = solve_pricing(pre, duals, mode, limit=500)
        assert cols
        for c in cols:
            expected = -duals.mu
            for a, b in c.arcs():
                t = pre.t(a, b)
                expected += t if mode == "cost" else -xi * t
                if pre.is_pickup(a):
                    expected -= duals.pi[a]
                expected -= duals.arc_adjust.get((a, b), 0.0)
            assert c.reduced_cost == pytest.approx(expected)
            assert banned not in c.arcs()
        assert any((1, d) in c.arcs() for c in cols)


def test_zero_duals_yield_no_columns():
    inst = preprocess(random_instance(3, n=3))
    assert solve_pricing(inst, DualValues(), "cost") == []


def test_huge_dual_covers_that_request():
    inst = preprocess(random_instance(3, n=3))
    cols = solve_pricing(inst, DualValues(pi={2: 500.0}), "cost")
    assert cols and 2 in cols[0].exposure


def test_precedence_rejection():
    inst = random_instance(0, n=2)
    st = cal.initial_state(inst)
    ext, reason = cal.extend(inst, st, inst.dropoff_of(1))
    assert ext is None and reason == cal.PDPTW_PRECEDENCE


def test_extension_reject_reasons_carry_stage():
    inst = random_instance(0, n=2)
    st = cal.initial_state(inst)
    ext, _ = cal.extend(inst, st, 1)
    assert ext is not None
    # revisiting the same pick-up
    _, reason = cal.extend(inst, ext.state, 1)
    assert reason == cal.PDPTW_PRECEDENCE


@pytest.mark.parametrize("mode", ["cost", "risk"])
def test_min_reduced_cost_matches_enumeration(mode):
    rng = random.Random(17)
    for seed in range(8):
        inst = preprocess(random_instance(seed, n=3))
        duals = DualValues(
            pi={i: rng.uniform(-20.0, 120.0) for i in inst.pickups()},
            mu=-rng.uniform(0.0, 8.0),
            rho={i: -rng.uniform(0.0, 2.5) for i in inst.pickups()},
            xi=-rng.uniform(0.1, 2.0) if mode == "risk" else 0.0,
        )
        # folded cut/branch duals of either sign on a third of the arcs
        arc_rng = random.Random(100 + seed)
        duals.arc_adjust = {(i, j): arc_rng.uniform(-15.0, 15.0)
                            for i in range(inst.n_nodes) for j in range(1, inst.n_nodes)
                            if i != j and inst.arc_allowed(i, j) and arc_rng.random() < 1 / 3}
        best = enumerate_min_rc(inst, duals, mode)
        cols = solve_pricing(inst, duals, mode, limit=500)
        if best and best[0] < -1e-6:
            assert cols, (seed, best)
            assert cols[0].reduced_cost == pytest.approx(best[0], abs=1e-6)
        else:
            assert cols == []


def test_dominance_pruning_preserves_minimum():
    """Pruned and unpruned runs agree on the best reduced cost: simulated by
    comparing pricing against exhaustive enumeration on random duals."""
    rng = random.Random(5)
    for trial in range(25):
        inst = preprocess(random_instance(trial % 12, n=2 + trial % 2))
        duals = DualValues(
            pi={i: rng.uniform(0.0, 150.0) for i in inst.pickups()},
            rho={i: -rng.uniform(0.0, 3.0) for i in inst.pickups()},
        )
        best = enumerate_min_rc(inst, duals, "cost")
        cols = solve_pricing(inst, duals, "cost", limit=1000)
        lab_best = cols[0].reduced_cost if cols else 0.0
        enum_best = best[0] if best and best[0] < -1e-6 else 0.0
        assert lab_best == pytest.approx(enum_best, abs=1e-6)


def test_dominates_reflexive_and_cost_condition():
    inst = random_instance(0, n=2)
    st = cal.initial_state(inst)
    ext, _ = cal.extend(inst, st, 1)
    l1 = _Label(ext.state, 5.0, 0)
    l2 = _Label(ext.state, 5.0, 1)
    assert dominates(l1, l2, heuristic=False)
    worse = _Label(ext.state, 5.0 + 1e-6, 2)
    assert dominates(l1, worse, False)
    assert not dominates(worse, l1, False)


def test_emitted_columns_pass_oracle():
    rng = random.Random(11)
    for seed in (2, 5, 9):
        inst = preprocess(random_instance(seed, n=4))
        duals = DualValues(pi={i: rng.uniform(40.0, 120.0) for i in inst.pickups()},
                           rho={i: -rng.uniform(0.0, 1.0) for i in inst.pickups()})
        for col in solve_pricing(inst, duals, "cost", limit=300):
            route = Route(col.sequence, col.schedule, col.cost, col.exposure, col.q_terminal)
            validate_route(inst, route)
            lp = mmr_schedule(inst, col.sequence)
            assert max(col.exposure.values(), default=0.0) == pytest.approx(lp[1], abs=1e-6)


def test_restrictions_filter_emissions():
    inst = preprocess(random_instance(3, n=2))
    duals = DualValues(pi={i: 400.0 for i in inst.pickups()})
    all_cols = solve_pricing(inst, duals, "cost", limit=100)
    assert all_cols
    target = all_cols[0].sequence
    # capping the target's own arcs one below their count bans the target only
    target_arcs = frozenset(zip(target[:-1], target[1:]))
    caps = ((target_arcs, len(target_arcs) - 1),)
    restricted = solve_pricing(
        inst, duals, "cost", limit=100,
        restrictions=PricingRestrictions(crossing_caps=caps),
    )
    assert {c.sequence for c in restricted} == {c.sequence for c in all_cols} - {target}


def test_trace_emits_lines():
    inst = preprocess(random_instance(1, n=2))
    lines = []
    solve_pricing(inst, DualValues(pi={1: 300.0, 2: 300.0}), "cost", trace=lines.append)
    assert lines and all("rc=" in ln and "Q=" in ln for ln in lines)


def test_edarp_columns_satisfy_onboard_identity():
    inst = preprocess(edarp_transform(random_instance(4, n=3, window=50.0)))
    duals = DualValues(pi={i: 200.0 for i in inst.pickups()},
                       rho={i: -0.5 for i in inst.pickups()})
    cols = solve_pricing(inst, duals, "cost", limit=200)
    assert cols
    for col in cols:
        pos = {node: k for k, node in enumerate(col.sequence)}
        for i, h in col.exposure.items():
            onboard = col.schedule[pos[i + inst.n]] - col.schedule[pos[i]]
            assert h == pytest.approx(onboard, abs=1e-9)


@pytest.mark.parametrize("equity", [False, True])
def test_successors_are_the_nodes_precedence_admits(equity):
    inst = random_instance(0, n=4, window=120.0)
    if equity:
        inst = edarp_transform(inst)
    states = reached_states(inst)
    assert len(states) > 100
    for st in states:
        admitted = [j for j in range(inst.n_nodes)
                    if cal.extend(inst, st, j)[1] != cal.PDPTW_PRECEDENCE]
        assert cal.successors(inst, st) == admitted, st.nodes


GOLDEN = json.loads((Path(__file__).parent / "pricing_golden.json").read_text())


def _golden_cases():
    inst = preprocess(random_instance(2, n=4))
    rng = random.Random(31)
    yield "rand-2-n4", inst, "cost", DualValues(
        pi={i: rng.uniform(40.0, 140.0) for i in inst.pickups()}, mu=-5.0,
        rho={i: -rng.uniform(0.0, 1.5) for i in inst.pickups()})
    inst = preprocess(edarp_transform(random_instance(4, n=3, window=50.0)))
    yield "edarp-4-n3", inst, "cost", DualValues(
        pi={i: 200.0 for i in inst.pickups()}, rho={i: -0.5 for i in inst.pickups()})
    inst = preprocess(random_instance(5, n=4))
    rng = random.Random(32)
    yield "rand-5-n4-risk", inst, "risk", DualValues(
        pi={i: rng.uniform(10.0, 60.0) for i in inst.pickups()}, mu=-2.0, xi=-0.4,
        rho={i: -rng.uniform(0.0, 1.0) for i in inst.pickups()},
        arc_adjust={(i, j): rng.uniform(-8.0, 8.0) for i in range(inst.n_nodes)
                    for j in range(1, inst.n_nodes)
                    if i != j and inst.arc_allowed(i, j) and rng.random() < 0.25})
    # duals of a column-generation iteration on this instance: a new label
    # dominates a stored one that costs less than 1 more
    yield "rand-5-n4-cg", inst, "cost", DualValues(
        pi={1: 42.50617158661603, 2: 24.321500641011518,
            3: 40.06754743109607, 4: 61.54388633818642},
        rho={1: -1.6927373020153342, 2: -0.18638857261775757})


@pytest.mark.parametrize("heuristic", [False, True], ids=["exact", "heuristic"])
def test_pricing_output_matches_golden(heuristic):
    """Pricing's columns (order, sequences, reduced costs) and its
    trace-line count for four fixed dual vectors on three instances, as
    recorded in ``pricing_golden.json`` from the labeling that tried every node
    after each label and compared each new label with its whole store."""
    for name, inst, mode, duals in _golden_cases():
        want = GOLDEN[f"{name}/{'heuristic' if heuristic else 'exact'}"]
        lines = []
        cols = solve_pricing(inst, duals, mode, heuristic=heuristic, trace=lines.append)
        assert [list(c.sequence) for c in cols] == [seq for seq, _ in want["columns"]], name
        assert [c.reduced_cost for c in cols] == pytest.approx(
            [rc for _, rc in want["columns"]], rel=1e-12, abs=1e-9), name
        assert len(lines) == want["trace_lines"], name


def test_heuristic_run_stops_at_limit():
    inst = preprocess(random_instance(0, n=5, window=60.0))
    rng = random.Random(31)
    duals = DualValues(pi={i: rng.uniform(40.0, 140.0) for i in inst.pickups()}, mu=-5.0,
                       rho={i: -rng.uniform(0.0, 1.5) for i in inst.pickups()})
    full_lines, lines = [], []
    full = solve_pricing(inst, duals, "cost", heuristic=True, trace=full_lines.append)
    cols = solve_pricing(inst, duals, "cost", heuristic=True, limit=5, trace=lines.append)
    assert len(full) > 5
    assert len(cols) == 5
    rcs = [c.reduced_cost for c in cols]
    assert rcs == sorted(rcs) and rcs[-1] < -1e-6
    assert len(lines) < len(full_lines)  # the run stopped before exhausting the labels
    exact = solve_pricing(inst, duals, "cost", limit=5)
    assert exact[0].reduced_cost <= rcs[0]

