import math

import pytest

from rdarp.errors import InfeasibleRequestError, ParseError, ValidationError
from rdarp.fixtures import random_instance
from rdarp.instance import (
    compute_qmax,
    derive_benchmark_risk,
    edarp_transform,
    emit_realworld,
    parse_cordeau,
    parse_realworld,
    preprocess,
)
from rdarp.oracle import validate_route

INF = math.inf

CORDEAU_2REQ = """\
1 2 480 3 30
0 0.0 0.0 0 0 0 480
1 3.0 4.0 2 1 10 40
2 6.0 8.0 2 1 20 60
3 0.0 4.0 2 -1 10 200
4 6.0 0.0 2 -1 20 200
5 0.0 0.0 0 0 0 480
"""


def test_parse_cordeau_two_requests():
    inst = parse_cordeau(CORDEAU_2REQ)
    assert inst.n == 2
    assert inst.fleet_size == 1
    assert inst.capacity == 3
    assert inst.max_ride == (30.0, 30.0)
    assert inst.q_max == INF
    # Euclidean distances recomputed by hand
    assert inst.t(0, 1) == pytest.approx(5.0, abs=1e-9)
    assert inst.t(1, 2) == pytest.approx(5.0, abs=1e-9)
    assert inst.t(1, 3) == pytest.approx(3.0, abs=1e-9)
    assert inst.t(2, 4) == pytest.approx(8.0, abs=1e-9)


def test_parse_cordeau_rejects_empty_and_malformed():
    with pytest.raises(ParseError):
        parse_cordeau("")
    broken = CORDEAU_2REQ.replace("2 6.0 8.0 2 1 20 60", "2 6.0 eight 2 1 20 60")
    with pytest.raises(ParseError) as err:
        parse_cordeau(broken)
    assert err.value.line == 4
    # zero requests
    with pytest.raises((ParseError, ValidationError)):
        parse_cordeau("1 0 480 3 30\n0 0 0 0 0 0 480\n1 0 0 0 0 0 480\n")


def test_parse_cordeau_ride_consistency_error():
    bad = CORDEAU_2REQ.replace("1 2 480 3 30", "1 2 480 3 2")
    with pytest.raises(InfeasibleRequestError):
        parse_cordeau(bad)


def test_benchmark_risk_equals_load():
    inst = parse_cordeau(CORDEAU_2REQ)
    out = derive_benchmark_risk(inst)
    assert out.risk[1] == out.load[1] == 1
    assert out.risk[2] == 1
    assert out.risk[3] == -1
    # zero and mixed loads map through unchanged
    mixed = random_instance(5, n=3)
    derived = derive_benchmark_risk(mixed)
    for i in derived.pickups():
        assert derived.risk[i] == derived.load[i]
        assert derived.risk[i + derived.n] == -derived.load[i]


def test_compute_qmax():
    inst = random_instance(0, n=2)
    horizon = inst.late[inst.end_depot] - inst.early[0]
    risks = [inst.risk[i] for i in inst.pickups()]
    assert compute_qmax(inst) == pytest.approx(horizon * sum(risks) / 2)


def test_compute_qmax_hand_values():
    inst = parse_cordeau(CORDEAU_2REQ)
    # horizon 480, both risks zero before derivation
    assert compute_qmax(inst) == 0.0
    derived = derive_benchmark_risk(inst)
    assert compute_qmax(derived) == pytest.approx(480.0 * 1.0)


def test_realworld_roundtrip():
    inst = random_instance(7, n=3)
    text = emit_realworld(inst)
    again = parse_realworld(text)
    assert again == inst
    assert emit_realworld(again) == text


def test_realworld_qmax_derived_when_missing():
    inst = random_instance(9, n=2)
    text = emit_realworld(inst)
    import json

    doc = json.loads(text)
    del doc["q_max"]
    again = parse_realworld(json.dumps(doc))
    assert again.q_max == pytest.approx(compute_qmax(inst))


def test_derived_qmax_of_a_riskless_instance_over_an_endless_horizon():
    # horizon times mean risk would be inf * 0, a NaN that validate rejects
    import json
    from dataclasses import replace

    inst = random_instance(9, n=2)
    doc = json.loads(emit_realworld(replace(inst, risk=(0.0,) * inst.n_nodes)))
    del doc["q_max"]
    doc["nodes"][-1]["late"] = INF
    assert parse_realworld(json.dumps(doc)).q_max == 0.0


def test_realworld_minimal_single_request():
    m = 4
    doc = {
        "n": 1, "K": 1, "capacity": 2.0, "q_max": None, "mode": "RDARP",
        "nodes": [
            {"id": 0, "service": 0, "load": 0, "risk": 0, "early": 0, "late": 100},
            {"id": 1, "service": 0, "load": 1, "risk": 0.5, "early": 0, "late": 50},
            {"id": 2, "service": 0, "load": -1, "risk": -0.5, "early": 0, "late": 80},
            {"id": 3, "service": 0, "load": 0, "risk": 0, "early": 0, "late": 100},
        ],
        "travel_time": [0.0 if i == j else 5.0 for i in range(m) for j in range(m)],
        "max_ride": [40.0],
    }
    import json

    inst = parse_realworld(json.dumps(doc))
    assert inst.n == 1 and inst.q_max == INF


def test_realworld_errors():
    import json

    inst = random_instance(3, n=2)
    doc = json.loads(emit_realworld(inst))
    short = dict(doc)
    short["travel_time"] = doc["travel_time"][:-1]
    with pytest.raises(ParseError):
        parse_realworld(json.dumps(short))
    wrong = dict(doc)
    wrong["n"] = 5
    with pytest.raises(ParseError):
        parse_realworld(json.dumps(wrong))


def test_preprocess_tightening_and_idempotence():
    inst = parse_cordeau(CORDEAU_2REQ)
    pre = preprocess(inst)
    for i in pre.pickups():
        j = pre.dropoff_of(i)
        assert pre.early[j] >= pre.early[i] + pre.service[i] + pre.direct_time(i) - 1e-9
        assert pre.late[i] <= pre.late[j] - pre.service[i] - pre.direct_time(i) + 1e-9
    again = preprocess(pre)
    assert again.early == pre.early and again.late == pre.late
    assert again.banned_arcs == pre.banned_arcs


def test_preprocess_structural_bans():
    pre = preprocess(parse_cordeau(CORDEAU_2REQ))
    n = pre.n
    for i in pre.pickups():
        assert (pre.dropoff_of(i), i) in pre.banned_arcs
        assert (0, pre.dropoff_of(i)) in pre.banned_arcs
        assert (i, pre.end_depot) in pre.banned_arcs


def test_preprocess_matches_naive_rule_recheck():
    inst = random_instance(11, n=4)
    pre = preprocess(inst)
    banned = set()
    e, l = pre.early, pre.late
    for i in pre.pickups():
        banned |= {(pre.dropoff_of(i), i), (0, pre.dropoff_of(i)), (i, pre.end_depot)}
    for i in range(pre.n_nodes):
        for j in range(pre.n_nodes):
            if i != j and e[i] + pre.service[i] + pre.t(i, j) > l[j] + 1e-9:
                banned.add((i, j))
    for i in pre.pickups():
        for j in pre.pickups():
            if i != j and pre.t(i, j) + pre.service[j] + pre.t(j, pre.dropoff_of(i)) > pre.max_ride[i - 1] + 1e-9:
                banned.add((i, j))
                banned.add((j, pre.dropoff_of(i)))
    assert pre.banned_arcs == frozenset(banned)


def test_preprocess_infeasible_request():
    text = CORDEAU_2REQ.replace("1 3.0 4.0 2 1 10 40", "1 3.0 4.0 2 1 300 305")
    text = text.replace("3 0.0 4.0 2 -1 10 200", "3 0.0 4.0 2 -1 10 20")
    with pytest.raises(InfeasibleRequestError):
        preprocess(parse_cordeau(text))


def test_preprocess_never_cuts_feasible_routes():
    # exhaustive on tiny instances: any route valid on the raw instance stays
    # valid (same schedule) on the tightened one and uses no banned arc
    import itertools

    from rdarp.oracle import feasible_routes

    for seed in (0, 3, 8):
        inst = random_instance(seed, n=3)
        pre = preprocess(inst)
        for size in (1, 2, 3):
            for group in itertools.combinations(range(1, 4), size):
                for route in feasible_routes(inst, group):
                    validate_route(pre, route)
                    assert all(a not in pre.banned_arcs for a in route.arcs())


def test_edarp_transform():
    inst = random_instance(2, n=3)
    out = edarp_transform(inst)
    assert out.mode == "EDARP"
    assert all(out.risk[i] == 0 for i in range(out.n_nodes))
    for i in out.pickups():
        assert out.detour_weight[i - 1] == max(15.0, out.direct_time(i))
    with pytest.raises(ValidationError):
        edarp_transform(out)


def test_detour_weight_floor_cases(two_rider_chain):
    out = edarp_transform(two_rider_chain)
    # direct time 5 -> floored to 15
    assert out.detour_weight == (15.0, 15.0)
