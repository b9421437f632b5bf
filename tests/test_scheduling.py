"""Golden tests for the extension semantics: dynamic drop-off windows, delay
buffers, and the wait-absorption calibration on an interlaced route."""

import copy
import math

import pytest

from rdarp import bcp
from rdarp import calibration as cal
from rdarp.fixtures import random_instance
from rdarp.instance import edarp_transform, exposure_from_schedule, preprocess
from rdarp.oracle import mmr_schedule, replay_route, validate_route
from rdarp.pricing import DualValues, solve_pricing
from tests.conftest import interlaced_instance, reached_states

INF = math.inf


def walk(inst, nodes):
    st = cal.initial_state(inst)
    trail = []
    for j in nodes:
        st, reason = cal.extend(inst, st, j)
        assert st is not None, (j, reason)
        trail.append((j, st))
    return trail


# request 1 interlaces with 2; 3 boards after 1 leaves
PATH = [1, 2, 4, 3]

GOLDEN = {
    # node: (A, B, {req: breakpoint}, {req: latest drop-off at breakpoint}, {req: buffer})
    1: (10.0, 20.0, {1: 20.0}, {1: 40.0}, {1: 10.0}),
    2: (20.0, 60.0, {1: 30.0, 2: 60.0}, {1: 40.0, 2: 100.0}, {1: 10.0, 2: 40.0}),
    4: (30.0, 40.0, {2: 40.0}, {2: 70.0}, {1: 10.0, 2: 10.0}),
    3: (40.0, 50.0, {2: 50.0, 3: 50.0}, {2: 70.0, 3: 90.0}, {1: 10.0, 2: 10.0, 3: 10.0}),
}


def test_interlaced_resource_table():
    inst = interlaced_instance(60.0)
    for j, st in walk(inst, PATH):
        a, b, bo, dob, d = GOLDEN[j]
        assert st.a_cur == pytest.approx(a, abs=1e-9)
        assert st.b_cur == pytest.approx(b, abs=1e-9)
        assert {k: v for k, v in st.bo.items()} == pytest.approx(bo)
        assert {k: v for k, v in st.do_b.items()} == pytest.approx(dob)
        assert {k: v for k, v in st.d.items()} == pytest.approx(d)


def test_interlaced_final_latest_start():
    inst = interlaced_instance(60.0)
    st = walk(inst, PATH)[-1][1]
    last, _ = cal.extend(inst, st, 5)
    assert last.b_cur == pytest.approx(70.0)
    assert last.bo == pytest.approx({3: 60.0})
    assert last.do_b == pytest.approx({3: 90.0})


@pytest.mark.parametrize("a_jn, expected_onboard, expected_times", [
    # wait fully offset by delaying earlier pick-ups by ten minutes
    (60.0, 10.0, (0.0, 20.0, 30.0, 40.0, 50.0, 60.0)),
    # buffers cover ten of the fifteen; five minutes stay onboard
    (65.0, 15.0, (0.0, 20.0, 30.0, 40.0, 50.0, 65.0)),
])
def test_calibration_cases(a_jn, expected_onboard, expected_times):
    inst = interlaced_instance(a_jn)
    st = walk(inst, PATH)[-1][1]
    last, _ = cal.extend(inst, st, 5)
    # rider 3 boards at the previous node: onboard time on the last arc
    assert last.times[-1] - last.times[-2] == pytest.approx(expected_onboard)
    assert last.times == pytest.approx(expected_times)
    # every rider's committed delay totals ten minutes across the extension
    assert last.times[1] - 10.0 == pytest.approx(10.0)


def test_calibration_no_delay_boundary(two_rider_chain):
    # equal exposure on both sides of the balance keeps the peak unchanged,
    # and the smallest minimizer is chosen
    from dataclasses import replace

    inst = replace(
        two_rider_chain,
        early=(0.0, 0.0, 0.0, 0.0, 20.0, 0.0),
        late=(200.0,) * 6,
    )
    route, _ = replay_route(inst, (0, 1, 2, 3, 4, 5))
    lp = mmr_schedule(inst, (0, 1, 2, 3, 4, 5))
    assert max(route.exposure.values()) == pytest.approx(lp[1], abs=1e-6)


def test_committed_schedules_stay_feasible(interlaced):
    inst, _ = interlaced
    route, _ = replay_route(inst, (0, 1, 2, 4, 3, 5, 6, 7))
    validate_route(inst, route)
    lp = mmr_schedule(inst, (0, 1, 2, 4, 3, 5, 6, 7))
    assert max(route.exposure.values()) == pytest.approx(lp[1], abs=1e-6)


def test_forced_ride_repair_cascades():
    # committed earliest schedule violates a ride cap at the drop-off; the
    # repair delays the pick-up through an interior wait, shifting an
    # already-served rider's drop-off and cascading to that rider's pick-up
    inst = random_instance(1, n=3)
    seq = (0, 2, 3, 5, 1, 6, 4, 7)
    route, reason = replay_route(inst, seq)
    assert route is not None, reason
    validate_route(inst, route)
    lp = mmr_schedule(inst, seq)
    assert max(route.exposure.values()) == pytest.approx(lp[1], abs=1e-6)


def test_forced_repair_reads_exposure_off_the_schedule(monkeypatch):
    """Each state the forced ride repair returns carries, for the members
    it rebaselines, the exposures and the cumulative risk that
    ``exposure_from_schedule`` reads off its shifted partial schedule, to
    the bit."""
    inst = preprocess(random_instance(6, n=6, fleet_size=2, window=90.0))
    real_repair = cal._forced_repair
    repaired = []

    def repair(inst_, st, members, *args):
        out = real_repair(inst_, st, members, *args)
        if out is not None:
            repaired.append((list(members), out))
        return out

    monkeypatch.setattr(cal, "_forced_repair", repair)
    bcp.solve(inst, "cost", bcp.SolveOptions(eps_risk=20.0))
    assert len(repaired) > 0
    for members, st in repaired:
        bd = exposure_from_schedule(inst, st.nodes, st.times)
        assert {x: st.h[x] for x in members} == {x: bd.exposure[x] for x in members}, st.nodes
        assert st.q_cum == bd.cumulative[-1], st.nodes


def _snapshot(st):
    """Every field of a state, deep-copied, with dict entries in order."""
    out = []
    for name in cal.PathState.__slots__:
        value = getattr(st, name)
        out.append((name, list(value.items()) if isinstance(value, dict) else value))
    return copy.deepcopy(out)


@pytest.mark.parametrize("base, edarp", [
    (random_instance(1, n=3), False),   # reaches the forced ride repair
    (random_instance(9, n=4), False),   # reaches it twice
    (random_instance(4, n=3, window=50.0), True),
])
def test_extend_never_changes_a_state(monkeypatch, base, edarp):
    """An exact pricing run extends every label it pops to each successor.
    No call changes its input state, and no later call changes any state
    seen before: extensions share unchanged containers with their parent."""
    inst = preprocess(edarp_transform(base) if edarp else base)
    real_extend, real_repair = cal.extend, cal._forced_repair
    seen = []
    paths = {"repair": 0, "delay": 0, "zero": 0}

    def extend(inst_, st, j):
        before = _snapshot(st)
        child, reason = real_extend(inst_, st, j)
        assert _snapshot(st) == before, (st.nodes, j)
        seen.append((st, before))
        if child is not None:
            paths["zero" if child.times[:-1] == st.times else "delay"] += 1
        return child, reason

    def repair(*args):
        paths["repair"] += 1
        return real_repair(*args)

    monkeypatch.setattr(cal, "extend", extend)
    monkeypatch.setattr(cal, "_forced_repair", repair)
    duals = DualValues(pi={i: 300.0 for i in inst.pickups()})
    assert solve_pricing(inst, duals, limit=10_000)
    for st, before in seen:
        assert _snapshot(st) == before, st.nodes
    assert paths["zero"] and paths["delay"]
    assert paths["repair"] or edarp


def _hex(dh):
    return [(x, v.hex()) for x, v in dh.items()]


@pytest.mark.parametrize("edarp", [False, True])
def test_zero_delay_accrual_matches_pair_increments(edarp):
    """The zero-delay path's accrual is ``_pair_increments`` with every
    delay and shift zero, key order and floats included."""
    base = random_instance(0, n=4, window=120.0)
    inst = edarp_transform(base) if edarp else base
    states = reached_states(inst)
    assert len(states) > 100
    tried = 0
    for st in states:
        members = sorted(set(st.onboard) | set(st.assoc), key=st.pick_pos.__getitem__)
        zeros = dict.fromkeys(members, 0.0)
        shifts = [0.0] * len(st.times)
        for span in (0.0, 7.25, 13.0 / 3.0, inst.t(st.current, inst.end_depot)):
            expected = cal._pair_increments(inst, st, members, zeros, span, shifts)
            got = cal._onboard_increments(inst, members, st.onboard, span)
            assert _hex(got) == _hex(expected), (st.nodes, span)
            tried += len(st.onboard) > 1
    assert tried

