"""Golden tests for the extension semantics: dynamic drop-off windows, delay
buffers, and the wait-absorption calibration on an interlaced route."""

import math

import pytest

from rdarp import calibration as cal
from rdarp.oracle import mmr_schedule, replay_route, validate_route
from tests.conftest import interlaced_instance

INF = math.inf


def walk(inst, nodes):
    st = cal.initial_state(inst)
    trail = []
    for j in nodes:
        ext, reason = cal.extend(inst, st, j)
        assert ext is not None, (j, reason)
        st = ext.state
        trail.append((j, st, ext))
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
    for j, st, _ in walk(inst, PATH):
        a, b, bo, dob, d = GOLDEN[j]
        assert st.a_cur == pytest.approx(a, abs=1e-9)
        assert st.b_cur == pytest.approx(b, abs=1e-9)
        assert {k: v for k, v in st.bo.items()} == pytest.approx(bo)
        assert {k: v for k, v in st.do_b.items()} == pytest.approx(dob)
        assert {k: v for k, v in st.d.items()} == pytest.approx(d)


def test_interlaced_final_latest_start():
    inst = interlaced_instance(60.0)
    st = walk(inst, PATH)[-1][1]
    ext, _ = cal.extend(inst, st, 5)
    assert ext.state.b_cur == pytest.approx(70.0)
    assert ext.state.bo == pytest.approx({3: 60.0})
    assert ext.state.do_b == pytest.approx({3: 90.0})


@pytest.mark.parametrize("a_jn, expected_onboard, expected_times", [
    # wait fully offset by delaying earlier pick-ups by ten minutes
    (60.0, 10.0, (0.0, 20.0, 30.0, 40.0, 50.0, 60.0)),
    # buffers cover ten of the fifteen; five minutes stay onboard
    (65.0, 15.0, (0.0, 20.0, 30.0, 40.0, 50.0, 65.0)),
])
def test_calibration_cases(a_jn, expected_onboard, expected_times):
    inst = interlaced_instance(a_jn)
    st = walk(inst, PATH)[-1][1]
    ext, _ = cal.extend(inst, st, 5)
    # rider 3 boards at the previous node: onboard time on the last arc
    assert ext.state.times[-1] - ext.state.times[-2] == pytest.approx(expected_onboard)
    assert ext.state.times == pytest.approx(expected_times)
    # every rider's committed delay totals ten minutes across the extension
    assert ext.state.times[1] - 10.0 == pytest.approx(10.0)


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
    from rdarp.fixtures import random_instance

    inst = random_instance(1, n=3)
    seq = (0, 2, 3, 5, 1, 6, 4, 7)
    route, reason = replay_route(inst, seq)
    assert route is not None, reason
    validate_route(inst, route)
    lp = mmr_schedule(inst, seq)
    assert max(route.exposure.values()) == pytest.approx(lp[1], abs=1e-6)
