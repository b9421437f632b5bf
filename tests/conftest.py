import itertools
import math

import pytest

from rdarp import calibration as cal
from rdarp.instance import Instance
from rdarp.oracle import feasible_routes

INF = math.inf


def flat_travel(m, t=5.0):
    return tuple(tuple(0.0 if i == j else t for j in range(m)) for i in range(m))


@pytest.fixture
def two_rider_chain():
    """Two requests picked then dropped in order; travel 5, unit risks."""
    return Instance(
        n=2, fleet_size=1, capacity=3, q_max=INF,
        service=(0.0,) * 6,
        load=(0, 1, 1, -1, -1, 0),
        risk=(0, 1, 1, -1, -1, 0),
        early=(0.0,) * 6, late=(200.0,) * 6,
        travel=flat_travel(6), max_ride=(100.0, 100.0),
    )


def interlaced_instance(a_second_drop: float) -> Instance:
    """Three interlaced requests on a flat 10-minute grid; the second
    request's drop-off window opens at ``a_second_drop``."""
    m = 8
    early = [0, 10, 20, 40, 20, a_second_drop, 0, 0]
    late = [200, 20, 60, 50, 40, 100, 200, 200]
    return Instance(
        n=3, fleet_size=1, capacity=3, q_max=INF,
        service=(0.0,) * m,
        load=(0, 1, 1, 1, -1, -1, -1, 0),
        risk=(0, 1, 1, 1, -1, -1, -1, 0),
        early=tuple(map(float, early)), late=tuple(map(float, late)),
        travel=flat_travel(m, 10.0), max_ride=(20.0, 40.0, 40.0),
    )


@pytest.fixture(params=[60.0, 65.0])
def interlaced(request):
    return interlaced_instance(request.param), request.param


def precedence_orderings(inst, group):
    """Every depot-to-depot sequence over the requests in ``group`` that puts
    each drop-off after its pick-up: permutations of ``i, i + n`` for each
    ``i`` in ``group``, in lexicographic order of those positions."""
    items = [v for i in group for v in (i, i + inst.n)]
    for perm in itertools.permutations(items):
        pos = {v: k for k, v in enumerate(perm)}
        if all(pos[i] < pos[i + inst.n] for i in group):
            yield (0, *perm, inst.end_depot)


def reached_states(inst):
    """Every state on the way to each route ``feasible_routes`` yields, once."""
    seen = {}
    for size in range(1, inst.n + 1):
        for group in itertools.combinations(range(1, inst.n + 1), size):
            for route in feasible_routes(inst, group):
                st = cal.initial_state(inst)
                for j in route.sequence[1:]:
                    seen.setdefault(st.nodes, st)
                    st = cal.extend(inst, st, j)[0].state
    return list(seen.values())
