import inspect
import itertools
import json
import math
import random
from pathlib import Path

import pytest

from rdarp import calibration as cal
from rdarp.fixtures import random_instance
from rdarp.instance import edarp_transform, preprocess
from rdarp.oracle import Route, cap_slack, feasible_routes, mmr_schedule, over_cap, validate_route
from rdarp.pricing import (
    Column,
    DualValues,
    _Label,
    dominates,
    solve_pricing,
)
from tests.conftest import reached_states

INF = math.inf


def all_routes(inst):
    """Every route ``feasible_routes`` yields, over every request group."""
    n = inst.n
    for size in range(1, n + 1):
        for group in itertools.combinations(range(1, n + 1), size):
            yield from feasible_routes(inst, group)


def enumerate_min_rc(inst, duals, mode, cap=INF, banned=frozenset(), routes=None):
    """Exhaustive minimum reduced cost over all feasible routes (``routes``,
    by default ``all_routes(inst)``) that use no arc of ``banned`` and have
    no rider over ``cap`` (``oracle.over_cap``)."""
    best = None
    for route in all_routes(inst) if routes is None else routes:
        seq = route.sequence
        if any(a in inst.banned_arcs or a in banned for a in route.arcs()):
            continue
        if over_cap(inst, route.exposure, cap):
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


@pytest.mark.parametrize("equity", [False, True], ids=["rdarp", "edarp"])
def test_capped_exact_pricing_matches_enumeration(equity):
    """Under a cap on the exposure measure, exact pricing's best column is
    the best route with no rider over the cap, and no column either run
    emits is over it. Caps are rider measures of feasible routes, scaled just
    below, at and above; a capped call leaves no trace on the next one."""
    rng = random.Random(41 + equity)
    binding = 0
    for s in range(20):
        inst = random_instance(s, n=3 + s % 3, fleet_size=2, window=90.0)
        inst = preprocess(edarp_transform(inst) if equity else inst)
        measures = sorted({inst.exposure_measure(i, h)
                           for route in all_routes(inst) for i, h in route.exposure.items()})
        cap = rng.choice(measures) * rng.choice((0.999999, 1.0, 1.5))
        duals = DualValues(
            pi={i: rng.uniform(0.0, 120.0) for i in inst.pickups()}, mu=-1.0,
            rho={i: -rng.uniform(0.0, 1.5) for i in inst.pickups() if rng.random() < 0.5},
        )
        free = solve_pricing(inst, duals, "cost", limit=1000)
        best = enumerate_min_rc(inst, duals, "cost", cap)
        want = best[0] if best and best[0] < -1e-6 else 0.0
        cols = solve_pricing(inst, duals, "cost", limit=1000, cap=cap)
        assert (cols[0].reduced_cost if cols else 0.0) == pytest.approx(want, abs=1e-6), s
        heuristic = solve_pricing(inst, duals, "cost", heuristic=True, limit=5, cap=cap)
        assert not any(over_cap(inst, c.exposure, cap) for c in cols + heuristic), s
        if {c.sequence for c in cols} != {c.sequence for c in free}:
            binding += 1
        again = solve_pricing(inst, duals, "cost", limit=1000)
        assert [c.sequence for c in again] == [c.sequence for c in free]
    assert binding >= 5


def test_emission_applies_the_routes_own_tolerance():
    """Labels are pruned only beyond the tolerance of every request together
    (``cap_slack`` of all of them); a column is emitted only within its own
    route's, narrower one. A route over the cap by less than the first and
    more than the second is priced but not emitted."""
    inst = preprocess(random_instance(2, n=4))
    duals = DualValues(pi={i: 400.0 for i in inst.pickups()})
    free = solve_pricing(inst, duals, "cost", limit=1000)
    col = next(c for c in free if len(c.requests) == 2 and max(c.exposure.values()) > 0)
    widest, own = cap_slack(inst, inst.pickups()), cap_slack(inst, col.exposure)
    assert widest > own
    cap = max(col.exposure.values()) - (widest + own) / 2
    assert over_cap(inst, col.exposure, cap)
    capped = solve_pricing(inst, duals, "cost", limit=1000, cap=cap)
    assert col.sequence not in {c.sequence for c in capped}
    assert capped and not any(over_cap(inst, c.exposure, cap) for c in capped)


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


def test_exact_pricing_matches_enumeration_under_bans_and_arc_duals():
    """Under a branch node's banned arcs and the nonnegative arc duals of
    ``arc(i,j)>=1`` rows, exact pricing's best column is the brute-force
    minimum over the routes that use no banned arc."""
    rng = random.Random(13)
    binding = 0
    for s in range(100):
        inst = preprocess(random_instance(s, n=4 + s % 2, fleet_size=2, window=90.0))
        routes = list(all_routes(inst))
        used = sorted({a for route in routes for a in route.arcs()})
        banned = frozenset(rng.sample(used, rng.randint(1, 3)))
        duals = DualValues(
            pi={i: rng.uniform(0.0, 120.0) for i in inst.pickups()}, mu=-1.0,
            arc_adjust={a: rng.uniform(0.0, 30.0) for a in rng.sample(used, rng.randint(0, 2))},
        )
        best = enumerate_min_rc(inst, duals, "cost", banned=banned, routes=routes)
        cols = solve_pricing(inst, duals, "cost", limit=1000, banned=banned)
        if best and best[0] < -1e-6:
            assert cols and cols[0].reduced_cost == pytest.approx(best[0], abs=1e-6), s
        else:
            assert cols == [], s
        assert not any(banned.intersection(c.arcs()) for c in cols), s
        if enumerate_min_rc(inst, duals, "cost", routes=routes) != best:
            binding += 1
    assert binding >= 10


def test_solve_pricing_keeps_heuristic_4th_and_trace_7th():
    # perfbench/layers.py reads both by position: ``heuristic`` as args[3]
    # and ``trace`` as the 7th positional argument. A silent reorder would
    # zero the benchmark's pricing.labels_kept.
    params = list(inspect.signature(solve_pricing).parameters)
    assert params.index("heuristic") == 3
    assert params.index("trace") == 6


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


@pytest.mark.parametrize("equity", [False, True])
@pytest.mark.parametrize("seed, window", [(0, 120.0), (1, 30.0)])
def test_no_feasible_route_takes_a_stranding_step(seed, window, equity):
    """``stranded`` never fires on a step of a feasible route, and it does
    fire on some candidate pricing would otherwise extend to. On the tight
    instance some drop-offs start less than a service time before their
    latest start."""
    inst = random_instance(seed, n=4, window=window)
    if equity:
        inst = edarp_transform(inst)
    steps = 0
    for size in range(1, inst.n + 1):
        for group in itertools.combinations(range(1, inst.n + 1), size):
            for route in feasible_routes(inst, group):
                st = cal.initial_state(inst)
                for j in route.sequence[1:]:
                    assert not cal.stranded(inst, st, j), (route.sequence, j)
                    st = cal.extend(inst, st, j)[0].state
                    steps += 1
    assert steps > 50
    pruned = [(st.nodes, j) for st in reached_states(inst)
              for j in cal.successors(inst, st) if cal.stranded(inst, st, j)]
    assert pruned


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
    recorded in ``pricing_golden.json``. The columns are those of the labeling
    that tried every node after each label and compared each new label with
    its whole store; the counts are those of the labeling that skips stranding
    steps (``calibration.stranded``), which stores fewer labels."""
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


def _priced(cols):
    """Everything a column carries, to the bit."""
    return [(c.sequence, c.schedule, c.reduced_cost, c.cost, c.exposure, c.q_terminal)
            for c in cols]


def _counting_extend(monkeypatch):
    calls = [0]
    real = cal.extend

    def extend(inst, st, j):
        calls[0] += 1
        return real(inst, st, j)

    monkeypatch.setattr(cal, "extend", extend)
    return calls


@pytest.mark.parametrize("equity", [False, True], ids=["rdarp", "edarp"])
def test_a_shared_expansion_cache_prices_as_a_fresh_one(monkeypatch, equity):
    """A run of pricing calls through one cache returns exactly the columns
    of uncached calls: cost and risk mode, exact and heuristic runs, a
    finite cap, and a branch ban on an arc the cache has already expanded.
    A repeated call extends no state again."""
    base = random_instance(2, n=4, window=120.0)
    inst = preprocess(edarp_transform(base) if equity else base)
    rng = random.Random(41)

    def duals(xi=0.0):
        return DualValues(pi={i: rng.uniform(40.0, 140.0) for i in inst.pickups()}, mu=-5.0,
                          rho={i: -rng.uniform(0.0, 1.5) for i in inst.pickups()}, xi=xi)

    first = duals()
    fresh = solve_pricing(inst, first, "cost")
    seq = fresh[0].sequence
    assert len(seq) > 3
    capped = sorted(inst.exposure_measure(i, h) for c in fresh for i, h in c.exposure.items())
    calls = [
        (first, "cost", {}),
        (duals(), "cost", {"heuristic": True, "limit": 5}),
        (duals(xi=-0.4), "risk", {}),
        (duals(xi=-0.4), "risk", {"heuristic": True}),
        (duals(), "cost", {"cap": capped[len(capped) // 2]}),
        (first, "cost", {"banned": frozenset({seq[1:3]})}),
    ]
    cache = cal.ExpansionCache(inst)
    for k, (d, mode, kw) in enumerate(calls):
        if "banned" in kw:
            # the banned arc leaves a state whose children the cache holds
            held = cache.held
            after_first = dict(cache.children(cache.root))[seq[1]].state
            assert seq[2] in dict(cache.children(after_first))
            assert cache.held == held
        cached = solve_pricing(inst, d, mode, cache=cache, **kw)
        assert _priced(cached) == _priced(solve_pricing(inst, d, mode, **kw)), k
        assert cached or mode == "risk", k
    assert 0 < cache.held <= cal.EXPANSION_CAP
    extends = _counting_extend(monkeypatch)
    assert _priced(solve_pricing(inst, first, "cost", cache=cache)) == _priced(fresh)
    assert extends[0] == 0


def test_a_full_expansion_cache_keeps_its_cap_and_its_answers(monkeypatch):
    """On an n=14 instance the cache fills: it never holds more child states
    than its cap, later runs extend the states it could not keep, and every
    answer stays that of an uncached call."""
    from rdarp.fixtures import benchmark_like_instance

    inst = preprocess(benchmark_like_instance(0, n=14, fleet_size=3))
    cache = cal.ExpansionCache(inst)
    extends = _counting_extend(monkeypatch)
    rng = random.Random(3)
    for _ in range(4):
        duals = DualValues(pi={i: rng.uniform(5.0, 20.0) for i in inst.pickups()}, mu=-5.0)
        for heuristic in (True, False):
            cached = solve_pricing(inst, duals, "cost", heuristic=heuristic, limit=50, cache=cache)
            assert cache.held <= cal.EXPANSION_CAP
            fresh = solve_pricing(inst, duals, "cost", heuristic=heuristic, limit=50)
            assert _priced(cached) == _priced(fresh)
    assert cache.held > cal.EXPANSION_CAP - inst.n_nodes  # no child list fits any more
    # nothing unreachable is kept: each stored state is the root or a stored child
    stored = cache._children
    reachable = {id(cache.root)} | {id(ext.state) for kids in stored.values() for _, ext in kids}
    assert all(id(st) in reachable for st in stored)
    extends[0] = 0
    solve_pricing(inst, duals, "cost", limit=50)
    uncached = extends[0]
    extends[0] = 0
    solve_pricing(inst, duals, "cost", limit=50, cache=cache)
    assert 0 < extends[0] < uncached


def test_a_cache_of_another_instance_is_refused():
    inst = preprocess(random_instance(2, n=3))
    other = preprocess(random_instance(3, n=3))
    with pytest.raises(ValueError, match="another instance"):
        solve_pricing(inst, DualValues(), "cost", cache=cal.ExpansionCache(other))
    equal = preprocess(random_instance(2, n=3))
    assert equal is not inst
    assert solve_pricing(inst, DualValues(), "cost", cache=cal.ExpansionCache(equal)) == []
