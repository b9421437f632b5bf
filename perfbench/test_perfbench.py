"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

import layers
import run
import workloads
from spans import Span, Tracer, layer_times

run.load_rdarp()

from rdarp import bcp, cuts, instance, lp, master  # noqa: E402

REFS = workloads.load_refs()
PATCHED = [(instance, "preprocess"), (bcp, "solve"), (bcp, "seed_pool"),
           (bcp, "column_generation"), (bcp, "branch"), (cuts, "separate_all"),
           (master, "build_rlmp"), (master, "extract_duals"), (master, "solve_pricing"),
           (master.ColumnPool, "add"), (lp, "solve_lp_warm")]


def _solve(s: workloads.Solve):
    inst = instance.preprocess(s.base)
    return inst, bcp.solve(inst, s.mode, bcp.SolveOptions(**s.options))


def test_tracer_restores_originals_even_after_an_error():
    originals = [getattr(owner, attr) for owner, attr in PATCHED]
    with pytest.raises(ZeroDivisionError):
        with Tracer() as tracer:
            layers.install(tracer)
            assert all(getattr(o, a) is not f for (o, a), f in zip(PATCHED, originals))
            1 / 0
    assert all(getattr(o, a) is f for (o, a), f in zip(PATCHED, originals))


def test_self_time_subtracts_direct_children_only():
    spans = [Span("solve", 0.0, 10.0, None),
             Span("cg", 1.0, 5.0, 0),
             Span("lp", 2.0, 3.0, 1),
             Span("lp", 3.5, 4.0, 1),
             Span("cuts", 6.0, 7.0, 0)]
    t = layer_times(spans)
    assert t["solve"].self_time == pytest.approx(10.0 - 4.0 - 1.0)
    assert t["cg"].self_time == pytest.approx(4.0 - 1.5)
    assert (t["lp"].total, t["lp"].self_time, t["lp"].calls) == (pytest.approx(1.5), pytest.approx(1.5), 2)
    assert sum(lt.self_time for lt in t.values()) == pytest.approx(10.0)


def test_tracer_nests_spans_by_call_order():
    tracer = Tracer()
    outer = tracer.open("a")
    inner = tracer.open("b")
    tracer.close(inner)
    tracer.close(outer)
    assert [s.parent for s in tracer.spans] == [None, 0]
    with pytest.raises(RuntimeError):
        x, y = tracer.open("x"), tracer.open("y")
        tracer.close(x)


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_workload_generation_is_deterministic(name):
    first = workloads.build(name, False, REFS)
    second = workloads.build(name, False, REFS)
    assert first == second
    assert workloads.ordered(first, 7) == workloads.ordered(second, 7)
    assert sorted(s.key for s in workloads.ordered(first, 8)) == sorted(s.key for s in first)


def test_seed_changes_only_the_order():
    solves = workloads.build("battery", False, REFS)
    a, b = workloads.ordered(solves, 1), workloads.ordered(solves, 2)
    assert [s.key for s in a] != [s.key for s in b]
    assert sorted(a, key=lambda s: s.key) == sorted(b, key=lambda s: s.key)


def test_every_solve_has_a_reference():
    for name in workloads.WORKLOAD_NAMES:
        for held_out in (False, True):
            assert all(s.key in REFS for s in workloads.build(name, held_out, REFS))


@pytest.mark.parametrize("key", ["battery/0/cost", "battery/1/risk", "battery/3/edarp-dt2"])
def test_gate_accepts_the_answer_and_rejects_a_perturbed_reference(key):
    solve = next(s for s in workloads.build("battery", False, REFS) if s.key == key)
    ref = REFS[key]
    assert ref["status"] == "Optimal"
    inst, rep = _solve(solve)
    assert workloads.check(solve, inst, rep, ref) is None
    moved = dict(ref, objective=ref["objective"] + 1e-3)
    assert "objective" in workloads.check(solve, inst, rep, moved)
    assert "status" in workloads.check(solve, inst, rep, {"status": "Infeasible", "objective": None})


def test_gate_rejects_tampered_routes():
    solve = next(s for s in workloads.build("battery", False, REFS) if s.key == "battery/1/cost")
    inst, rep = _solve(solve)
    ref = REFS[solve.key]
    late = rep.routes[0]
    late = replace(late, schedule=late.schedule[:1] + (late.schedule[1] + 500.0,) + late.schedule[2:])
    assert "infeasible" in workloads.check(solve, inst, replace(rep, routes=[late] + rep.routes[1:]), ref)
    assert "cover" in workloads.check(solve, inst, replace(rep, routes=rep.routes[1:]), ref)
    tight = replace(solve, cap=0.0)
    assert "exceeds cap" in workloads.check(tight, inst, rep, ref)


def test_traced_pass_matches_untraced_counts():
    solves = workloads.build("battery", False, REFS)[:20]
    plain = run.run_pass(solves, REFS, deadline=float("inf"))
    traced, tracer = run.traced_pass(solves, REFS, deadline=float("inf"))
    assert plain.failed == traced.failed == 0
    assert {k: traced.fingerprint[k] for k in plain.fingerprint} == plain.fingerprint
    metrics = layers.per_layer_metrics(tracer)
    assert set(metrics) | {"trace.overhead_s"} == set(layers.PER_LAYER)
    assert metrics["lp.calls"] == traced.fingerprint["lp.calls"] > 0
    assert metrics["pricing.exact_calls"] > 0
    solve_time = sum(s.end - s.start for s in tracer.spans if s.name == "solve")
    layer_sum = sum(lt.self_time for lt in layer_times(tracer.spans).values())
    assert layer_sum == pytest.approx(solve_time)


def test_benchmark_json_matches_the_metrics_printed():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOAD_NAMES)
