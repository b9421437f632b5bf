"""The solver's layers as the traced run sees them.

``install`` wraps each layer's public entry point where its caller looks it
up, and counts work at the same boundary. ``per_layer_metrics`` turns one
traced pass into the benchmark's per-layer metrics. Every ``*_s`` metric is
the layer's self time, so the layers add up to the traced wall time.
"""

from __future__ import annotations

import functools

from spans import Tracer, layer_times

ROOT_SPAN = "solve"  # opened by the benchmark around each solve

# metric name -> (unit, better)
PER_LAYER = {
    "pricing.heuristic_s": ("s", "lower"),
    "pricing.exact_s": ("s", "lower"),
    "pricing.heuristic_calls": ("count", "lower"),
    "pricing.exact_calls": ("count", "lower"),
    "pricing.cols_returned": ("count", "lower"),
    "pricing.labels_kept": ("count", "lower"),
    "pricing.exact_productive_ratio": ("ratio", "higher"),
    "master.build_rlmp_s": ("s", "lower"),
    "master.build_rlmp_calls": ("count", "lower"),
    "master.build_rlmp_cols": ("count", "lower"),
    "lp.solve_s": ("s", "lower"),
    "lp.calls": ("count", "lower"),
    "lp.nnz": ("count", "lower"),
    "master.extract_duals_s": ("s", "lower"),
    "cg.self_s": ("s", "lower"),
    "pool.add_s": ("s", "lower"),
    "pool.offered": ("count", "lower"),
    "pool.added": ("count", "lower"),
    "pool.accept_ratio": ("ratio", "higher"),
    "cuts.separate_s": ("s", "lower"),
    "cuts.calls": ("count", "lower"),
    "cuts.found": ("count", "lower"),
    "cuts.added": ("count", "lower"),
    "cuts.yield": ("ratio", "higher"),
    "bcp.branch_s": ("s", "lower"),
    "bcp.self_s": ("s", "lower"),
    "bcp.nodes": ("count", "lower"),
    "bcp.columns": ("count", "lower"),
    "instance.preprocess_s": ("s", "lower"),
    "master.seed_pool_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# span name -> per-layer time metric
SPAN_METRIC = {
    "pricing.heuristic": "pricing.heuristic_s",
    "pricing.exact": "pricing.exact_s",
    "master.build_rlmp": "master.build_rlmp_s",
    "lp.solve": "lp.solve_s",
    "master.extract_duals": "master.extract_duals_s",
    "master.column_generation": "cg.self_s",
    "pool.add": "pool.add_s",
    "cuts.separate": "cuts.separate_s",
    "bcp.branch": "bcp.branch_s",
    "bcp.solve": "bcp.self_s",
    "instance.preprocess": "instance.preprocess_s",
    "master.seed_pool": "master.seed_pool_s",
}


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points; ``tracer.restore()`` undoes it."""
    from rdarp import bcp, cuts, instance, lp, master

    t = tracer
    counts = t.counts
    pending = {"exact": False, "credited": False}

    def count_label(_line):
        counts["pricing.labels_kept"] += 1

    def pricing(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            heuristic = kwargs.get("heuristic", args[3] if len(args) > 3 else False)
            kind = "heuristic" if heuristic else "exact"
            if kwargs.get("trace") is None and len(args) < 7:
                kwargs["trace"] = count_label
            idx = t.open(f"pricing.{kind}")
            try:
                cols = fn(*args, **kwargs)
            finally:
                t.close(idx)
            counts[f"pricing.{kind}_calls"] += 1
            counts["pricing.cols_returned"] += len(cols)
            pending["exact"], pending["credited"] = not heuristic, False
            return cols

        return wrapper

    def count_add(_args, _kwargs, added):
        counts["pool.offered"] += 1
        if not added:
            return
        counts["pool.added"] += 1
        # credit the exact pricing run whose columns column generation is adding
        if (pending["exact"] and not pending["credited"]
                and t.current() == "master.column_generation"):
            counts["pricing.exact_productive"] += 1
            pending["credited"] = True

    def count_rlmp(args, _kwargs, _result):
        counts["master.build_rlmp_calls"] += 1
        counts["master.build_rlmp_cols"] += len(args[0])

    def count_lp(args, _kwargs, _result):
        counts["lp.calls"] += 1
        counts["lp.nnz"] += sum(len(row) for row in args[0].rows)

    def count_cuts(_args, _kwargs, found):
        counts["cuts.calls"] += 1
        counts["cuts.found"] += len(found)

    def count_solve(_args, _kwargs, rep):
        counts["bcp.nodes"] += rep.nodes_explored
        counts["bcp.columns"] += rep.columns
        counts["cuts.added"] += rep.cuts

    t.patch(instance, "preprocess", t.timed("instance.preprocess"))
    t.patch(bcp, "solve", t.timed("bcp.solve", count_solve))
    t.patch(bcp, "seed_pool", t.timed("master.seed_pool"))
    t.patch(bcp, "column_generation", t.timed("master.column_generation"))
    t.patch(bcp, "branch", t.timed("bcp.branch"))
    t.patch(cuts, "separate_all", t.timed("cuts.separate", count_cuts))
    t.patch(master, "build_rlmp", t.timed("master.build_rlmp", count_rlmp))
    t.patch(master, "extract_duals", t.timed("master.extract_duals"))
    t.patch(master, "solve_pricing", pricing)
    t.patch(master.ColumnPool, "add", t.timed("pool.add", count_add))
    # RestrictedMaster.solve imports solve_lp_warm from the module at call time
    t.patch(lp, "solve_lp_warm", t.timed("lp.solve", count_lp))


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced pass, without ``trace.overhead_s``."""
    times = layer_times(tracer.spans)
    c = tracer.counts
    out = {metric: times[span].self_time if span in times else 0.0
           for span, metric in SPAN_METRIC.items()}
    out.update({name: c[name] for name, (unit, _) in PER_LAYER.items() if unit == "count"})
    out["pricing.exact_productive_ratio"] = _ratio(c["pricing.exact_productive"], c["pricing.exact_calls"])
    out["pool.accept_ratio"] = _ratio(c["pool.added"], c["pool.offered"])
    out["cuts.yield"] = _ratio(c["cuts.added"], c["cuts.found"])
    return out


def shares(tracer: Tracer) -> dict[str, dict]:
    """Self time, share of the traced solve time and calls, per span name."""
    times = layer_times(tracer.spans)
    wall = times[ROOT_SPAN].total if ROOT_SPAN in times else 0.0
    return {name: {"self_s": lt.self_time, "share": _ratio(lt.self_time, wall), "calls": lt.calls}
            for name, lt in sorted(times.items(), key=lambda kv: -kv[1].self_time)}
