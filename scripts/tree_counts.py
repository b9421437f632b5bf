#!/usr/bin/env python3
"""Count the work of four branch-and-price solves, one JSON line each.

    python3 scripts/tree_counts.py

The cases are larger than the benchmark's workloads and branch or sweep:

- ``capped-n16``: ``benchmark_like_instance(2, n=16, fleet_size=3)``, cost,
  ``eps_risk=10``.
- ``capped-n16-certify``: the same solve with ``certify_risk=True``, which
  also lowers the routes' peak exposure as far as that cost allows
  (``rdarp solve --certify-risk``).
- ``budgeted-risk``: ``random_instance(1, n=7, fleet_size=2, window=90)``,
  the risk objective within 1.05 times the minimum cost (that cost solve is
  run first and not counted).
- ``root-n14-held-out``: ``benchmark_like_instance(4, n=14, fleet_size=3)``,
  cost, uncapped.

Each line gives the status, objective, nodes, columns, ``calibration.extend``
calls, pricing runs (heuristic and exact), master LP solves
(``lp.solve_lp_warm`` calls) and the wall time of the solve.
Counts are the firm signal; a single wall time on a shared machine is not.
It imports the solver from the ``src/`` of its own checkout and needs only
the standard library.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rdarp import bcp, calibration, lp, master  # noqa: E402
from rdarp.fixtures import benchmark_like_instance, random_instance  # noqa: E402
from rdarp.instance import preprocess  # noqa: E402

BUDGET_FACTOR = 1.05


def counted_solve(inst, mode, options) -> dict:
    """``bcp.solve`` with ``calibration.extend``, ``master.solve_pricing``
    and ``lp.solve_lp_warm`` wrapped to count their calls."""
    counts = {"extend": 0, "heuristic": 0, "exact": 0, "lp": 0}
    extend, pricing, solve_lp_warm = calibration.extend, master.solve_pricing, lp.solve_lp_warm

    def counting_extend(*args, **kwargs):
        counts["extend"] += 1
        return extend(*args, **kwargs)

    def counting_pricing(*args, **kwargs):
        counts["heuristic" if kwargs.get("heuristic") else "exact"] += 1
        return pricing(*args, **kwargs)

    def counting_lp(*args, **kwargs):
        counts["lp"] += 1
        return solve_lp_warm(*args, **kwargs)

    calibration.extend, master.solve_pricing = counting_extend, counting_pricing
    lp.solve_lp_warm = counting_lp
    try:
        start = time.perf_counter()
        rep = bcp.solve(inst, mode, options)
        wall = time.perf_counter() - start
    finally:
        calibration.extend, master.solve_pricing = extend, pricing
        lp.solve_lp_warm = solve_lp_warm
    return {"status": rep.status, "objective": round(rep.objective, 4),
            "nodes": rep.nodes_explored, "columns": rep.columns,
            "extend_calls": counts["extend"], "heuristic_runs": counts["heuristic"],
            "exact_runs": counts["exact"], "lp_solves": counts["lp"],
            "wall_s": round(wall, 3)}


def main() -> int:
    capped = preprocess(benchmark_like_instance(2, n=16, fleet_size=3))
    budgeted = preprocess(random_instance(1, n=7, fleet_size=2, window=90.0))
    held_out = preprocess(benchmark_like_instance(4, n=14, fleet_size=3))
    budget = BUDGET_FACTOR * bcp.solve(budgeted, master.COST).objective
    cases = [
        ("capped-n16", capped, master.COST, bcp.SolveOptions(eps_risk=10.0)),
        ("capped-n16-certify", capped, master.COST,
         bcp.SolveOptions(eps_risk=10.0, certify_risk=True)),
        ("budgeted-risk", budgeted, master.RISK, bcp.SolveOptions(eps_cost=budget)),
        ("root-n14-held-out", held_out, master.COST, bcp.SolveOptions()),
    ]
    for name, inst, mode, options in cases:
        print(json.dumps({"case": name, **counted_solve(inst, mode, options)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
