"""Regenerate ``perfbench/refs.json``, the answers the benchmark checks against.

    python3 perfbench/make_refs.py

Battery solves (main and held-out instance seeds) take their status and
objective from ``oracle.brute_force_solve``, which is exact for n <= 5 and
independent of the solver. The two single-instance workloads are too large
for brute force: their reference is the solver's certified optimum at the
commit that generated the file, so a later change that moves it fails the
gate. Takes about two minutes.
"""

from __future__ import annotations

import json
import math
import sys

import run
import workloads

INF = math.inf


def brute_force_ref(base, cap: float, mode: str) -> dict:
    from rdarp import oracle

    bf = oracle.brute_force_solve(base, eps_risk=cap, objective=mode)
    return {"status": bf.status, "objective": bf.objective if bf.status == "Optimal" else None}


def battery_refs(seeds) -> dict:
    solves = workloads.battery_solves(seeds, lambda _seed, base: brute_force_ref(base, INF, "risk"))
    return {s.key: brute_force_ref(s.base, s.cap, s.mode) for s in solves}


def solver_ref(solve: workloads.Solve) -> dict:
    from rdarp import bcp, instance

    rep = bcp.solve(instance.preprocess(solve.base), solve.mode, bcp.SolveOptions(**solve.options))
    if rep.status != "Optimal":
        raise SystemExit(f"{solve.key}: solver returned {rep.status}, no reference")
    return {"status": rep.status, "objective": rep.objective}


def main() -> int:
    run.load_rdarp()
    refs: dict = {}
    for seeds in (workloads.BATTERY_SEEDS, workloads.BATTERY_HELD_OUT_SEEDS):
        refs.update(battery_refs(seeds))
    for name in workloads.SINGLE_WORKLOADS:
        for held_out in (False, True):
            solve = workloads.single_solve(name, held_out)
            refs[solve.key] = solver_ref(solve)
            print(solve.key, refs[solve.key], file=sys.stderr)
    doc = {"source": {"commit": run.git_commit(), "src_sha256": run.source_digest()},
           "solves": refs}
    with open(workloads.REFS_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
