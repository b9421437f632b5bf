"""Workload definitions, seeded solve order and the correctness gate.

Every workload is a list of independent solves. A solve's inputs are fixed by
the workload (and ``held_out``); the run seed only shuffles the order in which
the solves run, so it changes no solve's work and no count fingerprint.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

INF = math.inf
OBJ_TOL = 1e-5      # solver vs. reference objective, as in the c3 acceptance test
ROUTE_TOL = 1e-6    # per-route cost, cap and objective recomputation
TIGHT_RISK_SLACK = 2.0
TIGHT_RISK_DEFAULT = 8.0

REFS_PATH = Path(__file__).resolve().parent / "refs.json"

BATTERY_SEEDS = range(0, 50)
BATTERY_HELD_OUT_SEEDS = range(50, 100)

# name -> (main, held-out), each (instance seed, n, fleet size, eps_risk)
SINGLE_WORKLOADS = {
    "root-n14": ((0, 14, 3, INF), (4, 14, 3, INF)),
}
WORKLOAD_NAMES = ("battery",) + tuple(SINGLE_WORKLOADS)


@dataclass(frozen=True)
class Solve:
    """One timed solve: ``preprocess(base)`` then ``bcp.solve`` in ``mode``.

    ``cap`` is the per-request bound the answer must respect: raw exposure
    for RDARP instances, detour rate for EDARP ones.
    """

    key: str
    base: object
    mode: str
    options: dict
    cap: float


def load_refs(path: Path = REFS_PATH) -> dict:
    """Reference answers by solve key (see make_refs.py)."""
    with open(path) as fh:
        return json.load(fh)["solves"]


def tight_cap(risk_ref: dict) -> float:
    """Cap of the tight-exposure regime, from the risk regime's reference."""
    if risk_ref["status"] == "Optimal":
        return risk_ref["objective"] + TIGHT_RISK_SLACK
    return TIGHT_RISK_DEFAULT


def battery_solves(seeds, risk_ref) -> list[Solve]:
    """The five regimes of the c3 oracle-equivalence battery per instance.

    ``risk_ref(seed, base)`` gives the reference answer of the risk regime,
    which sets the cap of the tight-exposure regime.
    """
    from rdarp.fixtures import random_instance
    from rdarp.instance import edarp_transform

    solves = []
    for seed in seeds:
        base = random_instance(seed, n=2 + seed % 3, fleet_size=1 + seed % 2)
        edarp = edarp_transform(base)
        tight = tight_cap(risk_ref(seed, base))
        solves += [
            Solve(f"battery/{seed}/cost", base, "cost", {}, INF),
            Solve(f"battery/{seed}/cost-tight", base, "cost", {"eps_risk": tight}, tight),
            Solve(f"battery/{seed}/risk", base, "risk", {}, INF),
            Solve(f"battery/{seed}/edarp-dt2", edarp, "cost", {"eps_dt": 2.0}, 2.0),
            Solve(f"battery/{seed}/edarp-dt4", edarp, "cost", {"eps_dt": 4.0}, 4.0),
        ]
    return solves


def single_solve(name: str, held_out: bool) -> Solve:
    from rdarp.fixtures import benchmark_like_instance

    seed, n, fleet, eps_risk = SINGLE_WORKLOADS[name][1 if held_out else 0]
    base = benchmark_like_instance(seed, n=n, fleet_size=fleet)
    options = {} if eps_risk == INF else {"eps_risk": eps_risk}
    return Solve(f"{name}/{seed}/eps{eps_risk:g}", base, "cost", options, eps_risk)


def build(name: str, held_out: bool, refs: dict) -> list[Solve]:
    """The workload's solves in canonical order."""
    if name == "battery":
        seeds = BATTERY_HELD_OUT_SEEDS if held_out else BATTERY_SEEDS
        return battery_solves(seeds, lambda seed, _base: refs[f"battery/{seed}/risk"])
    if name in SINGLE_WORKLOADS:
        return [single_solve(name, held_out)]
    raise ValueError(f"unknown workload {name!r}")


def ordered(solves: list[Solve], seed: int) -> list[Solve]:
    """The solves in the order the run seed gives."""
    out = list(solves)
    random.Random(seed).shuffle(out)
    return out


def check(solve: Solve, inst, rep, ref: dict) -> str | None:
    """Why ``rep`` is not a correct answer for ``solve``, or None when it is.

    ``inst`` is the preprocessed instance the solver saw. The answer must
    match the reference status and objective, and its routes must pass
    ``oracle.validate_route``, partition the requests, fit the fleet, respect
    the cap and add up to the reported objective.
    """
    from rdarp import oracle
    from rdarp.errors import RouteInfeasible
    from rdarp.instance import EDARP

    if rep.status != ref["status"]:
        return f"status {rep.status}, expected {ref['status']}"
    if ref["status"] == "Infeasible":
        return None
    if abs(rep.objective - ref["objective"]) > OBJ_TOL:
        return f"objective {rep.objective!r}, expected {ref['objective']!r}"
    edarp = inst.mode == EDARP
    covered: list[int] = []
    total_cost = peak = 0.0
    for r in rep.routes:
        try:
            oracle.validate_route(inst, r)
        except RouteInfeasible as exc:
            return f"route {r.sequence} infeasible: {exc}"
        if abs(r.cost - oracle.route_cost(inst, r.sequence)) > ROUTE_TOL:
            return f"route {r.sequence} cost {r.cost!r} does not match its arcs"
        covered.extend(r.requests)
        total_cost += r.cost
        for i, h in r.exposure.items():
            measure = h / inst.detour_weight[i - 1] if edarp else h
            if measure > solve.cap + ROUTE_TOL:
                return f"request {i} measure {measure!r} exceeds cap {solve.cap!r}"
            peak = max(peak, measure)
    if sorted(covered) != list(inst.pickups()):
        return f"routes cover {sorted(covered)}, not every request once"
    if len(rep.routes) > inst.fleet_size:
        return f"{len(rep.routes)} routes exceed the fleet of {inst.fleet_size}"
    achieved = total_cost if solve.mode == "cost" else peak
    if abs(achieved - rep.objective) > ROUTE_TOL:
        return f"routes give {achieved!r}, report says {rep.objective!r}"
    return None
