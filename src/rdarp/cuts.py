"""Valid inequalities separated at a fractional root.

Three families over aggregated arc flows: tournament-style infeasible-path
elimination, two-path cuts on sets no single vehicle can serve, and rounded
capacity cuts. All are satisfied by every feasible integer solution, so they
tighten the relaxation without cutting off optima. A cut is an ``ExtraRow``
named by its family and nodes, e.g. ``TwoPath(1,2,4)``, so the name is the
same in every process and equal names mean the same cut.
"""

from __future__ import annotations

import math
from dataclasses import replace

from . import oracle
from .instance import Instance
from .lp import GE, LE
from .master import ExtraRow

INF = math.inf
VIOLATION_TOL = 1e-4
MAX_CUTS_PER_ROUND = 100
MAX_PATH_ARCS = 6
MAX_SET_SIZE = 4

IPEC = "IPEC"
STRENGTHENED_IPEC = "StrengthenedIPEC"
TWO_PATH = "TwoPath"
ROUNDED_CAPACITY = "RoundedCapacity"

FAMILIES = ("ipec", "2pc", "rc")  # names of the separators ``separate_all`` runs


def _cut(kind: str, nodes, arc_coefs, sense: str, rhs: float) -> ExtraRow:
    return ExtraRow(f"{kind}({','.join(str(v) for v in nodes)})", sense, rhs, arc_coefs)


# ---------------------------------------------------------------------------
# Infeasible-path elimination
# ---------------------------------------------------------------------------

def _subpath_infeasible(inst: Instance, path: tuple[int, ...]) -> tuple[bool, bool]:
    """(infeasible, ride_driven) for a contiguous request-node path.

    Checks are necessary conditions for any feasible trip containing the path
    contiguously: earliest-time windows, raw travel against ride caps, and a
    load lower bound from drop-offs whose pick-up precedes the path."""
    n = inst.n
    # capacity lower bound
    picked = set()
    base = 0.0
    for v in path:
        if inst.is_dropoff(v) and (v - n) not in picked:
            base += inst.load[v - n]
        elif inst.is_pickup(v):
            picked.add(v)
    load = base
    for v in path:
        load += inst.load[v]
        if load > inst.capacity + 1e-9:
            return True, False
    # earliest-forward windows
    t = inst.early[path[0]]
    for prev, v in zip(path[:-1], path[1:]):
        t = max(t + inst.service[prev] + inst.t(prev, v), inst.early[v])
        if t > inst.late[v] + 1e-9:
            return True, False
    # ride caps on pairs fully inside the path: the chain time is a lower
    # bound on the ride no matter how the schedule is delayed
    pos = {v: k for k, v in enumerate(path)}
    for v in path:
        if inst.is_pickup(v) and (v + n) in pos and pos[v + n] > pos[v]:
            chain = 0.0
            for k in range(pos[v], pos[v + n]):
                chain += inst.service[path[k]] + inst.t(path[k], path[k + 1])
            if chain - inst.service[v] > inst.max_ride[v - 1] + 1e-9:
                ride_driven = v == path[0] and (v + n) == path[-1]
                return True, ride_driven
    return False, False


def separate_ipec(flows: dict[tuple[int, int], float], inst: Instance) -> list[ExtraRow]:
    """Enumerate flow-supported request-node paths up to six arcs; emit the
    tournament inequality for every infeasible one violated by the flows."""
    support: dict[int, list[tuple[int, float]]] = {}
    for (i, j), v in flows.items():
        if v > 1e-9 and 1 <= i <= 2 * inst.n and 1 <= j <= 2 * inst.n:
            support.setdefault(i, []).append((j, v))
    for i in support:
        support[i].sort()
    cuts: dict[str, ExtraRow] = {}

    def walk(path: list[int], flow_sum: float):
        if len(cuts) >= MAX_CUTS_PER_ROUND:
            return
        arcs = len(path) - 1
        if arcs >= 1:
            infeasible, ride_driven = _subpath_infeasible(inst, tuple(path))
            if infeasible:
                strengthened = (
                    ride_driven
                    and inst.is_pickup(path[0])
                    and path[-1] == path[0] + inst.n
                )
                rhs = arcs - 2.0 if strengthened else arcs - 1.0
                if flow_sum > rhs + VIOLATION_TOL:
                    arc_list = tuple(((a, b), 1.0) for a, b in zip(path[:-1], path[1:]))
                    kind = STRENGTHENED_IPEC if strengthened else IPEC
                    cut = _cut(kind, path, arc_list, LE, rhs)
                    cuts.setdefault(cut.name, cut)
                return  # extensions of an infeasible path add nothing stronger
        if arcs >= MAX_PATH_ARCS:
            return
        for j, v in support.get(path[-1], ()):  # deterministic order
            if j in path:
                continue
            walk(path + [j], flow_sum + v)

    for start in sorted(support):
        walk([start], 0.0)
        if len(cuts) >= MAX_CUTS_PER_ROUND:
            break
    return list(cuts.values())[:MAX_CUTS_PER_ROUND]


# ---------------------------------------------------------------------------
# Two-path and rounded capacity
# ---------------------------------------------------------------------------

def _outflow(flows, node_set) -> float:
    return sum(v for (i, j), v in flows.items() if i in node_set and j not in node_set)


def _candidate_sets(flows, inst) -> list[frozenset[int]]:
    """Constructive growth from flow-adjacent seed pairs, sizes 2 to 4."""
    request_nodes = set(range(1, 2 * inst.n + 1))
    adjacency: dict[int, dict[int, float]] = {}
    for (i, j), v in flows.items():
        if v > 1e-9 and i in request_nodes and j in request_nodes:
            row_i = adjacency.setdefault(i, {})
            row_i[j] = row_i.get(j, 0.0) + v
            row_j = adjacency.setdefault(j, {})
            row_j[i] = row_j.get(i, 0.0) + v
    seen: set[frozenset[int]] = set()
    out = []
    for i in sorted(adjacency):
        for j in sorted(adjacency[i]):
            if j <= i:
                continue
            current = {i, j}
            key = frozenset(current)
            if key not in seen:
                seen.add(key)
                out.append(key)
            while len(current) < MAX_SET_SIZE:
                best, best_v = None, 0.0
                for v_node in sorted(current):
                    for cand, w in sorted(adjacency.get(v_node, {}).items()):
                        if cand in current:
                            continue
                        if w > best_v + 1e-12:
                            best, best_v = cand, w
                if best is None:
                    break
                current.add(best)
                key = frozenset(current)
                if key not in seen:
                    seen.add(key)
                    out.append(key)
    return out


def _single_vehicle_feasible(inst: Instance, requests: frozenset[int]) -> bool:
    """Can one trip serve all given requests? True when
    ``oracle.feasible_routes`` finds any calibrated route over exactly these
    requests; the search stops at the first one. Risk caps (the cumulative
    cap ``q_max``) are lifted so the answer stays valid under any exposure
    bound."""
    relaxed = replace(inst, q_max=INF)
    return next(oracle.feasible_routes(relaxed, tuple(sorted(requests))), None) is not None


def crossing_arcs(inst: Instance, node_set) -> tuple[tuple[tuple[int, int], float], ...]:
    """Unit coefficients of the allowed arcs leaving ``node_set``."""
    out = []
    for i in sorted(node_set):
        for j in range(inst.n_nodes):
            if j not in node_set and j != i and inst.arc_allowed(i, j):
                out.append(((i, j), 1.0))
    return tuple(out)


def separate_two_path(flows, inst: Instance) -> list[ExtraRow]:
    """Two-path cuts on candidate node sets whose requests no single vehicle
    can serve. Node sets over the same requests share one feasibility check."""
    cuts = []
    servable: dict[frozenset[int], bool] = {}
    for node_set in _candidate_sets(flows, inst):
        if _outflow(flows, node_set) >= 2.0 - VIOLATION_TOL:
            continue
        requests = frozenset(inst.request_of(v) for v in node_set)
        if requests not in servable:
            servable[requests] = _single_vehicle_feasible(inst, requests)
        if servable[requests]:
            continue
        cuts.append(_cut(TWO_PATH, sorted(node_set), crossing_arcs(inst, node_set), GE, 2.0))
        if len(cuts) >= MAX_CUTS_PER_ROUND:
            break
    return cuts


def separate_rounded_capacity(flows, inst: Instance) -> list[ExtraRow]:
    cuts = []
    for node_set in _candidate_sets(flows, inst):
        pred = [i for i in inst.pickups() if i not in node_set and (i + inst.n) in node_set]
        succ = [i + inst.n for i in inst.pickups() if i in node_set and (i + inst.n) not in node_set]
        lo = max(
            1.0,
            math.ceil(sum(inst.load[i] for i in pred) / inst.capacity - 1e-9),
            math.ceil(-sum(inst.load[j] for j in succ) / inst.capacity - 1e-9),
        )
        if _outflow(flows, node_set) >= lo - VIOLATION_TOL:
            continue
        cuts.append(_cut(ROUNDED_CAPACITY, sorted(node_set), crossing_arcs(inst, node_set),
                         GE, float(lo)))
        if len(cuts) >= MAX_CUTS_PER_ROUND:
            break
    return cuts


def separate_all(flows, inst: Instance, families=FAMILIES) -> list[ExtraRow]:
    cuts: list[ExtraRow] = []
    if "ipec" in families:
        cuts.extend(separate_ipec(flows, inst))
    if "2pc" in families:
        cuts.extend(separate_two_path(flows, inst))
    if "rc" in families:
        cuts.extend(separate_rounded_capacity(flows, inst))
    unique: dict[str, ExtraRow] = {}
    for c in cuts:
        unique.setdefault(c.name, c)
    return list(unique.values())[:MAX_CUTS_PER_ROUND]
