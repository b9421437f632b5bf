"""Rounded capacity cuts separated at a fractional root.

For a set S of request nodes, every feasible integer solution leaves S at
least ``max(1, ceil(load of the pick-ups outside S whose drop-off is in S /
capacity), ceil(-load of the drop-offs outside S whose pick-up is in S /
capacity))`` times (Ropke, Cordeau & Laporte 2007). So the cuts tighten the
relaxation without cutting off optima. A cut is an ``ExtraRow`` named by its
family and nodes, e.g. ``RoundedCapacity(1,2,4)``, so the name is the same in
every process and equal names mean the same cut.
"""

from __future__ import annotations

import math

from .instance import Instance
from .lp import GE
from .master import ExtraRow

VIOLATION_TOL = 1e-4
MAX_CUTS_PER_ROUND = 100
MAX_SET_SIZE = 4

ROUNDED_CAPACITY = "RoundedCapacity"


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


def crossing_arcs(inst: Instance, node_set) -> tuple[tuple[tuple[int, int], float], ...]:
    """Unit coefficients of the allowed arcs leaving ``node_set``."""
    out = []
    for i in sorted(node_set):
        for j in range(inst.n_nodes):
            if j not in node_set and j != i and inst.arc_allowed(i, j):
                out.append(((i, j), 1.0))
    return tuple(out)


def separate_all(flows, inst: Instance) -> list[ExtraRow]:
    """Rounded capacity cuts the flows violate, over the candidate sets of
    ``_candidate_sets``, at most ``MAX_CUTS_PER_ROUND``."""
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
        name = f"{ROUNDED_CAPACITY}({','.join(map(str, sorted(node_set)))})"
        cuts.append(ExtraRow(name, GE, float(lo), crossing_arcs(inst, node_set)))
        if len(cuts) >= MAX_CUTS_PER_ROUND:
            break
    return cuts


