"""Branch-cut-and-price tree: best-first search over column-generation
relaxations with vehicle-count, pair-outflow, and single-arc branching."""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass

from . import cuts as cuts_mod
from . import oracle
from .instance import Instance
from .lp import GE, LE
from .master import (
    CGResult,
    ColumnPool,
    ExtraRow,
    INFEASIBLE_STATUS,
    MasterSolution,
    OPTIMAL_STATUS,
    TIME_LIMIT_STATUS,
    column_generation,
    seed_pool,
)
from .pricing import COST, PricingRestrictions

INF = math.inf
INTEGRALITY_TOL = 1e-6
PRUNE_TOL = 1e-6
MAX_CUT_ROUNDS = 20


@dataclass(frozen=True)
class BranchNode:
    depth: int
    counter: int
    bound: float
    rows: tuple[ExtraRow, ...]
    banned_arcs: frozenset[tuple[int, int]]
    crossing_caps: tuple[tuple[frozenset[tuple[int, int]], int], ...]
    used_fallback: bool = False

    def sort_key(self):
        return (self.bound, -self.depth, self.counter)


@dataclass
class SolveReport:
    status: str
    objective: float
    bound: float
    gap: float
    routes: list[oracle.Route]
    nodes_explored: int
    columns: int
    cuts: int
    used_fallback_branching: bool = False
    infeasible_at_root: bool = False


@dataclass
class SolveOptions:
    eps_risk: float = INF
    eps_cost: float = INF
    eps_dt: float = INF
    time_limit: float | None = None
    cut_families: tuple[str, ...] = ("ipec", "2pc", "rc")
    use_heuristic_pricing: bool = True
    engine: str | None = None


def _pair_candidates(inst: Instance, msol: MasterSolution):
    """2-node subsets of the fractional support with outflow strictly inside
    (1, 2), ranked by closeness to 1.5."""
    flows = msol.arc_flows()
    nodes = sorted({v for (i, j) in flows for v in (i, j) if 1 <= v <= 2 * inst.n})
    best = None
    for a, b in itertools.combinations(nodes, 2):
        pair = {a, b}
        out = sum(v for (i, j), v in flows.items() if i in pair and j not in pair)
        if 1.0 + INTEGRALITY_TOL < out < 2.0 - INTEGRALITY_TOL:
            score = abs(out - 1.5)
            if best is None or score < best[0] - 1e-12:
                best = (score, (a, b), out)
    return best


def _arc_candidate(msol: MasterSolution):
    best = None
    for arc, v in sorted(msol.arc_flows().items()):
        frac = abs(v - round(v))
        if frac > INTEGRALITY_TOL:
            score = abs(v - 0.5)
            if best is None or score < best[0] - 1e-12:
                best = (score, arc, v)
    return best


def _integral(msol: MasterSolution) -> bool:
    """Whether the tree treats the master as integral: every λ is, or no
    arc flow is fractional. The second test catches λ that miss
    ``INTEGRALITY_TOL`` by tolerance dust while every aggregated arc flow
    meets it; then the columns with λ above 0.5 form the solution."""
    return msol.integral or _arc_candidate(msol) is None


def branch(inst: Instance, node: BranchNode, msol: MasterSolution, counter) -> tuple[BranchNode, BranchNode] | None:
    """Two children per the rule hierarchy, or None when the LP is integral
    (``_integral``)."""
    if _integral(msol):
        return None
    total = msol.vehicle_count()
    if abs(total - round(total)) > INTEGRALITY_TOL:
        lo, hi = math.floor(total), math.ceil(total)
        left = BranchNode(node.depth + 1, next(counter), msol.objective,
                          node.rows + (ExtraRow(f"veh<= {lo}", LE, float(lo), route_constant=1.0),),
                          node.banned_arcs, node.crossing_caps, node.used_fallback)
        right = BranchNode(node.depth + 1, next(counter), msol.objective,
                           node.rows + (ExtraRow(f"veh>={hi}", GE, float(hi), route_constant=1.0),),
                           node.banned_arcs, node.crossing_caps, node.used_fallback)
        return left, right
    pair = _pair_candidates(inst, msol)
    if pair is not None:
        _, (a, b), _ = pair
        node_set = {a, b}
        arcs = tuple(((i, j), 1.0)
                     for i in sorted(node_set)
                     for j in range(inst.n_nodes)
                     if j not in node_set and j != i and inst.arc_allowed(i, j))
        arc_set = frozenset(arc for arc, _ in arcs)
        left = BranchNode(node.depth + 1, next(counter), msol.objective,
                          node.rows + (ExtraRow(f"out({a},{b})<=1", LE, 1.0, arc_coefs=arcs),),
                          node.banned_arcs,
                          node.crossing_caps + ((arc_set, 1),), node.used_fallback)
        right = BranchNode(node.depth + 1, next(counter), msol.objective,
                           node.rows + (ExtraRow(f"out({a},{b})>=2", GE, 2.0, arc_coefs=arcs),),
                           node.banned_arcs, node.crossing_caps, node.used_fallback)
        return left, right
    _, (i, j), _ = _arc_candidate(msol)
    left = BranchNode(node.depth + 1, next(counter), msol.objective, node.rows,
                      node.banned_arcs | {(i, j)}, node.crossing_caps, True)
    right = BranchNode(node.depth + 1, next(counter), msol.objective,
                       node.rows + (ExtraRow(f"arc({i},{j})>=1", GE, 1.0, arc_coefs=(((i, j), 1.0),)),),
                       node.banned_arcs, node.crossing_caps, True)
    return left, right


def _fixed_zero(pool: ColumnPool, node: BranchNode) -> frozenset[int]:
    out = set()
    for k, col in enumerate(pool.columns):
        arcs = col.arcs()
        if any(a in node.banned_arcs for a in arcs):
            out.add(k)
            continue
        for arc_set, cap in node.crossing_caps:
            if sum(1 for a in arcs if a in arc_set) > cap:
                out.add(k)
                break
    return frozenset(out)


def _extract_routes(pool: ColumnPool, msol: MasterSolution) -> list[oracle.Route]:
    routes = []
    for col, value in msol.columns_used:
        if value > 0.5:
            routes.append(oracle.Route(col.sequence, col.schedule, col.cost,
                                       col.exposure, col.q_terminal))
    return routes


def incumbent_value(inst: Instance, routes: list[oracle.Route], mode: str) -> float:
    if mode == COST:
        return sum(r.cost for r in routes)
    peak = 0.0
    for r in routes:
        for i, h in r.exposure.items():
            peak = max(peak, inst.exposure_measure(i, h))
    return peak


def solve(inst: Instance, mode: str = COST, options: SolveOptions | None = None,
          pool: ColumnPool | None = None) -> SolveReport:
    """Certified minimum (cost or peak exposure) via branch-cut-and-price.

    The column pool is shared tree-wide; per-node restrictions are applied by
    fixing violating columns to zero and filtering pricing emissions. Cuts are
    separated at the root until none are violated, then frozen.
    """
    opts = options or SolveOptions()
    cap = inst.measure_cap(opts.eps_risk, opts.eps_dt)
    t_start = time.perf_counter()
    deadline = None if opts.time_limit is None else t_start + opts.time_limit

    if pool is None:
        pool = ColumnPool(inst)
    if len(pool) == 0:
        bad = seed_pool(pool, inst)
        if bad:
            return SolveReport(INFEASIBLE_STATUS, INF, INF, 0.0, [], 0, len(pool), 0,
                               infeasible_at_root=True)

    counter = itertools.count()
    cut_rows: list[ExtraRow] = []
    active_cuts: list[cuts_mod.Cut] = []

    def run_cg(node: BranchNode) -> CGResult:
        return column_generation(
            inst, pool, mode,
            eps_risk=opts.eps_risk, eps_cost=opts.eps_cost, eps_dt=opts.eps_dt,
            extra_rows=tuple(cut_rows) + node.rows,
            restrictions=PricingRestrictions(
                banned_arcs=node.banned_arcs, crossing_caps=node.crossing_caps),
            fixed_zero=_fixed_zero(pool, node),
            use_heuristic_pricing=opts.use_heuristic_pricing,
            deadline=deadline,
            engine=opts.engine,
        )

    root = BranchNode(0, next(counter), -INF, (), frozenset(), ())
    res = run_cg(root)
    nodes_explored = 1
    if res.status == INFEASIBLE_STATUS:
        return SolveReport(INFEASIBLE_STATUS, INF, INF, 0.0, [], nodes_explored,
                           len(pool), 0, infeasible_at_root=True)

    # root cut loop: separate after each converged CG until nothing is violated
    rounds = 0
    while res.status == OPTIMAL_STATUS and rounds < MAX_CUT_ROUNDS:
        rounds += 1
        flows = res.solution.arc_flows()
        violated = [c for c in cuts_mod.separate_all(flows, inst, opts.cut_families)
                    if c.violation(flows) > cuts_mod.VIOLATION_TOL
                    and c.key not in {a.key for a in active_cuts}]
        if not violated:
            break
        active_cuts.extend(violated)
        cut_rows = [c.to_row() for c in active_cuts]
        res = run_cg(root)
        if res.status == INFEASIBLE_STATUS:
            return SolveReport(INFEASIBLE_STATUS, INF, INF, 0.0, [], nodes_explored,
                               len(pool), len(active_cuts), infeasible_at_root=True)

    incumbent: list[oracle.Route] | None = None
    best_value = INF
    used_fallback = False
    heap: list[tuple[tuple, BranchNode, CGResult]] = []

    def take_incumbent(msol: MasterSolution) -> bool:
        """Take an integral, artificial-free master as incumbent when it
        improves on the one held. Returns whether the master was integral
        and artificial-free."""
        nonlocal incumbent, best_value
        if msol.artificial_total > 1e-6 or not _integral(msol):
            return False
        routes = _extract_routes(pool, msol)
        value = incumbent_value(inst, routes, mode)
        if value < best_value - PRUNE_TOL:
            oracle.validate_solution(inst, routes, cap)
            incumbent = routes
            best_value = value
        return True

    def offer(node: BranchNode, result: CGResult):
        """Offer the master as incumbent, and keep the node open unless its
        column generation converged at an integral master. A timed-out
        result (only the root's reaches here) stays open with its bound of
        -inf: the relaxation is unsolved, whatever the master looks like."""
        if result.status == INFEASIBLE_STATUS:
            return
        node = BranchNode(node.depth, node.counter, result.bound, node.rows,
                          node.banned_arcs, node.crossing_caps, node.used_fallback)
        if take_incumbent(result.solution) and result.status != TIME_LIMIT_STATUS:
            return
        heapq.heappush(heap, (node.sort_key(), node, result))

    offer(root, res)
    timed_out = res.status == TIME_LIMIT_STATUS

    while heap and not timed_out:
        _, node, result = heapq.heappop(heap)
        if result.bound >= best_value - PRUNE_TOL:
            continue
        children = branch(inst, node, result.solution, counter)
        if children is None:
            continue
        for child in children:
            if child.used_fallback:
                used_fallback = True
            if deadline is not None and time.perf_counter() > deadline:
                timed_out = True
                heapq.heappush(heap, (child.sort_key(), child, result))
                continue
            child_res = run_cg(child)
            nodes_explored += 1
            if child_res.status == TIME_LIMIT_STATUS:
                # the child stays open with its parent's bound, but a
                # feasible master it already holds is still a solution
                timed_out = True
                take_incumbent(child_res.solution)
                heapq.heappush(heap, (child.sort_key(), child, result))
                continue
            if child_res.status == INFEASIBLE_STATUS:
                continue
            if child_res.bound >= best_value - PRUNE_TOL:
                continue
            offer(child, child_res)

    open_bounds = [result.bound for _, _, result in heap]
    best_bound = min(open_bounds + [best_value]) if (open_bounds or incumbent is not None) else INF

    if incumbent is None:
        status = TIME_LIMIT_STATUS if timed_out else INFEASIBLE_STATUS
        return SolveReport(status, INF, best_bound, INF, [], nodes_explored,
                           len(pool), len(active_cuts), used_fallback)
    gap = max(0.0, (best_value - best_bound) / max(abs(best_value), 1e-9))
    if timed_out and gap > 1e-6:
        status = TIME_LIMIT_STATUS
    elif gap <= 1e-6:
        status = OPTIMAL_STATUS
        gap = 0.0
    else:
        status = "Feasible"
    return SolveReport(status, best_value, best_bound, gap, incumbent,
                       nodes_explored, len(pool), len(active_cuts), used_fallback)
