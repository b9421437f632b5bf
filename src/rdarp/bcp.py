"""Branch-cut-and-price tree: best-first search over column-generation
relaxations with vehicle-count, pair-outflow, and single-arc branching."""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, replace

from . import cuts as cuts_mod
from . import oracle
from .instance import EDARP, Instance
from .lp import GE, LE
from .master import (
    ARTIFICIAL_TOL,
    CGResult,
    ColumnPool,
    ExtraRow,
    INFEASIBLE_STATUS,
    INTEGRALITY_TOL,
    MasterSolution,
    OPTIMAL_STATUS,
    TIME_LIMIT_STATUS,
    column_generation,
    fractional,
    seed_pool,
)
from .pricing import COST, RISK, PricingRestrictions

INF = math.inf
PRUNE_TOL = 1e-6
MAX_CUT_ROUNDS = 20


@dataclass(frozen=True)
class BranchNode:
    """A tree node: its branching rows, which enter the master, and its
    restriction record, which binds both the master and pricing."""

    depth: int
    counter: int
    bound: float
    rows: tuple[ExtraRow, ...] = ()
    restrictions: PricingRestrictions = PricingRestrictions()

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
    infeasible_at_root: bool = False


@dataclass
class SolveOptions:
    eps_risk: float = INF
    eps_cost: float = INF
    eps_dt: float = INF
    time_limit: float | None = None
    cut_families: tuple[str, ...] = cuts_mod.FAMILIES
    use_heuristic_pricing: bool = True


CAPS = ("eps_risk", "eps_cost", "eps_dt")


def enforced_cap(inst: Instance, mode: str) -> str:
    """The one cap of ``CAPS`` a solve in ``mode`` enforces: the cost cap
    ``eps_cost`` on the risk objective; on the cost objective the cap on
    ``inst.exposure_measure`` (``Instance.measure_cap``), which is the
    detour-rate cap ``eps_dt`` on an EDARP instance and the exposure cap
    ``eps_risk`` otherwise."""
    if mode == RISK:
        return "eps_cost"
    return "eps_dt" if inst.mode == EDARP else "eps_risk"


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
        if fractional(v):
            score = abs(v - 0.5)
            if best is None or score < best[0] - 1e-12:
                best = (score, arc, v)
    return best


def branch(inst: Instance, node: BranchNode, msol: MasterSolution, counter) -> tuple[BranchNode, BranchNode] | None:
    """Two children per the rule hierarchy, or None when the LP is integral
    (``MasterSolution.integral``)."""
    if msol.integral:
        return None

    def child(row: ExtraRow | None = None, restrictions: PricingRestrictions | None = None):
        return BranchNode(node.depth + 1, next(counter), msol.objective,
                          node.rows + (() if row is None else (row,)),
                          restrictions or node.restrictions)

    total = msol.vehicle_count()
    if fractional(total):
        lo, hi = math.floor(total), math.ceil(total)
        return (child(ExtraRow(f"veh<= {lo}", LE, float(lo), route_constant=1.0)),
                child(ExtraRow(f"veh>={hi}", GE, float(hi), route_constant=1.0)))
    pair = _pair_candidates(inst, msol)
    if pair is not None:
        _, (a, b), _ = pair
        arcs = cuts_mod.crossing_arcs(inst, {a, b})
        capped = node.restrictions.crossing_caps + ((frozenset(arc for arc, _ in arcs), 1),)
        return (child(ExtraRow(f"out({a},{b})<=1", LE, 1.0, arc_coefs=arcs),
                      replace(node.restrictions, crossing_caps=capped)),
                child(ExtraRow(f"out({a},{b})>=2", GE, 2.0, arc_coefs=arcs)))
    _, (i, j), _ = _arc_candidate(msol)
    banned = node.restrictions.banned_arcs | {(i, j)}
    return (child(restrictions=replace(node.restrictions, banned_arcs=banned)),
            child(ExtraRow(f"arc({i},{j})>=1", GE, 1.0, arc_coefs=(((i, j), 1.0),))))


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

    The column pool is shared tree-wide. A node's branching rows enter the
    master; its restriction record (``BranchNode.restrictions``) is passed
    once to ``column_generation``, where the master fixes every pool column
    it bars to zero and pricing emits none. Cuts are separated at the root
    until none are violated, then frozen.

    Raises ``ValueError``, before any LP is built, on a negative cap (its
    master rows carry no artificial, so the master LP itself would be
    infeasible) and on a finite cap other than ``enforced_cap``, which the
    solve would ignore.
    """
    opts = options or SolveOptions()
    enforced = enforced_cap(inst, mode)
    for name in CAPS:
        value = getattr(opts, name)
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
        if value < INF and name != enforced:
            raise ValueError(f"a {mode} solve on this {inst.mode} instance enforces only "
                             f"{enforced}, not {name}={value}")
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

    def run_cg(node: BranchNode) -> CGResult:
        return column_generation(
            inst, pool, mode,
            eps_risk=opts.eps_risk, eps_cost=opts.eps_cost, eps_dt=opts.eps_dt,
            extra_rows=tuple(cut_rows) + node.rows,
            restrictions=node.restrictions,
            use_heuristic_pricing=opts.use_heuristic_pricing,
            deadline=deadline,
        )

    root = BranchNode(0, next(counter), -INF)
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
        active = {c.name for c in cut_rows}
        violated = [c for c in cuts_mod.separate_all(flows, inst, opts.cut_families)
                    if c.violation(flows) > cuts_mod.VIOLATION_TOL and c.name not in active]
        if not violated:
            break
        cut_rows.extend(violated)
        res = run_cg(root)
        if res.status == INFEASIBLE_STATUS:
            return SolveReport(INFEASIBLE_STATUS, INF, INF, 0.0, [], nodes_explored,
                               len(pool), len(cut_rows), infeasible_at_root=True)

    incumbent: list[oracle.Route] | None = None
    best_value = INF
    heap: list[tuple[tuple, BranchNode, CGResult]] = []

    def take_incumbent(msol: MasterSolution) -> bool:
        """Take an integral, artificial-free master as incumbent when it
        improves on the one held. Returns whether the master was integral
        and artificial-free."""
        nonlocal incumbent, best_value
        if msol.artificial_total > ARTIFICIAL_TOL or not msol.integral:
            return False
        routes = [col for col, value in msol.columns_used if value > 0.5]
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
        node = replace(node, bound=result.bound)
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
                           len(pool), len(cut_rows))
    gap = max(0.0, (best_value - best_bound) / max(abs(best_value), 1e-9))
    if timed_out and gap > 1e-6:
        status = TIME_LIMIT_STATUS
    elif gap <= 1e-6:
        status = OPTIMAL_STATUS
        gap = 0.0
    else:
        status = "Feasible"
    return SolveReport(status, best_value, best_bound, gap, incumbent,
                       nodes_explored, len(pool), len(cut_rows))
