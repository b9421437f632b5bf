"""Branch-cut-and-price tree: best-first search over column-generation
relaxations, branching on the vehicle count and then on single arcs.

Both rules keep pricing exact. A vehicle-count row's dual is route-constant
and folds into ``DualValues.mu``. An arc is branched by banning it in one
child, which pricing honours by never extending along it, and by an
``arc(i,j)>=1`` row in the other, whose dual folds into the arc's cost
(Lübbecke & Desrosiers 2005). The rules are complete: ``branch`` runs only on
a master that is not ``MasterSolution.integral``, so some arc flow is
fractional, and every arc flow is at most 1, so each ``arc>=1`` child fixes
its arc to 1 and the tree is finite."""

from __future__ import annotations

import heapq
import itertools
import logging
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
    MasterSolution,
    OPTIMAL_STATUS,
    TIME_LIMIT_STATUS,
    column_generation,
    fractional,
    seed_pool,
)
from .pricing import COST, RISK

INF = math.inf
PRUNE_TOL = 1e-6
MAX_CUT_ROUNDS = 20

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BranchNode:
    """A tree node: its branching rows, which enter the master, and the arcs
    its subtree bans, which bind both the master and pricing."""

    depth: int
    counter: int
    bound: float
    rows: tuple[ExtraRow, ...] = ()
    banned: frozenset[tuple[int, int]] = frozenset()

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


def _most_fractional_arc(msol: MasterSolution) -> tuple[int, int]:
    """The arc whose fractional flow is closest to 0.5, the first in arc
    order among near ties; ``msol`` must have a fractional arc flow."""
    best = None
    for arc, v in sorted(msol.arc_flows().items()):
        if fractional(v):
            score = abs(v - 0.5)
            if best is None or score < best[0] - 1e-12:
                best = (score, arc)
    return best[1]


def branch(node: BranchNode, msol: MasterSolution, counter) -> tuple[BranchNode, BranchNode] | None:
    """Two children, or None when the LP is integral
    (``MasterSolution.integral``): ``veh<=``/``veh>=`` rows on a fractional
    vehicle count, else a ban on the most fractional arc and its
    ``arc(i,j)>=1`` row."""
    if msol.integral:
        return None

    def child(row: ExtraRow | None = None, ban: tuple[int, int] | None = None):
        return BranchNode(node.depth + 1, next(counter), msol.objective,
                          node.rows + (() if row is None else (row,)),
                          node.banned if ban is None else node.banned | {ban})

    total = msol.vehicle_count()
    if fractional(total):
        lo, hi = math.floor(total), math.ceil(total)
        return (child(ExtraRow(f"veh<= {lo}", LE, float(lo), route_constant=1.0)),
                child(ExtraRow(f"veh>={hi}", GE, float(hi), route_constant=1.0)))
    i, j = _most_fractional_arc(msol)
    return (child(ban=(i, j)),
            child(ExtraRow(f"arc({i},{j})>=1", GE, 1.0, arc_coefs=(((i, j), 1.0),))))


def incumbent_value(inst: Instance, routes: list[oracle.Route], mode: str) -> float:
    if mode == COST:
        return sum(r.cost for r in routes)
    return oracle.peak_measure(inst, routes)


def solve(inst: Instance, mode: str = COST, options: SolveOptions | None = None,
          pool: ColumnPool | None = None) -> SolveReport:
    """Certified minimum (cost or peak exposure) via branch-cut-and-price.

    The column pool, and with it the expansion cache pricing reads
    (``ColumnPool.expansions``), is shared tree-wide. A node's branching
    rows enter the master; its banned arcs (``BranchNode.banned``) are passed
    once to ``column_generation``, where the master fixes every pool column
    that uses one to zero and pricing emits none. Cuts are separated
    at the root until none are violated, then frozen.

    Unless the root is infeasible, every node whose column generation ran
    logs one progress line at DEBUG on the ``rdarp.bcp`` logger: its depth
    and bound, the incumbent, the gap between the incumbent and the tree's
    lower bound, the open nodes, the pool's columns and the elapsed time.

    Raises ``ValueError``, before any LP is built, on a negative cap (its
    master rows carry no artificial, so the master LP itself would be
    infeasible), on a finite cap other than ``enforced_cap``, which the
    solve would ignore, and on a negative or NaN ``time_limit`` (a NaN
    deadline never passes).
    """
    opts = options or SolveOptions()
    if opts.time_limit is not None and not opts.time_limit >= 0:
        raise ValueError(f"time_limit must be nonnegative, got {opts.time_limit}")
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
            banned=node.banned,
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

    def log_node(depth: int, result: CGResult, pending: float = INF):
        """The progress line of a node whose column generation returned
        ``result``; ``pending`` is the bound of a sibling not yet solved."""
        if log.isEnabledFor(logging.DEBUG):
            lower = min([r.bound for _, _, r in heap] + [pending, best_value])
            gap = max(0.0, (best_value - lower) / max(abs(best_value), 1e-9)) \
                if incumbent is not None else INF
            log.debug("node depth=%d bound=%.6f incumbent=%.6f gap=%.6f open=%d columns=%d "
                      "elapsed=%.3fs", depth, result.bound, best_value, gap, len(heap),
                      len(pool), time.perf_counter() - t_start)

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
    log_node(0, res)
    timed_out = res.status == TIME_LIMIT_STATUS

    while heap and not timed_out:
        _, node, result = heapq.heappop(heap)
        if result.bound >= best_value - PRUNE_TOL:
            continue
        children = branch(node, result.solution, counter)
        if children is None:
            continue
        for k, child in enumerate(children):
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
            elif (child_res.status != INFEASIBLE_STATUS
                  and child_res.bound < best_value - PRUNE_TOL):
                offer(child, child_res)
            log_node(child.depth, child_res, result.bound if k + 1 < len(children) else INF)

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
