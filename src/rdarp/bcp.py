"""Branch-cut-and-price tree: best-first search over column-generation
relaxations, branching on the vehicle count and then on single arcs.

Both rules keep pricing exact. A vehicle-count row's dual is route-constant
and folds into ``DualValues.mu``. An arc is branched by banning it in one
child, which pricing honours by never extending along it, and by an
``arc(i,j)>=1`` row in the other, whose dual folds into the arc's cost
(Lübbecke & Desrosiers 2005). The rules are complete: ``branch`` runs only on
a master that is not ``MasterSolution.integral``, so some arc flow is
fractional, and every arc flow is at most 1, so each ``arc>=1`` child fixes
its arc to 1 and the tree is finite.

The Pareto front is one descending ε-constraint sweep of capped cost trees
(``_sweep``; Mavrotas 2009, "Effective implementation of the ε-constraint
method in multi-objective mathematical programming problems"). The risk
objective is its last point within a cost budget (``_min_peak``), and a
cost solve with ``SolveOptions.certify_risk`` its first point from the
cost cap (``solve``)."""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import time
from dataclasses import dataclass, replace

from . import cuts as cuts_mod
from . import oracle
from .errors import OptionError
from .instance import EDARP, Instance
from .lp import GE, LE
from .master import (
    ARTIFICIAL_TOL,
    COST,
    RISK,
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

INF = math.inf
PRUNE_TOL = 1e-6
MAX_CUT_ROUNDS = 20

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BranchNode:
    """A tree node: its branching rows, which enter the master, and the arcs
    its subtree bans, which bind both the master and pricing. Its bound is
    the ``CGResult.bound`` it is kept open with (``_min_cost``)."""

    depth: int
    counter: int
    rows: tuple[ExtraRow, ...] = ()
    banned: frozenset[tuple[int, int]] = frozenset()


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


@dataclass
class SolveOptions:
    eps_risk: float = INF
    eps_cost: float = INF
    eps_dt: float = INF
    time_limit: float | None = None
    certify_risk: bool = False


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


def check_options(inst: Instance, mode: str, opts: SolveOptions) -> None:
    """Raise ``OptionError``, naming the field, on the first option a
    ``mode`` solve of ``inst`` cannot honour: an unknown ``mode``,
    ``certify_risk`` in a risk solve, which has no cost cap to certify
    under, a negative or NaN ``time_limit`` (a NaN deadline never passes),
    a cap that is negative (its master rows carry no artificial, so the
    master LP itself would be infeasible) or NaN (it would lift the cap),
    and a finite cap other than ``enforced_cap``, which the solve would
    ignore."""
    if mode not in (COST, RISK):
        raise OptionError("mode", f"mode must be {COST!r} or {RISK!r}, got {mode!r}")
    if opts.certify_risk and mode == RISK:
        raise OptionError("certify_risk", f"certify_risk applies only to a {COST} solve")
    _check_time_limit(opts.time_limit)
    enforced = enforced_cap(inst, mode)
    for name in CAPS:
        value = getattr(opts, name)
        if not value >= 0:
            raise OptionError(name, f"{name} must be nonnegative, got {value}")
        if value < INF and name != enforced:
            raise OptionError(name, f"a {mode} solve on this {inst.mode} instance enforces "
                                    f"only {enforced}, not {name}={value}")


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
        return BranchNode(node.depth + 1, next(counter),
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


def solve(inst: Instance, mode: str = COST, options: SolveOptions | None = None) -> SolveReport:
    """Certified minimum (cost or peak exposure) via branch-cut-and-price.

    The cost objective is one tree (``_min_cost``), the risk objective a
    sweep of them (``_min_peak``). Every tree of a solve shares one column
    pool, and with it the expansion cache pricing reads
    (``ColumnPool.expansions``), so ``nodes_explored`` and ``columns``
    count one pool; the pool is seeded first, and a request with no
    feasible round trip makes the instance infeasible at the root.
    ``time_limit`` bounds the whole solve: its trees share one deadline.

    ``certify_risk`` makes a cost solve return, among the cheapest routes
    under the cap, ones of least peak exposure measure, certified to within
    δ as in ``_min_peak``: the first point of ``_sweep`` from the cap, over
    the same pool and deadline. Its first tree is the cost tree, and each
    refining tree takes that tree's cost + 2 * ``PRUNE_TOL`` as cutoff, so
    it finds only routes of that cost. The report is the cost tree's
    status, objective, bound and gap, with the last routes found and the
    nodes and cuts of every tree. A refining tree that times out ends the
    certification: the routes found before it stand, and so does the cost
    tree's status.

    The options are checked first (``check_options``), before any LP is
    built.
    """
    opts = options or SolveOptions()
    check_options(inst, mode, opts)
    deadline = None if opts.time_limit is None else time.perf_counter() + opts.time_limit

    pool = ColumnPool(inst)
    if seed_pool(pool, inst):
        return SolveReport(INFEASIBLE_STATUS, INF, INF, 0.0, [], 0, len(pool), 0)
    trees: list[SolveReport] = []

    def tree(cap: float) -> SolveReport:
        # a tree takes only solutions within its cost budget (2 * PRUNE_TOL
        # admits the budget itself): the cost cap, or, for each refining tree
        # of a certifying solve, the cost tree's cost
        budget = trees[0].objective if opts.certify_risk and trees else opts.eps_cost
        trees.append(_min_cost(inst, cap, deadline, pool, budget + 2 * PRUNE_TOL))
        return trees[-1]

    if mode == RISK:
        return _min_peak(inst, tree, trees)
    cap = inst.measure_cap(opts.eps_risk, opts.eps_dt)
    if not opts.certify_risk:
        return tree(cap)
    next(_sweep(inst, _floor_and_resolution(inst)[1], tree, cap), None)
    return _over_trees(trees[0], trees)


def _relative_gap(value: float, bound: float) -> float:
    """How far ``value`` is above the lower ``bound``, relative to ``value``."""
    return max(0.0, (value - bound) / max(abs(value), 1e-9))


def _check_time_limit(time_limit: float | None) -> None:
    if time_limit is not None and not time_limit >= 0:
        raise OptionError("time_limit", f"time_limit must be nonnegative, got {time_limit}")


def _floor_and_resolution(inst: Instance) -> tuple[float, float]:
    """The risk sweep's floor, a lower bound on any peak measure, and its
    step δ, the resolution of its certificate (see ``_min_peak``)."""
    riders = inst.pickups()
    floor = 0.0 if inst.mode != EDARP else max(
        inst.exposure_measure(i, inst.service[i] + inst.direct_time(i)) for i in riders)
    slack = oracle.cap_slack(inst, riders)
    return floor, max(inst.exposure_measure(i, slack) for i in riders) + oracle.SCHED_TOL


def _min_peak(inst: Instance, tree, trees: list[SolveReport]) -> SolveReport:
    """The minimum peak exposure measure within a cost budget, with the
    cheapest solution of that peak: the last point of ``_sweep`` at step δ
    over one pool. ``tree(cap)`` runs one ``_min_cost`` tree under ``cap``
    over that pool, the budget pruning it as an incumbent would, and
    appends its report to ``trees``.

    The floor is 0 in RDARP; in EDARP a rider's exposure is their onboard
    time, at least their pick-up's service plus the direct trip. A first
    tree at the floor, where a solution is optimal, spares the sweep. δ is
    the widest ``oracle.over_cap`` tolerance plus ``oracle.SCHED_TOL``, in
    measure units, so the last point is optimal to within δ: no solution
    within the budget has a peak of at most ``p - δ``. A tree that times
    out ends the sweep: ``TimeLimit``, the last routes found (a timed-out
    tree's incumbent included), the floor as bound.
    """
    floor, delta = _floor_and_resolution(inst)
    if tree(floor).status == INFEASIBLE_STATUS:
        list(_sweep(inst, delta, tree))  # each tree that finds routes lowers the peak
    rep = _over_trees(trees[-1], trees)
    peak = oracle.peak_measure(inst, rep.routes) if rep.routes else INF
    if rep.status == TIME_LIMIT_STATUS:
        gap = _relative_gap(peak, floor) if rep.routes else INF
        return replace(rep, objective=peak, bound=floor, gap=gap)
    if not rep.routes:
        return rep
    return replace(rep, status=OPTIMAL_STATUS, objective=peak, bound=peak, gap=0.0)


def _over_trees(base: SolveReport, trees: list[SolveReport]) -> SolveReport:
    """``base`` with the last routes any of ``trees`` found, the nodes and
    cuts of all of them, and the columns of the pool they shared, which the
    last tree reports."""
    return replace(base, routes=next((r.routes for r in reversed(trees) if r.routes), []),
                   nodes_explored=sum(r.nodes_explored for r in trees),
                   columns=trees[-1].columns, cuts=sum(r.cuts for r in trees))


@dataclass
class ParetoPoint:
    """A front point: the cap on the exposure measure it was solved at, the
    minimum cost there, and the least peak of that cost with its routes."""

    eps_risk: float
    cost: float
    max_risk: float
    routes: list[oracle.Route]


def _sweep(inst: Instance, step: float, tree, eps: float = INF):
    """Walk down the cost/peak front from the cap ``eps``, yielding each
    point once certified; ``tree(cap)`` runs one ``_min_cost`` tree under
    ``cap``. The first point is the cheapest routes under ``eps`` with the
    least peak of their cost, to within δ. A cost solve with
    ``SolveOptions.certify_risk`` takes that point alone, over the solve's
    one pool and within its deadline, so its nodes and columns count one
    pool; a certification cut short by the deadline keeps the cost tree's
    status.

    A point starts as the cheapest routes under the cap ``eps``. Trees at
    ``peak - δ`` follow while their cost stays the point's (below
    ``cost + 2 * PRUNE_TOL``), each lowering its peak, until one
    costs more or finds nothing, or the cap falls below the floor. The next
    ``eps`` is ``peak - max(step, δ)``; the tree that ended the point starts
    the next one when its routes are within ``eps``, being the cheapest
    there too. A cap at the floor itself still admits a peak of the floor.
    The sweep ends at a tree that finds nothing, at an ``eps`` below the
    floor, or at a tree that times out, whose point it drops.
    """
    floor, delta = _floor_and_resolution(inst)
    start = tree(eps)
    while start.status == OPTIMAL_STATUS:
        point = rep = start
        while rep.status == OPTIMAL_STATUS and rep.objective < start.objective + 2 * PRUNE_TOL:
            point = rep
            cap = oracle.peak_measure(inst, point.routes) - delta
            if cap < floor:
                break
            rep = tree(cap)
        if rep.status == TIME_LIMIT_STATUS:
            return
        peak = oracle.peak_measure(inst, point.routes)
        yield ParetoPoint(eps, start.objective, peak, point.routes)
        eps = peak - max(step, delta)
        if rep.status == INFEASIBLE_STATUS or eps < floor:
            return
        within = not any(oracle.over_cap(inst, r.exposure, eps) for r in rep.routes)
        start = rep if within else tree(eps)


def pareto_front(inst: Instance, step: float,
                 time_limit: float | None = None) -> tuple[list[ParetoPoint], bool]:
    """The exact cost/peak front by ``_sweep`` over one fresh pool, and
    whether it is complete: ``time_limit`` bounds each tree, and
    one that times out ends the sweep. An infeasible instance gives an
    empty, complete front. Raises ``OptionError`` on a step that is not
    positive and on a negative or NaN ``time_limit``, before any tree runs."""
    if not step > 0:
        raise OptionError("step", f"step must be positive, got {step}")
    _check_time_limit(time_limit)
    pool = ColumnPool(inst)
    if seed_pool(pool, inst):
        return [], True
    trees = []

    def tree(cap: float) -> SolveReport:
        deadline = None if time_limit is None else time.perf_counter() + time_limit
        trees.append(_min_cost(inst, cap, deadline, pool))
        return trees[-1]

    points = list(_sweep(inst, step, tree))
    return points, trees[-1].status != TIME_LIMIT_STATUS


def _min_cost(inst: Instance, cap: float, deadline: float | None, pool: ColumnPool,
              cutoff: float = INF) -> SolveReport:
    """The minimum cost with no rider's exposure measure over ``cap``, by
    branch-cut-and-price over the seeded ``pool``; a solution is taken only
    when it costs less than ``cutoff - PRUNE_TOL``, so no node whose bound
    reaches that is explored. ``deadline`` is a ``time.perf_counter`` time
    or None.

    A node's branching rows enter the master; its banned arcs
    (``BranchNode.banned``) are passed once to ``column_generation``, where
    the master fixes every pool column that uses one to zero and pricing
    emits none. Cuts are separated at a fractional root until none are
    violated, then frozen.

    Unless the root is infeasible, every node whose column generation ran
    logs one progress line at DEBUG on the ``rdarp.bcp`` logger: its depth
    and bound, the incumbent, the gap between the incumbent and the tree's
    lower bound, the open nodes, the pool's columns and the elapsed time.
    """
    t_start = time.perf_counter()
    counter = itertools.count()
    cut_rows: list[ExtraRow] = []

    def run_cg(node: BranchNode) -> CGResult:
        return column_generation(
            inst, pool, cap,
            extra_rows=tuple(cut_rows) + node.rows,
            banned=node.banned,
            deadline=deadline,
        )

    root = BranchNode(0, next(counter))
    res = run_cg(root)
    nodes_explored = 1
    if res.status == INFEASIBLE_STATUS:
        return SolveReport(INFEASIBLE_STATUS, INF, INF, 0.0, [], nodes_explored, len(pool), 0)

    # root cut loop: separate at a fractional root, after each converged CG,
    # until nothing is violated. A converged master is free of artificials,
    # so an integral one is a feasible integer solution that no valid cut
    # cuts off: separating there would find nothing.
    rounds = 0
    while (res.status == OPTIMAL_STATUS and not res.solution.integral
           and rounds < MAX_CUT_ROUNDS):
        rounds += 1
        flows = res.solution.arc_flows()
        active = {c.name for c in cut_rows}
        violated = [c for c in cuts_mod.separate_all(flows, inst)
                    if c.violation(flows) > cuts_mod.VIOLATION_TOL and c.name not in active]
        if not violated:
            break
        cut_rows.extend(violated)
        res = run_cg(root)
        if res.status == INFEASIBLE_STATUS:
            return SolveReport(INFEASIBLE_STATUS, INF, INF, 0.0, [], nodes_explored,
                               len(pool), len(cut_rows))

    incumbent: list[oracle.Route] | None = None
    best_value = cutoff
    heap: list[tuple[tuple, BranchNode, CGResult]] = []

    def log_node(depth: int, result: CGResult, pending: float = INF):
        """The progress line of a node whose column generation returned
        ``result``; ``pending`` is the bound of a sibling not yet solved."""
        if log.isEnabledFor(logging.DEBUG):
            lower = min([r.bound for _, _, r in heap] + [pending, best_value])
            gap = _relative_gap(best_value, lower) if incumbent is not None else INF
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
        value = sum(r.cost for r in routes)
        if value < best_value - PRUNE_TOL:
            oracle.validate_solution(inst, routes, cap)
            incumbent = routes
            best_value = value
        return True

    def push(node: BranchNode, result: CGResult):
        """Keep ``node`` open; best ``result.bound`` first, then deepest, then oldest."""
        heapq.heappush(heap, ((result.bound, -node.depth, node.counter), node, result))

    def offer(node: BranchNode, result: CGResult):
        """Offer the master as incumbent, and keep the node open unless its
        column generation converged at an integral master. A timed-out
        result (only the root's reaches here) stays open with its bound of
        -inf: the relaxation is unsolved, whatever the master looks like."""
        if result.status == INFEASIBLE_STATUS:
            return
        if take_incumbent(result.solution) and result.status != TIME_LIMIT_STATUS:
            return
        push(node, result)

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
                push(child, result)
                continue
            child_res = run_cg(child)
            nodes_explored += 1
            if child_res.status == TIME_LIMIT_STATUS:
                # the child stays open with its parent's bound, but a
                # feasible master it already holds is still a solution
                timed_out = True
                take_incumbent(child_res.solution)
                push(child, result)
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
    # the search ends with an empty heap, so best_bound == best_value,
    # unless it timed out
    gap = _relative_gap(best_value, best_bound)
    if gap <= 1e-6:
        status, gap = OPTIMAL_STATUS, 0.0
    else:
        status = TIME_LIMIT_STATUS
    return SolveReport(status, best_value, best_bound, gap, incumbent,
                       nodes_explored, len(pool), len(cut_rows))
