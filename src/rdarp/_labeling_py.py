"""Forward labeling for the pricing subproblem (``pricing.solve_pricing``).

Forward labeling from the origin depot, cheapest reduced cost first. A popped
label is extended to its state's children in the solve's
``calibration.ExpansionCache``: the nodes its state admits by precedence
(``calibration.successors``), in ascending order, less the arcs the instance
bans and the steps ``calibration.stranded`` flags, each with the state
``extend`` builds. Each node keeps its undominated labels in a store sorted
by reduced cost (``_Store``), so a new label is compared only with the labels
on the side where dominance can hold.

The look-ahead ``stranded`` skips a node after which some onboard rider
could no longer reach their drop-off in time. It is exact: under the
triangle inequality no continuation reaches the drop-off sooner than
directly, and a rider's latest drop-off start only shrinks along a path, so
no feasible route takes a skipped step. It saves the ``extend`` calls that
would fail on ride time and the labels that lead only to dead ends.

Children depend on the state alone, so the cache computes them once per
solve, for up to ``calibration.EXPANSION_CAP`` child states. What depends on
the call is checked on every call, for cached and computed children alike:
the branch restrictions' banned arcs, the cap prune below, and the reduced
cost under the call's duals. Labels, their order and the columns are those
of a run that extends every state afresh.

Each column's exposure is built as it will be emitted: the labels' sums in
RDARP, the onboard times read off the schedule in equity mode (EDARP). Under
a finite ``cap`` on the exposure measure, a column over it (``oracle.over_cap``)
is never emitted. Labels are pruned on the cap too, as a resource
(Irnich & Desaulniers 2005): when a drop-off empties the vehicle, the riders
it finalizes (the associated ones and the one dropped) are out of reach of
any later delay, so their exposures are final. The label is dropped when one
of them is over the cap by more than ``cap_slack`` of every request, which is
at least the emission tolerance of any route. Onboard and associated riders
never prune: a later wait can delay earlier pick-ups and lower their
exposure. ``dominates`` does not compare finalized riders' exposures, which
is sound because an over-cap label is dropped before it can dominate. With
an infinite cap none of this runs.

The branch restrictions are banned arcs alone, and no label is extended
along one, so every completed route passes them and emission checks only the
cap. An exact run is exhaustive over the routes that use no banned arc and
that the cap admits. A heuristic run weakens dominance and stops as soon as
``limit`` columns are complete, counting only columns with reduced cost
below -1e-6 that pass the cap (Desaulniers, Desrosiers & Solomon 2002);
either run returns its columns sorted by reduced cost.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math

from .calibration import DUMMY, ExpansionCache, PathState
from .instance import EDARP, Instance
from .oracle import cap_slack, onboard_times, over_cap, route_cost

INF = math.inf
TOL = 1e-9
NEGATIVE_TOL = 1e-6


class _Label:
    __slots__ = ("state", "rcost", "counter", "alive")

    def __init__(self, state: PathState, rcost: float, counter: int):
        self.state = state
        self.rcost = rcost
        self.counter = counter
        self.alive = True


def _plus_tol(rcost: float) -> float:
    return rcost + TOL


class _Store:
    """One node's undominated labels, in ascending reduced cost.

    ``dominates`` can hold only where its reduced-cost test does, so each
    direction bisects to the labels that pass that same test: the cheap end
    (``old.rcost <= new.rcost + TOL``) for "a stored label dominates the new
    one", the dear end (``new.rcost <= old.rcost + TOL``) for the converse.
    Within it, the earliest-start, load and cumulative-risk tests that
    ``dominates`` opens with are repeated inline, because they reject most
    pairs and a call costs more than they do. Which labels survive does not
    depend on the store's order, so this keeps every pricing result.
    """

    __slots__ = ("rcosts", "labels")

    def __init__(self):
        self.rcosts: list[float] = []
        self.labels: list[_Label] = []

    def insert(self, new: _Label, heuristic: bool) -> bool:
        """Store ``new`` unless a stored label dominates it, and retire the
        stored labels it dominates. Returns whether ``new`` was stored."""
        rcosts, labels = self.rcosts, self.labels
        rc = new.rcost
        st = new.state
        a_hi, load_hi, q_hi = st.a_cur + TOL, st.load + TOL, st.q_cum + TOL
        for k in range(bisect.bisect_right(rcosts, rc + TOL)):
            old = labels[k]
            so = old.state
            if so.a_cur > a_hi or so.load > load_hi or so.q_cum > q_hi:
                continue
            if dominates(old, new, heuristic):
                return False
        lo = bisect.bisect_left(rcosts, rc, key=_plus_tol)
        a, load, q = st.a_cur, st.load, st.q_cum
        dead = []
        for k in range(lo, len(labels)):
            so = labels[k].state
            if a > so.a_cur + TOL or load > so.load + TOL or q > so.q_cum + TOL:
                continue
            if dominates(new, labels[k], heuristic):
                dead.append(k)
        for k in reversed(dead):
            labels[k].alive = False
            del labels[k]
            del rcosts[k]
        pos = bisect.bisect_right(rcosts, rc)
        rcosts.insert(pos, rc)
        labels.insert(pos, new)
        return True


def dominates(l1: _Label, l2: _Label, heuristic: bool) -> bool:
    """Resource-wise dominance; True only when every condition holds.

    Exact mode compares: reduced cost, earliest start, load, cumulative risk,
    served/open/associated set inclusion, per-open drop-off windows, and
    per-member delay buffers and accrued exposures. Heuristic mode drops the
    served-set inclusion, which discards more labels but loses completeness.
    Finalized riders' exposures are not compared: under a cap, a label with
    one of them over it is dropped before it is stored (``run_labeling``), so
    it never dominates a label whose routes the cap admits.
    """
    s1, s2 = l1.state, l2.state
    if l1.rcost > l2.rcost + TOL:
        return False
    if s1.a_cur > s2.a_cur + TOL:
        return False
    if s1.load > s2.load + TOL:
        return False
    if s1.q_cum > s2.q_cum + TOL:
        return False
    if not heuristic and not s1.served <= s2.served:
        return False
    onboard2 = s2.onboard
    for o in s1.onboard:
        if o not in onboard2:
            return False
        if o == DUMMY:
            continue
        if s1.do_a[o] - s1.a_cur < s2.do_a[o] - s2.a_cur - TOL:
            return False
        if s1.do_b[o] < s2.do_b[o] - TOL:
            return False
    assoc2 = s2.assoc
    for x in s1.assoc:
        if x not in assoc2:
            return False
    for x in itertools.chain(s1.onboard, s1.assoc):
        if x == DUMMY:
            continue
        if s1.d[x] < s2.d[x] - TOL:
            return False
        if s1.h[x] > s2.h[x] + TOL:
            return False
    return True


def run_labeling(inst: Instance, duals, mode, heuristic, limit, restrictions, trace, cap,
                 cache: ExpansionCache):
    from .pricing import Column

    n = inst.n
    end = inst.end_depot
    edarp = inst.mode == EDARP
    capped = cap < INF
    # a finalized rider prunes only beyond the widest emission tolerance
    prune_slack = cap_slack(inst, inst.pickups()) + TOL if capped else 0.0
    banned = restrictions.banned_arcs  # the instance's own bans are the cache's
    rho = duals.rho
    xi = duals.xi
    pi = duals.pi
    adjust = duals.arc_adjust
    risk_mode = mode == "risk"

    def arc_cost(i: int, j: int) -> float:
        t = inst.t(i, j)
        value = -xi * t if risk_mode else t
        if 1 <= i <= n:
            value -= pi.get(i, 0.0)
        adj = adjust.get((i, j))
        if adj is not None:
            value -= adj
        return value

    counter = itertools.count()
    root = _Label(cache.root, -duals.mu, next(counter))
    queue: list[tuple[float, int, _Label]] = [(root.rcost, root.counter, root)]
    stores: dict[int, _Store] = {i: _Store() for i in range(inst.n_nodes)}
    finished: list[tuple[float, int, Column]] = []

    while queue:
        _, _, label = heapq.heappop(queue)
        if not label.alive:
            continue
        st = label.state
        eta = st.current
        for j, ext in cache.children(st):
            if (eta, j) in banned:
                continue
            if capped and n < j < end and all(o == DUMMY for o in ext.state.onboard):
                h = ext.state.h  # the vehicle empties: these exposures are final
                if any(inst.exposure_measure(x, h[x] - prune_slack) > cap
                       for x in (*st.assoc, j - n)):
                    continue
            rcost = label.rcost + arc_cost(eta, j)
            for x, dh in ext.delta_h.items():
                r = rho.get(x)
                if r is not None and dh != 0.0:
                    rcost -= r * dh
            if j == end:
                if rcost < -NEGATIVE_TOL and ext.state.served:
                    seq, times = ext.state.nodes, ext.state.times
                    exposure = onboard_times(inst, seq, times) if edarp else ext.state.request_h()
                    if over_cap(inst, exposure, cap):
                        continue
                    col = Column(
                        sequence=seq, schedule=times, cost=route_cost(inst, seq),
                        exposure=exposure, q_terminal=ext.state.q_cum, reduced_cost=rcost,
                    )
                    finished.append((rcost, next(counter), col))
                    if heuristic and len(finished) >= limit:
                        queue.clear()  # a heuristic run ends here
                        break
                continue
            new = _Label(ext.state, rcost, next(counter))
            if not stores[j].insert(new, heuristic):
                continue
            heapq.heappush(queue, (new.rcost, new.counter, new))
            if trace is not None:
                trace(
                    f"label node={j} rc={rcost:.6f} A={ext.state.a_cur:.3f} "
                    f"B={ext.state.b_cur:.3f} open={sum(1 for o in ext.state.onboard if o != DUMMY)} "
                    f"Q={ext.state.q_cum:.6f}"
                )

    finished.sort(key=lambda item: (item[0], item[1]))
    return [col for _, _, col in finished[:limit]]
