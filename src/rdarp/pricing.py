"""Pricing subproblem: elementary shortest paths with resource constraints,
solved by forward labeling. Each emitted column carries the schedule the
delay calibration (``rdarp.calibration``) commits for its sequence, and is
the route ``oracle.state_route`` builds from its end-depot state.

Labeling runs from the origin depot, cheapest reduced cost first. A popped
label is extended to its state's children in the solve's
``calibration.ExpansionCache``: the nodes its state admits by precedence
(``calibration.successors``), in ascending order, less the arcs the instance
bans and the steps ``calibration.stranded`` flags, each with the state
``extend`` builds. Each node keeps its undominated labels in a store sorted
by reduced cost (``_Store``), so a new label is compared only with the labels
on the side where dominance can hold. The calibration module says why the
look-ahead ``stranded`` removes no feasible route.

Children depend on the state alone, so the cache computes them once per
solve for each state of at most ``calibration.EXPANSION_DEPTH`` nodes, the
ones every run passes through, and afresh for deeper ones. Everything else
is an argument of each call, never state kept between calls, and is checked
on every call, for cached and computed children alike: the duals, the
``banned`` arcs of a branch node, the ``cap``, ``heuristic`` and ``limit``.
So a shared cache returns exactly the columns a fresh one would.

Exposures and cumulative risk are resources of a label's state, as time
and load are (Irnich & Desaulniers 2005); in equity mode they are onboard
times and the route's duration (``calibration``).

``banned`` arcs are never extended along, so no emitted column uses one.
``cap`` bounds every rider's exposure measure (``Instance.exposure_measure``:
the detour rate in equity mode); no column over it by the rule of
``oracle.over_cap`` is emitted. Labels are pruned on the cap too, as a
resource (Irnich & Desaulniers 2005): when a drop-off empties the vehicle,
the riders it finalizes (the associated ones and the one dropped) are out of
reach of any later delay, so their exposures are final. The label is dropped
when one of them is over the cap by more than ``cap_slack`` of every
request, which is at least the emission tolerance of any route. Onboard and
associated riders never prune: a later wait can delay earlier pick-ups and
lower their exposure. ``dominates`` does not compare finalized riders'
exposures, which is sound because an over-cap label is dropped before it
can dominate. With an infinite cap none of this runs.

An exact run is exhaustive, so its best column is the minimum reduced cost
over the routes that use no banned arc and that the cap admits; an
``arc>=1`` branching row's dual reaches it as an arc cost
(``DualValues.arc_adjust``). Its dominance compares served sets only up to
the requests the dominated label can no longer reach (``dominates``): that
keeps the minimum but may drop dearer columns a plain inclusion test keeps.
A run cut short by its ``deadline`` is not exhaustive. A heuristic run
weakens dominance (drops the served-set test) and stops as soon as
``limit`` columns with reduced cost below -1e-6 that pass the cap are
complete, so it returns the first ones found, not the best, and must be
confirmed by an exact run before LP optimality is declared (Desaulniers,
Desrosiers & Solomon 2002).
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import time
from dataclasses import dataclass, field

from .calibration import ExpansionCache, PathState
from .instance import Instance
from .oracle import Route, cap_slack, over_cap, state_route

INF = math.inf
TOL = 1e-9
NEGATIVE_TOL = 1e-6
UNREACHABLE_MARGIN = 1e-6  # slack over a pick-up's latest start in ``dominates``
DEADLINE_POPS = 64  # labels popped between two reads of the clock
DEFAULT_COLUMN_LIMIT = 200
ENGINE_NAME = "py"  # the labeling engine, in the run metadata perfbench/run.py records


@dataclass
class DualValues:
    """Master duals mapped to pricing terms.

    ``pi``: request coverage duals (free sign). ``mu``: sum of the fleet-size
    dual and any vehicle-count branching duals (route-constant).
    ``arc_adjust``: folded per-arc duals from cuts and branching rows,
    subtracted from arc costs.
    """

    pi: dict[int, float] = field(default_factory=dict)
    mu: float = 0.0
    arc_adjust: dict[tuple[int, int], float] = field(default_factory=dict)


@dataclass(frozen=True)
class Column(Route):
    """A route as pricing emits it, with its reduced cost under the duals it
    was priced with."""

    reduced_cost: float


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

    def insert(self, new: _Label, heuristic: bool, inst: Instance) -> bool:
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
            if dominates(old, new, heuristic, inst):
                return False
        lo = bisect.bisect_left(rcosts, rc, key=_plus_tol)
        a, load, q = st.a_cur, st.load, st.q_cum
        dead = []
        for k in range(lo, len(labels)):
            so = labels[k].state
            if a > so.a_cur + TOL or load > so.load + TOL or q > so.q_cum + TOL:
                continue
            if dominates(new, labels[k], heuristic, inst):
                dead.append(k)
        for k in reversed(dead):
            labels[k].alive = False
            del labels[k]
            del rcosts[k]
        pos = bisect.bisect_right(rcosts, rc)
        rcosts.insert(pos, rc)
        labels.insert(pos, new)
        return True


def dominates(l1: _Label, l2: _Label, heuristic: bool, inst: Instance) -> bool:
    """Resource-wise dominance of two labels at one node of ``inst``; True
    only when every condition holds.

    Exact mode compares: reduced cost, earliest start, load, cumulative risk,
    open/associated set inclusion, per-open drop-off windows, per-member
    delay buffers and accrued exposures, and the served sets up to
    unreachable requests (Feillet, Dejax, Gendreau & Gueguen 2004): a
    request label 1 served and label 2 did not must be one label 2 has not
    picked up and cannot pick up in time, because its earliest start plus
    the service here and the direct trip already passes the pick-up's
    latest start. ``Instance.validate`` enforces the triangle inequality
    with service times and time only grows along a path, so no extension
    of label 2 visits that request. Heuristic mode drops the served-set
    test, which discards more labels but loses completeness.
    Finalized riders' exposures are not compared: under a cap, a label with
    one of them over it is dropped before it is stored (``solve_pricing``),
    so it never dominates a label whose routes the cap admits.
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
        j = s2.nodes[-1]
        reach = s2.a_cur + inst.service[j]
        travel, late, picked = inst.travel[j], inst.late, s2.pick_pos
        for r in s1.served - s2.served:
            if r in picked or reach + travel[r] <= late[r] + UNREACHABLE_MARGIN:
                return False
    onboard2 = s2.onboard
    for o in s1.onboard:
        if o not in onboard2:
            return False
        if s1.do_a[o] - s1.a_cur < s2.do_a[o] - s2.a_cur - TOL:
            return False
        if s1.do_b[o] < s2.do_b[o] - TOL:
            return False
    assoc2 = s2.assoc
    for x in s1.assoc:
        if x not in assoc2:
            return False
    for x in itertools.chain(s1.onboard, s1.assoc):
        if s1.d[x] < s2.d[x] - TOL:
            return False
        if s1.h[x] > s2.h[x] + TOL:
            return False
    return True


def solve_pricing(
    inst: Instance,
    duals: DualValues,
    cap: float = INF,
    heuristic: bool = False,
    limit: int = DEFAULT_COLUMN_LIMIT,
    banned: frozenset[tuple[int, int]] = frozenset(),
    trace=None,
    cache: ExpansionCache | None = None,
    deadline: float | None = None,
) -> list[Column]:
    """Return up to ``limit`` columns with reduced cost below -1e-6, sorted
    by reduced cost, that use no arc of ``banned`` and have no rider over
    ``cap``; see the module docstring for what a heuristic and an exact run
    guarantee. A column's reduced cost is its travel cost less ``duals``.
    ``trace``, when given, is called with one line per label stored.

    ``cache`` is the solve's ``calibration.ExpansionCache`` over ``inst``
    (``ColumnPool.expansions``); a call without one builds a fresh cache for
    itself. A cache built for another instance raises ``ValueError``.

    ``deadline``, a ``time.perf_counter`` time or None, is read every
    ``DEADLINE_POPS`` labels; once it has passed, the run stops and returns
    the columns completed so far, which certify nothing."""
    if cache is None:
        cache = ExpansionCache(inst)
    elif cache.inst is not inst and cache.inst != inst:
        raise ValueError("the expansion cache was built for another instance")

    n = inst.n
    end = inst.end_depot
    capped = cap < INF
    # a finalized rider prunes only beyond the widest emission tolerance
    prune_slack = cap_slack(inst, inst.pickups()) + TOL if capped else 0.0
    pi = duals.pi
    adjust = duals.arc_adjust

    def arc_cost(i: int, j: int) -> float:
        value = inst.t(i, j)
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

    pops = 0
    while queue:
        pops += 1
        if (deadline is not None and pops % DEADLINE_POPS == 0
                and time.perf_counter() > deadline):
            break
        _, _, label = heapq.heappop(queue)
        if not label.alive:
            continue
        st = label.state
        eta = st.current
        for j, child in cache.children(st):
            if (eta, j) in banned:  # the instance's own bans are the cache's
                continue
            if capped and n < j < end and not child.onboard:
                h = child.h  # the vehicle empties: these exposures are final
                if any(inst.exposure_measure(x, h[x] - prune_slack) > cap
                       for x in (*st.assoc, j - n)):
                    continue
            rcost = label.rcost + arc_cost(eta, j)
            if j == end:
                if rcost < -NEGATIVE_TOL and child.served:
                    col = state_route(inst, child, Column, reduced_cost=rcost)
                    if over_cap(inst, col.exposure, cap):
                        continue
                    finished.append((rcost, next(counter), col))
                    if heuristic and len(finished) >= limit:
                        queue.clear()  # a heuristic run ends here
                        break
                continue
            new = _Label(child, rcost, next(counter))
            if not stores[j].insert(new, heuristic, inst):
                continue
            heapq.heappush(queue, (new.rcost, new.counter, new))
            if trace is not None:
                trace(
                    f"label node={j} rc={rcost:.6f} A={child.a_cur:.3f} "
                    f"B={child.b_cur:.3f} open={len(child.onboard)} "
                    f"Q={child.q_cum:.6f}"
                )

    finished.sort(key=lambda item: (item[0], item[1]))
    return [col for _, _, col in finished[:limit]]
