"""Partial-route state and extension semantics.

One extension step appends a node to a partial route, maintaining: earliest
and latest feasible start-of-service, per-open-request dynamic drop-off
windows, per-request delay buffers, exposure bookkeeping, and a committed
schedule. Waiting discovered at the new node is absorbed by retroactively
delaying earlier pick-ups, balancing the exposure of onboard riders against
riders already dropped off whose trips would shift with them.

Exposure and cumulative risk accrue step by step by the formula of
``instance.exposure_from_schedule``, adding its terms in its order. In
equity mode exposure is onboard time and the cumulative risk the duration.

What the calibration guarantees: every committed schedule is feasible (time
windows, ride times, capacity, cumulative risk cap), and each step chooses
its delay to minimize the peak raw exposure as it stands after that step.
It does not guarantee the sequence's minimum peak: the choice is
greedy, ignores exposure riders accrue later in the route, and ignores
detour weights. In equity mode a calibrated schedule can therefore exceed
the sequence's minimum peak detour rate (``oracle.mmr_schedule``), so
detour-rate caps and the equity-mode risk objective are certified only over
calibrated schedules.

Pricing (``rdarp.pricing``) and the oracle's fixed-sequence replay share these
semantics. Before extending, pricing drops the steps ``stranded`` flags: those
after which an onboard rider's drop-off, reached directly at the earliest,
would start later than its dynamic window ``do_b`` allows. ``extend`` would
reject every continuation of such a step, since the triangle inequality makes
no detour faster and ``do_b`` never grows, so the look-ahead removes no
feasible route; ``extend`` itself still checks everything.

A state after ``extend`` depends only on its node sequence, never on duals,
so an ``ExpansionCache``, owned by the solve's column pool, keeps a state's
accepted extensions for every later pricing run (resource extension
functions; Irnich & Desaulniers 2005). It keeps them for the shallow states,
those of at most ``EXPANSION_DEPTH`` nodes: every run starts at the root and
passes through them again, while most deep states one run meets no later run
reaches. Deeper states are expanded afresh on each visit. ``EXPANSION_CAP``
child states (about 2 KB each) bound the memory as a backstop only; it does
not bind up to n = 22.

``extend`` is the labeling algorithm's unit of work, so its common case has a
path of its own. Most accepted steps choose no delay; on this zero-delay path
no committed position shifts, so only pairs of onboard riders accrue, each by
the step's span (``_onboard_increments``), and the general shift and pair
bookkeeping (``_node_shifts``, ``_pair_increments``) is skipped. Delay buffers
(``_usable_buffers``) are computed only when there is a wait to absorb. Both
paths add the same terms in the same order, so every result is the same to
the bit.
"""

from __future__ import annotations

import math

from .instance import Instance, exposure_from_schedule

TOL = 1e-9
INF = math.inf
STRANDED_MARGIN = 1e-6  # ``stranded``'s slack over a drop-off's latest start
EXPANSION_DEPTH = 6  # the depot and five stops: the deepest state a cache expands once
EXPANSION_CAP = 16384  # child states one ``ExpansionCache`` holds at most

PDPTW_PRECEDENCE = "pdptw:precedence"
PDPTW_WINDOW = "pdptw:window"
PDPTW_CAPACITY = "pdptw:capacity"
DARP_LATEST = "darp:latest-start"
DARP_RIDETIME = "darp:ride-time"
RISK_QMAX = "rdarp:qmax"


class PathState:
    """Immutable partial-route state.

    An extension shares with its parent every container the step leaves
    unchanged (the position dicts, the onboard and associated tuples, the
    served set) and builds new ones for the rest. Nothing mutates a state's
    containers after construction, so sharing is safe.
    """

    __slots__ = (
        "nodes", "times", "a_cur", "b_cur", "load", "onboard", "assoc",
        "served", "q_cum", "h", "d", "bo", "do_a", "do_b",
        "pick_pos", "drop_pos",
    )

    def __init__(self, nodes, times, a_cur, b_cur, load, onboard, assoc, served,
                 q_cum, h, d, bo, do_a, do_b, pick_pos, drop_pos):
        self.nodes = nodes
        self.times = times
        self.a_cur = a_cur
        self.b_cur = b_cur
        self.load = load
        self.onboard = onboard
        self.assoc = assoc
        self.served = served
        self.q_cum = q_cum
        self.h = h
        self.d = d
        self.bo = bo
        self.do_a = do_a
        self.do_b = do_b
        self.pick_pos = pick_pos
        self.drop_pos = drop_pos

    @property
    def current(self) -> int:
        return self.nodes[-1]


def initial_state(inst: Instance) -> PathState:
    return PathState(
        nodes=(0,), times=(inst.early[0],),
        a_cur=inst.early[0], b_cur=inst.late[0],
        load=0.0, onboard=(), assoc=(),
        served=frozenset(), q_cum=0.0, h={}, d={},
        bo={}, do_a={}, do_b={}, pick_pos={}, drop_pos={},
    )


def successors(inst: Instance, st: PathState) -> list[int]:
    """Nodes ``extend`` does not reject on precedence from ``st``, ascending:
    pick-ups not yet visited, drop-offs of onboard riders, and the end depot
    when no rider is onboard."""
    n = inst.n
    out = [i for i in range(1, n + 1) if i not in st.pick_pos]
    drops = sorted(o + n for o in st.onboard)
    if drops:
        out.extend(drops)
    else:
        out.append(inst.end_depot)
    return out


def stranded(inst: Instance, st: PathState, j: int) -> bool:
    """Whether a step from ``st`` to ``j`` leaves some onboard rider,
    other than the one dropped at ``j``, unable to reach their drop-off by
    its latest start ``do_b``.

    ``j``'s earliest start is the ``a_new`` of ``extend``, and the rider's
    drop-off can start no earlier than a direct trip from ``j`` allows
    (``Instance.validate`` enforces the triangle inequality with service
    times). ``do_b`` never grows along a path, and ``extend`` rejects a
    drop-off later than it, so no feasible route takes a stranding step. The
    margin covers tolerance dust summed over the remaining hops.
    """
    onboard = st.onboard
    if not onboard:
        return False
    eta = st.nodes[-1]
    a = st.a_cur + inst.service[eta] + inst.travel[eta][j]
    early_j = inst.early[j]
    if a < early_j:
        a = early_j
    reach = a + inst.service[j]
    t_j = inst.travel[j]
    n = inst.n
    do_b = st.do_b
    dropped = j - n
    for o in onboard:
        if o == dropped:
            continue
        if reach + t_j[o + n] > do_b[o] + STRANDED_MARGIN:
            return True
    return False


class ExpansionCache:
    """One solve's tree of shallow states: each one's accepted extensions,
    computed once and shared by every pricing run over ``inst``.

    ``children(st)`` is what a label at ``st`` may be extended to whatever
    the duals, cap and branch bans: the ``(j, state)`` pairs, in
    ascending ``j``, for every successor the instance does not ban, that
    ``stranded`` does not flag and that ``extend`` accepts. Labeling starts
    from ``root``, so the states of one run are those of the next and their
    children are found by identity.

    Only the children of a state of at most ``EXPANSION_DEPTH`` nodes are
    stored; a deeper state's are computed on each call. ``held`` counts the
    child states stored, at most ``EXPANSION_CAP``, a memory backstop:
    expansions are stored until the first one that does not fit, and from
    then on computed and not stored. So every stored state is the root or a
    stored child, which the next run reaches again.
    """

    __slots__ = ("inst", "root", "held", "_children", "_full")

    def __init__(self, inst: Instance):
        self.inst = inst
        self.root = initial_state(inst)
        self.held = 0
        self._children: dict[PathState, list[tuple[int, PathState]]] = {}
        self._full = False

    def children(self, st: PathState) -> list[tuple[int, PathState]]:
        out = self._children.get(st)
        if out is None:
            inst = self.inst
            banned = inst.banned_arcs
            eta = st.nodes[-1]
            out = []
            for j in successors(inst, st):
                if (eta, j) in banned or stranded(inst, st, j):
                    continue
                child, _reason = extend(inst, st, j)
                if child is not None:
                    out.append((j, child))
            if len(st.nodes) > EXPANSION_DEPTH or self._full:
                return out
            if self.held + len(out) > EXPANSION_CAP:
                self._full = True
            else:
                self._children[st] = out
                self.held += len(out)
        return out


def extend(inst: Instance, st: PathState, j: int):
    """Extend ``st`` to node ``j``.

    Returns (the new state, None) on success or (None, reason) on rejection,
    where ``reason`` names the stage and the violated quantity. Stage 1
    rejects exactly the nodes ``successors`` leaves out; it stays because
    fixed sequences (``oracle.replay_route``) are extended node by node.

    ``st`` is never changed. Two-value ``min`` and ``max`` are written out as
    conditionals that return the operand the builtins would.
    """
    eta = st.nodes[-1]
    n = inst.n
    onboard = st.onboard
    pick_pos = st.pick_pos

    # ---- stage 1: pairing, precedence, window, capacity ----
    pickup = 1 <= j <= n
    dropped = None
    if pickup:
        if j in pick_pos or j in st.served:
            return None, PDPTW_PRECEDENCE
    elif n < j <= 2 * n:
        dropped = j - n
        if dropped not in onboard:
            return None, PDPTW_PRECEDENCE
    elif j == 2 * n + 1:
        if onboard:
            return None, PDPTW_PRECEDENCE
    else:
        return None, PDPTW_PRECEDENCE

    s_eta = inst.service[eta]
    t_arc = inst.travel[eta][j]
    a_cur = st.a_cur
    arrival = a_cur + s_eta + t_arc
    a_new = inst.early[j]
    if not a_new > arrival:
        a_new = arrival
    late_j = inst.late[j]
    if a_new > late_j + TOL:
        return None, PDPTW_WINDOW
    load_new = st.load + inst.load[j]
    if load_new > inst.capacity + TOL:
        return None, PDPTW_CAPACITY

    # ---- stage 2: latest starts and dynamic drop-off windows ----
    st_bo, st_do_a, st_do_b = st.bo, st.do_a, st.do_b
    b_new = late_j
    if dropped is not None and st_do_b[dropped] < late_j:
        b_new = st_do_b[dropped]
    if a_new > b_new + TOL:
        return None, DARP_LATEST

    wait = a_new - arrival
    bo_new: dict[int, float] = {}
    do_a_new: dict[int, float] = {}
    do_b_new: dict[int, float] = {}
    for o in onboard:
        if o == dropped:
            continue
        bo_o = st_bo[o]
        reach = bo_o + s_eta + t_arc
        bo = b_new if b_new < reach else reach
        if not bo > a_new:
            bo = a_new
        lead = bo_o - a_cur
        if not lead > 0.0:
            lead = 0.0
        da = st_do_a[o] + (lead if lead < wait else wait)
        if a_new > da + TOL:
            return None, DARP_RIDETIME
        over = reach - b_new
        bo_new[o] = bo
        do_a_new[o] = da
        do_b_new[o] = st_do_b[o] - over if over > 0.0 else st_do_b[o]
    if pickup:
        s_j = inst.service[j]
        ride = inst.max_ride[j - 1]
        late_d = inst.late[j + n]
        bo = late_d - s_j - ride
        if not bo < b_new:
            bo = b_new
        if not bo > a_new:
            bo = a_new
        da = a_new + s_j + ride
        if late_d < da:
            da = late_d
        if a_new > da + TOL:
            return None, DARP_RIDETIME
        db = bo + s_j + ride
        bo_new[j] = bo
        do_a_new[j] = da
        do_b_new[j] = late_d if late_d < db else db
    elif dropped is not None:
        # the request served at j must itself admit this drop-off time
        lead = st_bo[dropped] - a_cur
        if not lead > 0.0:
            lead = 0.0
        da = st_do_a[dropped] + (lead if lead < wait else wait)
        if a_new > da + TOL:
            return None, DARP_RIDETIME

    # ---- stage 3: delay calibration and exposure accrual ----
    assoc = st.assoc
    if assoc:
        members = sorted(set(onboard) | set(assoc), key=pick_pos.__getitem__)
    else:
        members = list(onboard)  # already in boarding order

    # A drop-off may force a minimum pick-up delay when the committed ride
    # would exceed its cap; the bump propagates forward through committed
    # waits (and the new node's wait) and rebaselines the bookkeeping.
    if dropped is not None:
        t_pick = st.times[pick_pos[dropped]]
        forced = a_new - (t_pick + inst.service[dropped]) - inst.max_ride[dropped - 1]
        if forced > TOL:
            st = _forced_repair(inst, st, members, pick_pos[dropped], forced, wait)
            if st is None:
                return None, DARP_RIDETIME
            arrival = st.times[-1] + s_eta + t_arc
            wait = a_new - arrival

    span = s_eta + t_arc + wait
    delta_star = 0.0
    if wait > TOL and members:
        usable = _usable_buffers(inst, st, members)
        cap = min(wait, max(usable.values()))
        if cap > TOL:
            if assoc:
                delta_star = _argmin_peak(inst, st, members, usable, span, cap)
            else:
                delta_star = cap

    st_d = st.d
    risk = inst.risk
    # the vehicle's term comes first in every sum of risks
    q_new = st.q_cum + inst.vehicle_risk * span
    gap = b_new - a_new
    if delta_star == 0.0:
        # Zero-delay path: no shifts, so only pairs of onboard riders accrue,
        # each by ``span`` (what ``_pair_increments`` adds with zero delays).
        delta_h = _onboard_increments(inst, members, onboard, span)
        for o in onboard:
            q_new += risk[o] * span
        times = st.times + (a_new,)
        d_new = {}
        for x in members:
            dx = st_d[x]
            d_new[x] = gap if gap < dx else dx
    else:
        assign = {x: min(delta_star, usable[x]) for x in members}
        shifts = _node_shifts(st, members, assign, len(st.times))
        delta_h = _pair_increments(inst, st, members, assign, span, shifts)
        for o in onboard:
            q_new += risk[o] * (span - assign[o])
        for i in assoc:
            q_new += risk[i] * (shifts[st.drop_pos[i]] - assign[i])
        times = tuple(tv + sv for tv, sv in zip(st.times, shifts)) + (a_new,)
        d_new = {x: min(st_d[x] - assign[x], gap) for x in members}
    if q_new > inst.q_max + 1e-9:
        return None, RISK_QMAX

    # ---- commit: schedule shifts, membership, buffers ----
    h_new = dict(st.h)
    for x, dh in delta_h.items():
        h_new[x] = h_new.get(x, 0.0) + dh

    onboard_new = onboard
    assoc_new = assoc
    served_new = st.served
    pick_pos_new = pick_pos
    drop_pos_new = st.drop_pos
    pos_new = len(times) - 1
    if pickup:
        onboard_new = onboard + (j,)
        pick_pos_new = dict(pick_pos)
        pick_pos_new[j] = pos_new
        d_new[j] = gap
        h_new.setdefault(j, 0.0)
    elif dropped is not None:
        onboard_new = tuple(o for o in onboard if o != dropped)
        served_new = served_new | {dropped}
        drop_pos_new = dict(drop_pos_new)
        drop_pos_new[dropped] = pos_new
        if onboard_new:
            assoc_new = assoc + (dropped,)
        else:
            # vehicle empties: no future delay can reach riders served so far
            for i in assoc:
                d_new.pop(i, None)
            assoc_new = ()
            d_new.pop(dropped, None)

    return PathState(
        st.nodes + (j,), times, a_new, b_new, load_new, onboard_new, assoc_new,
        served_new, q_new, h_new, d_new, bo_new, do_a_new, do_b_new,
        pick_pos_new, drop_pos_new,
    ), None


# ---------------------------------------------------------------------------
# calibration internals
# ---------------------------------------------------------------------------

def _usable_buffers(inst: Instance, st: PathState, members) -> dict[int, float]:
    """Per-member delay capacity: suffix-minimum of the raw buffers (shifts
    must be non-decreasing in boarding order), further capped so that a
    member's delay never stretches an already-served co-rider's committed
    ride beyond its cap (delay of x plus that rider's remaining ride slack)."""
    cap = {x: max(0.0, st.d[x]) for x in members}
    for _ in range(2 * len(members) + 2):
        changed = False
        running = INF
        for x in reversed(members):
            running = min(running, cap[x])
            if cap[x] > running:
                cap[x] = running
                changed = True
        for x in members:
            dpx = st.drop_pos.get(x)
            if dpx is None:
                continue
            slack = inst.max_ride[x - 1] - (
                st.times[dpx] - st.times[st.pick_pos[x]] - inst.service[x])
            bound = cap[x] + max(0.0, slack)
            for y in members:
                if st.pick_pos[x] < st.pick_pos[y] < dpx and cap[y] > bound + 1e-15:
                    cap[y] = bound
                    changed = True
        if not changed:
            break
    return cap


def _node_shifts(st: PathState, members, assign, n_positions: int) -> list[float]:
    """Shift per committed position: delay is idle inserted just before each
    member's pick-up, so a position shifts by the largest delay among pick-ups
    at or before it. Delays are non-decreasing in boarding order, making every
    shift pattern physically realizable."""
    shifts = [0.0] * n_positions
    cur = 0.0
    marks = sorted((st.pick_pos[x], assign[x]) for x in members)
    k = 0
    for pos in range(n_positions):
        while k < len(marks) and marks[k][0] <= pos:
            cur = max(cur, marks[k][1])
            k += 1
        shifts[pos] = cur
    return shifts


def _onboard_increments(inst: Instance, members, onboard, span) -> dict[int, float]:
    """``_pair_increments`` when every delay and shift is zero: each onboard
    rider gains the vehicle's risk times ``span``, then each pair of onboard
    riders gains ``span``, in the same order of pairs and additions, so
    every sum is the same to the bit; no other pair changes."""
    dh = dict.fromkeys(members, 0.0)
    if span != 0.0 and onboard:
        vehicle = inst.vehicle_risk * span
        if vehicle:
            for x in onboard:
                dh[x] += vehicle
        risk = inst.risk
        for a in range(len(onboard) - 1):
            x = onboard[a]
            rx = risk[x]
            for b in range(a + 1, len(onboard)):
                y = onboard[b]
                dh[x] += risk[y] * span
                dh[y] += rx * span
    return dh


def _pair_increments(inst: Instance, st: PathState, members, assign, span, shifts):
    """Exposure increment per rider for one extension.

    Open pairs gain the arc span (travel + service + residual wait) less the
    later rider's delay; pairs with a dropped rider change only through the
    induced shifts of their recorded endpoints (``shifts``, from
    ``_node_shifts`` for the same ``assign``). Each rider's own interval
    gains the same way, times the vehicle's risk, and that term comes first.
    """
    if not members:
        return {}
    pos = st.pick_pos
    onboard = set(st.onboard)
    risk = inst.risk
    vehicle = inst.vehicle_risk
    dh = {y: vehicle * ((span if y in onboard else shifts[st.drop_pos[y]]) - assign[y])
          for y in members}
    for ai in range(len(members)):
        x = members[ai]
        for bi in range(ai + 1, len(members)):
            y = members[bi]  # boarded after x
            if x in onboard and y in onboard:
                change = span - assign[y]
            else:
                if x in onboard:
                    end_pos = st.drop_pos[y]
                elif y in onboard:
                    end_pos = st.drop_pos[x]
                else:
                    end_pos = min(st.drop_pos[x], st.drop_pos[y])
                if pos[y] >= end_pos:
                    continue  # never co-rode
                change = shifts[end_pos] - assign[y]
            if change != 0.0:
                dh[x] += risk[y] * change
                dh[y] += risk[x] * change
    return dh


def _forced_repair(inst: Instance, st: PathState, members, q_pos: int, forced: float, wait: float):
    """Commit a mandatory pick-up delay of ``forced`` at position ``q_pos``.

    The bump propagates through committed waits; whatever reaches the current
    node must fit inside the new node's wait. Returns None when infeasible,
    else a rebaselined state: the shifted schedule and buffers, and the
    members' exposures and the cumulative risk read off that schedule by
    ``instance.exposure_from_schedule``, as the oracle reads them. Riders
    served before the vehicle last emptied precede the shift and keep theirs.
    """
    k = len(st.times)
    nodes = st.nodes
    gaps = [0.0] * k  # committed idle just before each position
    for pos in range(1, k):
        prev = nodes[pos - 1]
        gaps[pos] = max(0.0, st.times[pos] - (st.times[pos - 1] + inst.service[prev] + inst.t(prev, nodes[pos])))
    need = {q_pos: forced}
    shift = [0.0] * k
    # Least fixpoint: a bump that stretches an already-served ride beyond its
    # cap forces a cascading bump at that ride's own pick-up.
    for _ in range(k * k + 1):
        carry = 0.0
        for pos in range(k):
            carry = max(0.0, carry - gaps[pos]) if pos else 0.0
            carry = max(carry, need.get(pos, 0.0))
            shift[pos] = carry
            if st.times[pos] + carry > inst.late[nodes[pos]] + 1e-9:
                return None
        grew = False
        for x in members:
            dpx = st.drop_pos.get(x)
            if dpx is None:
                continue
            ppx = st.pick_pos[x]
            slack = inst.max_ride[x - 1] - (st.times[dpx] - st.times[ppx] - inst.service[x])
            required = shift[dpx] - slack
            if required > shift[ppx] + TOL:
                need[ppx] = max(need.get(ppx, 0.0), required)
                grew = True
        if not grew:
            break
    else:
        return None
    if shift[k - 1] > wait + 1e-6:
        return None

    times1 = tuple(tv + sv for tv, sv in zip(st.times, shift))
    breakdown = exposure_from_schedule(inst, nodes, times1)
    h1 = dict(st.h)
    d1 = dict(st.d)
    for x in members:
        h1[x] = breakdown.exposure[x]
        dec = max(shift[st.pick_pos[x]:])
        if dec > 0.0:
            d1[x] = max(0.0, d1[x] - dec)
    return PathState(
        nodes=st.nodes, times=times1, a_cur=st.a_cur, b_cur=st.b_cur,
        load=st.load, onboard=st.onboard, assoc=st.assoc, served=st.served,
        q_cum=breakdown.cumulative[-1], h=h1, d=d1,
        bo=st.bo, do_a=st.do_a, do_b=st.do_b,
        pick_pos=st.pick_pos, drop_pos=st.drop_pos,
    )


def _argmin_peak(inst: Instance, st: PathState, members, usable, span, cap) -> float:
    """Smallest global delay minimizing the peak raw exposure right after
    this extension.

    Every rider's exposure is piecewise linear in the delay with kinks only at
    buffer saturations, so the peak is evaluated exactly at saturation points
    plus pairwise intersections of the rider lines within each segment. The
    choice is myopic: it neither weighs exposure by detour weight nor looks at
    what onboard riders accrue after this step, so the finished route may miss
    the fixed-sequence minimum peak (in equity mode, of the detour rate).
    """

    def rider_values(delta: float) -> dict[int, float]:
        assign = {x: min(delta, usable[x]) for x in members}
        shifts = _node_shifts(st, members, assign, len(st.times))
        dh = _pair_increments(inst, st, members, assign, span, shifts)
        return {x: st.h[x] + dh[x] for x in members}

    bps = {0.0, cap}
    for x in members:
        val = usable[x]
        if 0.0 < val < cap:
            bps.add(val)
    bps = sorted(bps)
    candidates = list(bps)
    for k in range(len(bps) - 1):
        lo, hi = bps[k], bps[k + 1]
        width = hi - lo
        if width <= TOL:
            continue
        vlo = rider_values(lo)
        vhi = rider_values(hi)
        riders = list(vlo)
        for i1 in range(len(riders)):
            x = riders[i1]
            sx = (vhi[x] - vlo[x]) / width
            for i2 in range(i1 + 1, len(riders)):
                y = riders[i2]
                sy = (vhi[y] - vlo[y]) / width
                if abs(sx - sy) < 1e-12:
                    continue
                cross = lo + (vlo[y] - vlo[x]) / (sx - sy)
                if lo + TOL < cross < hi - TOL:
                    candidates.append(cross)

    best_delta = 0.0
    best_peak = INF
    for delta in sorted(candidates):
        vals = rider_values(delta)
        peak = max(vals.values()) if vals else 0.0
        if peak < best_peak - 1e-12:
            best_peak = peak
            best_delta = delta
    return best_delta
