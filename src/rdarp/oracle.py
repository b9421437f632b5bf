"""Ground truth independent of the column-generation machinery.

Validates routes against the full constraint set from a given schedule,
computes minimum-peak schedules for fixed sequences via an LP over
start-of-service times (peak exposure, or peak detour rate in equity mode),
and exhaustively solves tiny instances over calibrated schedules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import calibration as cal
from .errors import RouteInfeasible
from .instance import EDARP, Instance
from .lp import GE, INFEASIBLE, LE, OPTIMAL, LinearModel, solve_lp

INF = math.inf
SCHED_TOL = 1e-6
BRUTE_FORCE_LIMIT = 5


@dataclass(frozen=True)
class Route:
    """A node sequence with a committed schedule and its risk bookkeeping:
    one column of the master (``pricing.Column`` adds its reduced cost)."""

    sequence: tuple[int, ...]
    schedule: tuple[float, ...]
    cost: float
    exposure: dict[int, float]  # per covered request
    q_terminal: float

    @property
    def requests(self) -> tuple[int, ...]:
        return tuple(sorted(self.exposure))

    def arcs(self) -> list[tuple[int, int]]:
        return list(zip(self.sequence[:-1], self.sequence[1:]))


@dataclass
class ExposureBreakdown:
    cumulative: list[float]    # risk-minutes accrued through each visit
    exposure: dict[int, float]


def route_cost(inst: Instance, sequence) -> float:
    return sum(inst.t(i, j) for i, j in zip(sequence[:-1], sequence[1:]))


# ---------------------------------------------------------------------------
# Schedule-based evaluation (pure recomputation, no pricing machinery)
# ---------------------------------------------------------------------------

def onboard_times(inst: Instance, sequence, schedule) -> dict[int, float]:
    """Each covered rider's onboard time: start of service at the drop-off
    minus start of service at the pick-up. In equity mode this is the rider's
    exposure."""
    pos = {node: p for p, node in enumerate(sequence)}
    return {i: schedule[pos[i + inst.n]] - schedule[pos[i]]
            for i in sequence if inst.is_pickup(i)}


def exposure_from_schedule(inst: Instance, sequence, schedule) -> ExposureBreakdown:
    """Exposure bookkeeping for a fixed schedule.

    A rider is onboard from start of service at their pick-up to start of
    service at their drop-off; co-ride exposure is the co-rider's score times
    the interval overlap (travel, service, and waiting all count). In equity
    mode a virtual unit-risk rider spans the whole route.
    """
    pos = {node: p for p, node in enumerate(sequence)}
    requests = [i for i in sequence if inst.is_pickup(i)]
    intervals = {i: (schedule[pos[i]], schedule[pos[i + inst.n]]) for i in requests}
    onboard = 0.0
    onboard_risk = []
    for node in sequence:
        onboard += inst.risk[node]
        onboard_risk.append(onboard + (1.0 if inst.mode == EDARP else 0.0))
    cumulative = [0.0]
    for p in range(1, len(sequence)):
        cumulative.append(cumulative[-1] + onboard_risk[p - 1] * (schedule[p] - schedule[p - 1]))
    exposure = {}
    for i in requests:
        si, ei = intervals[i]
        total = 0.0
        for jj in requests:
            if jj == i:
                continue
            sj, ej = intervals[jj]
            overlap = min(ei, ej) - max(si, sj)
            if overlap > 0:
                total += inst.risk[jj] * overlap
        if inst.mode == EDARP:
            total += ei - si  # virtual rider, unit risk, always onboard
        exposure[i] = total
    return ExposureBreakdown(cumulative, exposure)


def cap_slack(inst: Instance, riders) -> float:
    """The exposure tolerance of a route carrying ``riders`` (in exposure
    units, not measure units).

    It admits schedules rounded to 6 decimals: each start of service may be
    off by SCHED_TOL / 2, so each overlap by SCHED_TOL, and an exposure sums
    at most every co-rider's risk (and, in equity mode, the onboard time)
    over such overlaps."""
    return SCHED_TOL * (2.0 + sum(abs(inst.risk[i]) for i in riders))


def over_cap(inst: Instance, exposure: dict[int, float], cap: float) -> list[tuple[int, float]]:
    """The one rule for "over the cap": each ``(request, measure)`` of a
    route's ``exposure`` whose measure (``Instance.exposure_measure``: the
    detour rate in equity mode) exceeds ``cap`` by more than the route's
    ``cap_slack``. Empty when ``cap`` is infinite."""
    if cap == INF:
        return []
    slack = cap_slack(inst, exposure)
    out = []
    for i, h in exposure.items():
        measure = inst.exposure_measure(i, h)
        if measure > cap + inst.exposure_measure(i, slack):
            out.append((i, measure))
    return out


def peak_measure(inst: Instance, routes) -> float:
    """The largest exposure measure (``Instance.exposure_measure``: the
    detour rate in equity mode) over the riders of ``routes``; 0.0 when they
    carry none. It is the risk objective's value of a route set."""
    return max((inst.exposure_measure(i, h) for r in routes for i, h in r.exposure.items()),
               default=0.0)


def validate_route(inst: Instance, route: Route) -> ExposureBreakdown:
    """Check every route invariant; raises RouteInfeasible listing each
    violated inequality with its two sides. A start time that is not a
    finite number is rejected before any other check, since no comparison
    with it means anything."""
    seq, sched = route.sequence, route.schedule
    violations = []
    if not seq or seq[0] != 0 or seq[-1] != inst.end_depot:
        raise RouteInfeasible([(seq[0] if seq else -1, "route must run depot to depot", 0, 0)])
    if len(sched) != len(seq):
        raise RouteInfeasible([(-1, "schedule length mismatch", len(sched), len(seq))])
    bad = [(node, "start time not finite", t, 0) for node, t in zip(seq, sched)
           if not math.isfinite(t)]
    if bad:
        raise RouteInfeasible(bad)
    seen = {}
    for p, node in enumerate(seq):
        if node in seen:
            violations.append((node, "node visited twice", p, seen[node]))
        seen[node] = p
    for i in inst.pickups():
        pi, di = seen.get(i), seen.get(i + inst.n)
        if (pi is None) != (di is None):
            violations.append((i, "pick-up and drop-off must ride together", pi or -1, di or -1))
        elif pi is not None and pi > di:
            violations.append((i, "drop-off precedes pick-up", pi, di))
    if violations:
        raise RouteInfeasible(violations)

    load = 0.0
    for p, node in enumerate(seq):
        t = sched[p]
        if t < inst.early[node] - SCHED_TOL or t > inst.late[node] + SCHED_TOL:
            violations.append((node, "time window", t, inst.early[node] if t < inst.early[node] else inst.late[node]))
        if p > 0:
            prev = seq[p - 1]
            lower = sched[p - 1] + inst.service[prev] + inst.t(prev, node)
            if t < lower - SCHED_TOL:
                violations.append((node, "start before arrival", t, lower))
        load += inst.load[node]
        if load < -SCHED_TOL or load > inst.capacity + SCHED_TOL:
            violations.append((node, "capacity", load, inst.capacity))
    for i in inst.pickups():
        if i not in seen:
            continue
        ride = sched[seen[i + inst.n]] - (sched[seen[i]] + inst.service[i])
        if ride > inst.max_ride[i - 1] + SCHED_TOL:
            violations.append((i, "max ride time", ride, inst.max_ride[i - 1]))
        if ride < inst.direct_time(i) - SCHED_TOL:
            violations.append((i, "ride below direct time", ride, inst.direct_time(i)))
    breakdown = exposure_from_schedule(inst, seq, sched)
    if breakdown.cumulative[-1] > inst.q_max + SCHED_TOL:
        violations.append((seq[-1], "cumulative risk cap", breakdown.cumulative[-1], inst.q_max))
    if inst.mode == EDARP:
        onboard = onboard_times(inst, seq, sched)
        for i, h in breakdown.exposure.items():
            if abs(h - onboard[i]) > SCHED_TOL:
                violations.append((i, "equity exposure must equal onboard time", h, onboard[i]))
    if violations:
        raise RouteInfeasible(violations)
    return breakdown


def validate_solution(inst: Instance, routes, cap: float) -> None:
    """Check a whole solution: every route passes ``validate_route``, the
    routes' sequences visit each request exactly once and fit the fleet, no
    route lists exposure for a request it does not visit, and each
    request's exposure measure (``Instance.exposure_measure``: the detour
    rate in equity mode) is at most ``cap`` by the rule of ``over_cap``.
    Raises RouteInfeasible listing every violation as (node, description,
    lhs, rhs).

    The cap is checked on the exposure recomputed from each route's own
    sequence and schedule (``exposure_from_schedule``), never on the route's
    stored exposure, and only for routes that pass ``validate_route``."""
    violations = []
    served: dict[int, int] = {}
    cap_name = "detour rate cap" if inst.mode == EDARP else "exposure cap"
    for r in routes:
        on_route = [i for i in r.sequence if inst.is_pickup(i)]
        for i in on_route:
            served[i] = served.get(i, 0) + 1
        for i in sorted(set(r.exposure) - set(on_route)):
            violations.append((i, "exposure listed for a request off the route", 1, 0))
        try:
            exposure = validate_route(inst, r).exposure
        except RouteInfeasible as exc:
            violations.extend(exc.violations)
            continue
        for i, measure in over_cap(inst, exposure, cap):
            violations.append((i, cap_name, measure, cap))
    for i in inst.pickups():
        if served.get(i, 0) != 1:
            violations.append((i, "times the request is served", served.get(i, 0), 1))
    if len(routes) > inst.fleet_size:
        violations.append((0, "routes exceed the fleet size", len(routes), inst.fleet_size))
    if violations:
        raise RouteInfeasible(violations)


# ---------------------------------------------------------------------------
# Fixed-sequence optimal schedules
# ---------------------------------------------------------------------------

def mmr_schedule(inst: Instance, sequence) -> tuple[Route, float] | None:
    """Minimize, over feasible schedules of a fixed sequence, the peak of the
    measure the caps bound: individual exposure in RDARP, detour rate
    (exposure / detour weight) in EDARP. Returns the schedule and that peak;
    None when no feasible schedule exists.

    For a fixed visit order every pairwise overlap is a difference of two
    start-of-service variables with known endpoints, so the problem is an LP.
    """
    seq = tuple(sequence)
    if seq[0] != 0 or seq[-1] != inst.end_depot:
        raise ValueError("sequence must run depot to depot")
    pos = {node: p for p, node in enumerate(seq)}
    requests = [i for i in seq if inst.is_pickup(i)]
    for i in requests:
        if i + inst.n not in pos or pos[i + inst.n] < pos[i]:
            raise ValueError("sequence violates pairing or precedence")

    model = LinearModel("schedule")
    tvar = [model.add_var(f"t{p}", lb=inst.early[node], ub=inst.late[node])
            for p, node in enumerate(seq)]
    hbar = model.add_var("peak", lb=0.0, obj=1.0)
    for p in range(1, len(seq)):
        prev = seq[p - 1]
        model.add_row(
            f"chain{p}", {tvar[p]: 1.0, tvar[p - 1]: -1.0}, GE,
            inst.service[prev] + inst.t(prev, seq[p]),
        )
    for i in requests:
        pi, di = pos[i], pos[i + inst.n]
        model.add_row(f"ride_hi{i}", {tvar[di]: 1.0, tvar[pi]: -1.0}, LE,
                      inst.service[i] + inst.max_ride[i - 1])
        model.add_row(f"ride_lo{i}", {tvar[di]: 1.0, tvar[pi]: -1.0}, GE,
                      inst.service[i] + inst.direct_time(i))
    for i in requests:
        # exposure_i <= weight_i * peak, so the peak bounds the detour rate
        weight = inst.detour_weight[i - 1] if inst.mode == EDARP else 1.0
        coeffs: dict[int, float] = {hbar: -weight}
        pi, di = pos[i], pos[i + inst.n]
        for jj in requests:
            if jj == i:
                continue
            pj, dj = pos[jj], pos[jj + inst.n]
            s_p, e_p = max(pi, pj), min(di, dj)
            if s_p >= e_p:
                continue
            r = inst.risk[jj]
            if r == 0.0:
                continue
            coeffs[tvar[e_p]] = coeffs.get(tvar[e_p], 0.0) + r
            coeffs[tvar[s_p]] = coeffs.get(tvar[s_p], 0.0) - r
        if inst.mode == EDARP:
            coeffs[tvar[di]] = coeffs.get(tvar[di], 0.0) + 1.0
            coeffs[tvar[pi]] = coeffs.get(tvar[pi], 0.0) - 1.0
        if len(coeffs) > 1:
            model.add_row(f"peak{i}", coeffs, LE, 0.0)
    sol = solve_lp(model)
    if sol.status == INFEASIBLE:
        return None
    if sol.status != OPTIMAL:
        raise RouteInfeasible([(-1, f"schedule LP {sol.status}", 0, 0)])
    schedule = tuple(float(sol.x[v]) for v in tvar)
    breakdown = exposure_from_schedule(inst, seq, schedule)
    route = Route(
        sequence=seq, schedule=schedule, cost=route_cost(inst, seq),
        exposure=breakdown.exposure, q_terminal=breakdown.cumulative[-1],
    )
    return route, float(sol.objective)


def state_route(inst: Instance, st: cal.PathState, cls=Route, **extra) -> Route:
    """The route a calibration state that has reached the end depot stands
    for, as a ``cls`` built with the further fields ``extra`` (pricing
    emits ``pricing.Column``s through it): its sequence, calibrated
    schedule, arc cost, exposure and cumulative risk. The exposure is the
    state's accrued sum in RDARP; in equity mode it is each rider's onboard
    time read off the schedule, so it equals that time exactly, not the
    step-by-step sum of it."""
    exposure = onboard_times(inst, st.nodes, st.times) if inst.mode == EDARP else st.request_h()
    return cls(
        sequence=st.nodes, schedule=st.times, cost=route_cost(inst, st.nodes),
        exposure=exposure, q_terminal=st.q_cum, **extra,
    )


def replay_route(inst: Instance, sequence) -> tuple[Route, str | None]:
    """Canonical route data for a fixed depot-to-depot sequence via the
    calibration's extension semantics; (None, reason) when a step is
    rejected, with the calibration's rejection reason.

    This is the same evaluation pricing labels perform, replayed over a fixed
    sequence, and the route is built as pricing builds its columns
    (``state_route``), so they carry the same schedules and exposures. The
    schedule is the calibrated one, which is feasible but not guaranteed to
    reach the sequence's minimum peak (see ``calibration._argmin_peak``).
    """
    st = cal.initial_state(inst)
    for j in sequence[1:]:
        ext, reason = cal.extend(inst, st, j)
        if ext is None:
            return None, reason
        st = ext.state
    return state_route(inst, st), None


def feasible_routes(inst: Instance, group):
    """Yield every route serving exactly the requests in ``group`` that the
    calibration accepts, each as ``replay_route`` would build it.

    Depth-first over ``calibration.extend`` from the origin depot. Nodes are
    tried in the order ``i, i + n`` for each ``i`` in ``group``; a drop-off
    only once its pick-up is on the route, the end depot only once every
    drop-off is. A prefix the calibration rejects is never extended, and an
    accepted prefix is extended once for all routes that share it. Routes
    come in lexicographic order of those item positions, so they are exactly
    the sequences over that enumeration that ``replay_route`` accepts, in the
    same order and with the same data to the bit.
    """
    n = inst.n
    end = inst.end_depot
    items = [v for i in group for v in (i, i + n)]

    def rec(st, remaining):
        if not remaining:
            ext, _ = cal.extend(inst, st, end)
            if ext is not None:
                yield state_route(inst, ext.state)
            return
        for x in remaining:
            if x > n and x - n in remaining:
                continue  # drop-off before its pick-up
            ext, _ = cal.extend(inst, st, x)
            if ext is not None:
                yield from rec(ext.state, [y for y in remaining if y != x])

    yield from rec(cal.initial_state(inst), items)


# ---------------------------------------------------------------------------
# Exhaustive tiny-instance solver
# ---------------------------------------------------------------------------

def _partitions(requests: tuple[int, ...], max_blocks: int):
    if not requests:
        yield []
        return
    first, rest = requests[0], requests[1:]
    for sub in _partitions(rest, max_blocks):
        if len(sub) < max_blocks:
            yield [[first]] + [list(b) for b in sub]
        for k in range(len(sub)):
            out = [list(b) for b in sub]
            out[k] = [first] + out[k]
            yield out


@dataclass
class BruteForceResult:
    status: str  # "Optimal" | "Infeasible"
    objective: float
    routes: list[Route]


def brute_force_solve(
    inst: Instance,
    eps_risk: float = INF,
    objective: str = "cost",
    eps_cost: float = INF,
) -> BruteForceResult:
    """Enumerate every partition of requests into at most K routes and, per
    block, every route ``feasible_routes`` yields; exact for n <= 5 over
    calibrated schedules (each sequence carries its ``replay_route``
    schedule, as the solver's columns do).

    ``eps_risk`` caps each request's exposure (detour rate in equity mode)
    by the rule of ``over_cap``; ``objective`` is "cost" or "risk" (peak
    exposure / detour rate)."""
    if inst.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force guarded to n <= {BRUTE_FORCE_LIMIT}")
    if objective not in ("cost", "risk"):
        raise ValueError("objective must be 'cost' or 'risk'")

    option_cache: dict[tuple[int, ...], list[tuple[float, float, Route]]] = {}

    def options(group: tuple[int, ...]) -> list[tuple[float, float, Route]]:
        """Pareto-undominated (cost, peak) routes serving exactly ``group``."""
        key = tuple(sorted(group))
        if key in option_cache:
            return option_cache[key]
        candidates = []
        for route in feasible_routes(inst, key):
            if over_cap(inst, route.exposure, eps_risk):
                continue
            candidates.append((route.cost, peak_measure(inst, (route,)), route))
        candidates.sort(key=lambda c: (c[0], c[1], c[2].sequence))
        frontier: list[tuple[float, float, Route]] = []
        for cand in candidates:
            if not any(f[0] <= cand[0] + 1e-12 and f[1] <= cand[1] + 1e-12 for f in frontier):
                frontier.append(cand)
        option_cache[key] = frontier
        return frontier

    requests = tuple(inst.pickups())
    best_key = None
    best_routes: list[Route] = []
    for part in _partitions(requests, inst.fleet_size):
        opts = [options(tuple(block)) for block in part]
        if any(not o for o in opts):
            continue
        if objective == "cost":
            routes = [o[0][2] for o in opts]  # frontier is cost-sorted
            total = sum(r.cost for r in routes)
            key = (total,)
        else:
            # Minimize the peak subject to the total-cost cap: scan candidate
            # peaks ascending, taking each block's cheapest option within.
            peaks = sorted({p for o in opts for _, p, _ in o})
            key = None
            for cap in peaks:
                chosen = []
                total = 0.0
                for o in opts:
                    fitting = [c for c in o if c[1] <= cap + 1e-12]
                    if not fitting:
                        chosen = None
                        break
                    pick = min(fitting, key=lambda c: (c[0], c[1], c[2].sequence))
                    chosen.append(pick[2])
                    total += pick[0]
                if chosen is not None and total <= eps_cost + 1e-9:
                    key = (peak_measure(inst, chosen), total)
                    routes = chosen
                    break
            if key is None:
                continue
        if best_key is None or key < best_key:
            best_key = key
            best_routes = routes
    if best_key is None:
        return BruteForceResult("Infeasible", INF, [])
    return BruteForceResult("Optimal", best_key[0], best_routes)
