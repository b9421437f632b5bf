"""Restricted master problems, the column pool and column generation."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from . import calibration as cal
from . import oracle
from .errors import RdarpError
from .instance import Instance
from .lp import EQ, GE, LE, OPTIMAL, LinearModel
from .pricing import DualValues, solve_pricing

INF = math.inf
COST = "cost"  # the objectives of ``bcp.solve``: travel cost, or the peak
RISK = "risk"  # exposure measure, which ``bcp`` finds by a sweep of cost solves
INTEGRALITY_TOL = 1e-6
ARTIFICIAL_TOL = 1e-6

OPTIMAL_STATUS = "Optimal"
INFEASIBLE_STATUS = "Infeasible"
TIME_LIMIT_STATUS = "TimeLimit"


def fractional(value: float) -> bool:
    """Whether a λ sum or an arc flow is off an integer by more than
    ``INTEGRALITY_TOL``."""
    return abs(value - round(value)) > INTEGRALITY_TOL


class ColumnPool:
    """Deduplicated routes keyed by node sequence; every insert re-validates
    the route against the oracle.

    The pool also owns the solve's ``calibration.ExpansionCache``: every
    node, cut round and shared sweep that prices with this pool extends
    each shallow state it reaches (at most ``EXPANSION_DEPTH`` nodes) once,
    and deeper ones on every visit. Each column's coefficient on an extra
    row is computed once (``coefficient``)."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.columns: list[oracle.Route] = []
        self._index: dict[tuple[int, ...], int] = {}
        self.expansions = cal.ExpansionCache(inst)
        self._coefs: dict[str, list[float]] = {}  # row name -> coefficient per column

    def __len__(self) -> int:
        return len(self.columns)

    def add(self, col: oracle.Route) -> bool:
        if col.sequence in self._index:
            return False
        oracle.validate_route(self.inst, col)
        self._index[col.sequence] = len(self.columns)
        self.columns.append(col)
        return True

    def coefficient(self, k: int, row: ExtraRow) -> float:
        """``row.coefficient`` of column ``k``, memoized by row name: a
        column never changes and a row's name identifies it (``ExtraRow``),
        so every node whose master has the row reuses the values."""
        values = self._coefs.setdefault(row.name, [])
        if k >= len(values):
            values.extend(row.coefficient(col) for col in self.columns[len(values):k + 1])
        return values[k]


@dataclass(frozen=True)
class ExtraRow:
    """A cut or branching row over column variables.

    A column's coefficient is ``route_constant`` plus the sum over its arcs of
    ``arc_coefs``; duals fold into pricing through the same decomposition.
    ``name`` identifies the row: a cut's name is a function of its family and
    nodes (``cuts``), so equal names mean the same cut, and ``ColumnPool``
    memoizes coefficients by name.
    """

    name: str
    sense: str
    rhs: float
    arc_coefs: tuple[tuple[tuple[int, int], float], ...] = ()
    route_constant: float = 0.0

    def coefficient(self, col: oracle.Route) -> float:
        value = self.route_constant
        if self.arc_coefs:
            counts: dict[tuple[int, int], int] = {}
            for a in col.arcs():
                counts[a] = counts.get(a, 0) + 1
            for arc, coef in self.arc_coefs:
                c = counts.get(arc)
                if c:
                    value += coef * c
        return value

    def violation(self, flows: dict[tuple[int, int], float]) -> float:
        """How far aggregated arc flows break the row, positive when they do.
        Only the arc terms are measured, as for every cut."""
        lhs = sum(flows.get(a, 0.0) * c for a, c in self.arc_coefs)
        return lhs - self.rhs if self.sense == LE else self.rhs - lhs


def big_cost(inst: Instance) -> float:
    return max(1000.0, 10.0 * sum(inst.late[i] for i in inst.pickups()))


@dataclass
class MasterSolution:
    objective: float
    artificial_total: float
    columns_used: list[tuple[oracle.Route, float]]  # pool order, λ > 1e-12

    @property
    def integral(self) -> bool:
        """Whether the tree treats the master as integral: every λ is, or no
        arc flow is fractional. The second test catches λ that miss
        ``INTEGRALITY_TOL`` by tolerance dust while every aggregated arc flow
        meets it; then the columns with λ above 0.5 form the solution."""
        return (all(v <= INTEGRALITY_TOL or abs(v - 1.0) <= INTEGRALITY_TOL
                    for _, v in self.columns_used)
                or not any(fractional(v) for v in self.arc_flows().values()))

    def vehicle_count(self) -> float:
        return sum(v for _, v in self.columns_used)

    def arc_flows(self) -> dict[tuple[int, int], float]:
        flows: dict[tuple[int, int], float] = {}
        for col, value in self.columns_used:
            if value <= 1e-9:
                continue
            for a in col.arcs():
                flows[a] = flows.get(a, 0.0) + value
        return flows


class RestrictedMaster:
    """One node's minimum-cost restricted master LP over a growing pool,
    resolved warm from the last basis.

    Rows, built once: partitioning row ``part{i}`` (``= 1``) of request ``i``
    at index ``i - 1``, the fleet row (``<= fleet_size``) at ``n``, and extra
    row ``r`` at ``n + 1 + r``. Variables: the λ of the pool's columns at
    construction (``l{k}`` for column ``k``), then one artificial at cost
    ``big_cost`` per partitioning row (``art{i}``) and per >= extra row
    (``xart{r}``), then the λ of each column the pool gains, in pool order.
    Every λ enters through ``add_columns``. The simplex breaks pivot ties
    by variable index, so this order fixes the pivots, and with them which
    columns pricing finds: the order is part of the solver's behaviour.

    A node's ``banned`` arcs act here by fixing to zero the λ of every pool
    column that uses one, and in pricing, which emits no such column; its
    branching rows come in ``extra_rows``. Each request rides in exactly one
    route, so ``cap`` on the exposure measure (``Instance.measure_cap``)
    holds route by route: every pool column with a rider over it
    (``oracle.over_cap``) is fixed to zero too, whether it was seeded,
    priced under another cap or shared. That implies every per-request cap
    row, so the master has none.

    The artificials serve only to reach a feasible master before the pool
    covers every request. The first LP whose artificials sum to at most
    ``ARTIFICIAL_TOL`` fixes every one of them to zero, at objective 0, for
    the rest of the node (``big`` is their objective coefficient: 0 from
    then on): the pool only grows and the rows and bans stay, so the master
    stays feasible. A degenerate basis that keeps an artificial basic at
    zero would hand pricing duals of order ``big_cost``; such an LP is
    re-solved warm at once, so the duals returned are always those of the
    master without artificials, which are optimal duals of the master over
    the routes.
    """

    def __init__(self, pool: ColumnPool, inst: Instance, cap: float,
                 extra_rows: tuple[ExtraRow, ...], banned: frozenset[tuple[int, int]]):
        self.pool = pool
        self.inst = inst
        self.cap = cap
        self.extra = extra_rows
        self.banned = banned
        self.big = big_cost(inst)
        self.model = model = LinearModel("rlmp")
        self.lam: list[int] = []  # the variable of each pool column
        self.warm = None
        for i in inst.pickups():
            model.add_row(f"part{i}", {}, EQ, 1.0)
        model.add_row("fleet", {}, LE, float(inst.fleet_size))
        for r, row in enumerate(extra_rows):
            model.add_row(f"x{r}:{row.name}", {}, row.sense, row.rhs)
        self.add_columns()  # before the artificials: the order is kept (see above)
        arts = [(f"art{i}", i - 1) for i in inst.pickups()]
        arts += [(f"xart{r}", inst.n + 1 + r)
                 for r, row in enumerate(extra_rows) if row.sense == GE]
        self.artificials: list[int] = []
        for name, r in arts:
            j = model.add_var(name, obj=self.big)
            model.rows[r].append((j, 1.0))
            self.artificials.append(j)

    def add_columns(self) -> None:
        """Add the λ of every pool column not in the master yet: cost the
        route's, coefficient 1 on the partitioning row of each request it
        serves and on the fleet row, ``ColumnPool.coefficient`` on each extra
        row, fixed to zero when the route uses a banned arc or puts a rider
        over ``cap``."""
        model, rows, n = self.model, self.model.rows, self.inst.n
        for k in range(len(self.lam), len(self.pool)):
            col = self.pool.columns[k]
            allowed = (self.banned.isdisjoint(col.arcs())
                       and not oracle.over_cap(self.inst, col.exposure, self.cap))
            j = model.add_var(f"l{k}", ub=INF if allowed else 0.0, obj=col.cost)
            self.lam.append(j)
            for i in col.requests:
                rows[i - 1].append((j, 1.0))
            rows[n].append((j, 1.0))
            for r, row in enumerate(self.extra):
                v = self.pool.coefficient(k, row)
                if v != 0.0:
                    rows[n + 1 + r].append((j, v))

    def artificial_total(self, sol) -> float:
        """The summed value of the artificials in a solved master."""
        return sum(float(sol.x[j]) for j in self.artificials)

    def solve(self):
        """Solve the master over the whole pool: its new columns are added
        first."""
        from .lp import solve_lp_warm  # looked up per call, so a wrapper on it sees every solve

        self.add_columns()
        sol, self.warm = solve_lp_warm(self.model, self.warm)
        if self.big and sol.status == OPTIMAL and self.artificial_total(sol) <= ARTIFICIAL_TOL:
            for j in self.artificials:
                self.model.ub[j] = self.model.obj[j] = 0.0
            self.big = 0.0
            if any(sol.basic[j] for j in self.artificials):
                sol, self.warm = solve_lp_warm(self.model, self.warm)
        return sol


def build_rlmp(
    pool: ColumnPool,
    inst: Instance,
    cap: float = INF,
    extra_rows: tuple[ExtraRow, ...] = (),
    banned: frozenset[tuple[int, int]] = frozenset(),
) -> RestrictedMaster:
    """The restricted master of a node over ``pool`` (``RestrictedMaster``)."""
    return RestrictedMaster(pool, inst, cap, extra_rows, banned)


def extract_duals(inst: Instance, sol, extra_rows: tuple[ExtraRow, ...]) -> DualValues:
    """Pricing duals of a solved master (``RestrictedMaster`` row layout),
    with sign-violating row duals clamped to zero and the duals of
    ``extra_rows`` folded into ``mu`` and arc terms."""
    n = inst.n
    duals = DualValues()
    for i in inst.pickups():
        duals.pi[i] = float(sol.duals[i - 1])
    duals.mu = min(float(sol.duals[n]), 0.0)
    for r, xrow in enumerate(extra_rows):
        y = float(sol.duals[n + 1 + r])
        if xrow.sense == LE:
            y = min(y, 0.0)
        elif xrow.sense == GE:
            y = max(y, 0.0)
        if y == 0.0:
            continue
        duals.mu += y * xrow.route_constant
        for arc, coef in xrow.arc_coefs:
            duals.arc_adjust[arc] = duals.arc_adjust.get(arc, 0.0) + y * coef
    return duals


@dataclass
class CGResult:
    status: str
    solution: MasterSolution
    bound: float


def _insertion_routes(inst: Instance) -> list[cal.PathState]:
    """The end-depot states of one cheapest-insertion solution's routes
    (Solomon 1987).

    Requests are taken by pick-up earliest start, ties by index. Each goes to
    the placement (route, pick-up position, drop-off position) that raises
    travel cost least, over the routes open so far plus a new one while fewer
    than ``inst.fleet_size`` are open; ties keep the first placement found. A
    placement counts only when ``calibration.extend`` accepts its whole
    sequence. Feasibility is tested only for a placement cheaper than the best
    so far, by extending the route's cached prefix states; once a prefix is
    rejected, no placement sharing it is tested. A request that fits nowhere
    is left out and the routes built so far are kept.
    """
    n, end, t = inst.n, inst.end_depot, inst.t
    start = cal.initial_state(inst)
    routes: list[list[cal.PathState]] = []  # states after each prefix, end depot included
    for i in sorted(inst.pickups(), key=lambda i: (inst.early[i], i)):
        p, d = i, i + n
        best, best_cost = None, INF
        for r in range(min(len(routes) + 1, inst.fleet_size)):
            states, seq = (routes[r], routes[r][-1].nodes) if r < len(routes) else ([start], (0, end))
            for a in range(1, len(seq)):
                u, v = seq[a - 1], seq[a]
                add_p = t(u, p) + t(p, v) - t(u, v)
                walk = (p, *seq[a:-1])
                chain = [states[a - 1]]  # states of seq[:a] + walk[:k], extended on demand
                for b in range(a, len(seq)):
                    if b == a:
                        cost = t(u, p) + t(p, d) + t(d, v) - t(u, v)
                    else:
                        w, x = seq[b - 1], seq[b]
                        cost = add_p + t(w, d) + t(d, x) - t(w, x)
                    if not cost < best_cost:
                        continue
                    while len(chain) < b - a + 2:
                        ext, _ = cal.extend(inst, chain[-1], walk[len(chain) - 1])
                        if ext is None:
                            break
                        chain.append(ext)
                    if len(chain) < b - a + 2:
                        break  # every later drop-off position shares the rejected prefix
                    tail = [chain[-1]]
                    for node in (d, *seq[b:]):
                        ext, _ = cal.extend(inst, tail[-1], node)
                        if ext is None:
                            break
                        tail.append(ext)
                    else:
                        best_cost = cost
                        best = (r, states[:a] + chain[1:] + tail[1:])
        if best is None:
            continue
        r, states = best
        if r < len(routes):
            routes[r] = states
        else:
            routes.append(states)
    return [states[-1] for states in routes]


def seed_pool(pool: ColumnPool, inst: Instance) -> list[int]:
    """Seed an empty pool; returns the requests with no feasible round trip.

    First each request's single-request round trip. When all of them are
    feasible, the routes of one cheapest-insertion solution follow
    (``_insertion_routes``): they serve requests together on at most
    ``inst.fleet_size`` vehicles; when they serve every request, the first
    master LP needs no artificial. A round trip is replayed by
    ``oracle.replay_route``; an insertion route is built from the state its
    insertion already extended (``oracle.state_route``). Every route is
    validated by ``ColumnPool.add``.
    """
    bad = []
    for i in inst.pickups():
        seq = (0, i, i + inst.n, inst.end_depot)
        route, _ = oracle.replay_route(inst, seq)
        if route is None:
            bad.append(i)
            continue
        pool.add(route)
    if not bad:
        for st in _insertion_routes(inst):
            pool.add(oracle.state_route(inst, st))
    return bad


def column_generation(
    inst: Instance,
    pool: ColumnPool,
    cap: float = INF,
    extra_rows: tuple[ExtraRow, ...] = (),
    banned: frozenset[tuple[int, int]] = frozenset(),
    deadline: float | None = None,
) -> CGResult:
    """Alternate master LP solves and pricing until no negative column exists.

    Each round prices heuristically first and confirms with an exact run
    when the heuristic adds nothing. The bound returned is a valid lower
    bound on the cost of the node's integer problem over the routes that use
    no arc of ``banned`` and that ``cap``, the cap on the exposure measure
    (``Instance.measure_cap``), admits: both bind the master (``build_rlmp``)
    and pricing (``solve_pricing``). Infeasibility is reported only after
    exact pricing is exhausted with artificials still active; from the first
    master LP that needs none, they are fixed at zero (``RestrictedMaster``),
    so pricing gets the duals of the master over the routes alone.

    The pool must hold the columns to start from. ``seed_pool`` fills it with
    round trips and one cheapest-insertion solution; when that solution
    covers every request on the fleet, the first master is feasible without
    artificials, so pricing gets the master's own duals from the first
    round on.

    Pricing stops at ``deadline`` too. Once the deadline has passed, a round
    that adds no column returns ``TimeLimit`` with a bound of -inf, never
    ``Optimal`` or ``Infeasible``: its exact run may have been cut short."""
    rmaster = build_rlmp(pool, inst, cap, extra_rows, banned)
    while True:
        sol = rmaster.solve()
        if sol.status != OPTIMAL:
            raise RdarpError(f"master LP unexpectedly {sol.status}")
        duals = extract_duals(inst, sol, extra_rows)
        art_total = rmaster.artificial_total(sol)
        lam_vals = [float(sol.x[j]) for j in rmaster.lam]
        msol = MasterSolution(
            # strip the artificials' objective term: big-M times their value
            # while they are free, which converged is tolerance dust that
            # would inflate the bound; nothing once they are fixed at zero
            objective=float(sol.objective) - rmaster.big * art_total,
            artificial_total=art_total,
            columns_used=[(col, v) for col, v in zip(pool.columns, lam_vals) if v > 1e-12],
        )
        if deadline is not None and time.perf_counter() > deadline:
            return CGResult(TIME_LIMIT_STATUS, msol, -INF)

        added = 0
        for heuristic in (True, False):
            cols = solve_pricing(inst, duals, cap, heuristic=heuristic, banned=banned,
                                 cache=pool.expansions, deadline=deadline)
            added = sum(1 for col in cols if pool.add(col))
            if added:
                break
        if added:
            continue
        if deadline is not None and time.perf_counter() > deadline:
            return CGResult(TIME_LIMIT_STATUS, msol, -INF)
        if art_total > ARTIFICIAL_TOL:
            return CGResult(INFEASIBLE_STATUS, msol, INF)
        return CGResult(OPTIMAL_STATUS, msol, msol.objective)
