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
    duals: DualValues
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


def _add_lambda(inst: Instance, model: LinearModel, meta: dict, col: oracle.Route) -> int:
    """Add the variable of the pool's next column (index ``len(meta["lam"])``),
    fixed to zero when the route uses an arc of ``meta["banned"]`` or some
    rider's exposure measure is over ``meta["cap"]`` (``oracle.over_cap``)."""
    k = len(meta["lam"])
    allowed = (meta["banned"].isdisjoint(col.arcs())
               and not oracle.over_cap(inst, col.exposure, meta["cap"]))
    j = model.add_var(f"l{k}", lb=0.0, ub=INF if allowed else 0.0, obj=col.cost)
    meta["lam"].append(j)
    return j


def _column_coefs(pool: ColumnPool, meta: dict, k: int):
    """Every nonzero ``(row key, coefficient)`` of pool column ``k`` in the
    master.

    Row keys: ``("part", i)`` partitioning, ``"fleet"``, ``("x", r)`` extra
    row ``r``.
    """
    for i in pool.columns[k].requests:
        yield ("part", i), 1.0
    yield "fleet", 1.0
    for r, row in enumerate(meta["extra"]):
        v = pool.coefficient(k, row)
        if v != 0.0:
            yield ("x", r), v


def build_rlmp(
    pool: ColumnPool,
    inst: Instance,
    cap: float = INF,
    extra_rows: tuple[ExtraRow, ...] = (),
    banned: frozenset[tuple[int, int]] = frozenset(),
) -> tuple[LinearModel, dict]:
    """Assemble the minimum-cost restricted master LP over the pool.

    Partitioning rows carry artificial variables at cost ``big_cost``, and
    >= extra rows get them as well, so the master is feasible before the
    pool covers every request; ``RestrictedMaster`` fixes them at zero once
    an LP no longer uses them. Column coefficients come only from
    ``_column_coefs``; ``meta["row"]`` maps each row key to its row index.

    A branch node's ``banned`` arcs act here by fixing to zero the λ of
    every pool column that uses one (``_add_lambda``), and in pricing, which
    emits no such column; its branching rows come in ``extra_rows``.

    Each request rides in exactly one route, so ``cap`` on the exposure
    measure (``Instance.measure_cap``) holds route by route: every pool
    column with a rider over it (``oracle.over_cap``) is fixed to zero too,
    whether it was seeded, priced under another cap or shared. That implies
    every per-request cap row, so the master has none.
    """
    model = LinearModel("rlmp")
    big = big_cost(inst)
    meta: dict = {"lam": [], "extra": list(extra_rows), "big": big,
                  "banned": banned, "cap": cap}
    for col in pool.columns:
        _add_lambda(inst, model, meta, col)
    meta["art"] = {i: model.add_var(f"art{i}", lb=0.0, obj=big) for i in inst.pickups()}
    meta["xart"] = {r: model.add_var(f"xart{r}", lb=0.0, obj=big)
                    for r, row in enumerate(extra_rows) if row.sense == GE}

    # (row key, name, sense, rhs, coefficients of non-column variables)
    specs = [(("part", i), f"part{i}", EQ, 1.0, {meta["art"][i]: 1.0}) for i in inst.pickups()]
    specs.append(("fleet", "fleet", LE, float(inst.fleet_size), {}))
    for r, row in enumerate(extra_rows):
        own = {meta["xart"][r]: 1.0} if row.sense == GE else {}
        specs.append((("x", r), f"x{r}:{row.name}", row.sense, row.rhs, own))
    meta["row"] = {spec[0]: r for r, spec in enumerate(specs)}

    coefs: dict = {key: {} for key in meta["row"]}
    for k, j in enumerate(meta["lam"]):
        for key, v in _column_coefs(pool, meta, k):
            coefs[key][j] = v
    for key, name, sense, rhs, own in specs:
        model.add_row(name, {**coefs[key], **own}, sense, rhs)
    return model, meta


def extract_duals(inst: Instance, sol, meta: dict) -> DualValues:
    """Pricing duals of a solved master, with sign-violating row duals
    clamped to zero and extra-row duals folded into ``mu`` and arc terms."""
    row = meta["row"]

    def dual(key) -> float:
        return float(sol.duals[row[key]])

    duals = DualValues()
    for i in inst.pickups():
        duals.pi[i] = dual(("part", i))
    duals.mu = min(dual("fleet"), 0.0)
    for r, xrow in enumerate(meta["extra"]):
        y = dual(("x", r))
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
    objective: float
    solution: MasterSolution | None
    bound: float
    iterations: int


def artificial_total(sol, meta: dict) -> float:
    """The summed value of a solved master's artificials."""
    return sum(float(sol.x[v]) for v in (*meta["art"].values(), *meta["xart"].values()))


class RestrictedMaster:
    """One node's master LP over a growing pool, resolved warm from the last
    basis.

    Columns enter only through ``_column_coefs``: ``build_rlmp`` writes the
    pool at construction, ``solve`` appends the columns added since.

    The artificials serve only to reach a feasible master. The first LP
    whose artificials sum to at most ``ARTIFICIAL_TOL`` fixes every one of
    them to zero, at objective 0, for the rest of the node: the pool only
    grows and the rows and bans stay, so the master stays feasible.
    A degenerate basis that keeps an artificial basic at zero would hand
    pricing duals of order ``big_cost``; such an LP is re-solved warm at once,
    so the duals returned are always those of the master without
    artificials, which are optimal duals of the master over the routes.
    """

    def __init__(self, pool: ColumnPool, inst: Instance, cap, extra_rows, banned):
        self.pool = pool
        self.inst = inst
        self.model, self.meta = build_rlmp(pool, inst, cap, extra_rows, banned)
        self.warm = None
        self.artificials_fixed = False

    def solve(self):
        from .lp import solve_lp_warm

        model, meta = self.model, self.meta
        for k in range(len(meta["lam"]), len(self.pool)):
            j = _add_lambda(self.inst, model, meta, self.pool.columns[k])
            for key, v in _column_coefs(self.pool, meta, k):
                model.rows[meta["row"][key]].append((j, v))
        sol, self.warm = solve_lp_warm(model, self.warm)
        if (not self.artificials_fixed and sol.status == OPTIMAL
                and artificial_total(sol, meta) <= ARTIFICIAL_TOL):
            self.artificials_fixed = True
            arts = [*meta["art"].values(), *meta["xart"].values()]
            for v in arts:
                model.ub[v] = model.obj[v] = 0.0
            meta["big"] = 0.0  # the artificials' objective coefficient from now on
            if any(sol.basic[v] for v in arts):
                sol, self.warm = solve_lp_warm(model, self.warm)
        return sol, meta


def _insertion_routes(inst: Instance) -> list[tuple[int, ...]]:
    """Sequences of one cheapest-insertion solution (Solomon 1987).

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
    return [states[-1].nodes for states in routes]


def seed_pool(pool: ColumnPool, inst: Instance) -> list[int]:
    """Seed an empty pool; returns the requests with no feasible round trip.

    First each request's single-request round trip. When all of them are
    feasible, the routes of one cheapest-insertion solution follow
    (``_insertion_routes``): they serve requests together on at most
    ``inst.fleet_size`` vehicles; when they serve every request, the first
    master LP needs no artificial. Every route is replayed by
    ``oracle.replay_route`` and validated by ``ColumnPool.add``.
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
        for seq in _insertion_routes(inst):
            route, _ = oracle.replay_route(inst, seq)
            pool.add(route)
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
    when the heuristic adds nothing. The returned objective is a valid lower
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
    iterations = 0
    rmaster = RestrictedMaster(pool, inst, cap, extra_rows, banned)
    while True:
        iterations += 1
        sol, meta = rmaster.solve()
        if sol.status != OPTIMAL:
            raise RdarpError(f"master LP unexpectedly {sol.status}")
        duals = extract_duals(inst, sol, meta)
        art_total = artificial_total(sol, meta)
        lam_vals = [float(sol.x[j]) for j in meta["lam"]]
        msol = MasterSolution(
            # strip the artificials' objective term: big-M times their value
            # while they are free, which converged is tolerance dust that
            # would inflate the bound; nothing once they are fixed at zero
            objective=float(sol.objective) - meta["big"] * art_total,
            duals=duals,
            artificial_total=art_total,
            columns_used=[(col, v) for col, v in zip(pool.columns, lam_vals) if v > 1e-12],
        )
        if deadline is not None and time.perf_counter() > deadline:
            return CGResult(TIME_LIMIT_STATUS, msol.objective, msol, -INF, iterations)

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
            return CGResult(TIME_LIMIT_STATUS, msol.objective, msol, -INF, iterations)
        if art_total > ARTIFICIAL_TOL:
            return CGResult(INFEASIBLE_STATUS, INF, msol, INF, iterations)
        return CGResult(OPTIMAL_STATUS, msol.objective, msol, msol.objective, iterations)

