"""Bounded-variable revised primal simplex with exact duals, in plain Python.

Self-contained LP backend for the restricted masters and fixed-sequence
schedule problems; it imports nothing beyond the standard library. Dual sign
convention for minimization: <= rows carry nonpositive duals, >= rows
nonnegative, equalities free.

Between pivots the solver keeps an explicit inverse of the basis matrix.
Each basis change updates it with one elimination step on the leaving row
(the product form of the inverse, Dantzig & Orchard-Hays 1954); a bound
flip leaves it as it is. Every ``REFACTOR_PERIOD`` basis changes the inverse
is rebuilt from the basis columns by Gauss-Jordan elimination with partial
pivoting, and the basic values are recomputed from it. The warm data of a
solve carries the inverse, the basis columns it inverts and the count of
basis changes since it was rebuilt, so a warm re-solve over appended columns
does not invert again.

Pivots are deterministic: Dantzig pricing takes the largest violation (the
first index on a tie), Bland's rule (the first violating index) takes over
after ``DEGENERATE_PIVOT_LIMIT`` consecutive degenerate pivots, and the ratio
test breaks ties towards the lowest basic column. Identical models produce
identical solutions, duals and pivot sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import NamedTuple

from .errors import LpNumericalFailure

INF = math.inf
FEAS_TOL = 1e-7
OPT_TOL = 1e-7
DUAL_TOL = 1e-6
PIVOT_TOL = 1e-12  # a smaller pivot in Gauss-Jordan elimination means a singular basis
MAX_ITER = 200_000
DEGENERATE_PIVOT_LIMIT = 1000
REFACTOR_PERIOD = 50

LE, EQ, GE = "<=", "==", ">="

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"


class LinearModel:
    """Column/row builder for a minimization LP with variable bounds."""

    def __init__(self, name: str = ""):
        self.name = name
        self.var_names: list[str] = []
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.obj: list[float] = []
        self.row_names: list[str] = []
        self.senses: list[str] = []
        self.rhs: list[float] = []
        self.rows: list[list[tuple[int, float]]] = []

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def n_rows(self) -> int:
        return len(self.row_names)

    def add_var(self, name: str, lb: float = 0.0, ub: float = INF, obj: float = 0.0) -> int:
        if not math.isfinite(lb):
            raise ValueError(f"variable {name}: lower bound must be finite")
        if lb > ub:
            raise ValueError(f"variable {name}: lb {lb} > ub {ub}")
        if not math.isfinite(obj):
            raise ValueError(f"variable {name}: objective must be finite")
        self.var_names.append(name)
        self.lb.append(float(lb))
        self.ub.append(float(ub))
        self.obj.append(float(obj))
        return self.n_vars - 1

    def add_row(self, name: str, coefs: dict[int, float], sense: str, rhs: float) -> int:
        if sense not in (LE, EQ, GE):
            raise ValueError(f"row {name}: bad sense {sense!r}")
        if not math.isfinite(rhs):
            raise ValueError(f"row {name}: rhs must be finite")
        entries = sorted((j, float(v)) for j, v in coefs.items() if v != 0.0)
        for j, v in entries:
            if not 0 <= j < self.n_vars:
                raise ValueError(f"row {name}: unknown variable index {j}")
            if not math.isfinite(v):
                raise ValueError(f"row {name}: non-finite coefficient")
        self.row_names.append(name)
        self.senses.append(sense)
        self.rhs.append(float(rhs))
        self.rows.append(entries)
        return self.n_rows - 1


@dataclass
class LpSolution:
    """``basic[j]`` says whether model variable ``j`` is in the final basis
    (all false unless optimal); a basic variable may sit at a bound."""

    status: str
    objective: float
    x: list[float]
    duals: list[float]
    var_names: list[str]
    row_names: list[str]
    basic: list[bool]


class WarmStart(NamedTuple):
    """What a solve hands to the next one: the basis and the variables at
    their upper bound by label, the artificials' signs, and the basis
    inverse with the columns it inverts and the basis changes since it was
    rebuilt."""

    basis: list
    upper: list
    art_signs: dict[int, float]
    columns: list
    inverse: list[list[float]]
    pivots: int


AT_LOWER, AT_UPPER, BASIC = 0, 1, 2


class _Simplex:
    """Two-phase bounded simplex over the columns [structural | slack | artificial].

    ``cols[j]`` lists column ``j``'s nonzeros as ``(row, value)``; row ``i``
    of ``binv`` is row ``i`` of the basis inverse, the one that gives the
    value of ``basis[i]``."""

    def __init__(self, model: LinearModel):
        m, n = model.n_rows, model.n_vars
        self.m = m
        self.n_struct = n
        ineq = [r for r, s in enumerate(model.senses) if s != EQ]
        self.slack_row = ineq
        self.slack_col = {r: k for k, r in enumerate(ineq)}
        self.art0 = n + len(ineq)
        self.ncols = self.art0 + m
        cols: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for r, entries in enumerate(model.rows):
            for j, v in entries:
                cols[j].append((r, v))
        cols += [[(r, 1.0 if model.senses[r] == LE else -1.0)] for r in ineq]
        cols += [[(r, 1.0)] for r in range(m)]  # artificials; the sign is set per solve
        self.cols = cols
        self.rows = model.rows
        self.b = list(model.rhs)
        self.lb = model.lb + [0.0] * (len(ineq) + m)
        self.ub = model.ub + [INF] * (len(ineq) + m)
        self.c = model.obj + [0.0] * (len(ineq) + m)
        self.status = [AT_LOWER] * self.ncols
        self.basis = list(range(self.art0, self.ncols))
        self.binv: list[list[float]] = []
        self.pivots = 0  # basis changes since binv was rebuilt

    def _invert(self) -> None:
        """Rebuild ``binv`` from the basis columns by Gauss-Jordan
        elimination with partial pivoting; raise ``LpNumericalFailure`` on a
        singular basis."""
        m = self.m
        a = [[0.0] * m + [1.0 if k == r else 0.0 for k in range(m)] for r in range(m)]
        for i, j in enumerate(self.basis):
            for r, v in self.cols[j]:
                a[r][i] = v
        for k in range(m):
            p = max(range(k, m), key=lambda r: abs(a[r][k]))
            if abs(a[p][k]) <= PIVOT_TOL:
                raise LpNumericalFailure("singular basis")
            a[k], a[p] = a[p], a[k]
            piv = a[k][k]
            rowk = a[k] = [v / piv for v in a[k]]
            for r in range(m):
                f = a[r][k]
                if r != k and f != 0.0:
                    a[r] = [u - f * v for u, v in zip(a[r], rowk)]
        self.binv = [row[m:] for row in a]
        self.pivots = 0

    def _residual(self, x: list[float]) -> list[float]:
        """``b`` minus the nonbasic columns at their values in ``x``."""
        rhs = list(self.b)
        for j, s in enumerate(self.status):
            xj = x[j]
            if s != BASIC and xj != 0.0:
                for r, v in self.cols[j]:
                    rhs[r] -= v * xj
        return rhs

    def _basic_values(self, x: list[float]) -> None:
        """Set the basic entries of ``x`` from the nonbasic ones."""
        rhs = self._residual(x)
        for j, row in zip(self.basis, self.binv):
            x[j] = sum([u * v for u, v in zip(row, rhs)])

    def _iterate(self, c: list[float], x: list[float]) -> str:
        """Pivot from the current basis until no reduced cost of ``c``
        violates optimality; returns ``OPTIMAL``, leaving the duals in
        ``_y``, or ``UNBOUNDED``."""
        m, n, cols, lb, ub = self.m, self.n_struct, self.cols, self.lb, self.ub
        status, basis = self.status, self.basis
        # the sign that turns a reduced cost into a violation: -1 at the lower
        # bound, +1 at the upper, 0 when basic or fixed
        sign = [0.0 if s == BASIC or lo == hi else -1.0 if s == AT_LOWER else 1.0
                for s, lo, hi in zip(status, lb, ub)]
        # the nonzeros of the free columns by row, those of value 1 apart; the
        # slacks' and artificials' single entries by column
        free = [lo != hi for lo, hi in zip(lb, ub)]
        units = [[j for j, v in entries if v == 1.0 and free[j]] for entries in self.rows]
        others = [[(j, v) for j, v in entries if v != 1.0 and free[j]] for entries in self.rows]
        single = [(j, cols[j][0]) for j in range(n, self.ncols) if free[j]]
        degenerate_streak = 0
        for _ in range(MAX_ITER):
            binv = self.binv
            y = [0.0] * m
            for j, row in zip(basis, binv):
                cj = c[j]
                if cj != 0.0:
                    y = [u + cj * v for u, v in zip(y, row)]
            d = list(c)
            for yr, unit, other in zip(y, units, others):
                if yr != 0.0:
                    for j in unit:
                        d[j] -= yr
                    for j, v in other:
                        d[j] -= yr * v
            for j, (r, v) in single:
                d[j] -= y[r] * v
            viol = list(map(mul, sign, d))
            best = max(viol)
            if best <= OPT_TOL:
                self._y = y
                return OPTIMAL
            if degenerate_streak >= DEGENERATE_PIVOT_LIMIT:
                e = next(j for j, v in enumerate(viol) if v > OPT_TOL)  # Bland's rule
            else:
                e = viol.index(best)
            sigma = 1.0 if status[e] == AT_LOWER else -1.0
            col = cols[e]
            w = [sum([row[r] * v for r, v in col]) for row in binv]
            step = ub[e] - lb[e]
            leave, leave_to = -1, AT_LOWER
            for i, wi in enumerate(w):
                di = sigma * wi
                if di > FEAS_TOL:
                    cap = (x[basis[i]] - lb[basis[i]]) / di
                    to = AT_LOWER
                elif di < -FEAS_TOL:
                    ubi = ub[basis[i]]
                    if ubi == INF:
                        continue
                    cap = (ubi - x[basis[i]]) / (-di)
                    to = AT_UPPER
                else:
                    continue
                if cap < step - 1e-12:
                    step, leave, leave_to = cap, i, to
                elif leave >= 0 and abs(cap - step) <= 1e-12 and basis[i] < basis[leave]:
                    leave, leave_to = i, to  # deterministic, Bland-compatible tie-break
            if step == INF:
                return UNBOUNDED
            step = max(step, 0.0)
            degenerate_streak = degenerate_streak + 1 if step <= FEAS_TOL else 0
            if step != 0.0:
                for j, wi in zip(basis, w):
                    x[j] -= sigma * wi * step
                x[e] += sigma * step
            if leave < 0:
                status[e] = AT_UPPER if sigma > 0 else AT_LOWER
                x[e] = ub[e] if sigma > 0 else lb[e]
                sign[e] = -sign[e]
                continue
            out = basis[leave]
            status[out] = leave_to
            x[out] = lb[out] if leave_to == AT_LOWER else ub[out]
            sign[out] = 0.0 if lb[out] == ub[out] else -1.0 if leave_to == AT_LOWER else 1.0
            basis[leave] = e
            status[e] = BASIC
            sign[e] = 0.0
            self.pivots += 1
            if self.pivots >= REFACTOR_PERIOD:
                self._invert()
                self._basic_values(x)
            else:
                pivot_row = binv[leave] = [v / w[leave] for v in binv[leave]]
                for i, wi in enumerate(w):
                    if i != leave and wi != 0.0:
                        binv[i] = [u - wi * v for u, v in zip(binv[i], pivot_row)]
        raise LpNumericalFailure("simplex iteration limit exceeded")

    def solve(self, warm: WarmStart | None):
        if warm is not None:
            result = self._try_warm(warm)
            if result is not None:
                return result
        m, art0 = self.m, self.art0
        self.status = [AT_LOWER] * self.ncols
        self.basis = list(range(art0, self.ncols))
        self.ub[art0:] = [INF] * m
        x = list(self.lb)
        resid = self._residual(x)
        self.binv = [[0.0] * m for _ in range(m)]
        for r in range(m):
            sign = 1.0 if resid[r] >= 0 else -1.0
            self.cols[art0 + r] = [(r, sign)]
            self.binv[r][r] = sign
            x[art0 + r] = abs(resid[r])
            self.status[art0 + r] = BASIC
        self.pivots = 0
        status = self._iterate([0.0] * art0 + [1.0] * m, x)
        if status == UNBOUNDED:
            raise LpNumericalFailure("phase 1 unbounded")
        infeas = sum(x[art0:])
        if infeas > FEAS_TOL * (1.0 + max(map(abs, self.b), default=0.0)):
            return INFEASIBLE, x, [0.0] * m, math.nan
        self.ub[art0:] = [0.0] * m
        x[art0:] = [max(v, 0.0) for v in x[art0:]]
        return self._phase2(x)

    def _phase2(self, x: list[float]):
        if self._iterate(self.c, x) == UNBOUNDED:
            return UNBOUNDED, x, [0.0] * self.m, math.nan
        return OPTIMAL, x, self._y, sum([cj * xj for cj, xj in zip(self.c, x)])

    def label_of(self, col: int):
        if col < self.n_struct:
            return ("v", col)
        if col < self.art0:
            return ("s", self.slack_row[col - self.n_struct])
        return ("a", col - self.art0)

    def col_of(self, label) -> int:
        kind, k = label
        if kind == "v":
            return k if k < self.n_struct else -1
        if kind == "s":
            idx = self.slack_col.get(k)
            return -1 if idx is None else self.n_struct + idx
        return self.art0 + k

    def _try_warm(self, warm: WarmStart):
        """Phase-2-only resolve from a prior basis; None when the basis is
        unusable (unknown, singular or infeasible), leaving the cold solve
        to reset every field it touched."""
        cols = [self.col_of(lb) for lb in warm.basis]
        if len(warm.art_signs) != self.m or any(c < 0 for c in cols) or len(set(cols)) != self.m:
            return None
        for r, sign in warm.art_signs.items():
            self.cols[self.art0 + r] = [(r, sign)]
        self.ub[self.art0:] = [0.0] * self.m
        self.basis = cols
        for lb_ in warm.upper:
            c = self.col_of(lb_)
            if c >= 0 and self.ub[c] != INF:
                self.status[c] = AT_UPPER
        for c in cols:
            self.status[c] = BASIC
        if [self.cols[c] for c in cols] == warm.columns:
            self.binv = list(warm.inverse)  # rows are replaced, never written in place
            self.pivots = warm.pivots
        else:
            try:
                self._invert()
            except LpNumericalFailure:
                return None
        x = [self.ub[j] if s == AT_UPPER else self.lb[j] for j, s in enumerate(self.status)]
        self._basic_values(x)
        for j in cols:
            if x[j] < self.lb[j] - FEAS_TOL * 10 or x[j] > self.ub[j] + FEAS_TOL * 10:
                return None
        return self._phase2(x)

    def warm_data(self) -> WarmStart:
        return WarmStart(
            basis=[self.label_of(c) for c in self.basis],
            upper=[self.label_of(j) for j, s in enumerate(self.status) if s == AT_UPPER],
            art_signs={r: self.cols[self.art0 + r][0][1] for r in range(self.m)},
            columns=[self.cols[c] for c in self.basis],
            inverse=self.binv,
            pivots=self.pivots,
        )


def solve_lp(model: LinearModel) -> LpSolution:
    """Solve a LinearModel; raises LpNumericalFailure rather than returning a
    silently wrong answer when tolerances cannot be certified."""
    sol, _ = solve_lp_warm(model, None)
    return sol


def solve_lp_warm(model: LinearModel, warm: WarmStart | None) -> tuple[LpSolution, WarmStart | None]:
    """Solve with an optional warm start from a previous, column-extended
    model; returns the solution plus warm data for the next resolve."""
    if model.n_vars == 0 or model.n_rows == 0:
        raise ValueError("model must have at least one variable and one row")
    sx = _Simplex(model)
    status, x, y, obj = sx.solve(warm)
    n = model.n_vars
    basic = [False] * n
    if status == OPTIMAL:
        _certify(model, x[:n], y, obj)
        for j in sx.basis:
            if j < n:
                basic[j] = True
        return (
            LpSolution(OPTIMAL, obj, x[:n], list(y), model.var_names, model.row_names, basic),
            sx.warm_data(),
        )
    return (
        LpSolution(status, math.nan, x[:n], [0.0] * model.n_rows, model.var_names,
                   model.row_names, basic),
        None,
    )


def _certify(model: LinearModel, x, y, obj: float) -> None:
    """Raise ``LpNumericalFailure`` unless ``x`` and ``y`` are primal
    feasible, ``y`` has the sign its row's sense requires, and the primal and
    dual objectives agree. The message names the first failing row (primal
    before dual sign within a row), else the first variable whose reduced
    cost has no bound to rest on, else the gap."""
    tol = FEAS_TOL * (1.0 + max(1.0, max(map(abs, x), default=1.0)))
    d = list(model.obj)
    for r, entries in enumerate(model.rows):
        yr, rhs, sense = y[r], model.rhs[r], model.senses[r]
        lhs = 0.0
        for j, v in entries:
            lhs += v * x[j]
            d[j] -= v * yr
        if sense == LE:
            violated, excess = lhs > rhs + tol, lhs - rhs
        elif sense == GE:
            violated, excess = lhs < rhs - tol, rhs - lhs
        else:
            excess = abs(lhs - rhs)
            violated = excess > tol
        if violated:
            raise LpNumericalFailure(f"row {model.row_names[r]}: primal infeasibility {excess:.3g}")
        if (sense == LE and yr > DUAL_TOL) or (sense == GE and yr < -DUAL_TOL):
            raise LpNumericalFailure(f"row {model.row_names[r]}: dual sign {yr:.3g} on {sense} row")
    # Strong duality including reduced-cost contributions of variables at bounds.
    dual_obj = sum([yr * rhs for yr, rhs in zip(y, model.rhs)])
    for j, dj in enumerate(d):
        lo, hi = model.lb[j], model.ub[j]
        if dj > OPT_TOL or hi == lo:
            dual_obj += dj * lo
        elif dj < -OPT_TOL:
            if not math.isfinite(hi):
                raise LpNumericalFailure(
                    f"variable {model.var_names[j]}: negative reduced cost, no upper bound")
            dual_obj += dj * hi
    if abs(obj - dual_obj) > DUAL_TOL * (1.0 + abs(obj)):
        raise LpNumericalFailure(f"duality gap {obj - dual_obj:.3g}")
