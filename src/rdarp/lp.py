"""Dense bounded-variable primal simplex with exact duals.

Self-contained LP backend for the restricted masters and fixed-sequence
schedule problems. Deterministic: identical models produce identical
solutions, duals, and pivot sequences. Dual sign convention for minimization:
<= rows carry nonpositive duals, >= rows nonnegative, equalities free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import LpNumericalFailure

FEAS_TOL = 1e-7
OPT_TOL = 1e-7
DUAL_TOL = 1e-6
MAX_ITER = 200_000
DEGENERATE_PIVOT_LIMIT = 1000

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

    def add_var(self, name: str, lb: float = 0.0, ub: float = np.inf, obj: float = 0.0) -> int:
        if not np.isfinite(lb):
            raise ValueError(f"variable {name}: lower bound must be finite")
        if lb > ub:
            raise ValueError(f"variable {name}: lb {lb} > ub {ub}")
        if not np.isfinite(obj):
            raise ValueError(f"variable {name}: objective must be finite")
        self.var_names.append(name)
        self.lb.append(float(lb))
        self.ub.append(float(ub))
        self.obj.append(float(obj))
        return self.n_vars - 1

    def add_row(self, name: str, coefs: dict[int, float], sense: str, rhs: float) -> int:
        if sense not in (LE, EQ, GE):
            raise ValueError(f"row {name}: bad sense {sense!r}")
        if not np.isfinite(rhs):
            raise ValueError(f"row {name}: rhs must be finite")
        entries = sorted((j, float(v)) for j, v in coefs.items() if v != 0.0)
        for j, v in entries:
            if not 0 <= j < self.n_vars:
                raise ValueError(f"row {name}: unknown variable index {j}")
            if not np.isfinite(v):
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
    x: np.ndarray
    duals: np.ndarray
    var_names: list[str]
    row_names: list[str]
    basic: np.ndarray


AT_LOWER, AT_UPPER, BASIC = 0, 1, 2


class _Simplex:
    """Two-phase bounded simplex over the tableau [structural | slack | artificial]."""

    def __init__(self, model: LinearModel):
        m, n = model.n_rows, model.n_vars
        self.m = m
        self.n_struct = n
        ineq = [r for r, s in enumerate(model.senses) if s != EQ]
        self.slack_row = ineq
        self.slack_col = {r: k for k, r in enumerate(ineq)}
        self.ncols = n + len(ineq) + m
        self.A = np.zeros((m, self.ncols))
        for r, entries in enumerate(model.rows):
            for j, v in entries:
                self.A[r, j] = v
        self.b = np.array(model.rhs, dtype=float)
        lb = list(model.lb) + [0.0] * (len(ineq) + m)
        ub = list(model.ub) + [np.inf] * (len(ineq) + m)
        for k, r in enumerate(ineq):
            self.A[r, n + k] = 1.0 if model.senses[r] == LE else -1.0
        self.art0 = n + len(ineq)
        self.lb = np.array(lb)
        self.ub = np.array(ub)
        self.c = np.concatenate([np.array(model.obj), np.zeros(len(ineq) + m)])
        self.status_vec = np.full(self.ncols, AT_LOWER, dtype=np.int8)
        self.basis = np.arange(self.art0, self.art0 + m)

    def _values(self) -> np.ndarray:
        """Primal values for the current basis/status assignment."""
        x = np.where(
            self.status_vec == AT_UPPER,
            np.where(np.isfinite(self.ub), self.ub, 0.0),
            np.where(np.isfinite(self.lb), self.lb, 0.0),
        )
        x[self.basis] = 0.0
        rhs = self.b - self.A @ x
        B = self.A[:, self.basis]
        try:
            xb = np.linalg.solve(B, rhs)
        except np.linalg.LinAlgError as exc:
            raise LpNumericalFailure(f"singular warm basis: {exc}") from None
        x[self.basis] = xb
        self.status_vec[self.basis] = BASIC
        return x

    def _iterate(self, c: np.ndarray, x: np.ndarray) -> str:
        degenerate_streak = 0
        fixed = self.lb == self.ub
        for it in range(MAX_ITER):
            B = self.A[:, self.basis]
            try:
                y = np.linalg.solve(B.T, c[self.basis])
                d = c - self.A.T @ y
            except np.linalg.LinAlgError as exc:
                raise LpNumericalFailure(f"singular basis: {exc}") from None
            viol = np.zeros(self.ncols)
            lo = (self.status_vec == AT_LOWER) & ~fixed
            up = (self.status_vec == AT_UPPER) & ~fixed
            viol[lo] = -d[lo]
            viol[up] = d[up]
            eligible = np.nonzero(viol > OPT_TOL)[0]
            if eligible.size == 0:
                self._y = y
                return OPTIMAL
            if degenerate_streak >= DEGENERATE_PIVOT_LIMIT:
                e = int(eligible[0])  # Bland's rule
            else:
                e = int(eligible[np.argmax(viol[eligible])])
            sigma = 1.0 if self.status_vec[e] == AT_LOWER else -1.0
            w = np.linalg.solve(B, self.A[:, e])
            delta = sigma * w
            step = float(self.ub[e] - self.lb[e])
            leave, leave_to = -1, AT_LOWER
            # ratio test on plain floats: the same IEEE arithmetic, without
            # a numpy scalar per row
            basis = self.basis.tolist()
            xb = x[self.basis].tolist()
            lbb = self.lb[self.basis].tolist()
            ubb = self.ub[self.basis].tolist()
            for i, di in enumerate(delta.tolist()):
                if di > FEAS_TOL:
                    cap = (xb[i] - lbb[i]) / di
                    to = AT_LOWER
                elif di < -FEAS_TOL:
                    if not math.isfinite(ubb[i]):
                        continue
                    cap = (ubb[i] - xb[i]) / (-di)
                    to = AT_UPPER
                else:
                    continue
                if cap < step - 1e-12:
                    step, leave, leave_to = cap, i, to
                elif leave >= 0 and abs(cap - step) <= 1e-12 and basis[i] < basis[leave]:
                    leave, leave_to = i, to  # deterministic, Bland-compatible tie-break
            if not math.isfinite(step):
                return UNBOUNDED
            step = max(step, 0.0)
            degenerate_streak = degenerate_streak + 1 if step <= FEAS_TOL else 0
            x[self.basis] -= delta * step
            x[e] += sigma * step
            if leave < 0:
                self.status_vec[e] = AT_UPPER if sigma > 0 else AT_LOWER
                x[e] = self.ub[e] if sigma > 0 else self.lb[e]
            else:
                out = self.basis[leave]
                self.status_vec[out] = leave_to
                x[out] = self.lb[out] if leave_to == AT_LOWER else self.ub[out]
                self.basis[leave] = e
                self.status_vec[e] = BASIC
        raise LpNumericalFailure("simplex iteration limit exceeded")

    def solve(self, warm=None):
        m, n = self.m, self.n_struct
        if warm is not None:
            result = self._try_warm(warm)
            if result is not None:
                return result
        x = np.where(np.isfinite(self.lb), self.lb, 0.0)
        resid = self.b - self.A[:, : self.art0] @ x[: self.art0]
        for r in range(m):
            self.A[r, self.art0 + r] = 1.0 if resid[r] >= 0 else -1.0
            x[self.art0 + r] = abs(resid[r])
        self.status_vec[self.basis] = BASIC
        phase1 = np.zeros(self.ncols)
        phase1[self.art0:] = 1.0
        status = self._iterate(phase1, x)
        if status == UNBOUNDED:
            raise LpNumericalFailure("phase 1 unbounded")
        infeas = float(x[self.art0:].sum())
        if infeas > FEAS_TOL * (1.0 + float(np.abs(self.b).max(initial=0.0))):
            return INFEASIBLE, x, np.zeros(m), np.nan
        self.ub[self.art0:] = 0.0
        x[self.art0:] = np.maximum(x[self.art0:], 0.0)
        status = self._iterate(self.c, x)
        if status == UNBOUNDED:
            return UNBOUNDED, x, np.zeros(m), np.nan
        obj = float(self.c @ x)
        return OPTIMAL, x, self._y.copy(), obj

    def label_of(self, col: int):
        if col < self.n_struct:
            return ("v", col)
        if col < self.art0:
            return ("s", int(self.slack_row[col - self.n_struct]))
        return ("a", col - self.art0)

    def col_of(self, label) -> int:
        kind, k = label
        if kind == "v":
            return k if k < self.n_struct else -1
        if kind == "s":
            idx = self.slack_col.get(k)
            return -1 if idx is None else self.n_struct + idx
        return self.art0 + k

    def _try_warm(self, warm):
        """Phase-2-only resolve from a prior basis; None when unusable."""
        basis_labels, upper_labels, art_signs = warm
        cols = [self.col_of(lb) for lb in basis_labels]
        if any(c < 0 for c in cols) or len(set(cols)) != self.m:
            return None
        for r, sign in art_signs.items():
            self.A[r, self.art0 + r] = sign
        self.ub[self.art0:] = 0.0
        self.basis = np.array(cols, dtype=np.int64)
        self.status_vec[:] = AT_LOWER
        for lb_ in upper_labels:
            c = self.col_of(lb_)
            if c >= 0 and np.isfinite(self.ub[c]):
                self.status_vec[c] = AT_UPPER
        try:
            x = self._values()
        except LpNumericalFailure:
            return None
        lo_ok = x[self.basis] >= self.lb[self.basis] - FEAS_TOL * 10
        ub_b = self.ub[self.basis]
        hi_ok = ~np.isfinite(ub_b) | (x[self.basis] <= ub_b + FEAS_TOL * 10)
        if not (lo_ok.all() and hi_ok.all()):
            return None
        status = self._iterate(self.c, x)
        if status == UNBOUNDED:
            return UNBOUNDED, x, np.zeros(self.m), np.nan
        obj = float(self.c @ x)
        return OPTIMAL, x, self._y.copy(), obj

    def warm_data(self):
        basis_labels = [self.label_of(int(c)) for c in self.basis]
        upper = [self.label_of(int(c)) for c in np.nonzero(self.status_vec == AT_UPPER)[0]]
        art_signs = {r: float(self.A[r, self.art0 + r]) for r in range(self.m)}
        return basis_labels, upper, art_signs


def solve_lp(model: LinearModel) -> LpSolution:
    """Solve a LinearModel; raises LpNumericalFailure rather than returning a
    silently wrong answer when tolerances cannot be certified."""
    sol, _ = solve_lp_warm(model, None)
    return sol


def solve_lp_warm(model: LinearModel, warm) -> tuple[LpSolution, object]:
    """Solve with an optional warm basis from a previous, column-extended
    model; returns the solution plus warm data for the next resolve."""
    if model.n_vars == 0 or model.n_rows == 0:
        raise ValueError("model must have at least one variable and one row")
    sx = _Simplex(model)
    status, x, y, obj = sx.solve(warm)
    n = model.n_vars
    basic = np.zeros(n, dtype=bool)
    if status == OPTIMAL:
        _certify(model, x[:n], y, obj)
        basic[sx.basis[sx.basis < n]] = True
        return (
            LpSolution(OPTIMAL, obj, x[:n].copy(), y.copy(), model.var_names, model.row_names, basic),
            sx.warm_data(),
        )
    return (
        LpSolution(status, np.nan, x[:n].copy(), np.zeros(model.n_rows), model.var_names,
                   model.row_names, basic),
        None,
    )


def _certify(model: LinearModel, x: np.ndarray, y: np.ndarray, obj: float) -> None:
    """Raise ``LpNumericalFailure`` unless ``x`` and ``y`` are primal
    feasible, ``y`` has the sign its row's sense requires, and the primal and
    dual objectives agree. The message names the first failing row (primal
    before dual sign within a row), else the first variable whose reduced
    cost has no bound to rest on, else the gap."""
    scale = 1.0 + max(1.0, float(np.max(np.abs(x)) if x.size else 1.0))
    tol = FEAS_TOL * scale
    coo = np.fromiter(chain.from_iterable(chain.from_iterable(model.rows)), dtype=float).reshape(-1, 2)
    cols, vals = coo[:, 0].astype(np.intp), coo[:, 1]
    row_of = np.repeat(np.arange(model.n_rows), [len(entries) for entries in model.rows])
    lhs = np.bincount(row_of, weights=vals * x[cols], minlength=model.n_rows)
    rhs = np.array(model.rhs, dtype=float)
    senses = np.array(model.senses)
    le, ge, eq = senses == LE, senses == GE, senses == EQ
    primal = (le & (lhs > rhs + tol)) | (ge & (lhs < rhs - tol)) | (eq & (np.abs(lhs - rhs) > tol))
    sign = (le & (y > DUAL_TOL)) | (ge & (y < -DUAL_TOL))
    failing = np.flatnonzero(primal | sign)
    if failing.size:
        r = int(failing[0])
        name, sense = model.row_names[r], model.senses[r]
        if primal[r]:
            excess = {LE: lhs[r] - rhs[r], GE: rhs[r] - lhs[r]}.get(sense, abs(lhs[r] - rhs[r]))
            raise LpNumericalFailure(f"row {name}: primal infeasibility {excess:.3g}")
        raise LpNumericalFailure(f"row {name}: dual sign {y[r]:.3g} on {sense} row")
    # Strong duality including reduced-cost contributions of variables at bounds.
    d = np.array(model.obj, dtype=float) - np.bincount(cols, weights=vals * y[row_of],
                                                       minlength=model.n_vars)
    lb, ub = np.array(model.lb, dtype=float), np.array(model.ub, dtype=float)
    at_lb = (d > OPT_TOL) | (ub == lb)
    at_ub = ~at_lb & (d < -OPT_TOL)
    unbounded = np.flatnonzero(at_ub & ~np.isfinite(ub))
    if unbounded.size:
        name = model.var_names[int(unbounded[0])]
        raise LpNumericalFailure(f"variable {name}: negative reduced cost, no upper bound")
    dual_obj = float(y @ rhs) + float(d[at_lb] @ lb[at_lb]) + float(d[at_ub] @ ub[at_ub])
    if abs(obj - dual_obj) > DUAL_TOL * (1.0 + abs(obj)):
        raise LpNumericalFailure(f"duality gap {obj - dual_obj:.3g}")
