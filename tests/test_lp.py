import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdarp.lp import EQ, GE, LE, LinearModel, solve_lp, solve_lp_warm


def dual(sol, name):
    return float(sol.duals[sol.row_names.index(name)])


def test_single_variable_bound():
    m = LinearModel()
    x = m.add_var("x", obj=1.0)
    m.add_row("c", {x: 1.0}, GE, 3.0)
    sol = solve_lp(m)
    assert sol.status == "Optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert dual(sol, "c") == pytest.approx(1.0, abs=1e-9)


def test_identity_partitioning():
    m = LinearModel()
    a = m.add_var("l1", obj=1.0)
    b = m.add_var("l2", obj=1.0)
    m.add_row("r1", {a: 1.0}, EQ, 1.0)
    m.add_row("r2", {b: 1.0}, EQ, 1.0)
    sol = solve_lp(m)
    assert sol.objective == pytest.approx(2.0)
    assert dual(sol, "r1") == pytest.approx(1.0)
    assert dual(sol, "r2") == pytest.approx(1.0)


def test_three_request_partitioning_against_subset_enumeration():
    # five columns covering subsets of {1,2,3}; integral data makes the LP
    # optimum equal the best partition found by brute enumeration
    columns = {
        "a": (frozenset({1}), 5.0),
        "b": (frozenset({2}), 4.0),
        "c": (frozenset({3}), 6.0),
        "d": (frozenset({1, 2}), 7.0),
        "e": (frozenset({2, 3}), 8.0),
    }
    m = LinearModel()
    idx = {name: m.add_var(name, obj=cost) for name, (_, cost) in columns.items()}
    for i in (1, 2, 3):
        m.add_row(f"p{i}", {idx[name]: 1.0 for name, (cov, _) in columns.items() if i in cov}, EQ, 1.0)
    sol = solve_lp(m)

    import itertools

    best = min(
        sum(columns[name][1] for name in subset)
        for r in range(1, 6)
        for subset in itertools.combinations(columns, r)
        if all(sum(1 for name in subset if i in columns[name][0]) == 1 for i in (1, 2, 3))
    )
    assert sol.status == "Optimal"
    assert sol.objective == pytest.approx(best)


def test_infeasible_and_unbounded():
    m = LinearModel()
    x = m.add_var("x", lb=0.0, ub=1.0, obj=1.0)
    m.add_row("c", {x: 1.0}, GE, 2.0)
    assert solve_lp(m).status == "Infeasible"

    m = LinearModel()
    x = m.add_var("x", obj=-1.0)
    m.add_row("c", {x: 1.0}, GE, 0.0)
    assert solve_lp(m).status == "Unbounded"


def test_dual_signs_by_sense():
    m = LinearModel()
    x = m.add_var("x", obj=1.0)
    y = m.add_var("y", obj=2.0)
    m.add_row("ge", {x: 1.0, y: 1.0}, GE, 4.0)
    m.add_row("le", {x: 1.0}, LE, 3.0)
    sol = solve_lp(m)
    assert sol.status == "Optimal"
    assert dual(sol, "ge") >= -1e-9
    assert dual(sol, "le") <= 1e-9


def test_deterministic_resolve():
    m1, m2 = LinearModel(), LinearModel()
    for m in (m1, m2):
        x = m.add_var("x", lb=0, ub=4, obj=-1.0)
        y = m.add_var("y", lb=0, ub=4, obj=-2.0)
        z = m.add_var("z", lb=0, ub=4, obj=-3.0)
        m.add_row("r1", {x: 1.0, y: 1.0, z: 1.0}, LE, 6.0)
        m.add_row("r2", {x: 2.0, z: 1.0}, LE, 5.0)
    s1, s2 = solve_lp(m1), solve_lp(m2)
    assert np.array_equal(s1.x, s2.x)
    assert np.array_equal(s1.duals, s2.duals)


def basic_in_warm_data(sol, warm):
    """Whether ``sol.basic`` names exactly the model variables among the
    basis labels of ``warm``."""
    listed = {k for kind, k in warm[0] if kind == "v"}
    return set(np.flatnonzero(sol.basic)) == listed


def test_a_basic_variable_fixed_at_zero_certifies_and_stays_basic():
    """One column covers both rows, so one of the two penalty variables is
    basic at zero. Fixed at zero, it stays in the basis of the warm
    re-solve, which ``_certify`` accepts with that row's dual at 0."""
    m = LinearModel()
    lam = m.add_var("l", obj=10.0)
    pens = [m.add_var(f"a{i}", obj=100.0) for i in (1, 2)]
    for i, a in enumerate(pens):
        m.add_row(f"p{i}", {lam: 1.0, a: 1.0}, EQ, 1.0)
    sol, warm = solve_lp_warm(m, None)
    assert basic_in_warm_data(sol, warm)
    assert sol.basic[lam] and sum(sol.basic[a] for a in pens) == 1
    stuck = pens[int(np.argmax([sol.basic[a] for a in pens]))]
    assert sorted(sol.duals) == pytest.approx([-90.0, 100.0])
    for a in pens:
        m.ub[a] = m.obj[a] = 0.0
    sol, warm = solve_lp_warm(m, warm)  # certified, else LpNumericalFailure
    assert sol.status == "Optimal" and sol.objective == pytest.approx(10.0)
    assert basic_in_warm_data(sol, warm)
    assert sol.basic[stuck] and sol.x[stuck] == 0.0
    assert sol.duals[pens.index(stuck)] == pytest.approx(0.0)
    assert sum(sol.duals) == pytest.approx(10.0)
    infeasible = LinearModel()
    infeasible.add_row("c", {infeasible.add_var("x", ub=1.0, obj=1.0): 1.0}, GE, 2.0)
    assert not any(solve_lp(infeasible).basic)


@settings(max_examples=40, deadline=None)
@given(
    rhs=st.floats(0.5, 20.0),
    costs=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=5),
    cut_rhs=st.floats(0.0, 3.0),
)
def test_adding_valid_rows_never_decreases_objective(rhs, costs, cut_rhs):
    def build(extra):
        m = LinearModel()
        xs = [m.add_var(f"x{k}", obj=c) for k, c in enumerate(costs)]
        m.add_row("cover", {x: 1.0 for x in xs}, GE, rhs)
        if extra:
            m.add_row("cut", {x: 1.0 for x in xs}, GE, cut_rhs)
        return solve_lp(m)

    base, cut = build(False), build(True)
    assert base.status == cut.status == "Optimal"
    assert cut.objective >= base.objective - 1e-9


def certify_by_loops(model, x, y, obj):
    """``lp._certify`` written row by row and variable by variable: the
    reference the vectorized check must agree with. Returns the failure
    message, or None."""
    from rdarp.lp import DUAL_TOL, FEAS_TOL, OPT_TOL

    scale = 1.0 + max(1.0, float(np.max(np.abs(x)) if x.size else 1.0))
    for r, entries in enumerate(model.rows):
        lhs = sum(v * x[j] for j, v in entries)
        rhs, sense, name = model.rhs[r], model.senses[r], model.row_names[r]
        if sense == LE and lhs > rhs + FEAS_TOL * scale:
            return f"row {name}: primal infeasibility {lhs - rhs:.3g}"
        if sense == GE and lhs < rhs - FEAS_TOL * scale:
            return f"row {name}: primal infeasibility {rhs - lhs:.3g}"
        if sense == EQ and abs(lhs - rhs) > FEAS_TOL * scale:
            return f"row {name}: primal infeasibility {abs(lhs - rhs):.3g}"
        if sense == LE and y[r] > DUAL_TOL:
            return f"row {name}: dual sign {y[r]:.3g} on <= row"
        if sense == GE and y[r] < -DUAL_TOL:
            return f"row {name}: dual sign {y[r]:.3g} on >= row"
    dual_obj = float(y @ np.array(model.rhs))
    d = np.array(model.obj, dtype=float)
    for r, entries in enumerate(model.rows):
        for j, v in entries:
            d[j] -= v * y[r]
    for j in range(model.n_vars):
        if d[j] > OPT_TOL or model.ub[j] == model.lb[j]:
            dual_obj += d[j] * model.lb[j]
        elif d[j] < -OPT_TOL:
            if not np.isfinite(model.ub[j]):
                return f"variable {model.var_names[j]}: negative reduced cost, no upper bound"
            dual_obj += d[j] * model.ub[j]
    if abs(obj - dual_obj) > DUAL_TOL * (1.0 + abs(obj)):
        return f"duality gap {obj - dual_obj:.3g}"
    return None


def test_certify_agrees_with_the_loop_reference():
    """On solved random LPs and on perturbed copies of their solutions, the
    vectorized certificate passes exactly when the loop reference does and
    names the same first failure: primal rows of each sense, dual signs,
    rows failing both (primal is named), an unbounded reduced cost and the
    duality gap all occur."""
    from rdarp.errors import LpNumericalFailure
    from rdarp.lp import _certify

    rng = np.random.default_rng(7)
    kinds = set()
    for _ in range(60):
        m = LinearModel()
        n_vars = int(rng.integers(2, 7))
        for j in range(n_vars):
            ub = float(rng.choice([np.inf, 3.0, 0.0])) if j else np.inf
            m.add_var(f"v{j}", ub=ub, obj=float(rng.uniform(-2.0, 5.0)))
        m.add_row("cover", {j: 1.0 for j in range(n_vars)}, GE, 1.0)
        for r in range(int(rng.integers(1, 5))):
            coefs = {j: float(rng.uniform(-1.0, 3.0)) for j in range(n_vars) if rng.random() < 0.6}
            m.add_row(f"r{r}", coefs, str(rng.choice([LE, GE, EQ])), float(rng.uniform(0.0, 4.0)))
        m.add_row("cap", {j: 1.0 for j in range(n_vars)}, LE, 10.0)
        try:
            sol = solve_lp(m)
        except LpNumericalFailure:
            continue
        if sol.status != "Optimal":
            continue
        for trial in range(7):
            x, y, obj, costs = np.array(sol.x), np.array(sol.duals), sol.objective, list(m.obj)
            what = rng.integers(4) if trial else None  # the first trial is the solution
            if what == 0:
                x[rng.integers(n_vars)] += rng.uniform(-1.0, 1.0)
            elif what == 1:
                y[rng.integers(m.n_rows)] += rng.uniform(-1.0, 1.0)
            elif what == 2:
                obj += rng.uniform(-1.0, 1.0)
            elif what == 3:
                m.obj[rng.integers(n_vars)] -= 50.0
            want = certify_by_loops(m, x, y, obj)
            try:
                _certify(m, x, y, obj)
                got = None
            except LpNumericalFailure as exc:
                got = str(exc)
            m.obj = costs
            assert got == want
            kinds.add(failure_kind(m, want))
    assert kinds == {None, ("primal", LE), ("primal", GE), ("primal", EQ), ("sign", LE),
                     ("sign", GE), ("unbounded", None), ("gap", None)}
    # a row failing both checks is named for its primal infeasibility
    m = LinearModel()
    v = m.add_var("v", obj=1.0)
    m.add_row("le", {v: 1.0}, LE, 1.0)
    m.add_row("ge", {v: 1.0}, GE, 3.0)
    x, y = np.array([2.0]), np.array([0.5, -0.5])
    want = certify_by_loops(m, x, y, 2.0)
    assert want == "row le: primal infeasibility 1"
    with pytest.raises(LpNumericalFailure) as failure:
        _certify(m, x, y, 2.0)
    assert str(failure.value) == want


def failure_kind(model, message):
    """(check, sense of the failing row) of a certificate message."""
    if message is None:
        return None
    if message.startswith("row "):
        name = message[4:message.index(":")]
        check = "primal" if "primal" in message else "sign"
        return check, model.senses[model.row_names.index(name)]
    return ("unbounded" if message.startswith("variable ") else "gap"), None


def assignment_model(k, seed):
    """The LP relaxation of a k x k assignment problem with integer costs in
    1..20; its optimum is the cheapest permutation."""
    rng = np.random.default_rng(seed)
    m = LinearModel()
    x = {(i, j): m.add_var(f"x{i}_{j}", obj=float(rng.integers(1, 21)))
         for i in range(k) for j in range(k)}
    for i in range(k):
        m.add_row(f"s{i}", {x[i, j]: 1.0 for j in range(k)}, EQ, 1.0)
    for j in range(k):
        m.add_row(f"d{j}", {x[i, j]: 1.0 for i in range(k)}, EQ, 1.0)
    return m


def count_inversions(monkeypatch):
    """Patch ``_Simplex._invert`` to count its calls; returns the counter."""
    from rdarp import lp

    calls = []
    real = lp._Simplex._invert

    def counted(self):
        calls.append(self.m)
        return real(self)

    monkeypatch.setattr(lp._Simplex, "_invert", counted)
    return calls


def test_a_solve_past_the_inverse_rebuild_period_certifies(monkeypatch):
    """An 8 x 8 assignment LP takes more basis changes than
    ``REFACTOR_PERIOD``, so its basis inverse is rebuilt mid-solve; the
    answer still certifies (else ``LpNumericalFailure``) and equals the
    cheapest permutation."""
    import itertools

    from rdarp.lp import REFACTOR_PERIOD

    inversions = count_inversions(monkeypatch)
    k = 8
    m = assignment_model(k, 3)
    sol, warm = solve_lp_warm(m, None)
    assert inversions and warm.pivots < REFACTOR_PERIOD
    best = min(sum(m.obj[i * k + p[i]] for i in range(k)) for p in itertools.permutations(range(k)))
    assert sol.status == "Optimal" and sol.objective == pytest.approx(best)


def partitioning_model(columns):
    """A set-partitioning LP over requests 1..4 with one expensive singleton
    per request, plus ``columns`` as (cost, covered requests)."""
    m = LinearModel()
    entries = {i: {} for i in range(1, 5)}
    for i in range(1, 5):
        entries[i][m.add_var(f"big{i}", obj=100.0)] = 1.0
    for k, (cost, covered) in enumerate(columns):
        j = m.add_var(f"c{k}", obj=cost)
        for i in covered:
            entries[i][j] = 1.0
    for i in range(1, 5):
        m.add_row(f"p{i}", entries[i], EQ, 1.0)
    m.add_row("fleet", {j: 1.0 for j in range(4, m.n_vars)}, LE, 2.0)
    return m


FIRST = [(30.0, (1, 2)), (30.0, (3, 4)), (25.0, (1,)), (26.0, (2, 3))]
APPENDED = [(20.0, (1, 3)), (21.0, (2, 4)), (35.0, (1, 2, 3)), (12.0, (4,))]


def test_a_warm_resolve_after_appending_columns_matches_a_cold_solve(monkeypatch):
    """Columns appended the way the restricted master appends them give the
    cold solve's objective, and the warm re-solve reuses the carried basis
    inverse instead of inverting again."""
    m = partitioning_model(FIRST)
    _, warm = solve_lp_warm(m, None)
    for cost, covered in APPENDED:
        j = m.add_var(f"c{m.n_vars}", obj=cost)
        for i in covered:
            m.rows[i - 1].append((j, 1.0))
        m.rows[4].append((j, 1.0))
    inversions = count_inversions(monkeypatch)
    warm_sol, _ = solve_lp_warm(m, warm)
    assert not inversions
    cold = solve_lp(m)
    assert cold.objective == pytest.approx(solve_lp(partitioning_model(FIRST + APPENDED)).objective)
    assert warm_sol.status == cold.status == "Optimal"
    assert warm_sol.objective == pytest.approx(cold.objective)


def test_a_singular_or_infeasible_warm_basis_falls_back_to_a_cold_solve():
    """Warm data whose basis is singular in the new model, or whose basic
    values break a bound there, is dropped: the answer is the cold solve's."""
    m = LinearModel()
    a, b = m.add_var("a", obj=1.0), m.add_var("b", obj=1.0)
    m.add_row("r1", {a: 1.0}, GE, 1.0)
    m.add_row("r2", {b: 1.0}, GE, 2.0)
    _, warm = solve_lp_warm(m, None)
    assert {k for kind, k in warm.basis if kind == "v"} == {a, b}

    singular = LinearModel()  # the same labels, but a and b are parallel columns
    a, b = singular.add_var("a", obj=1.0), singular.add_var("b", obj=1.0)
    c = singular.add_var("c", obj=3.0)
    singular.add_row("r1", {a: 1.0, b: 1.0}, GE, 1.0)
    singular.add_row("r2", {a: 2.0, b: 2.0, c: 1.0}, GE, 4.0)

    infeasible = LinearModel()  # the same basis, but b can no longer reach 2
    a, b = infeasible.add_var("a", obj=1.0), infeasible.add_var("b", ub=1.0, obj=1.0)
    c = infeasible.add_var("c", obj=5.0)
    infeasible.add_row("r1", {a: 1.0}, GE, 1.0)
    infeasible.add_row("r2", {b: 1.0, c: 1.0}, GE, 2.0)

    for model, want in ((singular, 2.0), (infeasible, 7.0)):
        cold = solve_lp(model)
        sol, again = solve_lp_warm(model, warm)
        assert cold.status == sol.status == "Optimal"
        assert sol.objective == pytest.approx(cold.objective) == pytest.approx(want)
        assert sol.x == pytest.approx(cold.x)
        assert again is not None
