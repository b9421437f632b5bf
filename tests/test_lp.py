import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdarp.lp import EQ, GE, LE, LinearModel, solve_lp


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


def test_dump_round_layout():
    m = LinearModel("demo")
    x = m.add_var("x", lb=0, ub=2, obj=1.5)
    m.add_row("row", {x: 2.0}, LE, 3.0)
    text = m.dump()
    assert "var x" in text and "row row:" in text and "<= 3.0" in text
