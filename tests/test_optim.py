import dataclasses
import itertools
import math
import tracemalloc
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridmtd import (
    BinaryProgram,
    LinearProgram,
    solve_bilp,
    solve_lp,
)
from gridmtd import optim
from gridmtd.optim import FEAS_TOL, TIE_TOL

FIXTURES = Path(__file__).parent / "fixtures"


def rows(n, cons):
    """(constraints, relations, rhs) of (coefficients, relation, rhs) rows."""
    return (
        np.array([c for c, _, _ in cons], dtype=float).reshape(-1, n),
        tuple(r for _, r, _ in cons),
        [b for _, _, b in cons],
    )


def lp(obj, cons=()):
    return LinearProgram(obj, *rows(len(obj), cons))


def bilp(obj, sense, cons=()):
    return BinaryProgram(obj, sense, *rows(len(obj), cons))


def caps(n, hi):
    """The rows x_j <= hi, one per variable."""
    return [(row, "<=", hi) for row in np.eye(n)]


# ---------------------------------------------------------------------------
# LP basics


def test_lp_single_constraint():
    sol = solve_lp(lp([1.0], [([1.0], "<=", 3.0)] + caps(1, 10.0)))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(3.0, abs=1e-9)
    assert sol.assignment[0] == pytest.approx(3.0, abs=1e-9)


def test_lp_simplex_edge():
    sol = solve_lp(lp([1.0, 1.0], [([1.0, 1.0], "<=", 1.0)]))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)


def test_lp_infeasible():
    sol = solve_lp(lp([1.0], [([1.0], "<=", 0.0), ([1.0], ">=", 1.0)]))
    assert sol.status == "infeasible"


def test_lp_unbounded():
    sol = solve_lp(lp([1.0]))
    assert sol.status == "unbounded"


def test_lp_equality_and_negative_values():
    # maximize -x + y with x + y = 2, y <= 3, x >= -5: the cap on y sets x = -1.
    # Over x' = x + 5 >= 0 that is maximize -x' + y + 5 with x' + y = 7
    def solve(y_cap):
        sol = solve_lp(lp([-1.0, 1.0], [([1.0, 1.0], "=", 7.0), ([0.0, 1.0], "<=", y_cap)]))
        assert sol.status == "optimal"
        return sol.assignment - [5.0, 0.0], sol.objective_value + 5.0

    x, value = solve(3.0)
    assert x == pytest.approx([-1.0, 3.0], abs=1e-8)
    assert value == pytest.approx(4.0, abs=1e-8)
    # with y <= 10 the lower bound x >= -5 binds instead
    x, value = solve(10.0)
    assert x == pytest.approx([-5.0, 7.0], abs=1e-8)
    assert value == pytest.approx(12.0, abs=1e-8)


def test_lp_values_carry_no_negative_zero():
    # -1 * 0 is -0.0; a single program's value and a stack member's value in
    # a stack with no rows read +0.0, as the points do
    single = solve_lp(lp([-1.0], [([1.0], "<=", 1.0)]))
    rowless = solve_lp(LinearProgram([[-1.0]], np.zeros((1, 0, 1)), (), np.zeros(0)))
    assert (single.status, rowless.statuses) == ("optimal", ("optimal",))
    for value in (single.objective_value, rowless.objective_value[0]):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_lp_rejects_nan_and_inf():
    with pytest.raises(ValueError):
        lp([float("nan")])
    with pytest.raises(ValueError):
        lp([1.0], [([float("inf")], "<=", 1.0)])


@pytest.mark.parametrize("make", [LinearProgram, partial(BinaryProgram, sense="max")], ids=["lp", "bilp"])
@pytest.mark.parametrize(
    "bad, message",
    [
        (([[1.0], [1.0]], ("<=", "<="), [1.0, 1.0]), "width"),
        (([[1.0, 1.0], [1.0, 1.0]], ("<=", "<"), [1.0, 1.0]), "unknown relation"),
        (([[1.0, 1.0], [1.0, math.nan]], ("<=", "<="), [1.0, 1.0]), "NaN or infinite"),
        (([[1.0, 1.0], [math.inf, 1.0]], ("<=", "="), [1.0, 1.0]), "NaN or infinite"),
        (([[1.0, 1.0], [1.0, 1.0]], ("<=", "<="), [1.0, math.nan]), "bound must be finite"),
        (([[1.0, 1.0], [1.0, 1.0]], ("<=", ">="), [1.0, -math.inf]), "bound must be finite"),
        (([[1.0, 1.0], [1.0, 1.0]], ("<=",), [1.0, 1.0]), "program is not"),
        (([[1.0, 1.0], [1.0, 1.0]], ("<=", "<="), [1.0]), "program is not"),
    ],
)
def test_programs_reject_malformed_constraints(make, bad, message):
    # a well-formed row first: every row is checked, not only the first
    constraints, relations, rhs = bad
    with pytest.raises(ValueError, match=message):
        make(objective=(1.0, 1.0), constraints=constraints, relations=relations, rhs=rhs)


@pytest.mark.parametrize("make", [LinearProgram, partial(BinaryProgram, sense="max")], ids=["lp", "bilp"])
def test_programs_reject_an_empty_objective(make):
    with pytest.raises(ValueError, match="no variables"):
        make(objective=(), constraints=np.zeros((1, 0)), relations=("<=",), rhs=[1.0])


def test_binary_program_rejects_a_stack():
    with pytest.raises(ValueError, match="program is not"):
        BinaryProgram([[1.0, 1.0]], "max", [[[1.0, 1.0]]], ("<=",), [1.0])


def test_lp_feasibility_of_reported_optimum():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        A = rng.integers(-4, 5, size=(m, n)).astype(float)
        b = rng.integers(0, 9, size=m).astype(float)
        c = rng.integers(-4, 5, size=n).astype(float)
        p = lp(c, [(A[i], "<=", b[i]) for i in range(m)] + caps(n, 5.0))
        sol = solve_lp(p)
        assert sol.status == "optimal"  # origin is feasible, box is bounded
        assert np.all(A @ sol.assignment <= b + 1e-6)
        assert np.all(sol.assignment >= -1e-9) and np.all(sol.assignment <= 5 + 1e-9)


def test_lp_weak_duality_spot_check():
    # no feasible sampled point may beat the reported optimum
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        A = rng.integers(-4, 5, size=(m, n)).astype(float)
        b = rng.integers(0, 9, size=m).astype(float)
        c = rng.integers(-4, 5, size=n).astype(float)
        p = lp(c, [(A[i], "<=", b[i]) for i in range(m)] + caps(n, 5.0))
        sol = solve_lp(p)
        samples = rng.uniform(0.0, 5.0, size=(200, n))
        feas = np.all(samples @ A.T <= b + 1e-12, axis=1)
        if feas.any():
            assert (samples[feas] @ c).max() <= sol.objective_value + 1e-6


# ---------------------------------------------------------------------------
# BILP basics


def test_bilp_pick_either():
    sol = solve_bilp(bilp([1.0, 1.0], "min", [([1.0, 1.0], ">=", 1.0)]))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0)


def test_bilp_tiny_mdcs_encoding():
    # coverage/discrimination rows of the four-site fixture
    cons = [
        ([1.0, 0.0, 1.0, 0.0], ">=", 1.0),  # t1 hears s1, s3
        ([0.0, 1.0, 0.0, 1.0], ">=", 1.0),  # t2 hears s2, s4
        ([1.0, 1.0, 1.0, 1.0], ">=", 1.0),  # symmetric difference of the pair
    ]
    prog = bilp([1.0] * 4, "min", cons)
    # brute-force all 2^4 subsets as the oracle
    best = math.inf
    for x in itertools.product((0, 1), repeat=4):
        if x[0] + x[2] >= 1 and x[1] + x[3] >= 1:
            best = min(best, sum(x))
    assert best == 2
    sol = solve_bilp(prog)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(2.0)


def test_bilp_infeasible():
    sol = solve_bilp(bilp([1.0], "min", [([1.0], ">=", 1.0), ([1.0], "<=", 0.0)]))
    assert sol.status == "infeasible"


def test_bilp_max_sense():
    sol = solve_bilp(
        bilp([2.0, 3.0, 1.0], "max", [([1.0, 1.0, 1.0], "<=", 2.0)])
    )
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# Oracle equivalence and structural properties


def _random_bilp(rng):
    # most draws anchored around a feasible point, the rest free (and often
    # infeasible) to cover detection
    n = int(rng.integers(2, 16))
    m = int(rng.integers(1, 11))
    A = rng.integers(-4, 5, size=(m, n)).astype(float)
    rels = [("<=", ">=", "=")[i] for i in rng.integers(0, 3, size=m)]
    if rng.random() < 0.7:
        anchor = rng.integers(0, 2, size=n).astype(float)
        margins = rng.integers(0, 4, size=m).astype(float)
        b = A @ anchor
        b += np.where(np.array(rels) == "<=", margins, 0.0)
        b -= np.where(np.array(rels) == ">=", margins, 0.0)
    else:
        b = rng.integers(-5, 11, size=m).astype(float)
    c = rng.integers(-9, 10, size=n).astype(float)
    sense = "min" if rng.integers(0, 2) == 0 else "max"
    return bilp(c, sense, [(A[i], rels[i], b[i]) for i in range(m)])


def _enumerate_optimum(p: BinaryProgram):
    n = len(p.objective)
    X = np.array(list(itertools.product((0, 1), repeat=n)), dtype=float)
    feas = np.ones(len(X), dtype=bool)
    for coeffs, relation, rhs in zip(p.constraints, p.relations, p.rhs):
        lhs = X @ coeffs
        if relation == "<=":
            feas &= lhs <= rhs + 1e-9
        elif relation == ">=":
            feas &= lhs >= rhs - 1e-9
        else:
            feas &= np.abs(lhs - rhs) <= 1e-9
    if not feas.any():
        return None
    vals = X[feas] @ p.objective
    return float(vals.min() if p.sense == "min" else vals.max())


def test_bilp_matches_enumeration_on_random_programs():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(120):
        p = _random_bilp(rng)
        expect = _enumerate_optimum(p)
        sol = solve_bilp(p)
        if expect is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            assert sol.objective_value == pytest.approx(expect, abs=1e-6)
        checked += 1
    assert checked == 120


def test_bilp_matches_enumeration_up_to_twenty_variables():
    rng = np.random.default_rng(77)
    for _ in range(10):
        n = int(rng.integers(16, 21))
        m = int(rng.integers(2, 7))
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        anchor = rng.integers(0, 2, size=n).astype(float)
        b = A @ anchor + rng.integers(0, 4, size=m)
        c = rng.integers(-9, 10, size=n).astype(float)
        p = bilp(c, "min", [(A[i], "<=", b[i]) for i in range(m)])
        expect = _enumerate_optimum(p)
        sol = solve_bilp(p)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(expect, abs=1e-6)


def test_bilp_objective_range_keeps_the_solution():
    # a known best end stops the search at the first incumbent there and an
    # unwanted far end prunes; neither moves a solution inside the range, and
    # a range that leaves the optimum out reads infeasible
    rng = np.random.default_rng(31)
    for _ in range(150):
        p = _random_bilp(rng)
        plain = solve_bilp(p)
        if plain.status != "optimal":
            assert solve_bilp(p, (-math.inf, math.inf)).status == "infeasible"
            continue
        v = plain.objective_value
        known = (v, math.inf) if p.sense == "min" else (-math.inf, v)
        for within in (known, (v, v), (v - 3.0, v + 3.0)):
            assert solve_bilp(p, within) == plain
        past = (-math.inf, v - 1.0) if p.sense == "min" else (v + 1.0, math.inf)
        assert solve_bilp(p, past).status == "infeasible"


def test_bilp_rejects_a_nan_objective_range_and_reads_an_empty_one_as_infeasible():
    p = bilp([1.0], "max", [([1.0], "<=", 1.0)])
    for bad in ((math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="NaN"):
            solve_bilp(p, bad)
    # lo > hi: no solution lies within the range
    assert solve_bilp(p, (2.0, 1.0)).status == "infeasible"


def _covering(rng) -> BinaryProgram:
    """min sum x over 6-13 binaries, each of 3-11 random rows covered."""
    n, m = int(rng.integers(6, 14)), int(rng.integers(3, 12))
    A = (rng.random((m, n)) < rng.uniform(0.2, 0.5)) * 1.0
    A[np.arange(m), rng.integers(0, n, m)] = 1.0  # every row can be covered
    return bilp(np.ones(n), "min", [(row, ">=", 1.0) for row in A])


def _node_lps(monkeypatch) -> list:
    """A list that grows by one per _relax_node call."""
    calls, real = [], optim._relax_node
    monkeypatch.setattr(optim, "_relax_node", lambda *args: calls.append(1) or real(*args))
    return calls


def test_live_that_drops_only_dead_nodes_keeps_the_solution(monkeypatch):
    # covering programs under (m, m), m their optimum: a live test exact by
    # enumeration drops the subtrees no size-m cover agrees with, and the
    # solution keeps its bits from no more node LPs
    calls, rng, dropped = _node_lps(monkeypatch), np.random.default_rng(2007), 0
    for _ in range(150):
        p = _covering(rng)
        X = np.array(list(itertools.product((0, 1), repeat=len(p.objective))))
        covers = X[(X @ p.constraints.T >= 1).all(axis=1)]
        m = int(covers.sum(axis=1).min())
        best = covers[covers.sum(axis=1) == m]

        def live(state):
            fixed = state >= 0
            return bool((best[:, fixed] == state[fixed]).all(axis=1).any())

        calls.clear()
        plain, solved = solve_bilp(p, (m, m)), len(calls)
        calls.clear()
        assert solve_bilp(p, (m, m), live=live) == plain
        assert len(calls) <= solved
        dropped += solved - len(calls)
    assert dropped > 0


def test_live_that_drops_the_answer_changes_the_solution(monkeypatch):
    # a live test that drops every non-root node agreeing with the answer:
    # where the root's point is fractional, the answer cannot come back
    calls, rng, checked = _node_lps(monkeypatch), np.random.default_rng(1975), 0
    for _ in range(60):
        p = _covering(rng)
        calls.clear()
        plain = solve_bilp(p)
        if len(calls) == 1:
            continue
        answer = plain.assignment

        def live(state):
            fixed = state >= 0
            return not (fixed.any() and (state[fixed] == answer[fixed]).all())

        assert solve_bilp(p, live=live) != plain
        checked += 1
    assert checked >= 10


def test_live_that_drops_the_root_reads_infeasible_with_no_lp(monkeypatch):
    monkeypatch.setattr(optim, "_relax_node", lambda *args: pytest.fail("a node LP was solved"))
    monkeypatch.setattr(optim._BoxTableau, "solve", lambda *args: pytest.fail("a node LP was solved"))
    cover = bilp([1.0, 1.0], "min", [([1.0, 1.0], ">=", 1.0)])
    pack = bilp([1.0, 1.0], "max", [([1.0, 1.0], "<=", 1.0)])
    for p in (cover, pack):
        sol = solve_bilp(p, live=lambda state: False)
        assert sol.status == "infeasible" and sol.assignment is None


def node_point(A, is_ge, b, obj):
    """The root node's point on the path solve_bilp takes for obj: a
    _BoxTableau root when obj has a positive entry, else _relax_node with
    every variable free."""
    free = np.full(len(obj), -1, dtype=np.int8)
    if (obj > 0).any():
        return optim._BoxTableau(A, is_ge, b, obj).solve(free, warm=True)
    return optim._relax_node(A, is_ge, b, obj, free)


def test_dcs_nodes_cap_every_free_variable_and_box_nodes_carry_none(monkeypatch):
    # x0 + x1 <= 1 bounds x0 and x1 by 1 and x0 + 2 x2 <= 2.5 bounds x2 by
    # 1.25, yet a DCS node gives every free variable a cap row of its own;
    # x0 + x1 + x2 >= 2 is a row x = 0 misses
    duals, tableaus = [], []
    solve, box_solve = optim._solve_standard, optim._BoxTableau.solve
    monkeypatch.setattr(optim, "_solve_standard", lambda *args: duals.append(args) or solve(*args))

    def box_solved(box, *args, **kwargs):
        x = box_solve(box, *args, **kwargs)
        tableaus.append(box.T.shape)
        return x

    monkeypatch.setattr(optim._BoxTableau, "solve", box_solved)
    A = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 2.0], [1.0, 1.0, 1.0]])
    is_ge, b = np.array([False, False, True]), np.array([1.0, 2.5, 2.0])
    cost = np.array([-1.0, -2.0, -3.0])
    # no positive cost: the dual, one variable per row and then one per
    # free variable, whose columns are the caps x_j <= 1 in <= form
    x = node_point(A, is_ge, b, cost)
    assert x @ [1.0, 2.0, 3.0] == pytest.approx(4.5)
    [(dual, _, _, dual_obj)] = duals
    assert dual.shape == (1, 3, 3 + 3) and tableaus == []
    assert np.array_equal(dual[0, :, 3:], -np.eye(3)) and np.array_equal(dual_obj[0, 3:], -np.ones(3))
    # x0 held at 0: only x1 + x2 >= 2 can miss, so the node keeps that row
    # and caps both free variables
    duals.clear()
    x = optim._relax_node(A, is_ge, b, cost, np.array([0, -1, -1], dtype=np.int8))
    assert x.tolist() == [0.0, 1.0, 1.0]
    [(dual, _, _, dual_obj)] = duals
    assert dual.shape == (1, 2, 1 + 2)
    assert np.array_equal(dual[0, :, 1:], -np.eye(2)) and np.array_equal(dual_obj[0], [2.0, -1.0, -1.0])
    # a positive cost: one bounded tableau, the three rows and two objective
    # rows over x, a slack per row and the rhs; x2 <= 1 holds with no cap
    # row, where x2 = 1.25 would reach 5.75
    duals.clear()
    x = node_point(A, is_ge, b, np.array([1.0, 2.0, 3.0]))
    assert x @ [1.0, 2.0, 3.0] == pytest.approx(5.0)
    assert duals == [] and tableaus == [(3 + 2, 3 + 3 + 1)]


def test_dcs_node_with_every_variable_fixed_is_checked_without_an_lp(monkeypatch):
    # x0 + x1 >= 1 and x1 + x2 <= 1: the fixed point is the node's point when
    # it meets both rows, and the node is infeasible when it misses either
    monkeypatch.setattr(optim, "_solve_standard", lambda *args: pytest.fail("an LP was solved"))
    A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    is_ge, b, obj = np.array([True, False]), np.array([1.0, 1.0]), -np.ones(3)
    x = optim._relax_node(A, is_ge, b, obj, np.array([1, 0, 1], dtype=np.int8))
    assert x.tolist() == [1.0, 0.0, 1.0]
    for state in ([0, 0, 1], [1, 1, 1]):
        assert optim._relax_node(A, is_ge, b, obj, np.array(state, dtype=np.int8)) is None


def test_bilp_matches_enumeration_on_packing_programs():
    # <= rows with non-negative coefficients imply some caps (rhs over a
    # coefficient at most 1) and not others; mixed-sign rows imply none
    rng = np.random.default_rng(808)
    for _ in range(80):
        n, m = int(rng.integers(2, 12)), int(rng.integers(1, 6))
        A = (rng.random((m, n)) < 0.5) * rng.integers(1, 3, size=(m, n)).astype(float)
        if rng.random() < 0.3:
            A[0] = rng.integers(-2, 3, size=n)
        b = rng.integers(0, 4, size=m).astype(float)
        c = rng.integers(-3, 10, size=n).astype(float)
        p = bilp(c, "max", [(A[i], "<=", b[i]) for i in range(m)])
        sol = solve_bilp(p)
        assert sol.status == "optimal"  # x = 0 is feasible
        assert sol.objective_value == pytest.approx(_enumerate_optimum(p), abs=1e-6)

def _highs_optimum(p: BinaryProgram):
    opt = pytest.importorskip("scipy.optimize")
    rel = np.array(p.relations)
    lb, ub = np.where(rel == "<=", -np.inf, p.rhs), np.where(rel == ">=", np.inf, p.rhs)
    c = p.objective if p.sense == "min" else -p.objective
    res = opt.milp(c, constraints=opt.LinearConstraint(p.constraints, lb, ub),
                   integrality=np.ones(len(c)), bounds=opt.Bounds(0, 1))
    assert res.status in (0, 2), res.message  # optimal or infeasible
    return None if res.status == 2 else float(p.objective @ np.round(res.x))


def _box_program(rng, family):
    """A max program with a positive cost: a packing of 18-30 variables,
    deep enough to backtrack, or 10-14 variables under mixed-sign <=, >=
    and = rows around a binary point, where x = 0 misses a row."""
    if family == "packing":
        n, m = int(rng.integers(18, 31)), int(rng.integers(4, 9))
        A = (rng.random((m, n)) < 0.35) * rng.integers(1, 4, (m, n)) * 1.0
        rel, b = ("<=",) * m, rng.integers(1, 6, m) * 1.0
        c = rng.integers(1, 10, n) * 1.0
    else:
        n, m = int(rng.integers(10, 15)), int(rng.integers(3, 8))
        A = rng.integers(-3, 4, (m, n)) * (rng.random((m, n)) < 0.6) * 1.0
        rel = tuple(rng.choice(["<=", ">=", "="], m, p=[0.4, 0.45, 0.15]))
        slack = rng.integers(0, 3, m) * np.where(np.array(rel) == "=", 0, 1)
        b = A @ rng.integers(0, 2, n) + np.where(np.array(rel) == ">=", -slack, slack)
        c = rng.integers(-5, 10, n) * 1.0
        c[0] = abs(c[0]) + 1.0
    return bilp(c, "max", [(A[i], rel[i], b[i]) for i in range(m)])


def test_warm_started_box_nodes_match_enumeration_and_highs(monkeypatch):
    # positive-cost programs: every node a _BoxTableau node, children warm
    # on their parent's tableau or restarted from the root's, roots by primal
    # (packings) or dual simplex (a row x = 0 misses); every node's point
    # must meet its rows, box and held values, a restarted node's at HiGHS's
    # LP value, and every node the tableau calls infeasible must be
    # infeasible in HiGHS's LP
    opt = pytest.importorskip("scipy.optimize")
    seen = Counter()
    solve = optim._BoxTableau.solve

    def solved(box, state, warm):
        root = box.kept is None
        kind = "dual root" if root and box.flip.any() else "primal root" if root else "warm" if warm else "restarted"
        seen[kind] += 1
        x = solve(box, state, warm)
        if x is None or kind == "restarted":
            s = np.where(box.is_ge, -1.0, 1.0)
            held = [(v, v) if v >= 0 else (0, 1) for v in state]
            ref = opt.linprog(-box.obj, A_ub=box.A * s[:, None], b_ub=box.b * s, bounds=held, method="highs")
            assert ref.status == (2 if x is None else 0), ref.message
            seen["infeasible"] += x is None
        if x is not None:
            p = bilp(box.obj, "max", [(box.A[i], ">=" if box.is_ge[i] else "<=", box.b[i]) for i in range(box.m)])
            assert max_row_miss(p, x) <= FEAS_TOL
            assert np.all((x >= -FEAS_TOL) & (x <= 1.0 + FEAS_TOL))
            assert np.array_equal(x[state >= 0], state[state >= 0])
            if kind == "restarted":
                assert box.obj @ x == pytest.approx(-ref.fun, abs=1e-6)
        return x

    monkeypatch.setattr(optim._BoxTableau, "solve", solved)
    rng = np.random.default_rng(1955)
    for i in range(60):
        family = ("packing", "mixed")[i % 2]
        p = _box_program(rng, family)
        expect = _highs_optimum(p) if family == "packing" else _enumerate_optimum(p)
        assert expect is not None  # x = 0 or the anchor point is feasible
        assert solve_bilp(p).objective_value == pytest.approx(expect, abs=1e-6)
        # a range that starts at the optimum or below keeps it; one past it
        # leaves nothing
        for lo in (expect, expect - 2.0):
            assert solve_bilp(p, (lo, math.inf)).objective_value == pytest.approx(expect, abs=1e-6)
        assert solve_bilp(p, (expect + 1.0, math.inf)).status == "infeasible"
    assert min(seen[k] for k in ("warm", "restarted", "primal root", "dual root", "infeasible")) >= 20, seen


@pytest.mark.parametrize("stall_limit", [0, 1])
def test_box_nodes_under_blands_rule_match_enumeration_and_highs(monkeypatch, stall_limit):
    # at a stall limit of 0 every dual simplex pivot of a box node takes
    # Bland's lowest-index leaving row and entering column; at 1, those
    # after a pivot that left the value where it was, which some nodes of
    # these 30 programs make
    monkeypatch.setattr(optim, "_STALL_LIMIT", stall_limit)
    rng = np.random.default_rng(1970)
    for i in range(30):
        family = ("packing", "mixed")[i % 2]
        p = _box_program(rng, family)
        expect = _highs_optimum(p) if family == "packing" else _enumerate_optimum(p)
        assert solve_bilp(p).objective_value == pytest.approx(expect, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_bilp_relaxation_bounds_minimum(seed):
    rng = np.random.default_rng(seed)
    p = _random_bilp(rng)
    n = len(p.objective)
    relaxed = LinearProgram(
        -p.objective if p.sense == "min" else p.objective,
        np.vstack([p.constraints, np.eye(n)]),
        p.relations + ("<=",) * n,
        np.append(p.rhs, np.ones(n)),
    )
    lp_sol = solve_lp(relaxed)
    bilp_sol = solve_bilp(p)
    if bilp_sol.status != "optimal" or lp_sol.status != "optimal":
        return
    if p.sense == "min":
        assert -lp_sol.objective_value <= bilp_sol.objective_value + 1e-6
    else:
        assert lp_sol.objective_value >= bilp_sol.objective_value - 1e-6


def test_solver_determinism():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = _random_bilp(rng)
        a = solve_bilp(p)
        b = solve_bilp(p)
        assert a == b
    q = lp([1.0, 2.0], [([1.0, 1.0], "<=", 1.5)] + caps(2, 1.0))
    assert solve_lp(q) == solve_lp(q)


def test_solution_equality_compares_every_field_of_a_stack():
    # a stack's Solution once raised on == when its members were optimal,
    # returned an array when one was infeasible (a NaN value), and never
    # compared duals or statuses
    obj = np.array([[1.0, 2.0], [2.0, 1.0]])
    feasible, infeasible = [[1.0, 1.0], [1.0, 0.0]], [[1.0, 1.0], [0.5, 0.0]]  # x0 >= 1, or x0 >= 2 past x0 + x1 <= 1.5
    stacks = [
        LinearProgram(obj, np.array([feasible, second]), ("<=", ">="), [1.5, 1.0]) for second in (feasible, infeasible)
    ]
    optimal, mixed = (solve_lp(p) for p in stacks)
    assert (optimal.statuses, mixed.statuses) == (("optimal", "optimal"), ("optimal", "infeasible"))
    for p in stacks:
        assert solve_lp(p) == solve_lp(p)
    assert optimal != mixed
    changed = {
        "assignment": optimal.assignment + [[0.0, 0.0], [0.0, 1.0]],
        "objective_value": optimal.objective_value + [0.0, 1.0],
        "duals": optimal.duals + [[0.0, 0.0], [0.0, 1.0]],
        "statuses": ("optimal", "infeasible"),
    }
    for field, value in changed.items():
        assert optimal != dataclasses.replace(optimal, **{field: value})
    # solve_bilp's scalar results compare as they did
    p = bilp([1.0, 2.0], "max", [([1.0, 1.0], "<=", 1.0)])
    assert solve_bilp(p) == solve_bilp(p) != solve_bilp(bilp([1.0, 3.0], "max", [([1.0, 1.0], "<=", 1.0)]))
    q = bilp([1.0, 1.0], "max", [([1.0, 1.0], ">=", 3.0)])
    assert solve_bilp(q) == solve_bilp(q) != solve_bilp(p)


def test_lp_beale_cycling_instance():
    # classic degenerate instance that cycles under naive pivoting; the
    # Bland fallback must terminate at the true optimum 1/20
    p = lp(
        [0.75, -150.0, 0.02, -6.0],
        [
            ([0.25, -60.0, -0.04, 9.0], "<=", 0.0),
            ([0.5, -90.0, -0.02, 3.0], "<=", 0.0),
            ([0.0, 0.0, 1.0, 0.0], "<=", 1.0),
        ],
    )
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(0.05, abs=1e-9)


def test_lp_against_scipy_reference():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(3001)
    agreements = 0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        A = rng.integers(-5, 6, size=(m, n)).astype(float)
        b = rng.integers(-3, 10, size=m).astype(float)
        c = rng.integers(-6, 7, size=n).astype(float)
        p = lp(c, [(A[i], "<=", b[i]) for i in range(m)] + caps(n, 4.0))
        ours = solve_lp(p)
        ref = scipy_opt.linprog(-c, A_ub=A, b_ub=b, bounds=[(0, 4)] * n, method="highs")
        if ours.status == "infeasible":
            assert ref.status == 2
        else:
            assert ref.status == 0
            assert ours.objective_value == pytest.approx(-ref.fun, abs=1e-6)
        agreements += 1
    assert agreements == 100


def test_lp_mixed_rows_match_highs_with_a_dual_certificate():
    # rows of every relation with negative, zero and positive rhs: a >= row
    # at 0 enters negated with a slack, and only rows with their rhs on the
    # relation's wrong side of 0 get phase-1 artificials
    opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(3002)
    seen = Counter()
    for _ in range(200):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        A = rng.integers(-5, 6, size=(m, n)).astype(float)
        rels = np.array(["<=", ">=", "="])[rng.integers(0, 3, size=m)]
        b = rng.integers(-3, 6, size=m) * (rng.random(m) < 0.6) * 1.0
        c = rng.integers(-6, 7, size=n).astype(float)
        ours = solve_lp(lp(c, [(A[i], rels[i], b[i]) for i in range(m)] + caps(n, 4.0)))
        s = np.where(rels == ">=", -1.0, 1.0)[:, None]
        ub, eq = rels != "=", rels == "="
        ref = opt.linprog(-c, A_ub=(A * s)[ub], b_ub=(b * s[:, 0])[ub], A_eq=A[eq], b_eq=b[eq],
                          bounds=[(0, 4)] * n, method="highs")
        assert ref.status in (0, 2), ref.message
        assert ours.status == ("optimal" if ref.status == 0 else "infeasible")
        seen[ours.status, bool(((rels == ">=") & (b == 0)).any())] += 1
        if ref.status == 0:
            assert ours.objective_value == pytest.approx(-ref.fun, abs=1e-6)
            y, rows = ours.duals, np.vstack([A, np.eye(n)])
            kinds = np.append(rels, ["<="] * n)
            assert (y[kinds == "<="] >= -1e-9).all() and (y[kinds == ">="] <= 1e-9).all()
            assert (rows.T @ y >= c - 1e-6).all()
            assert np.append(b, [4.0] * n) @ y == pytest.approx(ours.objective_value, abs=1e-6)
    # both statuses, each with and without a >= row at rhs 0
    assert min(seen[status, zero] for status in ("optimal", "infeasible") for zero in (False, True)) >= 10


def phase_tableaus(monkeypatch):
    """Record the tableau shape of every _run_simplex call."""
    shapes, run = [], optim._run_simplex

    def record(T, *args):
        shapes.append(T.shape)
        return run(T, *args)

    monkeypatch.setattr(optim, "_run_simplex", record)
    return shapes


def test_only_rows_with_rhs_against_their_relation_get_artificials(monkeypatch):
    # the = row's >= half is the one row that needs an artificial: phase 1's
    # tableau has n + 5 slack + 1 artificial + 1 rhs columns
    shapes = phase_tableaus(monkeypatch)
    n = 3
    cons = [([1.0] * n, "=", 1.0), ([1.0, -2.0, 0.0], ">=", 0.0), ([0.0, 1.0, -1.0], ">=", 0.0),
            ([2.0, 1.0, 1.0], "<=", 2.0)]
    sol = solve_lp(lp([1.0, 2.0, 3.0], cons))
    assert sol.status == "optimal"
    assert shapes == [(1, 6, n + 5 + 1 + 1)] * 2


def test_zero_rhs_ge_rows_run_no_phase_1(monkeypatch):
    shapes = phase_tableaus(monkeypatch)
    cons = [([1.0, -1.0, 0.0], ">=", 0.0), ([0.0, 1.0, -3.0], ">=", 0.0), ([1.0, 1.0, 1.0], "<=", 6.0),
            ([-1.0, 0.0, 0.0], "<=", 0.0)]
    sol = solve_lp(lp([1.0, 1.0, 1.0], cons))
    assert sol.status == "optimal" and sol.objective_value == pytest.approx(6.0)
    assert shapes == [(1, 5, 3 + 4 + 1)]  # phase 2 alone, and no artificial column


def max_row_miss(p, x):
    """How far x lies outside the program's worst-satisfied row."""
    miss = 0.0
    for coeffs, relation, rhs in zip(p.constraints, p.relations, p.rhs):
        lhs = float(np.dot(coeffs, x))
        if relation in ("<=", "="):
            miss = max(miss, lhs - rhs)
        if relation in (">=", "="):
            miss = max(miss, rhs - lhs)
    return miss


def test_lp_phase1_residual_keeps_the_point_on_its_rows():
    # phase 1 ends with the artificial of the second row basic at 5e-7, inside
    # FEAS_TOL; driving it out on its 5e-7 entry must not move x off x0 + x1 = 1
    p = lp([9.0, 9.0], [([1.0, 1.0], "=", 1.0), ([-5e-7, -5e-7], ">=", 0.0)])
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert max_row_miss(p, sol.assignment) <= FEAS_TOL
    assert sol.objective_value == pytest.approx(9.0, abs=1e-6)


def test_lp_ratio_test_skips_round_off_sized_pivots():
    # a greedy_k node LP whose ratio test met a 1.3e-9 entry: pivoting on it
    # grew tableau entries to 3e6 and the point missed a row; solved as it
    # stands with its cap rows, where the ratio test met that entry, and as a
    # node is, through its dual, in the [0, 1] box
    cons = []
    for line in (FIXTURES / "greedy_node_lp.txt").read_text().splitlines():
        if not line.startswith("#"):
            relation, rhs, bits = line.split()
            cons.append((tuple(map(float, bits)), relation, float(rhs)))
    n = len(cons[0][0])
    p = lp([-1.0] * n, cons)
    A, is_ge, b, _ = optim._expanded(p.constraints, p.relations, p.rhs)
    # as the node had it: a cap row on each variable outside the x_j <= 0 rows
    cap = np.eye(n)[~(A[~is_ge] > 0).any(axis=0)]
    k = len(cap)
    status, primal, _ = optim._solve_standard(
        np.vstack([A, cap])[None], np.append(is_ge, [False] * k), np.append(b, [1.0] * k), p.objective[None]
    )
    assert status[0] == "optimal"
    for x in (primal[0], node_point(A, is_ge, b, p.objective)):
        assert max_row_miss(p, x) <= FEAS_TOL
        assert np.all((x >= -FEAS_TOL) & (x <= 1.0 + FEAS_TOL))
        assert p.objective @ x == pytest.approx(-2.5, abs=1e-9)


def _random_node_lp(rng, family, positive):
    """(A, relations, b, obj) of a branch-and-bound node's LP: 0/1 covering
    rows, non-negative covering rows, mixed rows and signs with rhs <= 0
    among them, covering beside packing rows whose caps some imply, or a
    covering row and its contradiction. obj has a positive entry when
    `positive`, else none."""
    n, m = int(rng.integers(2, 11)), int(rng.integers(1, 7))
    if family == 0:
        A, rel, b = (rng.random((m, n)) < 0.4) * 1.0, [">="] * m, rng.integers(0, 3, m)
    elif family == 1:
        A = rng.uniform(0.0, 3.0, (m, n)) * (rng.random((m, n)) < 0.6)
        rel, b = [">="] * m, rng.uniform(-1.0, 4.0, m)
    elif family == 2:
        A, rel = rng.integers(-2, 3, (m, n)) * 1.0, list(rng.choice(["<=", "=", ">="], m))
        b = rng.integers(-3, 3, m)
    elif family == 3:
        cover = (rng.random((m, n)) < 0.4) * 1.0
        pack = (rng.random((m, n)) < 0.4) * rng.integers(1, 3, (m, n))
        A, rel = np.vstack([cover, pack]), [">="] * m + ["<="] * m
        b = np.concatenate([np.ones(m), rng.integers(1, 4, m)])
    else:
        row = (rng.random(n) < 0.6) * rng.integers(1, 3, n)
        r = float(rng.integers(1, row.sum() + 1)) if row.any() else 1.0
        extra = (rng.random((m, n)) < 0.4) * 1.0
        A, rel = np.vstack([row, row, extra]), [">=", "<="] + [">="] * m
        b = np.concatenate([[r, r - rng.uniform(0.5, 1.0)], np.ones(m)])
    if positive:
        obj = rng.integers(-3, 4, n) * 1.0
        obj[rng.integers(n)] = rng.integers(1, 4)
    else:
        obj = -rng.integers(0, 4, n) * 1.0
    return A * 1.0, tuple(rel), np.asarray(b, float), obj


def test_node_lp_matches_highs_on_both_solve_sides():
    # a node objective with no positive entry is solved through its dual,
    # any other on a bounded tableau; both must give HiGHS's status and
    # value at a point on the node's rows and in the [0, 1] box
    opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(1954)
    seen = Counter()
    for i in range(200):
        A, rel, b, obj = _random_node_lp(rng, i // 2 % 5, positive=i % 2 == 1)
        p = lp(obj, [(A[k], rel[k], b[k]) for k in range(len(rel))])
        A, is_ge, b, _ = optim._expanded(p.constraints, p.relations, p.rhs)
        x = node_point(A, is_ge, b, obj)
        s = np.where(is_ge, -1.0, 1.0)
        ref = opt.linprog(-obj, A_ub=A * s[:, None], b_ub=b * s, bounds=(0, 1), method="highs")
        assert ref.status in (0, 2), ref.message
        assert (x is not None) == (ref.status == 0)
        if x is not None:
            assert obj @ x == pytest.approx(-ref.fun, abs=1e-6)
            assert max_row_miss(p, x) <= FEAS_TOL
            assert np.all((x >= -FEAS_TOL) & (x <= 1.0 + FEAS_TOL))
        seen[bool((obj > 0).any()), x is not None] += 1
    # each side meets at least 15 feasible and 15 infeasible nodes
    assert min(seen[side, feasible] for side in (False, True) for feasible in (False, True)) >= 15


def test_lp_never_optimal_off_a_row_on_near_dominated_columns():
    # SSE-shaped LPs over the simplex where the column kept a best response
    # trails another column by FEAS_TOL / 2 in some rows and beats it in the
    # rest; where it trails in every row, phase 1 ends inside FEAS_TOL but not
    # at 0, so leftover artificials carry a residual
    rng = np.random.default_rng(13)
    optimal = 0
    for _ in range(300):
        k = int(rng.integers(2, 5))
        am = rng.integers(-5, 6, size=(k, 3)).astype(float)
        trails = rng.random(k) < 0.7
        am[:, 1] = am[:, 0] + np.where(trails, -FEAS_TOL / 2, rng.uniform(0.5, 3.0, size=k))
        gaps = [am[:, 1] - am[:, jp] for jp in (0, 2)]
        cons = [([1.0] * k, "=", 1.0)] + [(row, ">=", 0.0) for row in gaps]
        p = lp(rng.uniform(0, 10, size=k), cons)
        sol = solve_lp(p)
        if sol.status == "optimal":
            optimal += 1
            assert max_row_miss(p, sol.assignment) <= FEAS_TOL
    assert optimal > 0


def test_lp_duals_certify_the_optimum():
    # for maximize c.x, A x (<=, >=, =) b, x >= 0 the row prices are a dual
    # solution: non-negative on <= rows, non-positive on >= rows, A^T y >= c,
    # and b.y equals the optimum
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(200):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        A = rng.integers(-4, 5, size=(m, n)).astype(float)
        rels = [("<=", ">=", "=")[i] for i in rng.integers(0, 3, size=m)]
        b = A @ rng.integers(0, 3, size=n) + np.where(np.array(rels) == "<=", 1.0, 0.0)
        cons = [(A[i], rels[i], b[i]) for i in range(m)] + [([1.0] * n, "<=", 20.0)]
        c = rng.integers(-5, 6, size=n).astype(float)
        sol = solve_lp(lp(c, cons))
        assert sol.status == "optimal"
        y, rows = sol.duals, np.vstack([A, np.ones(n)])
        kinds = np.array(rels + ["<="])
        assert (y[kinds == "<="] >= -1e-9).all() and (y[kinds == ">="] <= 1e-9).all()
        assert (rows.T @ y >= c - 1e-6).all()
        assert np.append(b, 20.0) @ y == pytest.approx(sol.objective_value, abs=1e-6)
        checked += 1
    assert checked == 200


# ---------------------------------------------------------------------------
# Stacks of same-shape programs


BEALE = (
    [0.75, -150.0, 0.02, -6.0],
    [[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]],
    ("<=", "<=", "<="),
    [0.0, 0.0, 1.0],
)
PHASE1_RESIDUAL = ([9.0, 9.0], [[1.0, 1.0], [-5e-7, -5e-7]], ("=", ">="), [1.0, 0.0])


def alone(obj, matrix, relations, rhs):
    """Stack member (obj, matrix) as its own LinearProgram, solved alone."""
    return solve_lp(lp(obj, [(row, rel, b) for row, rel, b in zip(matrix, relations, rhs)]))


def random_stacks(rng, count):
    """Stacks mixing optimal, infeasible and unbounded members, with zero-rhs
    >= rows; one holds the Beale cycling instance, one the phase-1 residual LP,
    and some members sit within TIE_TOL of a member before them."""
    for t in range(count):
        n, m, B = int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(2, 7))
        relations = tuple(rng.choice(["<=", ">=", "="], size=m))
        rhs = rng.integers(-2, 4, size=m) * (rng.random(m) < 0.6)
        matrix = rng.integers(-3, 4, size=(B, m, n)).astype(float)
        obj = rng.integers(-3, 4, size=(B, n)).astype(float)
        if t % 3 == 0:  # a near twin: same rows, objective nudged inside or past TIE_TOL
            matrix[-1], obj[-1] = matrix[0], obj[0] * (1 + rng.choice([0.2, 0.5, 2.0]) * TIE_TOL)
        yield obj, matrix, relations, rhs.astype(float)
    for obj, matrix, relations, rhs in (BEALE, PHASE1_RESIDUAL):
        others = rng.integers(-3, 4, size=(4, len(relations), len(obj))).astype(float)
        objs = rng.integers(-3, 4, size=(4, len(obj))).astype(float)
        yield (
            np.vstack([objs[:2], [obj], objs[2:]]),
            np.concatenate([others[:2], [matrix], others[2:]]),
            relations,
            np.array(rhs),
        )


def record_loops(monkeypatch):
    """Record, per simplex run, its stack size and, once more, "one" when it
    runs on the scalar loop."""
    loops, run_simplex, run_one = [], optim._run_simplex, optim._run_one
    monkeypatch.setattr(optim, "_run_simplex", lambda T, *args: loops.append(len(T)) or run_simplex(T, *args))
    monkeypatch.setattr(optim, "_run_one", lambda *args: loops.append("one") or run_one(*args))
    return loops


@pytest.mark.parametrize("stall_limit", [None, 2])
def test_lp_stack_members_match_their_solves_alone(monkeypatch, stall_limit):
    # at a stall limit of 2, members switch to Bland's rule while others in
    # their stack still pivot on the largest reduced cost
    if stall_limit:
        monkeypatch.setattr(optim, "_STALL_LIMIT", stall_limit)
    loops = record_loops(monkeypatch)
    rng = np.random.default_rng(41)
    statuses = set()
    for obj, matrix, relations, rhs in random_stacks(rng, 150):
        # each member alone runs on the scalar loop (a phase 2 that phase 1
        # left no member records 0 and pivots nothing), the stack on the
        # batched one, so the comparison is between the two loops
        loops.clear()
        singles = [alone(o, a, relations, rhs) for o, a in zip(obj, matrix)]
        assert set(loops) <= {0, 1, "one"} and loops.count("one") == loops.count(1) >= len(obj)
        loops.clear()
        # every member, inside the stack core, gets the bits it gets alone
        A, is_ge, b, _ = optim._expanded(matrix, relations, rhs)
        status, x, _ = optim._solve_standard(A, is_ge, b, obj)
        assert loops[0] == len(obj) >= 2
        for k, single in enumerate(singles):
            statuses.add(single.status)
            assert status[k] == single.status
            if single.status == "optimal":
                assert x[k].tobytes() == single.assignment.tobytes()
        # and solve_lp on the stack returns each member's solution alone
        stack = solve_lp(LinearProgram(obj, matrix, relations, rhs))
        assert stack.statuses == tuple(single.status for single in singles)
        for k, single in enumerate(singles):
            if single.status == "optimal":
                assert stack.assignment[k].tobytes() == single.assignment.tobytes()
                assert stack.objective_value[k] == single.objective_value
                assert stack.duals[k].tobytes() == single.duals.tobytes()
            else:
                assert math.isnan(stack.objective_value[k])
        union = next((s for s in ("unbounded", "optimal") if s in stack.statuses), "infeasible")
        assert stack.status == union
    assert statuses == {"optimal", "infeasible", "unbounded"}


def test_lp_stack_member_keeps_its_own_entering_rule(monkeypatch):
    # at a stall limit of 1, member 0 stalls on a degenerate pivot and turns
    # to Bland's rule, while member 1, which made progress, keeps the largest
    # reduced cost: it enters x2 where Bland's rule would enter x1
    monkeypatch.setattr(optim, "_STALL_LIMIT", 1)
    relations, rhs = ("<=", "<=", "<="), np.array([1.0, 2.0, 0.0])
    obj = np.array([[1.0, 0.0, 0.0], [3.0, 1.0, 2.0]])
    rows = [[1.0, 0.0, 0.0], [0.0, 1.0, 2.0]]
    matrix = np.array([rows + [[1.0, -1.0, 0.0]], rows + [[0.0, 0.0, 0.0]]])
    A, is_ge, b, _ = optim._expanded(matrix, relations, rhs)
    status, x, _ = optim._solve_standard(A, is_ge, b, obj)
    assert x[1].tolist() == [1.0, 0.0, 1.0]
    for k in range(2):
        assert x[k].tobytes() == alone(obj[k], matrix[k], relations, rhs).assignment.tobytes()


def test_pivot_allocates_at_most_one_tableau():
    # the touched rows are updated in place, through one product array the
    # size of the tableau, not through gathered copies of those rows (numpy's
    # broadcasting buffers, a fixed 128 KB or so, are the rest)
    rng = np.random.default_rng(5)
    B, M, N = 8, 64, 512
    T = rng.standard_normal((B, M, N))
    basis, cols = np.tile(np.arange(M), (B, 1)), rng.integers(0, N - 1, size=B)
    colv = T[np.arange(B), :, cols]
    tracemalloc.start()
    try:
        optim._pivot(T, basis, np.arange(B) * M + rng.integers(0, M - 1, size=B), cols, colv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * T.nbytes


@pytest.mark.parametrize(
    "objective, matrix, relations, rhs, message",
    [
        ([[1.0, 1.0]], [[[1.0, 1.0]]], ("<",), [1.0], "unknown relation"),
        ([[1.0, math.nan]], [[[1.0, 1.0]]], ("<=",), [1.0], "NaN or infinite"),
        ([[1.0, 1.0]], [[[1.0, math.inf]]], ("<=",), [1.0], "NaN or infinite"),
        ([[1.0, 1.0]], [[[1.0, 1.0]]], ("<=",), [math.nan], "bound must be finite"),
        ([[1.0, 1.0]], [[[1.0, 1.0, 1.0]]], ("<=",), [1.0], "stack is not"),
        ([[1.0, 1.0]], [[[1.0, 1.0]]], ("<=", ">="), [1.0, 0.0], "stack is not"),
        ([[1.0, 1.0]], [[[1.0, 1.0]]], ("<=",), [1.0, 0.0], "stack is not"),
        (np.zeros((0, 2)), np.zeros((0, 1, 2)), ("<=",), [1.0], "stack is not"),
        ([[1.0, 1.0]], [[1.0, 1.0]], ("<=",), [1.0], "stack is not"),
        (np.ones((1, 1, 2)), np.ones((1, 1, 1, 2)), ("<=",), [1.0], "program is not"),
    ],
)
def test_lp_stack_rejects_malformed_input(objective, matrix, relations, rhs, message):
    with pytest.raises(ValueError, match=message):
        LinearProgram(objective, matrix, relations, rhs)
