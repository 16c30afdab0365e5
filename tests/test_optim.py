import itertools
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridmtd import (
    BinaryProgram,
    Constraint,
    LinearProgram,
    solve_bilp,
    solve_lp,
)


def lp(obj, cons=(), bounds=None):
    n = len(obj)
    return LinearProgram(
        tuple(obj),
        tuple(Constraint(tuple(c), r, b) for c, r, b in cons),
        tuple(bounds) if bounds else tuple((0.0, math.inf) for _ in range(n)),
    )


def bilp(obj, sense, cons=()):
    return BinaryProgram(
        tuple(obj), sense, tuple(Constraint(tuple(c), r, b) for c, r, b in cons)
    )


# ---------------------------------------------------------------------------
# LP basics


def test_lp_single_constraint():
    sol = solve_lp(lp([1.0], [([1.0], "<=", 3.0)], [(0.0, 10.0)]))
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
    # maximize -x + y with x + y = 2, y <= 3, x >= -5: the cap on y sets x = -1
    sol = solve_lp(
        lp(
            [-1.0, 1.0],
            [([1.0, 1.0], "=", 2.0), ([0.0, 1.0], "<=", 3.0)],
            [(-5.0, math.inf), (0.0, math.inf)],
        )
    )
    assert sol.status == "optimal"
    assert sol.assignment == pytest.approx([-1.0, 3.0], abs=1e-8)
    assert sol.objective_value == pytest.approx(4.0, abs=1e-8)
    # with y <= 10 the lower bound x >= -5 binds instead
    sol = solve_lp(
        lp(
            [-1.0, 1.0],
            [([1.0, 1.0], "=", 2.0), ([0.0, 1.0], "<=", 10.0)],
            [(-5.0, math.inf), (0.0, math.inf)],
        )
    )
    assert sol.assignment == pytest.approx([-5.0, 7.0], abs=1e-8)
    assert sol.objective_value == pytest.approx(12.0, abs=1e-8)


def test_lp_rejects_unbounded_below():
    with pytest.raises(ValueError, match="lower bound must be finite"):
        lp([1.0], bounds=[(-math.inf, 4.0)])
    with pytest.raises(ValueError, match="lower bound must be finite"):
        lp([1.0, 1.0], bounds=[(0.0, 1.0), (-math.inf, math.inf)])


def test_lp_rejects_nan_and_inf():
    with pytest.raises(ValueError):
        lp([float("nan")])
    with pytest.raises(ValueError):
        lp([1.0], [([float("inf")], "<=", 1.0)])
    with pytest.raises(ValueError):
        LinearProgram((1.0,), (), ((2.0, 1.0),))  # empty bound interval


@pytest.mark.parametrize("make", [LinearProgram, partial(BinaryProgram, sense="max")], ids=["lp", "bilp"])
@pytest.mark.parametrize(
    "bad, message",
    [
        (Constraint((1.0,), "<=", 1.0), "width"),
        (Constraint((1.0, 1.0), "<", 1.0), "unknown relation"),
        (Constraint((1.0, math.nan), "<=", 1.0), "NaN or infinite"),
        (Constraint((math.inf, 1.0), "=", 1.0), "NaN or infinite"),
        (Constraint((1.0, 1.0), "<=", math.nan), "bound must be finite"),
        (Constraint((1.0, 1.0), ">=", -math.inf), "bound must be finite"),
    ],
)
def test_programs_reject_malformed_constraints(make, bad, message):
    # a well-formed row first: every row is checked, not only the first
    ok = Constraint((1.0, 1.0), "<=", 1.0)
    with pytest.raises(ValueError, match=message):
        make((1.0, 1.0), constraints=(ok, bad))


def test_lp_feasibility_of_reported_optimum():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        A = rng.integers(-4, 5, size=(m, n)).astype(float)
        b = rng.integers(0, 9, size=m).astype(float)
        c = rng.integers(-4, 5, size=n).astype(float)
        p = lp(c, [(A[i], "<=", b[i]) for i in range(m)], [(0.0, 5.0)] * n)
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
        p = lp(c, [(A[i], "<=", b[i]) for i in range(m)], [(0.0, 5.0)] * n)
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
    for c in p.constraints:
        lhs = X @ np.asarray(c.coeffs)
        if c.relation == "<=":
            feas &= lhs <= c.rhs + 1e-9
        elif c.relation == ">=":
            feas &= lhs >= c.rhs - 1e-9
        else:
            feas &= np.abs(lhs - c.rhs) <= 1e-9
    if not feas.any():
        return None
    vals = X[feas] @ np.asarray(p.objective)
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


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_bilp_relaxation_bounds_minimum(seed):
    rng = np.random.default_rng(seed)
    p = _random_bilp(rng)
    relaxed = LinearProgram(
        tuple(-v for v in p.objective) if p.sense == "min" else p.objective,
        p.constraints,
        tuple((0.0, 1.0) for _ in p.objective),
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
    q = lp([1.0, 2.0], [([1.0, 1.0], "<=", 1.5)], [(0.0, 1.0)] * 2)
    assert solve_lp(q) == solve_lp(q)


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
        p = lp(c, [(A[i], "<=", b[i]) for i in range(m)], [(0.0, 4.0)] * n)
        ours = solve_lp(p)
        ref = scipy_opt.linprog(-c, A_ub=A, b_ub=b, bounds=[(0, 4)] * n, method="highs")
        if ours.status == "infeasible":
            assert ref.status == 2
        else:
            assert ref.status == 0
            assert ours.objective_value == pytest.approx(-ref.fun, abs=1e-6)
        agreements += 1
    assert agreements == 100
