"""Linear and binary integer programming on dense tableaus.

Two-phase primal simplex plus a depth-first branch-and-bound wrapper for
binary programs. Pivoting uses the largest-reduced-cost rule for speed and
falls back to Bland's anti-cycling rule whenever the objective stalls on a
degenerate vertex, so termination is guaranteed. Everything is deterministic:
fixed pivot and branching rules, no randomization, so repeated solves of the
same program return bit-identical solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Constraint",
    "LinearProgram",
    "BinaryProgram",
    "Solution",
    "SolverError",
    "solve_lp",
    "solve_bilp",
    "FEAS_TOL",
    "PIVOT_TOL",
]

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-6
_STALL_LIMIT = 100  # degenerate pivots tolerated before switching to Bland

_RELATIONS = ("<=", "=", ">=")


class SolverError(RuntimeError):
    """Internal solver failure (iteration cap, inconsistent state)."""


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[float, ...]
    relation: str  # one of <=, =, >=
    rhs: float


def _check_finite(values, what: str) -> None:
    arr = np.asarray(values, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains NaN or infinite coefficients")


def _check_constraints(constraints, n: int) -> None:
    for c in constraints:
        if len(c.coeffs) != n:
            raise ValueError("constraint width does not match variable count")
        if c.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {c.relation!r}")
    _check_finite([c.coeffs for c in constraints], "constraint")
    if not np.all(np.isfinite([c.rhs for c in constraints])):
        raise ValueError("constraint bound must be finite")


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x subject to the constraints and variable bounds.

    Each bound is (lo, hi) with lo finite and hi finite or +inf; the default
    is (0, +inf) for every variable.
    """

    objective: tuple[float, ...]
    constraints: tuple[Constraint, ...] = ()
    bounds: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        n = len(self.objective)
        if n == 0:
            raise ValueError("program has no variables")
        _check_finite(self.objective, "objective")
        _check_constraints(self.constraints, n)
        bounds = self.bounds if self.bounds else tuple((0.0, math.inf) for _ in range(n))
        if len(bounds) != n:
            raise ValueError("bounds length does not match variable count")
        for lo, hi in bounds:
            if not math.isfinite(lo):
                raise ValueError(f"variable lower bound must be finite, got {lo}")
            if math.isnan(hi):
                raise ValueError("variable bounds must not be NaN")
            if lo > hi:
                raise ValueError(f"variable bound [{lo}, {hi}] is empty")
        object.__setattr__(self, "bounds", tuple((float(l), float(h)) for l, h in bounds))


@dataclass(frozen=True)
class BinaryProgram:
    """Optimize objective . x over x in {0,1}^n subject to the constraints."""

    objective: tuple[float, ...]
    sense: str  # "min" or "max"
    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        if len(self.objective) == 0:
            raise ValueError("program has no variables")
        _check_finite(self.objective, "objective")
        _check_constraints(self.constraints, len(self.objective))


@dataclass(frozen=True)
class Solution:
    status: str  # optimal | infeasible | unbounded
    assignment: np.ndarray | None = None
    objective_value: float | None = None
    duals: np.ndarray | None = None  # solve_lp: d optimum / d rhs, per constraint

    def __eq__(self, other):
        if not isinstance(other, Solution):
            return NotImplemented
        if self.status != other.status:
            return False
        if (self.assignment is None) != (other.assignment is None):
            return False
        if self.assignment is not None and not np.array_equal(self.assignment, other.assignment):
            return False
        return self.objective_value == other.objective_value


# ---------------------------------------------------------------------------
# Simplex core


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    colv = T[:, col].copy()
    colv[row] = 0.0
    touched = np.nonzero(np.abs(colv) > PIVOT_TOL)[0]
    if touched.size:
        T[touched] -= np.outer(colv[touched], T[row])
    basis[row] = col


def _run_simplex(T: np.ndarray, basis: list[int], allowed: np.ndarray) -> str:
    """Iterate to optimality on a tableau whose last row holds reduced costs
    for maximization and whose rhs column is feasible.

    Entering column: largest reduced cost, ties to the lowest index; after
    _STALL_LIMIT pivots without objective progress the entering rule drops to
    Bland's lowest-improving-index until progress resumes, which breaks any
    degenerate cycle. Leaving row: minimum ratio, ties to lowest basis index.
    """
    m = len(basis)
    max_iter = 50_000 + 200 * (T.shape[0] + T.shape[1])
    bland = False
    stall = 0
    last_value = T[-1, -1]
    for _ in range(max_iter):
        reduced = T[-1, :-1]
        mask = (reduced > FEAS_TOL) & allowed
        if not mask.any():
            return "optimal"
        cands = np.nonzero(mask)[0]
        if bland:
            enter = int(cands[0])
        else:
            enter = int(cands[np.argmax(reduced[cands])])
        col = T[:m, enter]
        usable = np.nonzero(col > PIVOT_TOL)[0]
        if usable.size == 0:
            return "unbounded"
        ratios = T[usable, -1] / col[usable]
        best = ratios.min()
        ties = usable[ratios <= best + PIVOT_TOL]
        leave = int(min(ties, key=lambda i: basis[i]))
        _pivot(T, basis, leave, enter)
        # T[-1, -1] stores the negated objective; any decrease is progress
        if T[-1, -1] < last_value - PIVOT_TOL:
            last_value = T[-1, -1]
            stall = 0
            bland = False
        else:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
    raise SolverError("simplex iteration cap exceeded")


def _solve_standard(
    A: np.ndarray, is_ge: np.ndarray, b: np.ndarray, obj: np.ndarray
) -> tuple[str, np.ndarray | None, np.ndarray | None]:
    """maximize obj . y subject to A y <= / >= b (per is_ge) and y >= 0, with
    the price (dual value) of each row. Rows with b < 0 are negated in place
    in A, is_ge and b."""
    m, n_y = A.shape
    neg = b < 0
    if neg.any():
        A[neg] *= -1.0
        b[neg] *= -1.0
        is_ge[neg] = ~is_ge[neg]

    ge_rows = np.nonzero(is_ge)[0]
    n_art = ge_rows.size
    n_cols = n_y + m + n_art
    T = np.zeros((m + 1, n_cols + 1))
    T[:m, :n_y] = A
    T[:m, -1] = b
    basis = [0] * m
    for i in range(m):
        T[i, n_y + i] = -1.0 if is_ge[i] else 1.0
        basis[i] = n_y + i
    art_cols: dict[int, int] = {}
    for k, i in enumerate(ge_rows):
        j = n_y + m + k
        T[i, j] = 1.0
        basis[i] = j
        art_cols[i] = j

    allowed = np.ones(n_cols, dtype=bool)
    if n_art:
        # phase 1: maximize minus the artificial sum; reduced costs start as
        # the column sums over the artificial-basis rows
        T[-1, :] = T[ge_rows, :].sum(axis=0)
        for j in art_cols.values():
            T[-1, j] = 0.0
        status = _run_simplex(T, basis, allowed)
        if status != "optimal":
            raise SolverError("phase-1 simplex reported unbounded")
        if T[-1, -1] > FEAS_TOL:
            return "infeasible", None, None
        # drive leftover artificials out of the basis or drop redundant rows
        art_set = set(art_cols.values())
        drop: list[int] = []
        for i in range(m):
            if basis[i] in art_set:
                # accept phase 1's residual on this row, at most FEAS_TOL, so
                # the pivot leaves the point where it is
                T[i, -1] = 0.0
                piv = -1
                for j in range(n_y + m):
                    if abs(T[i, j]) > PIVOT_TOL:
                        piv = j
                        break
                if piv >= 0:
                    _pivot(T, basis, i, piv)
                else:
                    drop.append(i)
        if drop:
            keep = [i for i in range(m) if i not in drop]
            T = np.vstack([T[keep], T[-1:]])
            basis = [basis[i] for i in keep]
            m = len(basis)
        for j in art_set:
            allowed[j] = False
            T[:, j] = 0.0

    T[-1, :] = 0.0
    T[-1, :n_y] = obj
    for i in range(m):
        bj = basis[i]
        if abs(T[-1, bj]) > PIVOT_TOL:
            T[-1] -= T[-1, bj] * T[i]

    status = _run_simplex(T, basis, allowed)
    if status == "unbounded":
        return "unbounded", None, None
    # a row's price is minus its slack's reduced cost, that slack entering
    # with -1 on >= rows; negating the row negates its price
    prices = T[-1, n_y : n_y + len(b)] * np.where(is_ge ^ neg, 1.0, -1.0)
    y = np.zeros(n_cols)
    for i in range(m):
        y[basis[i]] = T[i, -1]
    y = y[:n_y]
    miss = A @ y - b
    if np.any(np.where(is_ge, -miss, miss) > FEAS_TOL):
        raise SolverError("simplex point misses a constraint row by more than FEAS_TOL")
    return "optimal", y, prices


def _rows_with_equalities_expanded(
    constraints: tuple[Constraint, ...], n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, is_ge, b) with every equality row turned into a <= / >= pair."""
    rows = [
        (c.coeffs, rel == ">=", c.rhs)
        for c in constraints
        for rel in (("<=", ">=") if c.relation == "=" else (c.relation,))
    ]
    coeffs, ge, rhs = zip(*rows) if rows else ((), (), ())
    return (
        np.array(coeffs, dtype=float).reshape(-1, n),
        np.array(ge, dtype=bool),
        np.array(rhs, dtype=float),
    )


def _solve_box(
    A: np.ndarray, is_ge: np.ndarray, b: np.ndarray, obj: np.ndarray,
    lo: np.ndarray, hi: np.ndarray,
) -> tuple[str, np.ndarray | None]:
    """maximize obj . x subject to A x <= / >= b (per is_ge) and lo <= x <= hi,
    lo finite: x = lo + y with y >= 0, plus a row y <= hi - lo per finite hi
    unless a <= row with non-negative coefficients implies it (y_j <= b_i / a_ij)."""
    b = b - A @ lo
    pos = (~is_ge & (A >= 0).all(axis=1))[:, None] & (A > 0)
    bound = np.divide(b[:, None], A, out=np.full_like(A, np.inf), where=pos)
    capped = np.nonzero((hi < math.inf) & (bound.min(axis=0, initial=math.inf) > hi - lo))[0]
    caps = np.zeros((capped.size, len(lo)))
    caps[np.arange(capped.size), capped] = 1.0
    status, y, prices = _solve_standard(
        np.vstack([A, caps]),
        np.concatenate([is_ge, np.zeros(capped.size, dtype=bool)]),
        np.concatenate([b, hi[capped] - lo[capped]]),
        obj,
    )
    if status != "optimal":
        return status, None, None
    return status, lo + y, prices[: len(b)]


def solve_lp(p: LinearProgram) -> Solution:
    """Maximize the objective; status is optimal, infeasible or unbounded."""
    n = len(p.objective)
    A, is_ge, b = _rows_with_equalities_expanded(p.constraints, n)
    lo, hi = np.array(p.bounds).T
    obj = np.asarray(p.objective, dtype=float)
    status, x, prices = _solve_box(A, is_ge, b, obj, lo, hi)
    if status != "optimal":
        return Solution(status)
    # an equality's price is the sum of its <= and >= halves
    row = np.repeat(np.arange(len(p.constraints)), [1 + (c.relation == "=") for c in p.constraints])
    duals = np.bincount(row, prices, len(p.constraints))
    return Solution("optimal", x, float(np.dot(obj, x)), duals)


# ---------------------------------------------------------------------------
# Branch and bound for binary programs


def solve_bilp(p: BinaryProgram) -> Solution:
    """Depth-first branch and bound over LP relaxations.

    Branches on the most fractional variable (ties to the lowest index),
    explores the nearer integer first, and prunes against the incumbent at
    tolerance FEAS_TOL, so the first optimum found in that fixed order is the
    one returned. When the objective is integral the relaxation bound is
    rounded, which only sharpens pruning.
    """
    n = len(p.objective)
    obj = np.asarray(p.objective, dtype=float)
    internal = obj if p.sense == "max" else -obj
    integral_obj = bool(np.all(internal == np.round(internal)))

    # each node relaxes to the box lo <= x <= hi; fixing a variable pins both
    A, is_ge, b = _rows_with_equalities_expanded(p.constraints, n)

    incumbent: np.ndarray | None = None
    incumbent_val = -math.inf

    stack: list[dict[int, int]] = [{}]
    while stack:
        fixed = stack.pop()
        lo = np.zeros(n)
        hi = np.ones(n)
        for j, v in fixed.items():
            lo[j] = hi[j] = float(v)
        status, x, _ = _solve_box(A, is_ge, b, internal, lo, hi)
        if status == "infeasible":
            continue
        if status != "optimal":
            raise SolverError("binary relaxation reported unbounded")
        bound = float(np.dot(internal, x))
        if integral_obj:
            bound = math.floor(bound + FEAS_TOL)
        if incumbent is not None and bound <= incumbent_val + FEAS_TOL:
            continue
        frac = np.abs(x - np.round(x))
        if float(frac.max()) <= FEAS_TOL:
            x_int = np.round(x) + 0.0  # normalize negative zeros
            val = float(np.dot(internal, x_int))
            if incumbent is None or val > incumbent_val + FEAS_TOL:
                incumbent = x_int
                incumbent_val = val
            continue
        j = int(np.argmax(frac))
        first = 1 if x[j] >= 0.5 else 0
        stack.append({**fixed, j: 1 - first})
        stack.append({**fixed, j: first})

    if incumbent is None:
        return Solution("infeasible")
    value = float(np.dot(obj, incumbent))
    return Solution("optimal", incumbent, value)
