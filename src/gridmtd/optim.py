"""Linear and binary integer programming on dense tableaus.

Two-phase primal simplex plus a depth-first branch-and-bound wrapper for
binary programs. The one simplex core pivots a stack of same-shape tableaus
(B, m+1, n+1) one array step at a time, each member with its own pivot
choices, stall count and iteration cap: a LinearProgram or branch-and-bound
node is a stack of one, a LinearProgramStack one of B. Pivoting uses the
largest-reduced-cost rule and falls back to Bland's rule whenever the
objective stalls on a degenerate vertex, so termination is guaranteed. The
fixed rules make solves deterministic: a program gets the same bits alone or
in a stack.

A branch-and-bound node's LP is over its free variables only: fixed columns
move into the rhs, rows that every point of the free [0, 1] box satisfies
drop out, and a node with no free variable is checked without an LP. The
search stops at the first incumbent that meets the root's (rounded) bound or
the best value the caller says is possible.

Tolerances: PIVOT_TOL, an entry at most this large is zero (no row update, no
pivot driving out a phase-1 artificial, a stall); FEAS_TOL, feasibility (an
entering reduced cost, the phase-1 residual, a returned point's row miss,
branch and bound's integrality, pruning and stops) and the smallest column
entry the ratio test pivots on, so a round-off-sized entry cannot blow the
tableau up; TIE_TOL, values closer than this tie (a stack's best member,
mtd_game's best response).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Constraint",
    "LinearProgram",
    "LinearProgramStack",
    "BinaryProgram",
    "Solution",
    "SolverError",
    "solve_lp",
    "solve_bilp",
    "FEAS_TOL",
    "PIVOT_TOL",
    "TIE_TOL",
]

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-6
TIE_TOL = 1e-9
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


def _check_rows(matrix, relations, rhs) -> None:
    for r in relations:
        if r not in _RELATIONS:
            raise ValueError(f"unknown relation {r!r}")
    _check_finite(matrix, "constraint")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("constraint bound must be finite")


def _check_constraints(constraints, n: int) -> np.ndarray:
    """The constraint rows as an (m, n) float array, once they are checked."""
    if any(len(c.coeffs) != n for c in constraints):
        raise ValueError("constraint width does not match variable count")
    rows = np.array([c.coeffs for c in constraints], dtype=float).reshape(-1, n)
    _check_rows(rows, [c.relation for c in constraints], [c.rhs for c in constraints])
    return rows


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x subject to the constraints and variable bounds.

    Each bound is (lo, hi) with lo finite and hi finite or +inf; the default
    is (0, +inf) for every variable.
    """

    objective: tuple[float, ...]
    constraints: tuple[Constraint, ...] = ()
    bounds: tuple[tuple[float, float], ...] = ()
    matrix: np.ndarray = field(init=False, repr=False, compare=False)  # the rows, (m, n)

    def __post_init__(self):
        n = len(self.objective)
        if n == 0:
            raise ValueError("program has no variables")
        _check_finite(self.objective, "objective")
        object.__setattr__(self, "matrix", _check_constraints(self.constraints, n))
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
    matrix: np.ndarray = field(init=False, repr=False, compare=False)  # the rows, (m, n)

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        if len(self.objective) == 0:
            raise ValueError("program has no variables")
        _check_finite(self.objective, "objective")
        n = len(self.objective)
        object.__setattr__(self, "matrix", _check_constraints(self.constraints, n))


@dataclass(frozen=True, eq=False)
class LinearProgramStack:
    """B programs over the same n variables x >= 0, solved in one call:
    program k maximizes objective[k] . x subject to matrix[k] x (relations)
    rhs, the relations and rhs shared by all."""

    objective: np.ndarray  # (B, n)
    matrix: np.ndarray  # (B, m, n)
    relations: tuple[str, ...]  # (m,)
    rhs: np.ndarray  # (m,)

    def __post_init__(self):
        obj = np.ascontiguousarray(self.objective, dtype=float)
        matrix, rhs = np.asarray(self.matrix, dtype=float), np.asarray(self.rhs, dtype=float)
        m = len(self.relations)
        shaped = obj.ndim == 2 and 0 not in obj.shape and rhs.shape == (m,)
        if not shaped or matrix.shape != (len(obj), m, obj.shape[1]):
            raise ValueError("stack is not objective (B, n), matrix (B, m, n), rhs (m,), B, n >= 1")
        _check_finite(obj, "objective")
        _check_rows(matrix, self.relations, rhs)
        object.__setattr__(self, "relations", tuple(self.relations))
        for name, value in (("objective", obj), ("matrix", matrix), ("rhs", rhs)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Solution:
    status: str  # optimal | infeasible | unbounded
    assignment: np.ndarray | None = None
    objective_value: float | None = None
    duals: np.ndarray | None = None  # solve_lp: d optimum / d rhs, per constraint
    index: int | None = None  # solve_lp: the winning member of a stack

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
# Simplex core: every array carries a leading batch axis over the stack


def _pivot(
    T: np.ndarray, basis: np.ndarray, r: np.ndarray, cols: np.ndarray, colv: np.ndarray
) -> None:
    """Pivot member b of the C-contiguous stack T on column cols[b], flat row
    r[b] (row i of member b is row b * M + i of T as (B * M, N); basis, (B, M)
    with an unused objective slot, numbers alike). colv[b], that column as it
    stands, is spent. Rows with an entry of at most PIVOT_TOL stay untouched."""
    B, M, N = T.shape
    flat = T.reshape(B * M, N)
    prow = flat.take(r, axis=0) / colv.take(r)[:, None]
    flat[r] = prow
    colv.put(r, 0.0)
    touched = (np.abs(colv) > PIVOT_TOL).ravel().nonzero()[0]
    if touched.size:
        # a stack of one broadcasts its pivot row
        prows = prow if B == 1 else prow.take(touched // M, axis=0)
        flat[touched] -= colv.take(touched)[:, None] * prows
    basis.put(r, cols)


def _run_simplex(T: np.ndarray, basis: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Iterate each member to optimality from a feasible rhs column, the last
    row holding reduced costs for maximization; return which members are
    unbounded. rows[b] counts member b's live rows, for its iteration cap.

    Entering column: largest reduced cost, ties to the lowest index; after
    _STALL_LIMIT pivots without objective progress, Bland's lowest improving
    index until progress resumes. Leaving row: minimum ratio, ties to lowest
    basis index. A member that is done leaves the working stack W.
    """
    m = basis.shape[1] - 1
    unbounded = np.zeros(len(T), dtype=bool)
    if not len(T):
        return unbounded
    members, W, Wb, at = np.arange(len(T)), T, basis, np.arange(len(T))  # members: W's rows in T
    base = at * T.shape[1]  # each member's first flat row
    caps = 50_000 + 200 * (rows + 1 + T.shape[2])
    cap = caps.min()
    floor = T[:, -1, -1] - PIVOT_TOL  # the negated objective falling below this is progress
    since = np.zeros(len(T), dtype=int)  # iterations before the last progress
    for it in itertools.count():
        if it >= cap:
            raise SolverError("simplex iteration cap exceeded")
        reduced = W[:, -1, :-1]
        enter = reduced.argmax(axis=1)
        if it >= _STALL_LIMIT and it - since.min() >= _STALL_LIMIT:
            enter = np.where(it - since >= _STALL_LIMIT, (reduced > FEAS_TOL).argmax(axis=1), enter)
        colv = W[at, :, enter]  # the entering column, its reduced cost last
        col = colv[:, :m]
        # NaN off the usable entries: no ratio, and never a tie
        ratios = W[:, :m, -1] / np.where(col > FEAS_TOL, col, np.nan)
        best = np.fmin.reduce(ratios, axis=1, initial=np.inf)
        done = colv[:, m] <= FEAS_TOL
        stop = done | (best == np.inf)
        if np.count_nonzero(stop):
            unbounded[members[stop & ~done]] = True
            if W is not T:
                T[members[stop]], basis[members[stop]] = W[stop], Wb[stop]
            go = ~stop
            members, W, Wb, caps = members[go], W[go], Wb[go], caps[go]
            floor, since = floor[go], since[go]
            if not len(W):
                return unbounded
            at, base, cap = at[: len(W)], base[: len(W)], caps.min()
            enter, colv, ratios, best = enter[go], colv[go], ratios[go], best[go]
        ties = ratios <= (best + PIVOT_TOL)[:, None]
        _pivot(W, Wb, base + np.where(ties, Wb[:, :m], W.shape[2]).argmin(axis=1), enter, colv)
        # W[:, -1, -1] stores the negated objective; any decrease is progress
        value = W[:, -1, -1]
        progress = value < floor
        np.copyto(floor, value - PIVOT_TOL, where=progress)
        np.copyto(since, it + 1, where=progress)
    raise AssertionError("unreachable")


def _price_out(T: np.ndarray, basis: np.ndarray) -> None:
    """In row order, subtract each basic row times its column's objective-row
    cost where that cost, as it stands by then, exceeds PIVOT_TOL."""
    members, start = np.arange(len(T))[:, None], 0
    while True:
        cost = T[members, -1, basis[:, start:-1]]
        hit = np.abs(cost) > PIVOT_TOL
        rows_hit = hit.any(axis=0)
        if not rows_hit.any():
            return
        i = int(rows_hit.argmax())
        k = hit[:, i].nonzero()[0]
        T[k, -1] -= cost[k, i, None] * T[k, start + i]
        start += i + 1


def _solve_standard(
    A: np.ndarray, is_ge: np.ndarray, b: np.ndarray, obj: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per member k, maximize obj[k] . y subject to A[k] y <= / >= b (per
    is_ge) and y >= 0: each member's status, point and row prices (duals),
    zero unless optimal. Rows with b < 0 enter the tableau negated, their
    relation flipped; A, is_ge and b are left as they are. A member
    infeasible in phase 1 leaves the stack; a row phase 1 finds redundant
    stays inert, all its entries at most PIVOT_TOL."""
    B, m, n_y = A.shape
    neg = b < 0
    ge = is_ge ^ neg

    ge_rows = np.flatnonzero(ge)
    art0 = n_y + m  # artificial columns, one per >= row
    n_cols = art0 + ge_rows.size
    T = np.zeros((B, m + 1, n_cols + 1))
    T[:, :m, :n_y] = A
    T[:, :m, -1] = b
    if neg.any():
        T[:, np.flatnonzero(neg), :n_y] *= -1.0
        T[:, np.flatnonzero(neg), -1] *= -1.0
    T[:, np.arange(m), n_y + np.arange(m)] = np.where(ge, -1.0, 1.0)
    T[:, ge_rows, art0 + np.arange(ge_rows.size)] = 1.0
    slack_or_art = np.where(ge, art0 + np.cumsum(ge) - 1, n_y + np.arange(m))
    basis = np.tile(np.append(slack_or_art, -1), (B, 1))
    rows, live = np.full(B, m), np.arange(B)
    status = np.full(B, "optimal", dtype=object)

    if ge_rows.size:
        # phase 1: maximize minus the artificial sum; reduced costs start as
        # the column sums over the artificial-basis rows
        T[:, -1] = T[:, ge_rows].sum(axis=1)
        T[:, -1, art0:-1] = 0.0
        if _run_simplex(T, basis, rows).any():
            raise SolverError("phase-1 simplex reported unbounded")
        feasible = ~(T[:, -1, -1] > FEAS_TOL)
        status[~feasible] = "infeasible"
        T, basis, rows, live = T[feasible], basis[feasible], rows[feasible], live[feasible]
        # drive leftover artificials out of the basis; a row with nothing to
        # pivot on is redundant and goes inert
        for i in np.flatnonzero((basis >= art0).any(axis=0)):
            k = np.flatnonzero(basis[:, i] >= art0)
            # accept phase 1's residual on this row, at most FEAS_TOL, so
            # the pivot leaves the point where it is
            T[k, i, -1] = 0.0
            nonzero = np.abs(T[k, i, :art0]) > PIVOT_TOL
            has = nonzero.any(axis=1)
            rows[k[~has]] -= 1
            k, cols = k[has], nonzero[has].argmax(axis=1)
            sub, sub_basis, r = T[k], basis[k], np.arange(i, k.size * (m + 1), m + 1)
            _pivot(sub, sub_basis, r, cols, sub[np.arange(k.size), :, cols])
            T[k], basis[k] = sub, sub_basis
        # zeroed artificial columns have reduced cost 0 and never enter again
        T[:, :, art0:-1] = 0.0

    T[:, -1] = 0.0
    T[:, -1, :n_y] = obj[live]
    _price_out(T, basis)
    unbounded = _run_simplex(T, basis, rows)
    status[live[unbounded]] = "unbounded"
    ok = live[~unbounded]
    # a row's price is minus its slack's reduced cost, that slack entering
    # with -1 on >= rows; negating the row negates its price
    prices, point, y = np.zeros((B, m)), np.zeros((B, n_y)), np.zeros((len(T), n_cols))
    prices[ok] = T[~unbounded, -1, n_y:art0] * np.where(is_ge, 1.0, -1.0)
    y[np.arange(len(T))[:, None], basis[:, :m]] = T[:, :m, -1]
    point[ok] = y[~unbounded, :n_y]
    miss = (A[ok] @ point[ok, :, None])[..., 0] - b
    if np.any(np.where(is_ge, -miss, miss) > FEAS_TOL):
        raise SolverError("simplex point misses a constraint row by more than FEAS_TOL")
    return status, point, prices


def _expanded(A: np.ndarray, relations, rhs) -> tuple[np.ndarray, ...]:
    """(A, is_ge, b, source row) with every equality row turned into a <= / >=
    pair; A keeps its leading batch axis."""
    src = np.repeat(np.arange(len(relations)), [1 + (r == "=") for r in relations])
    split = [ge for r in relations for ge in ((False, True) if r == "=" else (r == ">=",))]
    is_ge = np.array(split, dtype=bool)
    b = np.asarray(rhs, dtype=float)[src]
    # without equalities A stays as it is: no copy of a large matrix
    return A if len(src) == len(relations) else A[:, src], is_ge, b, src


def _program_rows(p: LinearProgram | BinaryProgram):
    """_expanded for a program's constraints, as a stack of one."""
    rows = p.constraints
    return _expanded(p.matrix[None], [c.relation for c in rows], [c.rhs for c in rows])


def _cap_rows(A: np.ndarray, is_ge: np.ndarray, b: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The j whose bound y_j <= width_j needs a row of its own: width_j is
    finite and no <= row with non-negative coefficients implies it
    (y_j <= b_i / a_ij). Its temporaries die before the LP is solved."""
    pos = (~is_ge & (A >= 0).all(axis=-1))[..., None] & (A > 0)
    bound = np.divide(b[:, None], A, out=np.full_like(A, np.inf), where=pos)
    return np.flatnonzero((width < math.inf) & (bound.min(axis=(0, 1), initial=math.inf) > width))


def _solve_box(
    A: np.ndarray, is_ge: np.ndarray, b: np.ndarray, obj: np.ndarray,
    lo: np.ndarray, hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each member k of the stack, maximize obj[k] . x subject to
    A[k] x <= / >= b (per is_ge) and lo <= x <= hi, lo finite: x = lo + y
    with y >= 0, plus a row y <= hi - lo per finite hi unless a <= row with
    non-negative coefficients implies it (y_j <= b_i / a_ij). A stack of more
    than one member has lo = 0 and hi = +inf."""
    if lo.any():
        b = b - A[0] @ lo
    capped = _cap_rows(A, is_ge, b, hi - lo)
    caps = np.zeros((len(A), capped.size, len(lo)))
    caps[:, np.arange(capped.size), capped] = 1.0
    status, y, prices = _solve_standard(
        np.concatenate([A, caps], axis=1) if capped.size else A,
        np.concatenate([is_ge, np.zeros(capped.size, dtype=bool)]),
        np.concatenate([b, hi[capped] - lo[capped]]),
        obj,
    )
    return status, lo + y, prices[:, : len(b)]


def solve_lp(p: LinearProgram | LinearProgramStack) -> Solution:
    """Maximize the objective; status is optimal, infeasible or unbounded.

    A stack maximizes over the union of its members: unbounded if any member
    is, infeasible if none is feasible; else, scanning members in order, the
    best so far gives way only to a value above it by more than TIE_TOL. index
    names the winner, whose solution is the one it gets alone.
    """
    if isinstance(p, LinearProgram):
        obj, (lo, hi) = np.asarray(p.objective, dtype=float)[None], np.array(p.bounds).T
        A, is_ge, b, src = _program_rows(p)
    else:
        n = p.objective.shape[1]
        obj, lo, hi = p.objective, np.zeros(n), np.full(n, math.inf)
        A, is_ge, b, src = _expanded(p.matrix, p.relations, p.rhs)
    status, x, prices = _solve_box(A, is_ge, b, obj, lo, hi)
    best: tuple[float, int] | None = None
    for k in np.flatnonzero(status == "optimal"):
        value = float(np.dot(obj[k], x[k]))
        if best is None or value > best[0] + TIE_TOL:
            best = (value, int(k))
    if best is None or (status == "unbounded").any():
        return Solution("unbounded" if (status == "unbounded").any() else "infeasible")
    value, k = best
    # an equality's price is the sum of its <= and >= halves
    return Solution("optimal", x[k], value, np.bincount(src, prices[k]), k)


# ---------------------------------------------------------------------------
# Branch and bound for binary programs


def _relax_node(
    A: np.ndarray, is_ge: np.ndarray, b: np.ndarray, obj: np.ndarray, state: np.ndarray
) -> np.ndarray | None:
    """The point maximizing obj . x over the node's relaxation, or None if it
    is infeasible. state[j] is x_j's fixed value, or -1 while x_j is free in
    [0, 1]. Fixed columns move into the rhs and drop out; so does every row
    all points of the free box satisfy. A row no point of the box meets
    makes the node infeasible without an LP, which checks a node with no
    free variable directly."""
    free = state < 0
    x = np.maximum(state, 0).astype(float)
    if not free.all():
        b = b - A[:, ~free] @ x[~free]
        A = A[:, free]
    low, high = np.minimum(A, 0.0).sum(axis=1), np.maximum(A, 0.0).sum(axis=1)
    if np.any(np.where(is_ge, high < b - FEAS_TOL, low > b + FEAS_TOL)):
        return None
    if not free.any():
        return x
    keep = np.where(is_ge, low < b, high > b)
    if not keep.all():
        A, is_ge, b = A[keep], is_ge[keep], b[keep]
    k = int(free.sum())
    status, y, _ = _solve_box(A[None], is_ge, b, obj[free][None], np.zeros(k), np.ones(k))
    if status[0] == "infeasible":
        return None
    if status[0] != "optimal":
        raise SolverError("binary relaxation reported unbounded")
    x[free] = y[0]
    return x


def solve_bilp(p: BinaryProgram, objective_range: tuple[float, float] | None = None) -> Solution:
    """Depth-first branch and bound over LP relaxations.

    Branches on the most fractional variable (ties to the lowest index),
    explores the nearer integer first, and prunes against the incumbent at
    tolerance FEAS_TOL, so the first optimum found in that fixed order is the
    one returned. When the objective is integral the relaxation bound is
    rounded, which only sharpens pruning. The search stops at the first
    incumbent within FEAS_TOL of the root's bound, which no solution beats.

    objective_range (lo, hi), when given, is what the caller knows and
    wants: no solution is better than its favoured end (lo for "min", hi for
    "max"), so the first incumbent there ends the search, and solutions past
    the other end are not wanted, so nodes that cannot reach it are pruned
    and "infeasible" means none within the range. Neither changes a solution
    that lies within the range.
    """
    obj = np.asarray(p.objective, dtype=float)
    internal = obj if p.sense == "max" else -obj
    integral_obj = bool(np.all(internal == np.round(internal)))
    A, is_ge, b, _ = _program_rows(p)
    A = A[0]
    lo, hi = (-math.inf, math.inf) if objective_range is None else objective_range
    # in the maximized objective: none wanted below worst, none above best
    worst, best = (lo, hi) if p.sense == "max" else (-hi, -lo)

    incumbent: np.ndarray | None = None
    incumbent_val = -math.inf
    stack = [np.full(len(obj), -1, dtype=np.int8)]
    root = True
    while stack:
        state = stack.pop()
        x = _relax_node(A, is_ge, b, internal, state)
        if x is None:
            continue
        bound = float(np.dot(internal, x))
        if integral_obj:
            bound = math.floor(bound + FEAS_TOL)
        if root:
            best, root = min(best, bound), False
        if bound < worst - FEAS_TOL or bound <= incumbent_val + FEAS_TOL:
            continue
        frac = np.abs(x - np.round(x))
        if float(frac.max()) <= FEAS_TOL:
            x_int = np.round(x) + 0.0  # normalize negative zeros
            val = float(np.dot(internal, x_int))
            if val > incumbent_val + FEAS_TOL and val >= worst - FEAS_TOL:
                incumbent, incumbent_val = x_int, val
                if val >= best - FEAS_TOL:
                    break
            continue
        j = int(np.argmax(frac))
        first = 1 if x[j] >= 0.5 else 0
        for v in (1 - first, first):
            child = state.copy()
            child[j] = v
            stack.append(child)

    if incumbent is None:
        return Solution("infeasible")
    value = float(np.dot(obj, incumbent))
    return Solution("optimal", incumbent, value)
