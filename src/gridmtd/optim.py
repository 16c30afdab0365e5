"""Linear and binary integer programming on dense tableaus.

Two-phase primal simplex plus a depth-first branch-and-bound wrapper for
binary programs. A program holds checked arrays: a float objective and
constraint matrix, one relation per row and a rhs. One simplex rule set
runs in two loops, chosen by stack size, with the same bits. A stack of
B >= 2 same-shape tableaus (B, m+1, n+1), a LinearProgram of B objectives
solved whole, so its caller bounds its memory, pivots one array step at a
time, each member with its own pivot choices and stall count, the stack
under one iteration cap. A stack of one, a LinearProgram of one objective
or a DCS node's dual, runs on a scalar loop over its one 2D tableau, with
no batch axis; a box node (below) pivots with the same in-place step. Only
a row whose rhs lies on its relation's wrong side of 0 gets a phase-1
artificial; no LP the package builds itself has such a row, so phase 1
serves only other callers of solve_lp. Pivots update rows in place, and a
member that is done is swapped behind those still going, so no stack is
copied. Pivoting uses the largest-reduced-cost rule and falls back to
Bland's rule whenever the objective stalls on a degenerate vertex, so
termination is guaranteed. The fixed rules make solves deterministic: a
program gets the same bits alone or in a stack.

Branch and bound solves its node LPs, each in the [0, 1] box, on one of
two paths, by the sign of the maximized objective.

A node whose maximized objective has no positive entry, such as a min-cost
cover (every DCS program), has an LP over its free variables only: fixed
columns move into the rhs, rows that every point of the free box satisfies
drop out, a node with no free variable is checked without an LP, and each
free variable's bound x <= 1 adds a row. The LP is solved through its
dual, which starts from a feasible slack basis and so needs no phase 1;
the dual's row prices are the node's point.

Any other node, such as a packing, is a bounded-variable simplex tableau
(_BoxTableau) over every variable, x <= 1 held in the ratio tests, so it
has no cap row and no artificial. Its tableau is built once, on the slack
basis, and the root solves on it: by primal simplex when x = 0 meets every
row, else by dual simplex with each variable at the bound its cost
favours, a dual feasible start. A child of the node solved last restarts
by dual simplex on that node's final tableau, the branched variable held.
Any other node restarts the same way from a copy of the root's final
tableau, kept once per program, each nonbasic held variable first moved to
its held bound; no tableau or basis is kept per pending node. Dual simplex
works on costs perturbed by a fixed, index-derived amount of about
_PERTURB, which ends the stalls of degenerate packings. Primal passes on
the perturbed and then on the true costs follow, the last a clean-up that
gives the point and the bound. Either pivot rule falls back to Bland's
after _STALL_LIMIT pivots without progress.

Nodes of either kind are pruned on their (rounded) bound once their LP is
solved. A caller that can tell from a node's fixed values alone that no
wanted solution agrees with them passes a live test, which drops such a
node before its LP. The search stops at the first incumbent that meets the
root's bound or the best value the caller says is possible.

Tolerances, one policy for the package. TIE_TOL is round-off: values
closer than it are equal and an entry at most it is zero (no row update,
no pivot driving out a phase-1 artificial, a stall, a phase-2 cost that
prices out phase 1's basis); ratios within it tie, a box node's primal
pass on perturbed costs enters a reduced cost above it, and among values
within it of the best the lowest index wins (mtd_game's SSE winner and
best response). FEAS_TOL is feasibility (an entering reduced cost on true
costs, the phase-1 residual, a box node's basic variable outside its
bounds, a returned point's row miss, a node point's row and [0, 1] box
miss, branch and bound's integrality, pruning and stops) and the smallest
entry either ratio test pivots on, so round-off cannot blow a tableau up.
_PERTURB and _STALL_LIMIT stay outside this policy because neither is a
tolerance: _PERTURB is the size of a deliberate cost change that breaks
degenerate ties, which no value is compared against, and _STALL_LIMIT
counts pivots.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearProgram",
    "BinaryProgram",
    "Solution",
    "SolverError",
    "solve_lp",
    "solve_bilp",
    "FEAS_TOL",
    "TIE_TOL",
]

TIE_TOL = 1e-9
FEAS_TOL = 1e-6
_STALL_LIMIT = 100  # degenerate pivots tolerated before switching to Bland
_PERTURB = 1e-7  # scale of _BoxTableau's working-cost perturbation
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # spreads the perturbation over [1, 2) * _PERTURB

_RELATIONS = ("<=", "=", ">=")


class SolverError(RuntimeError):
    """Internal solver failure (iteration cap, inconsistent state)."""


def _check_program(p, stacks: bool) -> None:
    """Store p's objective, constraints and rhs as read-only C-ordered float
    arrays and its relations as a tuple, once they are checked: objective
    (n,), constraints (m, n), rhs (m,) and one relation per row, or with
    stacks also objective (B, n) and constraints (B, m, n)."""
    obj, A, rhs = (np.array(v, float, order="C") for v in (p.objective, p.constraints, p.rhs))
    relations = tuple(p.relations)
    if obj.shape[-1:] in ((), (0,)):
        raise ValueError("program has no variables")
    if not np.all(np.isfinite(obj)):
        raise ValueError("objective contains NaN or infinite coefficients")
    stack, n = stacks and obj.ndim == 2, obj.shape[-1]
    if not stack and A.shape[-1:] != (n,):
        raise ValueError("constraint width does not match variable count")
    if A.shape != obj.shape[:-1] + (len(relations), n) or rhs.shape != (len(relations),) \
            or obj.ndim != 1 + stack or 0 in obj.shape:
        raise ValueError(
            "stack is not objective (B, n), constraints (B, m, n), rhs (m,), B, n >= 1" if stack
            else "program is not objective (n,), constraints (m, n), rhs (m,)"
        )
    for r in relations:
        if r not in _RELATIONS:
            raise ValueError(f"unknown relation {r!r}")
    if not np.all(np.isfinite(A)):
        raise ValueError("constraint contains NaN or infinite coefficients")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("constraint bound must be finite")
    for name, value in (("objective", obj), ("constraints", A), ("rhs", rhs)):
        value.flags.writeable = False
        object.__setattr__(p, name, value)
    object.__setattr__(p, "relations", relations)


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize objective . x subject to constraints x (relations) rhs, x >= 0.

    objective (n,) with constraints (m, n) is one program; objective (B, n)
    with constraints (B, m, n) is a stack of B programs sharing relations and
    rhs, which solve_lp solves as one. A single program is a stack of one.
    """

    objective: np.ndarray  # (n,) or (B, n)
    constraints: np.ndarray  # (m, n) or (B, m, n)
    relations: tuple[str, ...]  # (m,), each <=, = or >=
    rhs: np.ndarray  # (m,)

    def __post_init__(self):
        _check_program(self, stacks=True)


@dataclass(frozen=True, eq=False)
class BinaryProgram:
    """Optimize objective . x over x in {0,1}^n subject to constraints x
    (relations) rhs."""

    objective: np.ndarray  # (n,)
    sense: str  # "min" or "max"
    constraints: np.ndarray  # (m, n)
    relations: tuple[str, ...]  # (m,), each <=, = or >=
    rhs: np.ndarray  # (m,)

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        _check_program(self, stacks=False)


@dataclass(frozen=True)
class Solution:
    status: str  # optimal | infeasible | unbounded; a stack's is its union's
    assignment: np.ndarray | None = None  # a stack's: (B, n)
    objective_value: float | np.ndarray | None = None  # a stack's: (B,)
    duals: np.ndarray | None = None  # solve_lp: d optimum / d rhs, per constraint
    statuses: tuple[str, ...] | None = None  # solve_lp on a stack: each member's status

    def __eq__(self, other):
        """Every field equal; arrays by value and shape, NaN equal to NaN."""
        if not isinstance(other, Solution):
            return NotImplemented
        return (self.status, self.statuses) == (other.status, other.statuses) and all(
            (a is None) == (b is None) and (a is None or np.array_equal(a, b, equal_nan=True))
            for a, b in (
                (self.assignment, other.assignment),
                (self.objective_value, other.objective_value),
                (self.duals, other.duals),
            )
        )


# ---------------------------------------------------------------------------
# Simplex core: every array carries a leading batch axis over the stack,
# but a stack of one pivots on one 2D tableau


def _pivot(
    T: np.ndarray, basis: np.ndarray, r: np.ndarray, cols: np.ndarray, colv: np.ndarray
) -> None:
    """Pivot member b of the C-contiguous stack T on column cols[b], flat row
    r[b] (row i of member b is row b * M + i of T as (B * M, N); basis, (B, M)
    with an unused objective slot, numbers alike). colv[b], that column as it
    stands, is spent. In place, each row with an entry above TIE_TOL loses
    that entry times its member's pivot row; the other rows stay untouched."""
    B, M, N = T.shape
    flat = T.reshape(B * M, N)
    prow = flat.take(r, axis=0) / colv.take(r)[:, None]
    flat[r] = prow
    colv.put(r, 0.0)
    touched = (np.abs(colv) > TIE_TOL)[:, :, None]
    np.subtract(T, colv[:, :, None] * prow[:, None], out=T, where=touched)
    basis.put(r, cols)


def _pivot1(T: np.ndarray, r: int, colv: np.ndarray) -> None:
    """_pivot on one tableau T (M, N): row r of column colv, that column as
    it stands, which is spent. The caller records the basis change."""
    prow = T[r] / colv[r]
    T[r] = prow
    colv[r] = 0.0
    np.subtract(T, colv[:, None] * prow, out=T, where=(np.abs(colv) > TIE_TOL)[:, None])


def _to_front(keep: np.ndarray, *stacks: np.ndarray) -> int:
    """Among the first len(keep) members of every stack, swap those keep
    marks ahead of the others; return how many it marks."""
    n = int(np.count_nonzero(keep))
    out = (~keep[:n]).nonzero()[0]
    if out.size:
        # the i-th of out swaps with the i-th from last of the marked behind
        into = np.concatenate([out, n + keep[n:].nonzero()[0]])
        for x in stacks:
            x[into] = x[into[::-1]]
    return n


def _run_simplex(T: np.ndarray, basis: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Iterate each member to optimality from a feasible rhs column, the last
    row holding reduced costs for maximization; return which members, at
    their places on return, are unbounded. The stack has one iteration cap,
    from its tableau's shape.

    Entering column: largest reduced cost, ties to the lowest index; after
    _STALL_LIMIT pivots without objective progress, Bland's lowest improving
    index until progress resumes. Leaving row: minimum ratio, ties to lowest
    basis index. A member that is done is swapped behind those still going,
    in T, basis and ids alike, so the working stack is a leading view
    of T and only swapped members are copied. A stack of one runs on
    _run_one instead, with the same rules and bits.
    """
    B, M, N = T.shape
    if B == 1:
        return np.array([_run_one(T[0], basis[0])])
    m = M - 1
    unbounded = np.zeros(B, dtype=bool)
    at, base = np.arange(B), np.arange(B) * M  # base: each member's first flat row
    floor = T[:, -1, -1] - TIE_TOL  # the negated objective falling below this is progress
    since = np.zeros(B, dtype=int)  # iterations before the last progress
    W, Wb, n, cap = T, basis, B, 50_000 + 200 * (m + 1 + N)
    for it in itertools.count():
        if it >= cap:
            raise SolverError("simplex iteration cap exceeded")
        reduced = W[:, -1, :-1]
        enter = reduced.argmax(axis=1)
        if it >= _STALL_LIMIT and it - since[:n].min() >= _STALL_LIMIT:
            enter = np.where(it - since[:n] >= _STALL_LIMIT, (reduced > FEAS_TOL).argmax(axis=1), enter)
        colv = W[at[:n], :, enter]  # the entering column, its reduced cost last
        col = colv[:, :m]
        # NaN off the usable entries: no ratio, and never a tie
        ratios = W[:, :m, -1] / np.where(col > FEAS_TOL, col, np.nan)
        best = np.fmin.reduce(ratios, axis=1, initial=np.inf)
        ties = ratios <= (best + TIE_TOL)[:, None]
        done = colv[:, m] <= FEAS_TOL
        stop = done | (best == np.inf)
        if np.count_nonzero(stop):
            unbounded[:n] = stop & ~done
            n = _to_front(~stop, T, basis, ids, unbounded, floor, since, enter, colv, ties)
            W, Wb, enter, colv, ties = T[:n], basis[:n], enter[:n], colv[:n], ties[:n]
        if not n:
            return unbounded
        _pivot(W, Wb, base[:n] + np.where(ties, Wb[:, :m], N).argmin(axis=1), enter, colv)
        # W[:, -1, -1] stores the negated objective; any decrease is progress
        value = W[:, -1, -1]
        progress = value < floor[:n]
        np.copyto(floor[:n], value - TIE_TOL, where=progress)
        np.copyto(since[:n], it + 1, where=progress)
    raise AssertionError("unreachable")


def _run_one(T: np.ndarray, basis: np.ndarray) -> bool:
    """_run_simplex on one tableau T (M, N) and its basis (M,), with the same
    rules, arithmetic and cap but no batch axis; True when it is unbounded."""
    M, N = T.shape
    m = M - 1
    floor, since = T[-1, -1] - TIE_TOL, 0
    for it in range(50_000 + 200 * (m + 1 + N)):
        reduced = T[-1, :-1]
        enter = int((reduced > FEAS_TOL).argmax() if it - since >= _STALL_LIMIT else reduced.argmax())
        colv = T[:, enter].copy()
        if colv[m] <= FEAS_TOL:
            return False
        col = colv[:m]
        ratios = T[:m, -1] / np.where(col > FEAS_TOL, col, np.nan)
        best = np.fmin.reduce(ratios, initial=np.inf)
        if best == np.inf:
            return True
        r = int(np.where(ratios <= best + TIE_TOL, basis[:m], N).argmin())
        _pivot1(T, r, colv)
        basis[r] = enter
        if T[-1, -1] < floor:
            floor, since = T[-1, -1] - TIE_TOL, it + 1
    raise SolverError("simplex iteration cap exceeded")


def _solve_standard(
    A: np.ndarray, is_ge: np.ndarray, b: np.ndarray, obj: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per member k, maximize obj[k] . y subject to A[k] y <= / >= b (per
    is_ge) and y >= 0: each member's status, point and row prices (duals),
    zero unless optimal. Rows with b < 0 or >= rows with b = 0 enter the
    tableau negated, relation flipped, so only >= rows with b > 0 and <= rows
    with b < 0 get artificials; A, is_ge and b are left as they are.
    Infeasible members go behind the others, which phase 2 solves alone; a
    row phase 1 finds redundant stays inert, all its entries at most TIE_TOL."""
    B, m, n_y = A.shape
    flip = (b < 0) | (is_ge & (b == 0))
    ge = is_ge ^ flip

    ge_rows = np.flatnonzero(ge)
    art0 = n_y + m  # artificial columns, one per >= row once rows are flipped
    n_cols = art0 + ge_rows.size
    T = np.zeros((B, m + 1, n_cols + 1))
    T[:, :m, :n_y] = A
    T[:, :m, -1] = np.abs(b)
    if flip.any():
        T[:, np.flatnonzero(flip), :n_y] *= -1.0
    T[:, np.arange(m), n_y + np.arange(m)] = np.where(ge, -1.0, 1.0)
    T[:, ge_rows, art0 + np.arange(ge_rows.size)] = 1.0
    slack_or_art = np.where(ge, art0 + np.cumsum(ge) - 1, n_y + np.arange(m))
    basis = np.tile(np.append(slack_or_art, -1), (B, 1))
    ids, n = np.arange(B), B  # ids: the member at each place
    status = np.full(B, "infeasible", dtype=object)

    if ge_rows.size:
        # phase 1: maximize minus the artificial sum; reduced costs start as
        # the column sums over the artificial-basis rows
        T[:, -1] = T[:, ge_rows].sum(axis=1)
        T[:, -1, art0:-1] = 0.0
        if _run_simplex(T, basis, ids).any():
            raise SolverError("phase-1 simplex reported unbounded")
        n = _to_front(~(T[:, -1, -1] > FEAS_TOL), T, basis, ids)
        # drive leftover artificials out of the basis; a row with nothing to
        # pivot on is redundant and goes inert
        for i in np.flatnonzero((basis[:n] >= art0).any(axis=0)):
            art = basis[:n, i] >= art0
            # accept phase 1's residual on this row, at most FEAS_TOL, so
            # the pivot leaves the point where it is
            T[:n, i, -1][art] = 0.0
            nonzero = np.abs(T[:n, i, :art0]) > TIE_TOL
            # the members to pivot go first, so they pivot in place
            k = _to_front(art & nonzero.any(axis=1), T, basis, ids, nonzero)
            cols = nonzero[:k].argmax(axis=1)
            _pivot(T[:k], basis[:k], np.arange(i, k * (m + 1), m + 1), cols, T[np.arange(k), :, cols])
        # zeroed artificial columns have reduced cost 0 and never enter again
        T[:, :, art0:-1] = 0.0

    T, basis, ids = T[:n], basis[:n], ids[:n]  # phase 2: the feasible members
    T[:, -1] = 0.0
    T[:, -1, :n_y] = obj[ids]
    if ge_rows.size:
        # price out the basis phase 1 left: each basic row times its
        # column's cost, a cost within TIE_TOL counting as 0
        cost = T[np.arange(n)[:, None], -1, basis[:, :m]]
        T[:, -1] -= np.einsum("ki,kij->kj", np.where(np.abs(cost) > TIE_TOL, cost, 0.0), T[:, :m])
    unbounded = _run_simplex(T, basis, ids)
    status[ids] = np.where(unbounded, "unbounded", "optimal")
    ok = ids[~unbounded]
    # a row's price is minus its slack's reduced cost, that slack entering
    # with -1 on >= rows; negating the row negates its price
    prices, point, y = np.zeros((B, m)), np.zeros((B, n_y)), np.zeros((n, n_cols))
    prices[ok] = T[~unbounded, -1, n_y:art0] * np.where(is_ge, 1.0, -1.0)
    y[np.arange(n)[:, None], basis[:, :m]] = T[:, :m, -1]
    point[ok] = y[~unbounded, :n_y] + 0.0  # normalize negative zeros
    miss = (A[ok] @ point[ok, :, None])[..., 0] - b
    if np.any(np.where(is_ge, -miss, miss) > FEAS_TOL):
        raise SolverError("simplex point misses a constraint row by more than FEAS_TOL")
    return status, point, prices


def _expanded(A: np.ndarray, relations, rhs) -> tuple[np.ndarray, ...]:
    """(A, is_ge, b, source row) with every equality row turned into a <= / >=
    pair; A (m, n) or a stack (B, m, n)."""
    src = np.repeat(np.arange(len(relations)), [1 + (r == "=") for r in relations])
    split = [ge for r in relations for ge in ((False, True) if r == "=" else (r == ">=",))]
    is_ge = np.array(split, dtype=bool)
    # without equalities A stays as it is: no copy of a large matrix
    return A if len(src) == len(relations) else A[..., src, :], is_ge, rhs[src], src


def _checked(A: np.ndarray, is_ge: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x, once it meets every row and the [0, 1] box to within FEAS_TOL."""
    miss = A @ x - b
    if np.any(np.where(is_ge, -miss, miss) > FEAS_TOL) or np.any((x < -FEAS_TOL) | (x > 1.0 + FEAS_TOL)):
        raise SolverError("node point misses a row or the [0, 1] box by more than FEAS_TOL")
    return x


class _BoxTableau:
    """maximize obj . x subject to A x <= / >= b (per is_ge) and 0 <= x <= 1
    as one bounded-variable simplex tableau (Dantzig 1955) that branch and
    bound carries from node to node (Lemke 1954), as the module docstring
    describes. Each row enters in <= form with a slack. A variable at its
    upper bound is flipped (x_j -> 1 - x_j: its column negated, the rhs less
    that column), so every nonbasic variable sits at 0. Two objective rows
    follow the m constraint rows: the working costs obj + eps and the true
    costs. A node's state holds x_j at 0 or 1 (-1 while free): a held
    variable keeps its value and never enters. The tableau starts on the
    slack basis; where x = 0 misses a row, each x_j sits at the bound its
    working cost favours, which is dual feasible.
    """

    def __init__(self, A: np.ndarray, is_ge: np.ndarray, b: np.ndarray, obj: np.ndarray):
        self.A, self.is_ge, self.b, self.obj = A, is_ge, b, obj
        m, n = self.m, self.n = A.shape
        s = np.where(is_ge, -1.0, 1.0)  # each row's sign in <= form
        eps = -_PERTURB * (1.0 + np.arange(1, n + 1) * _GOLDEN % 1.0)
        self.upper = np.append(np.ones(n), np.full(m, np.inf))
        self.cap = 50_000 + 200 * (2 * m + n + 2)  # the simplex core's, per pass
        flip = np.zeros(n + m, dtype=bool)
        if np.any(b * s < 0):
            flip[:n] = obj + eps > 0
        T = np.zeros((m + 2, n + m + 1))
        rows = T[:m]
        rows[:, :n] = A
        rows[:, :n] *= s[:, None]
        rows[:, -1] = b * s - rows[:, :n][:, flip[:n]].sum(axis=1)
        rows[:, :n][:, flip[:n]] *= -1.0
        rows[:, n:-1] = np.eye(m)
        for i, cost in ((m, obj + eps), (m + 1, obj)):
            T[i, :n] = np.where(flip[:n], -cost, cost)
            T[i, -1] = -cost[flip[:n]].sum()
        self.T, self.basis, self.flip = T, np.arange(n, n + m), flip
        self.kept = None  # (T, basis, flip) as the root's solve left them

    def _flip(self, k: int) -> None:
        """Move nonbasic x_k to its other bound, where it sits at 0 again."""
        self.T[:, -1] -= self.T[:, k]
        self.T[:, k] *= -1.0
        self.flip[k] ^= True

    def _exchange(self, r: int, k: int, to: float) -> None:
        """Pivot x_k in at row r; the leaving variable goes to `to`, 0 or 1."""
        leaving = int(self.basis[r])
        _pivot1(self.T, r, self.T[:, k].copy())
        self.basis[r] = k
        if to == 1.0:
            self._flip(leaving)

    def _bounds(self, hold: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each basic variable's bounds as the tableau has it, and the columns
        that may enter: free and nonbasic."""
        k = self.basis
        at = np.where(self.flip[k], 1.0 - hold[k], hold[k])
        lo = np.where(hold[k] >= 0, at, 0.0)
        hi = np.where(hold[k] >= 0, at, self.upper[k])
        free = hold < 0
        free[k] = False
        return lo, hi, free

    def _dual(self, hold: np.ndarray) -> bool:
        """Dual simplex on the working row until every basic variable lies in
        its bounds; False when a row cannot reach its bound, an infeasible
        node."""
        T, m = self.T, self.m
        floor, since = T[m, -1] + TIE_TOL, 0  # the negated value rising above floor is progress
        for it in range(self.cap):
            lo, hi, free = self._bounds(hold)
            beta = T[:m, -1]
            short, over = lo - beta, beta - hi
            miss = np.maximum(short, over)
            if miss.max(initial=0.0) <= FEAS_TOL:
                return True
            bland = it - since >= _STALL_LIMIT
            if bland:
                r = int(np.where(miss > FEAS_TOL, self.basis, T.shape[1]).argmin())
            else:
                r = int(miss.argmax())
            up = short[r] > 0.0
            q = -T[r, :-1] if up else T[r, :-1]
            use = free & (q > FEAS_TOL)
            if not use.any():
                return False
            ratio = np.divide(np.maximum(-T[m, :-1], 0.0), q, out=np.full(len(q), np.inf), where=use)
            ties = ratio <= ratio.min() + TIE_TOL
            k = int(ties.argmax()) if bland else int(np.where(ties, q, 0.0).argmax())
            self._exchange(r, k, lo[r] if up else hi[r])
            if T[m, -1] > floor:
                floor, since = T[m, -1] + TIE_TOL, it + 1
        raise SolverError("simplex iteration cap exceeded")

    def _primal(self, row: int, hold: np.ndarray, tol: float) -> None:
        """Primal simplex on objective row `row` from a basis within its
        bounds: entering reduced costs above tol, largest first, Bland's
        lowest index after _STALL_LIMIT pivots without progress."""
        T, m = self.T, self.m
        floor, since = T[row, -1] - TIE_TOL, 0
        for it in range(self.cap):
            lo, hi, free = self._bounds(hold)
            d = T[row, :-1]
            use = free & (d > tol)
            if not use.any():
                return
            e = int(use.argmax()) if it - since >= _STALL_LIMIT else int(np.where(use, d, -np.inf).argmax())
            col, beta = T[:m, e], T[:m, -1]
            down, rise = col > FEAS_TOL, (col < -FEAS_TOL) & (hi < np.inf)
            t = np.full(m, np.inf)
            t[down] = np.maximum(beta[down] - lo[down], 0.0) / col[down]
            t[rise] = np.maximum(hi[rise] - beta[rise], 0.0) / -col[rise]
            best = t.min(initial=np.inf)
            if self.upper[e] <= best:
                self._flip(e)  # x_e runs to its other bound, no row stops it first
            elif best == np.inf:
                raise SolverError("binary relaxation reported unbounded")
            else:
                r = int(np.where(t <= best + TIE_TOL, self.basis, T.shape[1]).argmin())
                self._exchange(r, e, lo[r] if down[r] else hi[r])
            if T[row, -1] < floor:
                floor, since = T[row, -1] - TIE_TOL, it + 1
        raise SolverError("simplex iteration cap exceeded")

    def solve(self, state: np.ndarray, warm: bool) -> np.ndarray | None:
        """The node's point, or None when it is infeasible. The root and a
        warm node, a child of the node solved last, go on from the tableau
        as it stands; any other node restarts from the root's final tableau,
        each nonbasic held variable moved to its held value."""
        if not warm:
            for now, kept in zip((self.T, self.basis, self.flip), self.kept):
                now[...] = kept
            moved = (state >= 0) & (self.flip[: self.n] != (state == 1))
            moved[self.basis[self.basis < self.n]] = False
            for k in np.flatnonzero(moved):
                self._flip(k)
        hold = np.append(state, np.full(self.m, -1)).astype(float)
        if not self._dual(hold):
            return None
        self._primal(self.m, hold, TIE_TOL)
        self._primal(self.m + 1, hold, FEAS_TOL)
        if self.kept is None:
            self.kept = (self.T.copy(), self.basis.copy(), self.flip.copy())
        v = np.zeros(self.n + self.m)
        v[self.basis] = self.T[: self.m, -1]
        x = np.where(state >= 0, state, np.where(self.flip[: self.n], 1.0 - v[: self.n], v[: self.n]))
        return _checked(self.A, self.is_ge, self.b, x + 0.0)


def solve_lp(p: LinearProgram) -> Solution:
    """Maximize the objective; status is optimal, infeasible or unbounded.

    A stack's solution holds each member's solution alone: statuses, points
    (B, n), values (B,), NaN unless optimal, and duals (B, m). Its status is
    the union's: unbounded if any member is, else optimal if any is, else
    infeasible.
    """
    obj = p.objective.reshape(-1, p.objective.shape[-1])  # (B, n)
    A = p.constraints.reshape(len(obj), *p.constraints.shape[-2:])
    A, is_ge, b, src = _expanded(A, p.relations, p.rhs)
    status, x, prices = _solve_standard(A, is_ge, b, obj)
    statuses = tuple(status)
    # one row sum per member, pairwise over its n entries alone, so a stack
    # member gets the bits it gets alone; + 0.0 clears a -0.0
    value = np.where(status == "optimal", (obj * x).sum(axis=1), math.nan) + 0.0
    # an equality's price is the sum of its <= and >= halves
    duals = np.zeros((len(obj), len(p.relations)))
    np.add.at(duals, (slice(None), src), prices)
    if p.objective.ndim == 2:
        union = next((s for s in ("unbounded", "optimal") if s in statuses), "infeasible")
        return Solution(union, x, value, duals, statuses)
    if statuses[0] != "optimal":
        return Solution(statuses[0])
    return Solution("optimal", x[0], float(value[0]), duals[0])


# ---------------------------------------------------------------------------
# Branch and bound for binary programs


def _relax_node(
    A: np.ndarray, is_ge: np.ndarray, b: np.ndarray, obj: np.ndarray, state: np.ndarray
) -> np.ndarray | None:
    """The point maximizing obj . x over the node's relaxation, obj with no
    positive entry, checked against every row and the box, or None if it is
    infeasible. state[j] is x_j's fixed value, or -1 while x_j is free in
    [0, 1]. Fixed columns move into the rhs and drop out; so does every row
    all points of the free box satisfy. A row no point of the box meets
    makes the node infeasible without an LP, which checks a node with no
    free variable directly.

    The LP over the free variables, the kept rows followed by one row
    x_j <= 1 per free variable, is solved through its dual: with every row
    in <= form, signs s (-1 on >= rows), maximize -(s b) . u subject to
    -(s A)^T u <= -obj, u >= 0, whose rhs is non-negative, so it starts from
    its slack basis with no phase 1. Its row prices are the point, and an
    unbounded dual is an infeasible node."""
    free = state < 0
    x = np.maximum(state, 0).astype(float)
    b = b - A[:, ~free] @ x[~free]
    A = A[:, free]
    low, high = np.minimum(A, 0.0).sum(axis=1), np.maximum(A, 0.0).sum(axis=1)
    if np.any(np.where(is_ge, high < b - FEAS_TOL, low > b + FEAS_TOL)):
        return None
    if not free.any():
        return x
    keep = np.where(is_ge, low < b, high > b)
    obj = obj[free]
    A = np.vstack([A[keep], np.eye(len(obj))])
    is_ge, b = np.append(is_ge[keep], np.zeros(len(obj), dtype=bool)), np.append(b[keep], np.ones(len(obj)))
    minus_s = np.where(is_ge, 1.0, -1.0)
    status, _, y = _solve_standard(
        (A.T * minus_s)[None], np.zeros(len(obj), dtype=bool), -obj, (b * minus_s)[None]
    )
    if status[0] != "optimal":
        return None
    x[free] = _checked(A, is_ge, b, y[0] + 0.0)  # + 0.0 normalizes negative zeros
    return x


def solve_bilp(
    p: BinaryProgram, objective_range: tuple[float, float] | None = None, *, live=None
) -> Solution:
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
    and "infeasible" means none within the range (so lo > hi admits none).
    Neither changes a solution that lies within the range. A NaN bound is
    rejected with ValueError.

    live(state), when given, is called on each node before its LP, state[j]
    being x_j's fixed value or -1 while x_j is free; False drops the node
    and its subtree with no LP. It may return False only where no binary
    point that agrees with the node's fixed values satisfies p within
    objective_range. Such a subtree never yields an incumbent, and the order
    of the other nodes comes from their LPs alone, so on _relax_node nodes
    the Solution keeps its bits; on _BoxTableau nodes, whose restarts depend
    on the node solved last, it keeps its value.

    A node's LP is a _relax_node solve, with a cap row per free variable,
    when the maximized objective has no positive entry, and a _BoxTableau
    node, with no cap row, otherwise (see the module docstring); either kind
    is pruned on its bound once its LP is solved.
    """
    obj = p.objective
    internal = obj if p.sense == "max" else -obj
    integral_obj = bool(np.all(internal == np.round(internal)))
    A, is_ge, b, _ = _expanded(p.constraints, p.relations, p.rhs)
    lo, hi = (-math.inf, math.inf) if objective_range is None else objective_range
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError("objective_range bound is NaN")
    # in the maximized objective: none wanted below worst, none above best
    worst, best = (lo, hi) if p.sense == "max" else (-hi, -lo)

    incumbent: np.ndarray | None = None
    incumbent_val = -math.inf
    # nodes the maximized objective can gain on are _BoxTableau nodes, the
    # rest (every DCS program) go through _relax_node
    box = _BoxTableau(A, is_ge, b, internal) if (internal > 0).any() else None
    stack = [(np.full(len(obj), -1, dtype=np.int8), 0)]  # each node with its parent's serial
    solved = 0  # nodes solved; the last one's serial
    root = True
    while stack:
        state, parent = stack.pop()
        if live is not None and not live(state):
            continue  # not solved: the next node's warm start is as before
        if box is None:
            x = _relax_node(A, is_ge, b, internal, state)
        else:
            x = box.solve(state, warm=parent == solved)
        solved += 1
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
            stack.append((child, solved))

    if incumbent is None:
        return Solution("infeasible")
    value = float(np.dot(obj, incumbent))
    return Solution("optimal", incumbent, value)
