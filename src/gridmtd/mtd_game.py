"""Sensor-activation game between the grid operator and an attacker.

The defender commits to a probability mix over the disjoint code sets of a
configuration; the attacker observes the mix and knocks out one sensor site.
Payoffs follow residual identifiability: the defender collects the utility of
every transformer still uniquely identified, the attacker collects the rest
minus the attack cost. The optimal commitment is found by one LP per attacker
action, each with one row per maximal action and no phase 1; a presolve
drops the LPs whose only point is x = 0, and the rest of a call's LPs, all
defender counts together, run in one sequence of stacks of at most
_STACK_BYTES of tableau (solve_sse); run_trials hands solve_sse as many
trials as fit that budget in the bytes it holds per game (_game_bytes), so
memory is bounded by it.
Which transformers stay identified under each attack is found once per
(graph, configuration); build_game sums only the payoffs per utility draw.

Tolerances follow the policy stated in optim: the presolve fixes a variable
only on an entry below -FEAS_TOL, the smallest entry the simplex pivots on,
and each LP it drops has x = 0 as its only point; maximality compares
exactly, so each row it drops is implied by a kept one; among equilibrium
or best-response values within TIE_TOL of the best, the lowest index wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from gridmtd.diverse_mdcs import ConfigurationSet
from gridmtd.graph_core import BipartiteGraph, CodeSet
from gridmtd.optim import FEAS_TOL, TIE_TOL, LinearProgram, SolverError, solve_lp

__all__ = [
    "UtilityProfile",
    "GameMatrix",
    "SseSolution",
    "TrialReport",
    "defender_payoff",
    "attacker_payoff",
    "build_game",
    "solve_sse",
    "best_response",
    "urs_value",
    "run_trials",
    "random_profile",
    "format_value",
]

UTILITY_RANGE = (0.0, 10.0)
_STACK_BYTES = 320 * 1024  # simplex tableau bytes per SSE stack, and per solve_sse call of run_trials


@dataclass(frozen=True)
class UtilityProfile:
    """Transformer importance and per-site attack cost, both on [0, 10]."""

    transformer_utility: Mapping[str, float]
    attack_cost: Mapping[str, float]

    def __post_init__(self):
        lo, hi = UTILITY_RANGE
        for name, table in (
            ("transformer utility", self.transformer_utility),
            ("attack cost", self.attack_cost),
        ):
            for key, v in table.items():
                if not lo <= v <= hi:
                    raise ValueError(f"{name} for {key!r} is {v}, outside [{lo}, {hi}]")


@dataclass(frozen=True)
class GameMatrix:
    """Defender rows are code sets of the configuration; attacker columns are
    the sensor sites used by any of them."""

    defender_actions: tuple[CodeSet, ...]
    attacker_actions: tuple[str, ...]
    defender_payoffs: np.ndarray  # (K, A)
    attacker_payoffs: np.ndarray  # (K, A)

    @property
    def n_defender(self) -> int:
        return len(self.defender_actions)

    @property
    def n_attacker(self) -> int:
        return len(self.attacker_actions)

    def __post_init__(self):
        shape = (self.n_defender, self.n_attacker)
        for name, payoffs in (("defender", self.defender_payoffs), ("attacker", self.attacker_payoffs)):
            if np.shape(payoffs) != shape:
                raise ValueError(f"{name} payoffs have shape {np.shape(payoffs)}, not {shape}")
            if not np.isfinite(payoffs).all():
                raise ValueError(f"{name} payoffs contain NaN or infinite entries")


@dataclass(frozen=True)
class SseSolution:
    defender_mix: np.ndarray
    attacker_response: int  # index into attacker_actions
    defender_value: float
    attacker_value: float


def _identified(
    g: BipartiteGraph, sets: Sequence[frozenset[int]], attacked: Sequence[int]
) -> np.ndarray:
    """(K, A, |T|) booleans: transformer t keeps a non-empty code that no other
    transformer shares once site attacked[j] is removed from sets[k].

    Each set's codes are compared once, with each other and with the empty
    code, as (K, |T|, |T| + 1) Hamming distances over the sites in play.
    Removing a site makes two codes equal exactly when they are already
    equal or differ in that site alone, so t loses attack j when a partner
    is at distance 0, or at distance 1 and differs from t at attacked[j]."""
    cols = np.array(sorted(set(attacked).union(*sets)), dtype=int)
    heard = np.array([[s in nb for s in cols] for nb in g.adj], dtype=float)
    member = np.array([[s in st for s in cols] for st in sets], dtype=float)
    codes = np.concatenate([heard * member[:, None], np.zeros((len(sets), 1, len(cols)))], axis=1)
    size = codes.sum(axis=2)
    dist = size[:, :-1, None] + size[:, None] - 2 * codes[:, :-1] @ codes.swapaxes(1, 2)
    at = codes[:, :, np.searchsorted(cols, attacked)]  # (K, |T| + 1, A): each code's bit at each attacked site
    one = (dist == 1).astype(float)
    # partners one site away from t that hold site j; those that differ from t
    # at j are these where t lacks j, the other ones where t holds it
    holding = one @ at
    apart = np.where(at[:, :-1] > 0, one.sum(axis=2, keepdims=True) - holding, holding)
    lost = ((dist == 0).sum(axis=2) > 1)[..., None] | (apart > 0)  # t is at distance 0 from itself
    return ~lost.swapaxes(1, 2)


def _sum_by_transformer(flags: np.ndarray, util: np.ndarray) -> np.ndarray:
    """Utility of the flagged transformers, added left to right in transformer
    order so each entry equals the scalar sum over the same transformers. A
    running sum adds in order; numpy's sum adds pairwise along the last axis,
    and along a leading axis too once a single entry is left."""
    if not util.size:
        return np.zeros(flags.shape[:-1])
    return np.where(flags, util, 0.0).cumsum(axis=-1)[..., -1] + 0.0  # + 0.0: as 0.0 + x, no -0.0


def _lookup(table: Mapping[str, float], ids: Sequence[str], what: str) -> np.ndarray:
    """table's values at ids, in order, as floats; a missing id is a ValueError."""
    try:
        return np.fromiter(map(table.__getitem__, ids), float, len(ids))
    except KeyError as e:
        raise ValueError(f"utility profile is missing {what} {e.args[0]!r}") from None


def _pair_payoffs(
    g: BipartiteGraph, active: CodeSet | Iterable[str], attacked: str, u: UtilityProfile
) -> tuple[frozenset[str], float, float]:
    """(active sensors, utility still identified, utility lost) once the
    attacked site is removed from the active set."""
    sensors = active.sensors if isinstance(active, CodeSet) else frozenset(active)
    if attacked not in g.s_index:
        raise ValueError(f"unknown sensor site {attacked!r}")
    flags = _identified(g, [g.site_indices(sensors)], [g.s_index[attacked]])[0, 0]
    util = _lookup(u.transformer_utility, g.t_ids, "transformer")
    kept = _sum_by_transformer(flags, util)
    return sensors, float(kept), float(_sum_by_transformer(~flags, util))


def defender_payoff(
    g: BipartiteGraph,
    active: CodeSet | Iterable[str],
    attacked: str,
    u: UtilityProfile,
) -> float:
    """Total utility of transformers still uniquely identified after the
    attacked site is removed from the active set. A transformer whose residual
    code is empty, or collides with any other residual code, earns nothing."""
    return _pair_payoffs(g, active, attacked, u)[1]


def attacker_payoff(
    g: BipartiteGraph,
    active: CodeSet | Iterable[str],
    attacked: str,
    u: UtilityProfile,
    cost_on_miss: bool = True,
) -> float:
    """Total utility of transformers no longer uniquely identified, minus the
    attack cost. With cost_on_miss=False an attack outside the active set is
    free; by default the cost is spent either way."""
    sensors, _, gained = _pair_payoffs(g, active, attacked, u)
    if not cost_on_miss and attacked not in sensors:
        return gained
    return gained - float(_lookup(u.attack_cost, [attacked], "attack cost for")[0])


@lru_cache(maxsize=8)
def _frame(g: BipartiteGraph, config: ConfigurationSet) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Attacker actions, (2, K, A, |T|) flags of the transformers kept and
    lost (_identified and its negation) and (K, A) hit mask of config on g,
    which no utility draw changes; arrays read-only."""
    site_idx = sorted(g.site_indices(config.all_sites()))
    sets = [g.site_indices(cs.sensors) for cs in config.sets]
    kept = _identified(g, sets, site_idx)
    flags = np.stack([kept, ~kept])
    hit = np.array([[s in st for s in site_idx] for st in sets])
    flags.flags.writeable = hit.flags.writeable = False
    return tuple(g.s_ids[s] for s in site_idx), flags, hit


def build_game(
    g: BipartiteGraph,
    config: ConfigurationSet,
    u: UtilityProfile,
    cost_on_miss: bool = True,
) -> GameMatrix:
    """Payoff matrices over configuration sets x attackable sites.

    Attacker actions are the sites used by any set of the configuration, in
    graph order; disjointness makes that exactly K*l actions.
    """
    util = _lookup(u.transformer_utility, g.t_ids, "transformer")
    attacker_actions, flags, hit = _frame(g, config)
    cost = _lookup(u.attack_cost, attacker_actions, "attack cost for")
    if len(attacker_actions) != config.K * config.l:
        raise ValueError("configuration sets overlap; attacker action count broken")
    dm, lost = _sum_by_transformer(flags, util)
    return GameMatrix(config.sets, attacker_actions, dm, lost - (cost if cost_on_miss else hit * cost))


# ---------------------------------------------------------------------------
# Equilibrium and baseline


def _columns(am: np.ndarray) -> np.ndarray:
    """Maximal mask (G, A) of a stack (G, K, A) of attacker payoffs: no other
    column is >= it in every defender row, of equal columns the lowest-indexed
    one staying. Compares one defender row at a time."""
    G, _, A = am.shape
    geq = np.ones((G, A, A), dtype=bool)  # geq[g, i, j]: column i >= column j
    for row in am.swapaxes(0, 1):
        geq &= row[:, :, None] >= row[:, None, :]
    at = np.arange(A)
    above = geq & (~geq.swapaxes(1, 2) | (at[:, None] < at))  # above it somewhere, or equal and earlier
    return ~above.any(axis=1)


def _zero_only(rows: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Which LPs of a stack of best-response rows r . x >= 0, rows (n, R, K)
    over the variables free (n, K) marks, x >= 0, have x = 0 as their only
    point: a row with no positive entry on the variables still free fixes at
    0 each free one whose entry is below -FEAS_TOL, until nothing changes.
    Below -FEAS_TOL, so no LP goes on an entry the simplex's ratio test does
    not pivot on."""
    neg, pos = rows < -FEAS_TOL, rows > 0.0
    while True:
        tight = ~(pos @ free[:, :, None])  # (n, R, 1): no positive entry on a free variable; boolean products
        fix = free & (tight.swapaxes(1, 2) @ neg)[:, 0]
        if not fix.any():
            return ~free.any(axis=1)
        free = free & ~fix


def _near_best(values: np.ndarray) -> np.ndarray:
    """Which values lie within TIE_TOL of the largest along the last axis;
    NaN, a value that is not a candidate, never does."""
    return values >= np.fmax.reduce(values, axis=-1, keepdims=True) - TIE_TOL


def _lp_bytes(K: int, R: int) -> int:
    """Tableau bytes of one SSE LP over K defender actions with R
    best-response rows: those, the simplex row and the cost row, by K
    variables, R + 1 slacks and the rhs."""
    return (R + 2) * (K + R + 2) * 8


def _game_bytes(K: int, A: int) -> int:
    """Bytes solve_sse holds for a game of K defender and A attacker actions
    besides its one stack at a time, before padding to the call's largest
    shape: the A by A maximality comparison and at most four K by A arrays
    at once (the maximal columns, and both payoffs or each kept LP's two
    payoff columns and mix)."""
    return (A + 4 * K) * A * 8


def solve_sse(games: Sequence[GameMatrix]) -> list[SseSolution]:
    """Strong Stackelberg commitment of each game via one LP per attacker
    action: maximize defender expectation over mixes keeping that action a
    best response; the lowest-indexed feasible action whose value lies
    within TIE_TOL of the best wins.

    The LP of action k keeps only the rows (a_k - a_j) . x >= 0 against the
    maximal actions j (_columns); with x >= 0 a dropped row is implied by
    the row against a maximal action at or above the dropped one in every
    row. The simplex row is 1 . x <= 1 and the objective d - min(d) + 1,
    every entry at least 1, where d is the defender's payoff under k: any
    feasible x other than 0 scales up to 1 . x = 1, which raises that
    objective, so the optimum lies on the simplex, where it is d's, and is
    x = 0 exactly when the LP over the simplex is infeasible. x = 0 meets
    every row, so the LP starts from its slack basis with no phase 1; its
    value is d . x, NaN at x = 0.

    A presolve (_zero_only) finds the LPs whose only point is x = 0, by
    fixings that rows with no positive entry force; each gets value NaN and
    mix 0 without a solve. An action another beats by more than FEAS_TOL in
    every row is one of them: the row against a maximal action at or above
    its beater fixes every variable at once.

    _columns runs once per shape (K, A). The presolve takes the LPs a stack
    at a time; those it keeps, of every game in the call, are solved in one
    run of stacks of at most _STACK_BYTES of tableau (one LP may exceed it),
    each built when solved, so memory stays near _game_bytes per game plus
    one stack. Each LP is padded to the call's largest K with zero columns
    (objective 0, no entry in any row) and to its most maximal actions R
    with rows 0 >= 0. Padding is inert: a zero column's reduced cost stays
    0, so it never enters, and a zero row has no entry above FEAS_TOL, so no
    ratio test or pivot touches it; the slacks keep their order after every
    real column, so no pivot choice changes, and each LP gets the bits it
    gets alone, unpadded.
    """
    shapes, out = {}, [None] * len(games)
    for i, game in enumerate(games):
        if game.n_defender < 1 or game.n_attacker < 1:
            raise ValueError("degenerate game shape")
        shapes.setdefault(game.attacker_payoffs.shape, []).append(i)
    if not shapes:
        return out
    members = [i for ids in shapes.values() for i in ids]  # a game's place in the call
    K, A = (max(shape[n] for shape in shapes) for n in (0, 1))
    # per place, one row per attacker action, zero-padded to (A, K)
    size = (len(members), A, K)
    am, dm, top = np.zeros(size), np.zeros(size), np.zeros(size[:2], bool)
    start = 0
    for (k, a), ids in shapes.items():
        part = slice(start, start + len(ids))
        am[part, :a, :k] = np.stack([games[i].attacker_payoffs.T for i in ids])
        dm[part, :a, :k] = np.stack([games[i].defender_payoffs.T for i in ids])
        top[part, :a] = _columns(am[part, :a, :k].swapaxes(1, 2))
        start += len(ids)
    counts, defenders = top.sum(axis=1), np.array([games[i].n_defender for i in members])
    R = counts.max()
    real, free = np.arange(R) < counts[:, None], np.arange(K) < defenders[:, None]  # (G, R) and (G, K): not padding
    above = np.zeros((len(members), R, K))
    above[real] = am[top]

    def rows(at, col):  # the best-response rows of the LPs of attacker columns col (n, K) in the games at places at
        return np.where(real[at, :, None], col[:, None] - above[at], 0.0)

    step = max(1, _STACK_BYTES // _lp_bytes(K, R))
    actions = np.flatnonzero(np.arange(A) < np.array([games[i].n_attacker for i in members])[:, None])
    lps = np.concatenate([  # place * A + action of each LP the presolve keeps, in order
        c[~_zero_only(rows(c // A, am.reshape(-1, K)[c]), free[c // A])]
        for c in (actions[s : s + step] for s in range(0, actions.size, step))
    ])
    at, action = np.divmod(lps, A)
    am, dm = am[at, action], dm[at, action]  # each LP's attacker and defender columns
    mix = np.empty(am.shape)
    for s in range(0, lps.size, step):
        lp = slice(s, s + step)
        use = free[at[lp]]
        low = np.where(use, dm[lp], np.inf).min(axis=1, keepdims=True)
        sol = solve_lp(LinearProgram(
            np.where(use, dm[lp] - low + 1.0, 0.0),
            np.concatenate([use[:, None] * 1.0, rows(at[lp], am[lp])], axis=1),
            ("<=",) + (">=",) * R,
            np.r_[1.0, np.zeros(R)],
        ))
        if sol.status == "unbounded":
            raise SolverError("an SSE LP is unbounded")
        mix[lp] = sol.assignment
    value = np.full(lps.size, np.nan)  # NaN: the optimum is x = 0
    for k in {shape[0] for shape in shapes}:
        on = mix.any(axis=1) & (defenders[at] == k)
        value[on] = (dm[on, :k] * mix[on, :k]).sum(axis=1)
    table = np.full((len(members), A), np.nan)
    table[at, action] = value
    near = _near_best(table)
    if not near.any(axis=1).all():
        raise SolverError("no attacker action admitted a feasible best-response region")
    best = near.argmax(axis=1)
    won = np.searchsorted(lps, np.arange(len(members)) * A + best)  # each game's winning LP
    for i, j, w in zip(members, best, won):
        x = mix[w, : games[i].n_defender]
        out[i] = SseSolution(x, int(j), float(value[w]), float(np.dot(x, games[i].attacker_payoffs[:, j])))
    return out


def best_response(game: GameMatrix, mix: np.ndarray) -> tuple[int, float, float]:
    """Attacker best response to a defender mix: among the actions whose
    attacker value lies within TIE_TOL of the best, the lowest-indexed one
    whose defender value lies within TIE_TOL of theirs. Returns (action,
    attacker value, defender value)."""
    mix = np.asarray(mix, dtype=float)
    att = mix @ game.attacker_payoffs
    dfd = mix @ game.defender_payoffs
    tied = _near_best(att)
    best_j = int(_near_best(np.where(tied, dfd, np.nan)).argmax())
    return best_j, float(att[best_j]), float(dfd[best_j])


def urs_value(game: GameMatrix) -> float:
    """Defender expectation under the uniform mix, attacker best-responding."""
    mix = np.full(game.n_defender, 1.0 / game.n_defender)
    return best_response(game, mix)[2]


# ---------------------------------------------------------------------------
# Randomized trials


@dataclass(frozen=True)
class TrialReport:
    """Per-trial defender values for the four movement strategies."""

    columns = ("urs_k", "urs_kmax", "sse_k", "sse_kmax")

    values: np.ndarray  # (n_trials, 4)
    seed: int

    @property
    def n_trials(self) -> int:
        return self.values.shape[0]

    def means(self) -> np.ndarray:
        return self.values.mean(axis=0)

    def stds(self) -> np.ndarray:
        if self.n_trials < 2:
            return np.zeros(4)
        return self.values.std(axis=0, ddof=1)

    def to_csv(self) -> str:
        lines = ["trial," + ",".join(self.columns)]
        for i in range(self.n_trials):
            row = ",".join(map(format_value, self.values[i]))
            lines.append(f"{i + 1},{row}")
        lines.append("mean," + ",".join(map(format_value, self.means())))
        lines.append("std," + ",".join(map(format_value, self.stds())))
        return "\n".join(lines) + "\n"


def format_value(v: float) -> str:
    """v at 4 decimals, rounded to 1e-9 first so a half-way value ignores its last bit."""
    return f"{round(float(v), 9):.4f}"


def random_profile(
    g: BipartiteGraph, rng: np.random.Generator, integer_utilities: bool = False
) -> UtilityProfile:
    """Draw transformer utilities then site costs, uniform on [0, 10], in
    graph order so a fixed seed fixes the profile."""
    lo, hi = UTILITY_RANGE
    if integer_utilities:
        t_vals = rng.integers(int(lo), int(hi) + 1, size=g.n_t).astype(float)
        s_vals = rng.integers(int(lo), int(hi) + 1, size=g.n_s).astype(float)
    else:
        t_vals = rng.uniform(lo, hi, size=g.n_t)
        s_vals = rng.uniform(lo, hi, size=g.n_s)
    return UtilityProfile(dict(zip(g.t_ids, t_vals.tolist())), dict(zip(g.s_ids, s_vals.tolist())))


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Sub-seed rule: trial i uses default_rng([seed, i])."""
    return np.random.default_rng([seed, trial])


def run_trials(
    g: BipartiteGraph,
    config_greedy: ConfigurationSet,
    config_opt: ConfigurationSet,
    n_trials: int,
    seed: int,
    cost_on_miss: bool = True,
    integer_utilities: bool = False,
) -> TrialReport:
    """Each trial draws a fresh utility profile and reports the defender value
    of URS and SSE play on the greedy (K) and optimal (K_max) configurations.
    Trials are sub-seeded independently, so results do not depend on execution
    order. Trials' games wait for one solve_sse call while the bytes it holds
    for them (_game_bytes) fit _STACK_BYTES, a trial over it going alone, so
    memory does not grow with n_trials beyond the result rows."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    config_greedy.validate(g)
    config_opt.validate(g)

    rows, games, load = [], [], 0  # load: the bytes solve_sse holds for the games waiting
    for trial in range(n_trials):
        u = random_profile(g, trial_rng(seed, trial), integer_utilities)
        pair = [build_game(g, cfg, u, cost_on_miss) for cfg in (config_greedy, config_opt)]
        need = sum(_game_bytes(*x.attacker_payoffs.shape) for x in pair)
        if games and load + need > _STACK_BYTES:
            rows += _rows(games)
            games, load = [], 0
        games += pair
        load += need
    rows += _rows(games)
    return TrialReport(np.array(rows, dtype=float), seed)


def _rows(games: list[GameMatrix]) -> list[list[float]]:
    """Result rows of trials given as consecutive (greedy, optimal) game
    pairs, the SSE of all of them solved in one call."""
    sse = [s.defender_value for s in solve_sse(games)]
    return [[urs_value(x) for x in games[i : i + 2]] + sse[i : i + 2] for i in range(0, len(games), 2)]
