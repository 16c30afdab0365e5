"""Sensor-activation game between the grid operator and an attacker.

The defender commits to a probability mix over the disjoint code sets of a
configuration; the attacker observes the mix and knocks out one sensor site.
Payoffs follow residual identifiability: the defender collects the utility of
every transformer still uniquely identified, the attacker collects the rest
minus the attack cost. The optimal commitment is found by one LP per attacker
action that no other action strictly dominates, each with one row per
maximal action and no phase 1, in stacks of at most _STACK_BYTES of tableau
per defender count (solve_sse); run_trials hands solve_sse as many trials
as fit that budget in dominance comparisons, so memory is bounded by it.
Which transformers stay identified under each attack is found once per
(graph, configuration); build_game sums only the payoffs per utility draw.

Tolerances follow the policy stated in optim: dominance uses the LP's
feasibility tolerance FEAS_TOL, since a column another beats by more than
FEAS_TOL in every row already leaves its LP infeasible; maximality compares
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

    Works on the columns of the sites in play only; two codes are equal when
    their sizes and their overlap all agree."""
    cols = np.array(sorted(set(attacked).union(*sets)), dtype=int)
    heard = np.array([[s in nb for s in cols] for nb in g.adj], dtype=float)
    member = np.array([[s in st for s in cols] for st in sets], dtype=bool)
    residual = member[:, None, :] & (cols[None, :] != np.array(attacked)[:, None])
    codes = heard * residual[:, :, None, :]  # (K, A, T, C)
    overlap = codes @ heard.T  # (K, A, T, T)
    size = np.diagonal(overlap, axis1=2, axis2=3)
    same = (overlap == size[..., :, None]) & (size[..., :, None] == size[..., None, :])
    return (size > 0) & (same.sum(axis=3) == 1)


def _sum_by_transformer(flags: np.ndarray, util: np.ndarray) -> np.ndarray:
    """Utility of the flagged transformers, added left to right in transformer
    order so each entry equals the scalar sum over the same transformers. A
    running sum adds in order; numpy's sum adds pairwise along the last axis,
    and along a leading axis too once a single entry is left."""
    if not util.size:
        return np.zeros(flags.shape[:-1])
    return np.where(flags, util, 0.0).cumsum(axis=-1)[..., -1] + 0.0  # + 0.0: as 0.0 + x, no -0.0


def _utility(u: UtilityProfile, t_id: str) -> float:
    try:
        return u.transformer_utility[t_id]
    except KeyError:
        raise ValueError(f"utility profile is missing transformer {t_id!r}") from None


def _cost(u: UtilityProfile, s_id: str) -> float:
    try:
        return u.attack_cost[s_id]
    except KeyError:
        raise ValueError(f"utility profile is missing attack cost for {s_id!r}") from None


def _pair_payoffs(
    g: BipartiteGraph, active: CodeSet | Iterable[str], attacked: str, u: UtilityProfile
) -> tuple[frozenset[str], float, float]:
    """(active sensors, utility still identified, utility lost) once the
    attacked site is removed from the active set."""
    sensors = active.sensors if isinstance(active, CodeSet) else frozenset(active)
    if attacked not in g.s_index:
        raise ValueError(f"unknown sensor site {attacked!r}")
    flags = _identified(g, [g.site_indices(sensors)], [g.s_index[attacked]])[0, 0]
    util = np.array([_utility(u, tid) for tid in g.t_ids])
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
    return gained - _cost(u, attacked)


@lru_cache(maxsize=8)
def _frame(g: BipartiteGraph, config: ConfigurationSet) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Attacker actions, (K, A, |T|) _identified flags and (K, A) hit mask of
    config on g, which no utility draw changes; arrays read-only."""
    site_idx = sorted(g.site_indices(config.all_sites()))
    sets = [g.site_indices(cs.sensors) for cs in config.sets]
    flags = _identified(g, sets, site_idx)
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
    util = np.array([_utility(u, tid) for tid in g.t_ids])
    attacker_actions, flags, hit = _frame(g, config)
    cost = np.array([_cost(u, sid) for sid in attacker_actions])
    if len(attacker_actions) != config.K * config.l:
        raise ValueError("configuration sets overlap; attacker action count broken")
    dm = _sum_by_transformer(flags, util)
    am = _sum_by_transformer(~flags, util) - (cost if cost_on_miss else hit * cost)
    return GameMatrix(config.sets, attacker_actions, dm, am)


# ---------------------------------------------------------------------------
# Equilibrium and baseline


def _columns(am: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(live, maximal) masks (G, A) of a stack (G, K, A) of attacker payoffs,
    from one difference tensor. Live: no other column beats it by more than
    FEAS_TOL in every defender row. Maximal: no other column is >= it in
    every row, of equal columns the lowest-indexed one staying. A column at
    or above a live one is live, and one that is not live lies strictly
    below a live one, so these are also the live columns' maximal ones."""
    diff = am[:, :, :, None] - am[:, :, None, :]  # diff[g, k, i, j]: column i less column j
    beats = (diff > FEAS_TOL).all(axis=1)
    geq = (diff >= 0.0).all(axis=1)  # geq[g, i, j]: column i >= column j
    at = np.arange(am.shape[2])
    above = geq & (~geq.swapaxes(1, 2) | (at[:, None] < at))  # above it somewhere, or equal and earlier
    return ~beats.any(axis=1), ~above.any(axis=1)


def _near_best(values: np.ndarray) -> np.ndarray:
    """Which values lie within TIE_TOL of the largest along the last axis;
    NaN, a value that is not a candidate, never does."""
    return values >= np.fmax.reduce(values, axis=-1, keepdims=True) - TIE_TOL


def _lp_bytes(K: int, R: int) -> int:
    """Tableau bytes of one SSE LP over K defender actions with R
    best-response rows: those, the simplex row and the cost row, by K
    variables, R + 1 slacks and the rhs."""
    return (R + 2) * (K + R + 2) * 8


def solve_sse(games: Sequence[GameMatrix]) -> list[SseSolution]:
    """Strong Stackelberg commitment of each game via one LP per attacker
    action: maximize defender expectation over mixes keeping that action a
    best response; the lowest-indexed feasible action whose value lies
    within TIE_TOL of the best wins.

    An action that another beats by more than FEAS_TOL in every defender row
    gets no LP: its LP is infeasible at that tolerance, so it cannot win. The
    LP of each remaining action k keeps only the rows (a_k - a_j) . x >= 0
    against the maximal actions j (_columns); with x >= 0 a dropped row is
    implied by the row against a maximal action at or above the dropped one
    in every row. The simplex row is 1 . x <= 1 and the objective
    d - min(d) + 1, every entry at least 1, where d is the defender's payoff
    under k: any feasible x other than 0 scales up to 1 . x = 1, which
    raises that objective, so the optimum lies on the simplex, where it is
    d's, and is x = 0 exactly when the LP over the simplex is infeasible.
    x = 0 meets every row, so the LP starts from its slack basis with no
    phase 1; its value is d . x.

    _columns runs once per shape (K, A). The LPs of all games with K defender
    actions are solved in stacks of at most _STACK_BYTES of tableau (one LP
    may exceed it), built when solved, their best-response rows padded with
    rows 0 >= 0 to the most maximal actions R of those games. Padding is
    inert: no entry exceeds FEAS_TOL, so no ratio test or pivot touches it,
    and its slacks follow every real column, so no pivot choice changes; each
    LP gets the bits it gets alone, unpadded, and a game's LPs may span stacks.
    """
    groups, out = {}, [None] * len(games)
    for i, game in enumerate(games):
        if game.n_defender < 1 or game.n_attacker < 1:
            raise ValueError("degenerate game shape")
        groups.setdefault(game.n_defender, {}).setdefault(game.n_attacker, []).append(i)
    for K, shapes in groups.items():
        members, parts = [], []
        for ids in shapes.values():
            am = np.stack([games[i].attacker_payoffs for i in ids])
            dm = np.stack([games[i].defender_payoffs for i in ids])
            live, top = _columns(am)
            at, action = live.nonzero()  # each LP's game, as a place in ids, and attacker action
            am, dm = am.swapaxes(1, 2), dm.swapaxes(1, 2)  # (G, A, K): one row per attacker action
            parts.append((am[live], dm[live], at + len(members), action, am[top], top.sum(axis=1)))
            members += ids
        cols, dm, at, action, tops, counts = (np.concatenate(x) for x in zip(*parts))  # at: a place in members
        R = counts.max()
        real = np.arange(R) < counts[:, None]  # (G, R): not padding
        above = np.zeros((len(members), R, K))
        above[real] = tops
        mix, step = np.empty(cols.shape), max(1, _STACK_BYTES // _lp_bytes(K, R))
        for start in range(0, len(cols), step):
            lp = slice(start, start + step)
            d, rows = dm[lp], np.where(real[at[lp], :, None], cols[lp, None] - above[at[lp]], 0.0)
            sol = solve_lp(LinearProgram(
                d - d.min(axis=1, keepdims=True) + 1.0,
                np.concatenate([np.ones((len(d), 1, K)), rows], axis=1),
                ("<=",) + (">=",) * R,
                np.r_[1.0, np.zeros(R)],
            ))
            if sol.status == "unbounded":
                raise SolverError("an SSE LP is unbounded")
            mix[lp] = sol.assignment
        value = np.where(mix.any(axis=1), (dm * mix).sum(axis=1), np.nan)  # NaN: the optimum is x = 0
        table, mixes = np.full((len(members), max(shapes)), np.nan), np.zeros((len(members), max(shapes), K))
        table[at, action], mixes[at, action] = value, mix  # by (game, attacker action); NaN unless live
        near = _near_best(table)
        if not near.any(axis=1).all():
            raise SolverError("no attacker action admitted a feasible best-response region")
        for place, (i, j) in enumerate(zip(members, near.argmax(axis=1))):
            x, v = mixes[place, j], float(table[place, j])
            out[i] = SseSolution(x, int(j), v, float(np.dot(x, games[i].attacker_payoffs[:, j])))
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
    return UtilityProfile(
        {tid: float(t_vals[i]) for i, tid in enumerate(g.t_ids)},
        {sid: float(s_vals[i]) for i, sid in enumerate(g.s_ids)},
    )


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
    order. Trials' games wait for one solve_sse call while their dominance
    comparisons (K * A * A * 8 bytes a game) fit _STACK_BYTES, a trial over it
    going alone, so memory does not grow with n_trials beyond the result rows."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    config_greedy.validate(g)
    config_opt.validate(g)

    rows, games, load = [], [], 0  # load: the comparison bytes of the games waiting
    for trial in range(n_trials):
        u = random_profile(g, trial_rng(seed, trial), integer_utilities)
        pair = [build_game(g, cfg, u, cost_on_miss) for cfg in (config_greedy, config_opt)]
        need = sum(x.attacker_payoffs.size * x.n_attacker * 8 for x in pair)
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
