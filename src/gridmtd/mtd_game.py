"""Sensor-activation game between the grid operator and an attacker.

The defender commits to a probability mix over the disjoint code sets of a
configuration; the attacker observes the mix and knocks out one sensor site.
Payoffs follow residual identifiability: the defender collects the utility of
every transformer still uniquely identified, the attacker collects the rest
minus the attack cost. The optimal commitment is found by one LP per attacker
action that no other action strictly dominates, each with one row per
maximal action and no phase 1; solve_sse takes a sequence of games and
solves the LPs of all of them that share a shape in stacks of at most
_STACK_BYTES of simplex tableau, and run_trials hands it the games of as
many trials at once as fit that budget, so memory is bounded by it.
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
from functools import cached_property, lru_cache
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

    @cached_property  # once per game: run_trials and solve_sse both read it
    def _live(self) -> np.ndarray:
        return _live_columns(self.attacker_payoffs)

    @cached_property
    def _maximal(self) -> np.ndarray:
        return _maximal_columns(self.attacker_payoffs, self._live)


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


def _live_columns(am: np.ndarray) -> np.ndarray:
    """Indices of the attacker columns that no other column beats by more than
    FEAS_TOL in every defender row."""
    beats = (am[:, :, None] - am[:, None, :] > FEAS_TOL).all(axis=0)  # beats[j, jp]
    return np.flatnonzero(~beats.any(axis=0))


def _maximal_columns(am: np.ndarray, live: np.ndarray) -> np.ndarray:
    """The live columns that no other live column is >= in every defender
    row; of equal columns the lowest-indexed one stays. Every other live
    column lies below one of them in every row."""
    a, at = am[:, live], np.arange(live.size)
    geq = (a[:, :, None] >= a[:, None, :]).all(axis=0)  # geq[i, j]: column i >= column j
    beats = geq & (~geq.T | (at[:, None] < at))  # above it somewhere, or equal and earlier
    return live[~beats.any(axis=0)]


def _near_best(values: np.ndarray) -> np.ndarray:
    """Which values lie within TIE_TOL of the largest along the last axis;
    NaN, a value that is not a candidate, never does."""
    return values >= np.fmax.reduce(values, axis=-1, keepdims=True) - TIE_TOL


def _lp_bytes(K: int, R: int) -> int:
    """Tableau bytes of one SSE LP over K defender actions and R maximal
    attacker actions: the simplex row, R best-response rows and the cost row,
    by K variables, R + 1 slacks and the rhs."""
    return (R + 2) * (K + R + 2) * 8


def solve_sse(games: Sequence[GameMatrix]) -> list[SseSolution]:
    """Strong Stackelberg commitment of each game via one LP per attacker
    action: maximize defender expectation over mixes keeping that action a
    best response; the lowest-indexed feasible action whose value lies
    within TIE_TOL of the best wins.

    An action that another beats by more than FEAS_TOL in every defender row
    gets no LP: its LP is infeasible at that tolerance, so it cannot win. The
    LP of each remaining action k keeps only the rows (a_k - a_j) . x >= 0
    against the maximal remaining actions j (_maximal_columns); with x >= 0 a
    dropped row is implied by the row against a maximal action at or above
    the dropped one in every row. The simplex row is 1 . x <= 1 and the
    objective d - min(d) + 1, every entry at least 1, where d is the
    defender's payoff under k: any feasible x other than 0 scales up to
    1 . x = 1, which raises that objective, so the optimum lies on the
    simplex, where it is d's, and is x = 0 exactly when the LP over the
    simplex is infeasible. x = 0 meets every row, so the LP starts from its
    slack basis with no phase 1; its value is d . x.

    The LPs of all games with equal defender and maximal action counts share
    relations and right-hand sides, so they are solved in stacks, in game
    order, each of at most _STACK_BYTES of tableau (a single LP may exceed
    it) and built only when solved; a game's LPs may span stacks, and each
    LP gets the bits it gets alone.
    """
    groups, out = {}, [None] * len(games)
    for i, game in enumerate(games):
        if game.n_defender < 1 or game.n_attacker < 1:
            raise ValueError("degenerate game shape")
        groups.setdefault((game.n_defender, game._maximal.size), []).append(i)
    for (K, R), members in groups.items():
        lives = [games[i]._live for i in members]
        sizes = [live.size for live in lives]
        at = np.repeat(np.arange(len(members)), sizes)  # each LP's game, as a place in members
        cols = np.concatenate([games[i].attacker_payoffs[:, live].T for i, live in zip(members, lives)])
        dm = np.concatenate([games[i].defender_payoffs[:, live].T for i, live in zip(members, lives)])
        top = np.stack([games[i].attacker_payoffs[:, games[i]._maximal].T for i in members])  # (G, R, K)
        mix, step = np.empty(cols.shape), max(1, _STACK_BYTES // _lp_bytes(K, R))
        for start in range(0, len(cols), step):
            lp = slice(start, start + step)
            d = dm[lp]
            sol = solve_lp(LinearProgram(
                d - d.min(axis=1, keepdims=True) + 1.0,
                np.concatenate([np.ones((len(d), 1, K)), cols[lp, None] - top[at[lp]]], axis=1),
                ("<=",) + (">=",) * R,
                np.r_[1.0, np.zeros(R)],
            ))
            if sol.status == "unbounded":
                raise SolverError("an SSE LP is unbounded")
            mix[lp] = sol.assignment
        value = np.where(mix.any(axis=1), (dm * mix).sum(axis=1), np.nan)  # NaN: the optimum is x = 0
        first = np.cumsum(sizes) - sizes  # each game's first LP
        table = np.full((len(members), max(sizes)), np.nan)  # (game, live action), NaN-padded
        table[at, np.arange(len(at)) - first[at]] = value
        near = _near_best(table)
        if not near.any(axis=1).all():
            raise SolverError("no attacker action admitted a feasible best-response region")
        for place, (i, k) in enumerate(zip(members, near.argmax(axis=1))):
            j, x, v = int(lives[place][k]), mix[first[place] + k], value[first[place] + k]
            out[i] = SseSolution(x, j, float(v), float(np.dot(x, games[i].attacker_payoffs[:, j])))
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
    order. Trials' games wait for one solve_sse call while their LPs fit
    _STACK_BYTES of tableau in total (a trial whose LPs alone exceed it goes
    alone), so memory does not grow with n_trials beyond the result rows."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    config_greedy.validate(g)
    config_opt.validate(g)

    rows, games, load = [], [], 0  # load: the LP tableau bytes of the games waiting
    for trial in range(n_trials):
        u = random_profile(g, trial_rng(seed, trial), integer_utilities)
        pair = [build_game(g, cfg, u, cost_on_miss) for cfg in (config_greedy, config_opt)]
        need = sum(x._live.size * _lp_bytes(x.n_defender, x._maximal.size) for x in pair)
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
